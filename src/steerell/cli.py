"""Command line interface.

Subcommands:
  analyze         full report for one state: ellipsoid, tangency, margins,
                  classification and probability bounds
  tangency        sphere-contact classification only
  section         plane-section parameters for a given normal
  family-sweep    CSV sweep over a closed-form family
  oracle-compare  randomized cross-check of the margin criterion against the
                  in-plane triangle oracle

Exit codes: 0 success, 1 file or argument errors (argparse usage errors
included), 2 unphysical state, 3 the scenario does not apply (no single
sphere contact, a zero-volume ellipsoid, a pure Alice marginal, b at the
contact point, on the tangent plane there or outside the ellipsoid, or a
`section` plane that does not contain b). All output is deterministic for
fixed inputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import criteria, families, oracle, sampling
from .ellipsoid import SINGLE_TANGENT, plane_section, steering_ellipsoid, tangency
from .errors import (
    BOutsideEllipsoid,
    DegenerateEllipsoid,
    InvalidReducedState,
    NonPhysical,
    NoTangency,
    SteerellError,
)
from .paulicore import state_from_json_dict, state_to_json_dict
from .tolerances import BOUNDARY_BAND, TOL_GEOM

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONPHYSICAL = 2
EXIT_NO_TANGENCY = 3

# the errors that mean the scenario does not apply to a valid state (exit 3)
_NOT_IN_SCENARIO = (NoTangency, DegenerateEllipsoid, InvalidReducedState)


def _write(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {out_path}: {exc}")


def _emit(payload, out_path):
    # numpy arrays and scalars are the only payload values json cannot encode
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    _write(text + "\n", out_path)


def _load_state(path, tol):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {path}: {exc}")
    # ValueError: not UTF-8, not JSON, or an integer longer than int() accepts;
    # RecursionError: nested deeper than the decoder allows
    except (ValueError, RecursionError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid JSON in {path}: {exc}")
    # NonPhysical passes through to main, which exits 2
    try:
        return state_from_json_dict(data, tol=tol)
    # OverflowError: an integer beyond float range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _CliError(EXIT_USAGE, f"bad state file {path}: {exc}")


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _tangency_dict(report):
    return {
        "status": report.status,
        "excess": report.excess,
        "secular_gap": report.secular_gap,
        "point": report.point,
        "axis": report.axis,
        "p_probability": report.p_probability,
    }


def _ellipsoid_dict(ell):
    return {
        "centre": ell.centre,
        "semiaxes": ell.semiaxes,
        "axes": ell.axes,
        "zero_volume": ell.zero_volume,
    }


def cmd_analyze(args):
    state = _load_state(args.state, args.tol)
    payload = {
        "state": state_to_json_dict(state),
        "alice_purity_gap": state.alice_purity_gap(),
    }
    try:
        _analyze(state, args, payload)
    except _NOT_IN_SCENARIO as exc:
        # the scenario does not apply: report what was computed, then exit 3
        payload["error"] = str(exc)
        _emit(payload, args.out)
        raise
    _emit(payload, args.out)
    return EXIT_OK


def _margin_verdict(margins, band):
    """(margin_max, steerable, indeterminate) of the pencil margins: b is
    steerable iff its largest margin is positive, and that sign is rounding
    noise when the margin is within band of 0."""
    margin_max = float(margins.max())
    return margin_max, bool(margin_max > 0.0), bool(abs(margin_max) < band)


def _analyze(state, args, payload):
    ell = steering_ellipsoid(state)
    payload["ellipsoid"] = _ellipsoid_dict(ell)
    report = tangency(ell)
    payload["tangency"] = _tangency_dict(report)
    if report.status != SINGLE_TANGENT:
        raise NoTangency(f"contact classification is {report.status}; margin analysis needs a single contact point")

    p = report.point
    b = state.b
    try:
        result = criteria.analyze(ell, b, p=p, n_planes=args.planes)
    except BOutsideEllipsoid:
        # no chord p q holds b, so there is no p_p to report
        raise
    except InvalidReducedState:
        # b at p, or on the tangent plane there: the pencil is undefined or
        # holds that plane, but p_p is not and is reported
        payload["pure_state_probability"] = criteria.pure_state_probability(ell, p, b)
        raise
    margins = result.locus.margins
    margin_max, steerable, indeterminate = _margin_verdict(margins, args.band)
    bounds_ell, bounds_pencil = result.bounds, result.bounds_pencil
    payload.update(
        {
            "pure_state_probability": result.pure_state_probability,
            "classification": criteria.classify_margins(margins),
            "margin_min": float(margins.min()),
            "margin_max": margin_max,
            "steerable": steerable,
            "indeterminate": indeterminate,
            "p_bounds": {
                "p_min": bounds_ell.p_min,
                "p_max": bounds_ell.p_max,
                "n_planes": bounds_ell.n_planes,
            },
            "p_bounds_pencil": {
                "p_min": bounds_pencil.p_min,
                "p_max": bounds_pencil.p_max,
                "n_planes": bounds_pencil.n_planes,
            },
        }
    )


def cmd_tangency(args):
    state = _load_state(args.state, args.tol)
    ell = steering_ellipsoid(state)
    report = tangency(ell)
    payload = {
        "ellipsoid": _ellipsoid_dict(ell),
        "tangency": _tangency_dict(report),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_section(args):
    state = _load_state(args.state, args.tol)
    ell = steering_ellipsoid(state)
    report = tangency(ell)
    if report.status != SINGLE_TANGENT:
        raise NoTangency(f"contact classification is {report.status}")
    section = plane_section(ell, report.point, args.normal)
    # the plane of a measurement pair holds b; no other plane judges it
    offset = abs(float(section.normal @ (state.b - section.point)))
    if offset > TOL_GEOM:
        raise BOutsideEllipsoid(f"b is not in the plane: it lies {offset:.3e} from it")
    b_local = section.to_plane(state.b)
    verdict = criteria.steerable_in_plane(section, b_local)
    bounds = criteria.p_bounds_in_plane(section)
    payload = {
        "R": section.R,
        "m": section.m,
        "n": section.n,
        "delta": section.delta,
        "point": section.point,
        "normal": section.normal,
        "u_axis": section.u_axis,
        "v_axis": section.v_axis,
        "b_local": b_local,
        "margin": verdict.margin,
        "steerable": verdict.steerable,
        "indeterminate": verdict.indeterminate,
        "h_local": verdict.h_local,
        "plane_p_min": bounds.p_min,
        "plane_p_max": bounds.p_max,
    }
    _emit(payload, args.out)
    return EXIT_OK


class _Family(NamedTuple):
    """A family-sweep family: its grid parameters with their default
    (start, stop, count) grids, which --param may override, the rule that
    admits a grid point, the state at an admitted point, and whether the
    bounds are the pencil's."""

    grids: dict
    admissible: Callable
    state: Callable
    pencil: bool


_FAMILIES = {
    "obese": _Family({"c": (0.0, 0.99, 100)}, lambda c: True, families.obese_state, False),
    "sphere": _Family({"r": (0.05, 0.95, 19)}, lambda r: True, families.tangent_sphere_state, False),
    "spheroid": _Family(
        {"m": (0.2, 0.8, 7), "n": (0.2, 0.8, 7)}, families.spheroid_fits, families.tangent_spheroid_state, False
    ),
    "xstate": _Family(
        {"a": (0.0, 0.6, 4), "b": (0.2, 0.8, 4), "t": (0.1, 0.9, 5)},
        lambda a, b, t: b > a and t * t <= (1.0 + a) * (1.0 - b),
        lambda a, b, t: families.tangent_x_state(a, b, t, -t),
        True,
    ),
}
# the most grid points a family sweep may have: each --param count, and the
# product of the family's grid sizes, defaults included, must stay within it
MAX_SWEEP_POINTS = 100_000


def _parse_params(pairs, family):
    """The family's grids, with the --param overrides in place of the
    defaults."""
    grids = dict(_FAMILIES[family].grids)
    for pair in pairs or []:
        try:
            name, rng = pair.split("=", 1)
            start, stop, count = rng.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if not (math.isfinite(start) and math.isfinite(stop)) or count < 0:
                raise ValueError
        except ValueError:
            raise _CliError(EXIT_USAGE, f"bad --param {pair!r}, expected name=start:stop:count with finite ends")
        if count > MAX_SWEEP_POINTS:
            raise _CliError(EXIT_USAGE, f"bad --param {pair!r}, count above the cap of {MAX_SWEEP_POINTS}")
        if name not in grids:
            raise _CliError(
                EXIT_USAGE,
                f"unknown --param {name!r} for family {family!r}, expected one of: {', '.join(grids)}",
            )
        grids[name] = (start, stop, count)
    points = math.prod(count for _, _, count in grids.values())
    if points > MAX_SWEEP_POINTS:
        raise _CliError(EXIT_USAGE, f"--param grids give {points} grid points, above the cap of {MAX_SWEEP_POINTS}")
    # no grid is built before every count has passed the cap
    return [np.linspace(*grid) for grid in grids.values()]


def _sweep_row(ell, p, b, planes, pencil_bounds):
    result = criteria.analyze(ell, b, p=p, n_planes=planes)
    margin, steerable, indeterminate = _margin_verdict(result.locus.margins, BOUNDARY_BAND)
    # only the bound the row reports is computed
    bounds = result.bounds_pencil if pencil_bounds else result.bounds
    return {
        "steerable": steerable,
        "p_p": result.pure_state_probability,
        "p_min": bounds.p_min,
        "p_max": bounds.p_max,
        "margin": margin,
        "indeterminate": indeterminate,
    }


def _x_forms_agree(a, b, t):
    """Whether the X family's two closed-form criteria agree at 19 section
    azimuths."""
    for theta in np.linspace(0.0, np.pi / 2, 19):
        try:
            families.x_state_steerable(a, b, t, -t, theta)
        except AssertionError:
            return False
    return True


def cmd_family_sweep(args):
    axes = _parse_params(args.param, args.family)
    family = _FAMILIES[args.family]
    names = list(family.grids)
    xstate = args.family == "xstate"
    p = np.array([0.0, 0.0, 1.0])
    rows = []
    for values in itertools.product(*axes):
        if not family.admissible(*values):
            continue
        state = family.state(*values)
        row = dict(zip(names, values))
        row.update(_sweep_row(steering_ellipsoid(state), p, state.b, args.planes, family.pencil))
        if xstate:
            row["forms_agree"] = _x_forms_agree(*values)
        rows.append(row)
    header = names + ["steerable", "p_p", "p_min", "p_max", "margin"]
    header += ["forms_agree", "indeterminate"] if xstate else ["indeterminate"]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row[key]) for key in header])
    _write(buf.getvalue(), args.out)
    return EXIT_OK


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return value


def cmd_oracle_compare(args):
    rng = np.random.default_rng(args.seed)
    band = args.band
    n_band = 0
    n_agree = 0
    n_compared = 0
    n_unsteerable = 0
    n_models_missing = 0
    max_residual = 0.0
    for _ in range(args.n):
        state, ell, report = sampling.random_tangent_state(rng)
        asm = None
        for _ in range(50):
            axis1 = sampling.random_unit_vector(rng)
            try:
                cand = oracle.assemblage_from_state(state, axis1, ell=ell, report=report)
            except SteerellError:
                continue
            if not (0.02 < cand.probs1[0] < 0.98):
                continue
            (x0, y0), (x1, y1) = cand.s_plus1.tolist(), cand.s_minus1.tolist()
            if math.hypot(x0 - x1, y0 - y1) < 0.05:
                continue
            asm = cand
            break
        if asm is None:
            continue
        verdict = criteria.steerable_in_plane(asm.section, asm.b_local)
        if abs(verdict.margin) < band:
            n_band += 1
            continue
        try:
            oracle_verdict = oracle.triangle_criterion(asm)
        except SteerellError:
            n_band += 1
            continue
        n_compared += 1
        if verdict.steerable == oracle_verdict.steerable:
            n_agree += 1
        if not oracle_verdict.steerable:
            n_unsteerable += 1
            model = oracle.triangle_search(asm)
            if model is None:
                n_models_missing += 1
            else:
                max_residual = max(max_residual, model.max_residual)
    payload = {
        "n": args.n,
        "seed": args.seed,
        "band": band,
        "grid": args.grid,  # echoed, though the exact search ignores it
        "n_within_band": n_band,
        "n_compared": n_compared,
        "n_agree": n_agree,
        "agreement": (n_agree / n_compared) if n_compared else None,
        "n_unsteerable": n_unsteerable,
        "n_models_missing": n_models_missing,
        "max_reconstruction_residual": max_residual,
    }
    _emit(payload, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, but exit 2 means an unphysical
    state here; usage errors exit 1, like every other argument error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


def _non_negative(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
    return value


def _normal(text):
    try:
        normal = np.array([float(x) for x in text.split(",")])
    except ValueError:
        normal = None
    if normal is None or normal.shape != (3,):
        raise argparse.ArgumentTypeError(f"must be three comma-separated numbers, got {text!r}")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(normal))
    if not (math.isfinite(norm) and norm > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and nonzero, with a finite length, got {text!r}")
    return normal / norm


def build_parser():
    parser = _Parser(
        prog="steerell",
        description="steering-ellipsoid analysis of two-qubit states in the "
        "two-measurement, one-pure-steered-state scenario",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--state", required=True, help="JSON state file")
        sp.add_argument("--tol", type=_non_negative, default=1e-9, help="positivity tolerance")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")

    sp = sub.add_parser("analyze", help="full steerability report for one state")
    add_common(sp)
    sp.add_argument("--planes", type=_int_at_least(1), default=180, help="pencil resolution")
    sp.add_argument("--band", type=_non_negative, default=BOUNDARY_BAND, help="indeterminate margin band")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("tangency", help="sphere-contact classification")
    add_common(sp)
    sp.set_defaults(func=cmd_tangency)

    sp = sub.add_parser("section", help="plane-section parameters for a normal")
    add_common(sp)
    sp.add_argument("--normal", type=_normal, required=True, help="plane normal as x,y,z")
    sp.set_defaults(func=cmd_section)

    sp = sub.add_parser("family-sweep", help="CSV sweep over a closed-form family")
    sp.add_argument("--family", required=True, choices=list(_FAMILIES))
    sp.add_argument("--param", action="append", help="grid override name=start:stop:count")
    sp.add_argument("--planes", type=_int_at_least(1), default=90, help="pencil resolution per row")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_family_sweep)

    sp = sub.add_parser("oracle-compare", help="randomized margin-vs-triangle cross-check")
    sp.add_argument("--n", type=_int_at_least(0), default=1000, help="number of sampled tangent states")
    sp.add_argument("--seed", type=_int_at_least(0), default=42)
    sp.add_argument("--grid", type=_int_at_least(2), default=2000, help="ignored; the search is exact")
    sp.add_argument("--band", type=_non_negative, default=1e-8, help="margin exclusion band")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_oracle_compare)

    return parser


# built once per process: parse_args keeps no state between calls, and each
# call gets a fresh namespace
_PARSER = build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code
    try:
        return args.func(args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except NonPhysical as exc:
        sys.stderr.write(f"error: unphysical state: {exc}\n")
        return EXIT_NONPHYSICAL
    except _NOT_IN_SCENARIO as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_TANGENCY
    except SteerellError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
