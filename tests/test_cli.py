"""End-to-end CLI behaviour through in-process main()."""
import csv
import io
import json

import numpy as np
import pytest

from steerell import (
    cli,
    criteria,
    ellipsoid_from_geometry,
    families,
    kernels,
    sampling,
    state_to_json_dict,
    steering_ellipsoid,
)


def _write_state(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def obese_file(tmp_path):
    state = families.obese_state(0.5)
    return _write_state(tmp_path / "obese.json", state_to_json_dict(state))


@pytest.fixture
def bell_file(tmp_path):
    obj = {
        "a": [0.0, 0.0, 0.0],
        "b": [0.0, 0.0, 0.0],
        "T": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
    }
    return _write_state(tmp_path / "bell.json", obj)


@pytest.fixture
def nonphysical_file(tmp_path):
    obj = {
        "a": [0.0, 0.0, 0.2],
        "b": [0.0, 0.0, 0.5],
        "T": [[0.6, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.7]],
    }
    return _write_state(tmp_path / "badx.json", obj)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_good_state(capsys, obese_file):
    code, out, _err = _run(capsys, ["analyze", "--state", obese_file, "--planes", "60"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tangency"]["status"] == "SingleTangent"
    assert payload["classification"] == "AllInside"
    assert payload["steerable"] is True
    assert payload["pure_state_probability"] == pytest.approx(0.5, abs=1e-9)
    assert payload["margin_min"] == pytest.approx(0.25, abs=1e-9)
    assert payload["p_bounds"]["p_min"] == pytest.approx(0.0, abs=1e-9)
    assert payload["p_bounds"]["p_max"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert payload["p_bounds_pencil"]["p_min"] <= payload["pure_state_probability"]


def test_analyze_is_deterministic(capsys, obese_file):
    code1, out1, _ = _run(capsys, ["analyze", "--state", obese_file, "--planes", "48"])
    code2, out2, _ = _run(capsys, ["analyze", "--state", obese_file, "--planes", "48"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_out_file(capsys, tmp_path, obese_file):
    target = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["analyze", "--state", obese_file, "--planes", "48", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    code2, out2, _ = _run(capsys, ["analyze", "--state", obese_file, "--planes", "48"])
    assert target.read_text() == out2


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, out, err = _run(capsys, ["analyze", "--state", str(tmp_path / "absent.json")])
    assert code == 1
    assert out == ""
    assert "cannot read" in err


def test_invalid_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _out, err = _run(capsys, ["analyze", "--state", str(bad)])
    assert code == 1
    assert "invalid JSON" in err


def test_bad_shape_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps({"a": [1.0, 2.0], "b": [0, 0, 0], "T": [[0] * 3] * 3}))
    code, _out, err = _run(capsys, ["analyze", "--state", str(bad)])
    assert code == 1
    assert "bad state file" in err


def test_nonphysical_state_exit_code(capsys, nonphysical_file):
    line = "error: unphysical state: state is not positive semidefinite (min eigenvalue -1.860e-01)\n"
    for argv in (["analyze"], ["tangency"], ["section", "--normal", "0,1,0"]):
        code, out, err = _run(capsys, argv + ["--state", nonphysical_file])
        assert (code, out, err) == (2, "", line)


def test_analyze_degenerate_contact(capsys, bell_file):
    code, out, _err = _run(capsys, ["analyze", "--state", bell_file])
    assert code == 3
    payload = json.loads(out)
    assert payload["tangency"]["status"] == "Degenerate"
    assert "error" in payload
    assert "steerable" not in payload


@pytest.mark.parametrize(
    "obj",
    [
        # product state: the ellipsoid collapses to the point b
        {"a": [0.0, 0.0, 0.0], "b": [0.0, 0.0, 0.5], "T": [[0.0] * 3] * 3},
        # pure Alice marginal: no steering ellipsoid exists
        {"a": [0.0, 0.0, 1.0], "b": [0.0, 0.0, 0.0], "T": [[0.0] * 3] * 3},
    ],
    ids=["product", "pure_alice"],
)
def test_valid_state_outside_scenario_exit_code(capsys, tmp_path, obj):
    code, out, err = _run(capsys, ["analyze", "--state", _write_state(tmp_path / "s.json", obj)])
    assert code == 3
    assert "error" in err
    payload = json.loads(out)
    assert payload["state"] == obj
    assert payload["error"] in err
    assert "steerable" not in payload


def test_analyze_with_b_at_the_contact_point_reports_p_p_and_exits_3(capsys, monkeypatch, tmp_path):
    # b on the sphere makes a product state, whose ellipsoid collapses, so
    # the sphere of radius 0.4 touching at +z stands in for it, with
    # b = p = +z: the pencil through p and b is undefined, p_p = 1 is not.
    # With b = (0, 0, 0.1), below the sphere, b is outside the ellipsoid:
    # exit 3 too (it was 1), with no p_p and one contact check, not two
    sphere = ellipsoid_from_geometry([0.0, 0.0, 0.6], [0.4, 0.4, 0.4])
    monkeypatch.setattr(cli, "steering_ellipsoid", lambda state: sphere)
    checks = []
    original = criteria.check_on_both_surfaces
    monkeypatch.setattr(criteria, "check_on_both_surfaces", lambda *args: checks.append(1) or original(*args))
    for bz, reason, n_checks in ((1.0, "coincides with the contact point", 2), (0.1, "b is outside the ellipsoid", 1)):
        checks.clear()
        obj = {"a": [0.0, 0.0, 0.0], "b": [0.0, 0.0, bz], "T": [[0.0] * 3] * 3}
        code, out, err = _run(capsys, ["analyze", "--state", _write_state(tmp_path / "s.json", obj)])
        assert code == 3
        payload = json.loads(out)
        assert reason in payload["error"]
        assert err == f"error: {payload['error']}\n"
        assert "steerable" not in payload
        assert payload.get("pure_state_probability") == (1.0 if bz == 1.0 else None)
        assert len(checks) == n_checks


def test_analyze_with_b_on_the_tangent_plane_reports_p_p_and_exits_3(capsys, monkeypatch, tmp_path):
    # the sphere of radius 0.4 touching at +z stands in for the ellipsoid, as
    # above. b = p + (1e-5, 0, 0) is within TOL_GEOM of its surface, so p_p
    # is 0, and the pencil through p and b holds the tangent plane at p:
    # exit 3 with p_p, where the DegeneratePlane of the locus exited 1
    sphere = ellipsoid_from_geometry([0.0, 0.0, 0.6], [0.4, 0.4, 0.4])
    monkeypatch.setattr(cli, "steering_ellipsoid", lambda state: sphere)
    obj = {"a": [0.0, 0.0, 0.0], "b": [1e-5, 0.0, 1.0], "T": [[0.0] * 3] * 3}
    code, out, err = _run(capsys, ["analyze", "--state", _write_state(tmp_path / "s.json", obj)])
    assert code == 3
    payload = json.loads(out)
    assert payload["error"].startswith("b is on the tangent plane at the contact point")
    assert err == f"error: {payload['error']}\n"
    assert "steerable" not in payload
    assert payload["pure_state_probability"] == 0.0


# one-row sweeps: a sphere row reports the full-sphere bounds, an X-state
# row the pencil bounds
SPHERE_ROW = ["family-sweep", "--family", "sphere", "--param", "r=0.4:0.4:1"]
XSTATE_ROW = ["family-sweep", "--family", "xstate"] + [
    a for grid in ("a=0:0:1", "b=0.4:0.4:1", "t=0.5:0.5:1") for a in ("--param", grid)
]


def test_analyze_checks_the_contact_once(capsys, monkeypatch, obese_file):
    # the separate probability, locus and bounds calls checked the contact
    # point four times an analyze and three times a sweep row, and an
    # X-state row reduced its pencil twice; a row now reads only the bound
    # it reports, so an X-state row takes no full-sphere bounds. Both bounds
    # are closed forms, so no plane is scanned
    names = (
        (criteria, "check_on_both_surfaces"),
        (kernels, "contact_frame"),
        (kernels, "pencil_planes"),
        (criteria, "_ellipsoid_bounds"),
        (criteria, "_chord_bounds"),
        (kernels, "scan_bounds"),
    )
    calls = dict.fromkeys((name for _, name in names), 0)
    for module, name in names:

        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    for argv, full, pencil in ((["analyze", "--state", obese_file], 1, 1), (SPHERE_ROW, 1, 0), (XSTATE_ROW, 0, 1)):
        calls.update(dict.fromkeys(calls, 0))
        code, out, _err = _run(capsys, argv)
        assert code == 0
        if argv[0] == "family-sweep":
            assert len(out.splitlines()) == 2
        expected = {
            "check_on_both_surfaces": 1,
            "contact_frame": 1,
            "pencil_planes": 1,
            "_ellipsoid_bounds": full,
            "_chord_bounds": pencil,
            "scan_bounds": 0,
        }
        assert calls == expected, argv


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_state_is_usage_error(capsys, tmp_path, bad):
    pauli = {"a": [bad, 0.0, 0.0], "b": [0.0, 0.0, 0.0], "T": [[0.0] * 3] * 3}
    density = {"density_matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
    density["density_matrix"][1][2][0] = bad
    for obj, field in ((pauli, "a has non-finite"), (density, "density_matrix has non-finite")):
        code, out, err = _run(capsys, ["analyze", "--state", _write_state(tmp_path / "s.json", obj)])
        assert code == 1
        assert out == ""
        assert field in err


def test_tangency_command_accepts_any_contact(capsys, bell_file):
    code, out, _err = _run(capsys, ["tangency", "--state", bell_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["tangency"]["status"] == "Degenerate"
    assert payload["ellipsoid"]["semiaxes"] == pytest.approx([1.0, 1.0, 1.0])
    # the contact diagnostics: |x|max - 1 and the secular gap lambda - a_max^2
    assert set(payload["tangency"]) == {"status", "excess", "secular_gap", "point", "axis", "p_probability"}
    assert payload["tangency"]["excess"] == pytest.approx(0.0, abs=1e-12)
    assert payload["tangency"]["secular_gap"] == pytest.approx(0.0, abs=1e-12)


def test_section_command(capsys, obese_file):
    code, out, _err = _run(capsys, ["section", "--state", obese_file, "--normal", "1,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == pytest.approx(1.0, abs=1e-12)
    assert payload["m"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert payload["n"] == pytest.approx(0.5, abs=1e-9)
    assert payload["margin"] == pytest.approx(0.25, abs=1e-9)
    assert payload["steerable"] is True
    assert payload["plane_p_min"] <= payload["plane_p_max"]


def test_section_without_single_contact_exits_3(capsys, tmp_path):
    # a full-rank state's ellipsoid is strictly inside the ball
    state = sampling.random_state(np.random.default_rng(1))
    path = _write_state(tmp_path / "generic.json", state_to_json_dict(state))
    code, out, err = _run(capsys, ["section", "--state", path, "--normal", "0,1,0"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "NoContact" in err


def test_section_judges_b_only_in_a_plane_that_holds_it(capsys, tmp_path):
    # the command projected b onto any plane asked for: with these 50 random
    # normals it printed 27 verdicts for a point that is not b and exited 3
    # on 23 projections outside the section ellipse. A plane through p and
    # b judges b itself
    rng = np.random.default_rng(50)
    path = tmp_path / "s.json"
    for _ in range(50):
        state, _ell, rep = sampling.random_tangent_state(rng)
        _write_state(path, state_to_json_dict(state))
        p, b = rep.point, state.b
        off = rng.normal(size=3)
        off /= np.linalg.norm(off)
        # a plane through p and b, whose normal is orthogonal to b - p
        on = np.cross(b - p, rng.normal(size=3))
        on /= np.linalg.norm(on)
        for normal in (off, on):
            argv = ["section", "--state", str(path), "--normal=" + ",".join(map(repr, normal.tolist()))]
            code, out, err = _run(capsys, argv)
            distance = abs(normal @ (b - p))
            if distance > 1e-9:
                assert (code, out) == (3, "")
                assert err.startswith("error: b is not in the plane: it lies ") and err.endswith(" from it\n")
                assert float(err.split()[-3]) == pytest.approx(distance, rel=1e-3)
                continue
            assert (code, err) == (0, "")
            payload = json.loads(out)
            u, v = (np.array(payload[k]) for k in ("u_axis", "v_axis"))
            np.testing.assert_allclose(p + payload["b_local"][0] * u + payload["b_local"][1] * v, b, atol=1e-12)


def test_section_rejects_bad_normal(capsys, obese_file):
    code, _out, err = _run(capsys, ["section", "--state", obese_file, "--normal", "1,0"])
    assert code == 1
    assert "--normal" in err
    code2, _out2, err2 = _run(capsys, ["section", "--state", obese_file, "--normal", "0,0,0"])
    assert code2 == 1
    assert "nonzero" in err2
    # the obese ellipsoid touches the sphere at +z: this is its tangent plane
    code3, out3, err3 = _run(capsys, ["section", "--state", obese_file, "--normal", "0,0,1"])
    assert code3 == 1
    assert out3 == ""
    assert err3.startswith("error: ") and "tangent plane" in err3


def test_family_sweep_sphere(capsys):
    code, out, _err = _run(
        capsys,
        ["family-sweep", "--family", "sphere", "--param", "r=0.2:0.8:4", "--planes", "24"],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert [row["steerable"] for row in rows] == ["false", "false", "true", "true"]
    for row in rows:
        r = float(row["r"])
        assert float(row["p_p"]) == pytest.approx(0.5, abs=1e-9)
        assert float(row["p_min"]) == pytest.approx(1.0 - r, abs=1e-6)
        assert float(row["p_max"]) == pytest.approx(1.0 - r, abs=1e-6)
        assert row["indeterminate"] == "false"
    # r = 0.5 puts p_p exactly at the threshold 1 - r: the margin is rounding
    # noise, and the row says so
    code, out, _err = _run(
        capsys,
        ["family-sweep", "--family", "sphere", "--param", "r=0.5:0.5:1", "--planes", "24"],
    )
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["indeterminate"] == "true"


def test_family_sweep_keeps_the_marginal_spheroid(capsys):
    # n = sqrt(0.201) squares to just above 0.201; the spheroid constructors
    # accept it (n^2 <= m + TOL_GEOM), so the sweep must not drop its row
    argv = ["family-sweep", "--family", "spheroid", "--planes", "12"]
    argv += ["--param", "m=0.201:0.201:1", "--param", "n=0.4483302354291979:0.4483302354291979:1"]
    code, out, _err = _run(capsys, argv)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    lo, hi = families.spheroid_p_bounds(0.201, 0.4483302354291979)
    assert float(row["p_min"]) == pytest.approx(lo, abs=1e-6)
    assert float(row["p_max"]) == pytest.approx(hi, abs=1e-6)


FAMILY_ROWS = {
    "obese": ({"c": 0.5}, families.obese_state(0.5), False),
    "sphere": ({"r": 0.4}, families.tangent_sphere_state(0.4), False),
    "spheroid": ({"m": 0.5, "n": 0.4}, families.tangent_spheroid_state(0.5, 0.4), False),
    "xstate": ({"a": 0.0, "b": 0.4, "t": 0.5}, families.tangent_x_state(0.0, 0.4, 0.5, -0.5), True),
}


@pytest.mark.parametrize("family", FAMILY_ROWS)
def test_family_sweep_row_equals_the_separate_calls(capsys, family):
    # a row's cells are what the public calls give one at a time, with the
    # bounds of the family's mode: the pencil's, or the full sphere's
    params, state, pencil = FAMILY_ROWS[family]
    argv = ["family-sweep", "--family", family, "--planes", "12"]
    for name, value in params.items():
        argv += ["--param", f"{name}={value!r}:{value!r}:1"]
    code, out, _err = _run(capsys, argv)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    ell, b, p = steering_ellipsoid(state), state.b, np.array([0.0, 0.0, 1.0])
    if pencil:
        bounds = criteria.p_bounds(ell, p=p, b=b, resolution=(12, 12))
    else:
        bounds = criteria.p_bounds(ell, p=p)
    expected = {
        "p_p": criteria.pure_state_probability(ell, p, b),
        "margin": criteria.locus_of_h(ell, b, p=p, n_planes=12).margins.max(),
        "p_min": bounds.p_min,
        "p_max": bounds.p_max,
    }
    assert {key: row[key] for key in expected} == {key: format(float(v), ".17g") for key, v in expected.items()}


def test_family_sweep_xstate(capsys):
    code, out, _err = _run(
        capsys,
        [
            "family-sweep",
            "--family",
            "xstate",
            "--param",
            "a=0:0:1",
            "--param",
            "b=0.4:0.4:1",
            "--param",
            "t=0.3:0.5:2",
            "--planes",
            "24",
        ],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    # tau^2 against (1-b)(b-a) = 0.24 separates the two correlations
    assert rows[0]["steerable"] == "false"
    assert rows[1]["steerable"] == "true"
    assert all(row["forms_agree"] == "true" for row in rows)


def test_family_sweep_rejects_bad_param(capsys):
    code, _out, err = _run(capsys, ["family-sweep", "--family", "obese", "--param", "c=0:0.5"])
    assert code == 1
    assert "--param" in err


@pytest.mark.parametrize(
    "family, names", [("obese", ["c"]), ("sphere", ["r"]), ("spheroid", ["m", "n"]), ("xstate", ["a", "b", "t"])]
)
def test_family_sweep_rejects_unknown_param_name(capsys, family, names):
    code, out, err = _run(capsys, ["family-sweep", "--family", family, "--param", "x=0:1:3"])
    assert code == 1
    assert out == ""
    assert "'x'" in err
    assert "one of: " + ", ".join(names) in err


@pytest.fixture
def no_rows(monkeypatch):
    """Fail the test if a sweep computes a row."""

    def row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "_sweep_row", row)


CAP_ARGV = {
    # np.linspace would need 8 TB for this grid
    "count": ["--family", "obese", "--param", "c=0:0.9:1000000000000"],
    # the product is 0, but one count alone is above the cap
    "empty": ["--family", "spheroid", "--param", "m=0.5:0.5:0", "--param", "n=0:0.7:1000000000000"],
    # each count is within the cap, their product of 1e9 grid points is not
    "product": ["--family", "xstate"] + [a for n in "abt" for a in ("--param", f"{n}=0.1:0.2:1000")],
    # m's count is within the cap, but not times n's default count of 7
    "default": ["--family", "spheroid", "--param", f"m=0.9:0.9:{cli.MAX_SWEEP_POINTS // 7 + 1}"],
}


@pytest.mark.parametrize("argv", CAP_ARGV.values(), ids=CAP_ARGV)
def test_family_sweep_rejects_grids_above_the_cap(capsys, no_rows, argv):
    code, out, err = _run(capsys, ["family-sweep"] + argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--param" in err


def test_family_sweep_rejects_unknown_family(capsys):
    code, out, err = _run(capsys, ["family-sweep", "--family", "cube"])
    assert code == 1
    assert out == ""
    assert "--family" in err


BAD_OPTION_VALUES = [
    (["analyze", "--planes", "0"], "--planes"),
    (["analyze", "--planes", "-3"], "--planes"),
    (["analyze", "--planes", "abc"], "--planes"),
    (["analyze", "--band", "-1e-9"], "--band"),
    (["analyze", "--band", "nan"], "--band"),
    (["family-sweep", "--family", "sphere", "--planes", "0"], "--planes"),
    (["oracle-compare", "--grid", "0"], "--grid"),
    (["oracle-compare", "--grid", "1"], "--grid"),
    (["oracle-compare", "--n", "-1"], "--n"),
    (["oracle-compare", "--seed", "-1"], "--seed"),
    (["oracle-compare", "--band", "inf"], "--band"),
    (["analyze", "--tol", "nan"], "--tol"),
    (["tangency", "--tol", "inf"], "--tol"),
    (["section", "--normal", "nan,0,1"], "--normal"),
    (["section", "--normal", "1,inf,0"], "--normal"),
    (["section", "--normal", "1e200,0,1"], "--normal"),
]


@pytest.mark.parametrize(
    "argv, option", BAD_OPTION_VALUES, ids=[" ".join(argv) for argv, _ in BAD_OPTION_VALUES]
)
def test_bad_option_values_exit_1_naming_the_option(capsys, obese_file, argv, option):
    if argv[0] in ("analyze", "tangency", "section"):
        argv = argv + ["--state", obese_file]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"argument {option}:" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    code, out, _err = _run(capsys, ["analyze", "--help"])
    assert code == 0
    assert "--planes" in out


def test_oracle_compare_small_run(capsys):
    code, out, _err = _run(
        capsys, ["oracle-compare", "--n", "25", "--seed", "7", "--grid", "500"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_compared"] > 0
    assert payload["agreement"] == 1.0
    assert payload["n_models_missing"] == 0
    assert payload["max_reconstruction_residual"] < 1e-8


def test_oracle_compare_ignores_grid(capsys):
    # the model search is exact, so --grid still parses and is echoed but
    # changes nothing else in the payload
    payloads = []
    for grid in ("2", "2000"):
        code, out, _err = _run(capsys, ["oracle-compare", "--n", "25", "--seed", "7", "--grid", grid])
        assert code == 0
        payloads.append(json.loads(out))
    coarse, fine = payloads
    assert (coarse.pop("grid"), fine.pop("grid")) == (2, 2000)
    assert coarse == fine
    assert coarse["n_unsteerable"] > 0



# oracle-compare --n 30 counts (n_within_band, n_compared, n_agree,
# n_unsteerable, n_models_missing) for seeds 0-19, recorded from the numpy
# implementation of the per-sample chain; the float one must reproduce them
ORACLE_COUNTS = {
    0: (0, 30, 30, 21, 0),
    1: (0, 30, 30, 21, 0),
    2: (0, 30, 30, 18, 0),
    3: (0, 30, 30, 21, 0),
    4: (0, 30, 30, 21, 0),
    5: (0, 30, 30, 21, 0),
    6: (0, 30, 30, 23, 0),
    7: (0, 30, 30, 24, 0),
    8: (0, 30, 30, 24, 0),
    9: (0, 30, 30, 26, 0),
    10: (0, 30, 30, 22, 0),
    11: (0, 30, 30, 22, 0),
    12: (0, 30, 30, 22, 0),
    13: (0, 30, 30, 25, 0),
    14: (0, 30, 30, 21, 0),
    15: (0, 30, 30, 25, 0),
    16: (0, 30, 30, 21, 0),
    17: (0, 30, 30, 19, 0),
    18: (0, 30, 30, 27, 0),
    19: (0, 30, 30, 18, 0),
}


@pytest.mark.parametrize("seed", sorted(ORACLE_COUNTS))
def test_oracle_compare_counts_are_pinned(capsys, seed):
    code, out, _err = _run(capsys, ["oracle-compare", "--n", "30", "--seed", str(seed)])
    assert code == 0
    payload = json.loads(out)
    names = ("n_within_band", "n_compared", "n_agree", "n_unsteerable", "n_models_missing")
    assert tuple(payload[k] for k in names) == ORACLE_COUNTS[seed]
    assert payload["max_reconstruction_residual"] <= 1e-8

def _grid_rows(out, names):
    return [tuple(float(row[name]) for name in names) for row in csv.DictReader(io.StringIO(out))]


def test_consecutive_calls_share_no_state(capsys, obese_file):
    """main parses every call with one parser built at import; no option
    value, appended list or error state may carry over to the next call."""
    analyze = ["analyze", "--state", obese_file, "--planes", "12"]
    code, first, _ = _run(capsys, analyze)
    assert code == 0
    # the full-sphere bounds are in closed form and scan no plane; --planes
    # sets the pencil, whose 12 planes all hold b's chord
    assert json.loads(first)["p_bounds"]["n_planes"] == 0
    assert json.loads(first)["p_bounds_pencil"]["n_planes"] == 12

    # --param appends to a list; a call without it sweeps the default grid
    sweep = ["family-sweep", "--family", "spheroid", "--planes", "4"]
    code, out, _ = _run(capsys, sweep + ["--param", "m=0.5:0.6:2", "--param", "n=0.3:0.3:1"])
    assert code == 0
    assert _grid_rows(out, "mn") == [(0.5, 0.3), (0.6, 0.3)]
    default = [(m, n) for m in np.linspace(0.2, 0.8, 7) for n in np.linspace(0.2, 0.8, 7) if n * n <= m]
    code, out, _ = _run(capsys, sweep)
    assert code == 0
    assert _grid_rows(out, "mn") == default
    code, out, _ = _run(capsys, sweep + ["--param", "n=0.3:0.3:1"])
    assert code == 0
    assert _grid_rows(out, "mn") == [(m, 0.3) for m in np.linspace(0.2, 0.8, 7)]

    # --planes falls back to its default of 180 pencil planes
    code, out, _ = _run(capsys, ["analyze", "--state", obese_file])
    assert code == 0
    assert json.loads(out)["p_bounds"]["n_planes"] == 0
    assert json.loads(out)["p_bounds_pencil"]["n_planes"] == 180

    # a usage error exits 1 through _Parser.error, and leaves the next call
    # free to succeed and the one after to fail the same way
    code, out, err = _run(capsys, ["analyze", "--state", obese_file, "--planes", "0"])
    assert (code, out) == (1, "")
    assert "argument --planes:" in err
    code, _out, err = _run(capsys, ["tangency", "--state", obese_file])
    assert (code, err) == (0, "")
    code, out, err = _run(capsys, ["family-sweep", "--family", "cube"])
    assert (code, out) == (1, "")
    assert "argument --family:" in err

    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert "family-sweep" in out
    code, out, err = _run(capsys, ["tangency", "--state", obese_file])
    assert (code, err) == (0, "")
    assert json.loads(out)["tangency"]["status"] == "SingleTangent"

    code, last, _ = _run(capsys, analyze)
    assert code == 0
    assert last == first


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch, obese_file):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    for _ in range(2):
        code, _out, err = _run(capsys, ["tangency", "--state", obese_file])
        assert (code, err) == (0, "")
