"""Fuzz of `steerell.cli.main`: every subcommand, fed malformed and valid
option values and state files of every kind, ends in a documented exit code
(0 ok, 1 usage, 2 unphysical, 3 outside the scenario), never an exception.

The examples are derandomized (tests/conftest.py), so the suite runs the
same inputs every time.
`--planes` stays small and grids have at most three points, which keeps the
two fuzz tests to a few seconds. State files that the JSON decoder or the
float conversion rejects run once through every `--state` subcommand.
"""
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steerell import cli, families, sampling, state_to_json_dict

EXIT_CODES = {0, 1, 2, 3}
FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_SPECIAL = [float("nan"), float("inf"), -float("inf"), 1e308, -1e-320, 0.0, 1.0, -1.0]
number = st.one_of(st.floats(-1.5, 1.5), st.sampled_from(_SPECIAL))


def _vec(n):
    return st.lists(number, min_size=n, max_size=n)


def _pauli(a, b, t):
    return {"a": list(a), "b": list(b), "T": [list(row) for row in t]}


def _product(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return _pauli(a, b, np.outer(a, b))


@st.composite
def unit_vectors(draw):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])


family_states = st.one_of(
    st.floats(0.0, 1.0 - 1e-12).map(families.obese_state),
    # r -> 0 and r -> 1 spheres
    st.sampled_from([1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6, 1.0 - 1e-12]).map(families.tangent_sphere_state),
    # flat and needle spheroids (n^2 <= m)
    st.tuples(st.sampled_from([1e-3, 0.04, 0.5, 1.0 - 1e-9]), st.sampled_from([1e-4, 0.01, 0.2]))
    .filter(lambda mn: mn[1] ** 2 <= mn[0])
    .map(lambda mn: families.tangent_spheroid_state(*mn)),
    st.integers(0, 2**32 - 1).map(lambda seed: sampling.random_tangent_state(np.random.default_rng(seed))[0]),
).map(state_to_json_dict)

product_states = st.tuples(unit_vectors(), unit_vectors(), st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda v: _product(v[0] * v[2], v[1] * v[3])
)
# Alice's marginal a is a unit vector, so the state is a product state
pure_alice_states = st.tuples(unit_vectors(), unit_vectors(), st.floats(0.0, 1.0)).map(
    lambda v: _product(v[0], v[1] * v[2])
)
near_pure_alice_states = st.tuples(unit_vectors(), st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12])).map(
    lambda v: _pauli((1.0 - v[1]) * v[0], [0.0, 0.0, 0.0], np.zeros((3, 3)))
)
arbitrary_pauli = st.builds(_pauli, _vec(3), _vec(3), st.lists(_vec(3), min_size=3, max_size=3))
density_files = st.builds(
    lambda entries: {"density_matrix": entries},
    st.one_of(
        st.lists(st.lists(_vec(2), min_size=4, max_size=4), min_size=4, max_size=4),
        st.lists(st.lists(_vec(2), min_size=1, max_size=5), min_size=1, max_size=5),
    ),
)
wrong_shapes = st.one_of(
    st.builds(_pauli, st.lists(number, max_size=4), _vec(3), st.lists(_vec(3), min_size=3, max_size=3)),
    st.builds(_pauli, _vec(3), _vec(3), st.lists(st.lists(number, max_size=4), max_size=4)),
    st.fixed_dictionaries({"a": _vec(3), "b": st.just("zero"), "T": st.just({"x": 1})}),
    st.fixed_dictionaries({"a": _vec(3), "b": _vec(3)}),
    st.sampled_from([[], [1, 2, 3], 3.5, "density_matrix", None, {}]),
)

state_objects = st.one_of(
    family_states,
    product_states,
    pure_alice_states,
    near_pure_alice_states,
    arbitrary_pauli,
    density_files,
    wrong_shapes,
)
state_texts = st.one_of(
    state_objects.map(json.dumps),
    st.sampled_from(["", "{not json", '{"a": [NaN, 0, 0], "b": [0, 0, 0], "T": [[0, 0, 0]]', "[]"]),
)
# files that are not a state even before the state is checked: the decoder or
# the float conversion fails on them
_PAULI_TEXT = '{{"a": [0, 0, 0], "b": [{b}, 0, 0], "T": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}'
HOSTILE_FILES = {
    "not utf-8": b"\xff\xfe{\x00}\x00",
    "nested too deep": b"[" * 100_000,
    "integer beyond float range": _PAULI_TEXT.format(b="9" * 400).encode(),
    "integer beyond int() digit limit": _PAULI_TEXT.format(b="9" * 5000).encode(),
}

planes = st.sampled_from(["1", "2", "3", "4", "6", "0", "-3", "abc", "2.5", ""])
bands = st.sampled_from(["0", "1e-8", "0.5", "-1e-9", "nan", "inf", "x"])
tols = st.sampled_from(["1e-9", "0", "1e-3", "-1", "nan", "inf", "x"])
normals = st.sampled_from(
    ["0,0,1", "1,0,0", "0.3,-0.2,0.9", "0,0,0", "nan,0,1", "1,inf,0", "1,2", "a,b,c", "1e200,0,1", "1e-300,0,0"]
)


def _options(draw, pairs):
    """Each option of `pairs` is left out or given a drawn value."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data())
def test_state_commands_end_in_a_documented_exit_code(workdir, data):
    command = data.draw(st.sampled_from(["analyze", "tangency", "section"]))
    state = workdir / "state.json"
    state.write_text(data.draw(state_texts))
    argv = [command, "--state", str(state)]
    argv += _options(data.draw, [("--tol", tols)])
    if command == "analyze":
        argv += ["--planes", data.draw(planes)] + _options(data.draw, [("--band", bands)])
    elif command == "section":
        argv += ["--normal", data.draw(normals)]
    if data.draw(st.booleans()):
        argv += ["--out", str(workdir / data.draw(st.sampled_from(["out.json", "absent/out.json"])))]

    code, out, err = _main(argv)
    assert code in EXIT_CODES
    if code == 0 and "--out" not in argv:
        json.loads(out)
    if code != 0:
        assert err


@pytest.mark.parametrize("command", ["analyze", "tangency", "section"])
@pytest.mark.parametrize("kind", HOSTILE_FILES)
def test_hostile_state_files_exit_1_naming_the_file(workdir, command, kind):
    state = workdir / "hostile.json"
    state.write_bytes(HOSTILE_FILES[kind])
    argv = [command, "--state", str(state)] + (["--normal", "0,1,0"] if command == "section" else [])
    code, out, err = _main(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert f"invalid JSON in {state}:" in err or f"bad state file {state}:" in err


# family parameters: in range, at or past the edges, and malformed
_VALUES = ["0", "0.2", "0.5", "0.9", "1", "-0.5", "2", "nan", "inf"]
_grid = st.tuples(st.sampled_from(_VALUES), st.sampled_from(_VALUES), st.sampled_from(["1", "2", "3", "0", "-1", "x"]))
_FAMILY_PARAMS = {"obese": "c", "sphere": "r", "spheroid": "mn", "xstate": "abt"}


@FUZZ
@given(data=st.data())
def test_option_commands_end_in_a_documented_exit_code(workdir, data):
    if data.draw(st.booleans()):
        family = data.draw(st.sampled_from(sorted(_FAMILY_PARAMS) + ["cube"]))
        argv = ["family-sweep", "--family", family, "--planes", data.draw(planes)]
        # every default grid is replaced, so that a row count stays small
        for name in _FAMILY_PARAMS.get(family, "c"):
            start, stop, count = data.draw(_grid)
            argv += ["--param", f"{name}={start}:{stop}:{count}"]
        if data.draw(st.booleans()):
            argv += ["--param", data.draw(st.sampled_from(["c=0:1", "q=0:1:2", "=::", "r=0:1:2:3"]))]
    else:
        argv = ["oracle-compare", "--n", data.draw(st.sampled_from(["0", "1", "2", "-1", "x"]))]
        argv += _options(
            data.draw,
            [
                ("--seed", st.sampled_from(["0", "7", "-1", "x"])),
                ("--grid", st.sampled_from(["2", "50", "1", "0", "x"])),
                ("--band", bands),
            ],
        )
    if data.draw(st.booleans()):
        argv += ["--out", str(workdir / data.draw(st.sampled_from(["out.txt", "absent/out.txt"])))]

    code, _out, err = _main(argv)
    assert code in EXIT_CODES
    if code != 0:
        assert err
