"""End-to-end CLI behaviour through in-process main()."""
import csv
import io
import json

import numpy as np
import pytest

from steerell import cli, families, sampling, state_to_json_dict


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
    code, _out, err = _run(capsys, ["analyze", "--state", nonphysical_file])
    assert code == 2
    assert "unphysical" in err


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
