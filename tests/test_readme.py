"""The README's examples run and print what the README says they print."""
import contextlib
import io
import json
import math
import pathlib
import re

from steerell import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)


def _json_blocks():
    return [json.loads(body) for lang, body in BLOCKS if lang == "json"]


def _same(got, want, where):
    """Numbers agree to 1e-12; everything else is equal."""
    if isinstance(want, dict):
        for key, value in want.items():
            _same(got[key], value, f"{where}.{key}")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert math.isclose(float(got), want, rel_tol=0.0, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _token(text):
    try:
        return float(text)
    except ValueError:
        return text


def test_python_api_block_prints_what_its_comments_say():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    expected = [line.split("#", 1)[1].split() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(expected) == 4
    for got, want in zip(printed, expected):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            _same(_token(g), _token(w), "print")


def test_analyze_example_reports_what_the_readme_shows(tmp_path, capsys):
    (state,) = [obj for obj in _json_blocks() if "T" in obj]
    (report,) = [obj for obj in _json_blocks() if "classification" in obj]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["analyze", "--state", str(path)]) == 0
    _same(json.loads(capsys.readouterr().out), report, "analyze")
