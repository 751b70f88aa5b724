"""Command dispatch, exit codes, reports, and byte determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaugelab
from gaugelab import load_model, render_model, zoo_model
from gaugelab.cli import run_command
from support import flip_first_term, rebuild_with_mutation


def test_check_passes_on_zoo_models(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = run_command(["check", "--zoo", "bf:3", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "all checks pass" in out
    payload = json.loads(report.read_text())
    names = [c["name"] for c in payload["checks"]]
    assert "noether-identity[D]" in names
    assert "stage-1-identity[D]" in names
    assert "kt-nilpotency" in names
    assert "extended-lagrangian-closure" in names
    assert "gauge-supersymmetry" in names
    assert "ascent-nilpotency" in names
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_check_reports_are_byte_identical(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert run_command(["check", "--zoo", "bf:2", "--report", str(r1)]) == 0
    assert run_command(["check", "--zoo", "bf:2", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_check_fails_with_witness_on_mutated_model(tmp_path, capsys):
    bad = rebuild_with_mutation(zoo_model("bf:2"), 0, "D", (), flip_first_term)
    model_file = tmp_path / "bad.glm"
    model_file.write_text(render_model(bad))
    report = tmp_path / "r.json"
    code = run_command(["check", "--model", str(model_file), "--report", str(report)])
    assert code == 1
    payload = json.loads(report.read_text())
    failing = [c for c in payload["checks"] if c["status"] == "fail"]
    assert failing
    assert any("witness" in c and c["witness"] for c in failing)


def test_check_from_model_file(tmp_path):
    model_file = tmp_path / "bf3.glm"
    model_file.write_text(render_model(zoo_model("bf:3")))
    assert run_command(["check", "--model", str(model_file)]) == 0


def test_parse_error_exit_code(tmp_path, capsys):
    model_file = tmp_path / "junk.glm"
    model_file.write_text("dim 2\nfield A\nL = A +\n")
    assert run_command(["check", "--model", str(model_file)]) == 2
    err = capsys.readouterr().err
    assert "E-SYNTAX" in err


def test_usage_error_exit_code(capsys):
    assert run_command(["check"]) == 2
    assert run_command(["nonsense"]) == 2


def test_gauge_output(tmp_path, capsys):
    report = tmp_path / "g.json"
    assert run_command(["gauge", "--zoo", "bf:4", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    comps = payload["ascent"]["components"]
    assert payload["ascent"]["ghost_number_delta"] == 1
    assert comps["B[0,1,2]"] == "-c(0)[0,1]_(2) + c(0)[0,2]_(1) - c(0)[1,2]_(0)"
    assert comps["c(1)[0]"] == "-c(2)_(0)"
    out = capsys.readouterr().out
    assert "u(B[0,1,2])" in out


def test_homology_report(tmp_path, capsys):
    report = tmp_path / "h.json"
    code = run_command(["homology", "--zoo", "bf:2", "--sector", "1",
                        "--jet-order", "1", "--poly-degree", "1",
                        "--stage", "-1", "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    entry = payload["homology"][0]
    assert entry["window_relative"] is True
    assert entry["dims"]["homology"] == 1
    assert entry["generators"] == ["sbar(B)[0]_(0) + sbar(B)[1]_(1)"]
    out = capsys.readouterr().out
    assert "window-relative" in out


def test_homology_not_a_complex_is_check_failure(tmp_path):
    bad = rebuild_with_mutation(zoo_model("bf:2"), 0, "D", (), flip_first_term)
    model_file = tmp_path / "bad.glm"
    model_file.write_text(render_model(bad))
    assert run_command(["homology", "--model", str(model_file),
                        "--sector", "1"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--jet-order", "-1"),
    ("--poly-degree", "0"),
    ("--sector", "-1"),
])
def test_homology_bad_window_is_usage_error(flag, value, capsys):
    assert run_command(["homology", "--zoo", "bf:2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _run_python(*args):
    src = str(Path(gaugelab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    r = _run_python("-m", "gaugelab", "zoo", "bf:2")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("dim 2\n")
    r = _run_python("-c", "import sys, gaugelab.cli; "
                          "sys.exit('gaugelab.__main__' in sys.modules)")
    assert r.returncode == 0


def test_zoo_command_output_parses(capsys):
    assert run_command(["zoo", "bf:3"]) == 0
    text = capsys.readouterr().out
    m, diags = load_model(text, name="bf:3")
    assert not diags
    assert m == zoo_model("bf:3")


def test_zoo_unknown_model(capsys):
    assert run_command(["zoo", "wat"]) == 2


def test_check_passes_on_every_zoo_model():
    for spec in ("bf:2", "bf:3", "bf:4", "trivial", "scalar:2"):
        assert run_command(["check", "--zoo", spec]) == 0
