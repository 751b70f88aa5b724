"""Command dispatch, exit codes, reports, and byte determinism."""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugelab
import gaugelab.cli
from gaugelab import load_model, render_model, run_checks, zoo_model
from gaugelab.cli import build_parser, run_command
from support import drop_first_term, flip_first_term, rebuild_with_mutation, rescaled_tower


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


@pytest.mark.parametrize("argv", [["gauge", "--zoo", "scalar:2"],
                                  ["gauge", "--zoo", "bf:3", "--stage", "-1"]], ids=" ".join)
def test_gauge_prints_u_0_when_the_ascent_operator_is_zero(argv, tmp_path, capsys):
    report = tmp_path / "g.json"
    assert run_command([*argv, "--report", str(report)]) == 0
    assert capsys.readouterr().out == "u = 0\n"
    assert json.loads(report.read_text())["ascent"]["components"] == {}


def test_gauge_report_of_a_rescaled_tower_matches_golden(tmp_path):
    # stage factors with different denominators: the ascent operator's
    # common denominator and every component's lowest terms are pinned
    m = rescaled_tower(6, Fraction(3, 4), [Fraction(2, 3), Fraction(-5, 7), Fraction(1, 6),
                                           Fraction(7, 10), Fraction(-9, 11)])
    model_file = tmp_path / "rbf6.glm"
    model_file.write_text(render_model(m))
    report = tmp_path / "r.json"
    assert run_command(["gauge", "--model", str(model_file), "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "a337b625d137d177ff9da4b76cec51671e7bddfdbe189e05609289ecacd0183b"


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


BAD_INPUT = [
    # a stage outside -1..max_stage is rejected before any check runs
    (["check", "--zoo", "bf:3", "--stage", "-3"], "error: "),
    (["check", "--zoo", "bf:3", "--stage", "7"], "error: "),
    (["gauge", "--zoo", "bf:3", "--stage", "-5"], "error: "),
    (["gauge", "--zoo", "bf:3", "--stage", "2"], "error: "),
    (["homology", "--zoo", "bf:3", "--stage", "7"], "error: "),
    (["check", "--model", "{model}", "--stage", "-2"], "error: "),
    # a report that cannot be written is rejected before any work runs
    (["check", "--zoo", "bf:2", "--report", "{unwritable}"], "error: "),
    (["gauge", "--zoo", "bf:2", "--report", "{unwritable}"], "error: "),
    (["homology", "--zoo", "bf:2", "--report", "{unwritable}"], "error: "),
    (["zoo", "bf:2", "--report", "{unwritable}"], "error: "),
    (["check", "--zoo", "bf:2", "--report", "{directory}"], "error: "),
    (["gauge", "--zoo", "bf:2", "--report", "{directory}"], "error: "),
    (["homology", "--zoo", "bf:2", "--report", "{directory}"], "error: "),
    (["zoo", "bf:2", "--report", "{directory}"], "error: "),
    (["check", "--zoo", "bf:2", "--report", "{model}/r.json"], "error: "),
    # ... also when the command's own arguments are bad too
    (["homology", "--zoo", "bf:2", "--sector", "-1", "--report", "{unwritable}"],
     r"error: cannot write report .*missing.r\.json: .* is not a directory$"),
    # a model file that is not UTF-8 text
    (["check", "--model", "{binary_model}"], "error: .*not UTF-8"),
    # the retired option statement is an unknown statement
    (["check", "--model", "{option_model}"],
     r".*:\d+:\d+: E-SYNTAX: unknown statement 'option'"),
    # a zoo size that is not an integer, or too large to build
    (["zoo", "bf:x"], r"error: zoo model 'bf:x': the size .* must be an integer, got 'x'"),
    (["check", "--zoo", "scalar:abc"],
     r"error: zoo model 'scalar:abc': the size .* must be an integer"),
    (["gauge", "--zoo", "bf:"], r"error: unknown zoo model 'bf:'"),
    # ... or that int() reads but that is not plain ASCII digits
    (["check", "--zoo", "bf:1_0"],
     r"error: zoo model 'bf:1_0': the size .* must be an integer, got '1_0'$"),
    (["check", "--zoo", "bf:+3"],
     r"error: zoo model 'bf:\+3': the size .* must be an integer, got '\+3'$"),
    (["zoo", "bf: 2"], r"error: zoo model 'bf: 2': the size .* must be an integer, got ' 2'$"),
    (["gauge", "--zoo", "bf:\u0663"],
     r"error: zoo model 'bf:\u0663': the size .* must be an integer, got '\u0663'$"),
    (["check", "--zoo", "bf:99999999999"],
     r"error: zoo model 'bf:99999999999' is too large to build"),
    (["zoo", "bf:99999999999"], r"error: zoo model 'bf:99999999999' is too large to build"),
    # ... also past 2**63, where building overflows a C size instead
    (["check", "--zoo", "bf:99999999999999999999"],
     r"error: zoo model 'bf:99999999999999999999' is too large to build$"),
    (["zoo", "bf:99999999999999999999"],
     r"error: zoo model 'bf:99999999999999999999' is too large to build$"),
    # a homology window too large to enumerate, rejected by its chain count
    *((["homology", "--zoo", "bf:2", "--jet-order", "0", "--poly-degree", str(p)],
       rf"error: homology window \(jet order 0, degree {p}\) is too large to build$")
      for p in (60, 900, 5000)),
    # ... or with few chains, each too long to enumerate (about 2p chains)
    *((["homology", "--zoo", "scalar:1", "--sector", "0", "--jet-order", "0",
        "--poly-degree", str(p)],
       rf"error: homology window \(jet order 0, degree {p}\) is too large to build$")
      for p in (5000, 99999)),
    # nesting too deep to parse
    (["check", "--model", "{deep_model}"],
     r".*:3:205: E-SYNTAX: expression nested too deeply$"),
    (["check", "--model", "{deep_d_model}"],
     r".*:4:1020: E-SYNTAX: expression nested too deeply$"),
    # a base dimension below 1, and a concrete member index outside 0..dim-1
    (["check", "--model", "{dim0_model}"], r".*:1:1: E-SYNTAX: dim N needs N >= 1$"),
    (["check", "--model", "{range_model}"],
     r".*:4:10: E-IDX-RANGE: index 7 out of range for dim 2$"),
]


@pytest.mark.parametrize("argv, stderr", BAD_INPUT,
                         ids=[" ".join(case[0]) for case in BAD_INPUT])
def test_bad_input_exits_2_with_one_line(argv, stderr, tmp_path, capsys, monkeypatch):
    real_bf_model = gaugelab.zoo.bf_model

    def bf_model(n):
        # what building a huge tower raises, without allocating anything;
        # from 2**63 on the real builder overflows before it allocates
        if 1000 < n < 2**63:
            raise MemoryError
        return real_bf_model(n)

    monkeypatch.setattr(gaugelab.zoo, "bf_model", bf_model)
    model = tmp_path / "bf2.glm"
    model.write_text(render_model(zoo_model("bf:2")))
    option_model = tmp_path / "opt.glm"
    option_model.write_text(render_model(zoo_model("bf:2")) + "option jet-order 1\n")
    binary_model = tmp_path / "binary.glm"
    binary_model.write_bytes(b"\xff\xfedim 2\n")
    deep_model = tmp_path / "deep.glm"
    deep_model.write_text("dim 1\nfield A\nL = " + "(" * 3000 + "A" + ")" * 3000 + "\n")
    deep_d_model = tmp_path / "deep_d.glm"
    deep_d_model.write_text("dim 1\nfield A\nL = A\nstage 0: D[] = "
                            + "d[0](" * 3000 + "sbar(A)" + ")" * 3000 + "\n")
    dim0_model = tmp_path / "dim0.glm"
    dim0_model.write_text("dim 0\nfield A\nL = A\n")
    range_model = tmp_path / "range.glm"
    range_model.write_text("dim 2\nfield A[1]\nL = A[0]*A[1]\nstage 0: D[7] = sbar(A)[0]\n")
    directory = tmp_path / "reports"
    directory.mkdir()
    paths = {"model": model, "option_model": option_model, "binary_model": binary_model,
             "deep_model": deep_model, "deep_d_model": deep_d_model,
             "dim0_model": dim0_model, "range_model": range_model,
             "unwritable": tmp_path / "missing" / "r.json", "directory": directory}
    argv = [a.format(**paths) for a in argv]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and re.match(stderr, lines[0]), captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()
    assert directory.is_dir() and not any(directory.iterdir())
    assert model.read_text() == render_model(zoo_model("bf:2"))


# sha256 of the --report bytes: the canonical form fixes every byte, so a
# different digest means a changed result or a changed rendering
GOLDEN_REPORTS = {
    ("check", "bf:2"): "07c83730faa71c862acdf31dcb5082535a912a66dc071c72a7155975d35a3048",
    ("check", "bf:3"): "8bd4e0cb0123e6c0d08e0770016e2c0fc7d1094da6f8b59d07ec1ac4d1708ba7",
    ("check", "bf:4"): "792e1641ab51703d6a07ae204cbfce69bf3251b711afdef1f9ba358aba1ac119",
    ("check", "bf:5"): "775688016b8a23d61a59ef02efd512eed509b6ce8fad8abee681c7b934e6e9a0",
    ("check", "bf:6"): "bc497198b9c8550c836a279bbe815c2d7b39e8d5c63e7584b9e50b91d9d047be",
    ("check", "bf:7"): "f06cf6f30ca3d459c11e26bc19fb7dee5568a5c874c3b35f15b29efbb38993ec",
    ("check", "bf:8"): "e1ed6946390b559e0119b04c1b995ea92e1adb651baef5b63504a70fabdf50c6",
    ("check", "bf:9"): "032808ad894f5ba62a1ee7cc4b29088d3ebcf9e75f41b2557c9827b95ffa046d",
    ("check", "trivial"): "2d78a62e16c2e0ceec5415cd882332542a7102fdba094b9ab6bb34d00f59fdfc",
    ("check", "scalar:2"): "31452e5f4c51c992755b797edaceced69bcbdcb5eddfb2b678e905e3636adfd0",
    ("gauge", "bf:2"): "fb15874b6d1703c8c1eadb86d98bc61fc55c276fa1bb046be32272e2f153c190",
    ("gauge", "bf:3"): "b141d71bdaeeabd420fc1130eb6691b961b3ba539f0c72631ce565e10b4ffa45",
    ("gauge", "bf:4"): "4eeebfea76204565333cf129a23dfdfd25f2c503f36b72c31bd495d58f39dc7f",
    ("gauge", "bf:5"): "39af887095fe71e4933b35bf0afdbf28016be18d532e6593c8de0ebd91f1ba7b",
    ("gauge", "bf:6"): "96e884ce467c0e8363142f71e87850a77b6cead1134f5603401197bc3f3290eb",
    ("gauge", "bf:7"): "95700c1578fc28e7cb136a56b0e52d3a3eb470339fad5d339d516055ad22dcd7",
    ("gauge", "bf:8"): "20b829421a75d68684d895cab6ca00eb17be3681dca3eb6df4f1ec9e0efba1aa",
    ("gauge", "bf:9"): "90058c6a1fc91e5183d7c04e8960ac632d99340def5d31019bac75a9925ab581",
    ("gauge", "trivial"): "9dfffae1125aa79be1f54036b5f19f9bbaf9068adb602f6e4c878c8ad98e601f",
    ("gauge", "scalar:2"): "7bce611658d1371ce03f051784823802f22eb57383ce3c327937cc2fae0f6e56",
    ("zoo", "bf:2"): "692eff345dcaacf24a8ff2068e77fedf1e916100846610fbed693259ad8dc5a6",
    ("zoo", "bf:3"): "de2bdab0714ba4a4604a91de2f714d8dd15c8fd85317aeb289d4e9841afbdf97",
    ("zoo", "bf:4"): "7213441746e163c1d3ca39018d44a90f3e57702be6f18c09ee42e7486001aeea",
    ("zoo", "bf:5"): "beed61263dd5538d6709d3cf90f2a68fa1eafae549175fb2a85c385769261ce1",
    ("zoo", "trivial"): "cb5c4aa31c8057b6812227de50a4c8c85394aa5492a85d794327bf4c94fc068a",
    ("zoo", "scalar:2"): "a909b4025de993bef7d367af68bcb7d1f16b81d68a5a56355f91a652c1c29615",
    # 33 generators
    ("homology", "bf:2 --sector 1 --jet-order 2 --poly-degree 2 --stage -1"):
        "8a3f8287628394b1e4f99d515894f8c8bd98be8a959f82f37485c578a40c3acc",
    # 4 generators
    ("homology", "bf:3 --sector 2 --jet-order 2 --poly-degree 1 --stage 0"):
        "01ca99152c8d1edbd86c8fc84528590e0a6ab275c1d40ae9cfedcc7c8f7ce25a",
    # 13 generators and in-window boundaries
    ("homology", "bf:3 --sector 2 --jet-order 1 --poly-degree 2 --stage 0"):
        "75bffb61705f80d6f444c74519e3e20ebe146ca75deab450fc7aa3591e43f94c",
    # 21 generators and in-window boundaries
    ("homology", "bf:4 --sector 3 --jet-order 1 --poly-degree 2 --stage 1"):
        "ba4464a26e4d593d07fef1a51846bf75fd57b327d3c14fe3db5be686f98ab50b",
    # 3876 chains, 91 generators and 321 in-window boundaries
    ("homology", "bf:3 --sector 2 --jet-order 1 --poly-degree 3 --stage 0"):
        "ca52935c4b6614d5f5826406a36221fbbc6c9f75fc5338a2c303072e7f1bb332",
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden(command, name, tmp_path, capsys):
    # name is the zoo model, then the command's further options
    model, *options = name.split()
    argv = ["zoo", model] if command == "zoo" else [command, "--zoo", model, *options]
    report = tmp_path / "r.json"
    assert run_command([*argv, "--report", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS[(command, name)]


# (zoo model, stage, components, mutation) -> sha256 of the failing check
# report of the mutant written to bad.glm; the witnesses fix most of the bytes
MUTANT_REPORTS = {
    ("bf:3", 0, (1,), "flip"): "7b9fdf1ac0bf1b2505ef7dd0a37276e95c792cafcc9dd423f7da3dd35685d1d8",
    ("bf:3", 1, (), "flip"): "49a1fa783f66a2bf3ceb98ac6635709f0b1d2799ea039f785947c4e1a71fc705",
    ("bf:3", 0, (2,), "drop"): "702f1cd6490f2d63866cfc90e02f4e6af04b220aaf64ece6a8302d287bf5f6a6",
    ("bf:4", 1, (1,), "drop"): "94cee3c38ee69b22f2494abf5ca80a9a4b01437b36e5bffa5c3bd1799febfa6d",
    ("bf:4", 2, (), "drop"): "f5b56c6d7a254562f624957d2b46378d32c4752c4f86c8422371d092e55b8a16",
}
MUTATIONS = {"flip": flip_first_term, "drop": drop_first_term}


def _mutant(case):
    name, stage, comps, how = case
    return rebuild_with_mutation(zoo_model(name), stage, "D", comps, MUTATIONS[how])


@pytest.mark.parametrize("case", sorted(MUTANT_REPORTS), ids=str)
def test_failing_report_bytes_match_golden(case, tmp_path, capsys):
    model_file = tmp_path / "bad.glm"
    model_file.write_text(render_model(_mutant(case)))
    report = tmp_path / "r.json"
    assert run_command(["check", "--model", str(model_file), "--report", str(report)]) == 1
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == MUTANT_REPORTS[case]
    out = capsys.readouterr().out
    assert out.endswith("some checks FAILED (bad)\n")


@pytest.mark.parametrize("source", ["bf:2", "bf:3", "bf:4", "bf:5", "trivial", "scalar:2",
                                    *sorted(MUTANT_REPORTS)], ids=str)
def test_run_checks_is_the_check_report(source, tmp_path, capsys):
    m = zoo_model(source) if isinstance(source, str) else _mutant(source)
    model_file = tmp_path / "m.glm"
    model_file.write_text(render_model(m))
    report = tmp_path / "r.json"
    code = run_command(["check", "--model", str(model_file), "--report", str(report)])
    checks = json.loads(report.read_text())["checks"]
    results = run_checks(m)
    assert [(r.name, r.ok) for r in results] == \
        [(c["name"], c["status"] == "pass") for c in checks]
    assert [r.witness for r in results] == [c.get("witness") for c in checks]
    assert all(r.witness is None for r in results if r.ok)
    assert code == (0 if all(r.ok for r in results) else 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"{r.name}: {'pass' if r.ok else 'FAIL'}" for r in results]


@pytest.mark.parametrize("command", [["check", "--zoo", "bf:2"], ["gauge", "--zoo", "bf:2"],
                                     ["zoo", "bf:2"]])
def test_report_write_failure_prints_nothing_to_stdout(command, tmp_path, capsys, monkeypatch):
    # a target that passes the early check but fails at write time
    monkeypatch.setattr(gaugelab.cli, "_check_report_target", lambda path: None)
    assert run_command([*command, "--report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _run_python(*args, timeout=60):
    src = str(Path(gaugelab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_python_dash_m_runs_the_cli():
    r = _run_python("-m", "gaugelab", "zoo", "bf:2")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("dim 2\n")
    r = _run_python("-c", "import sys, gaugelab.cli; "
                          "sys.exit('gaugelab.__main__' in sys.modules)")
    assert r.returncode == 0


@pytest.mark.parametrize("degree", [900, 990])
def test_a_window_of_long_chains_exits_alike_at_any_stack_depth(degree, capsys):
    # 2p chains of up to p factors, within the factor cap: the verdict and the
    # output are the same in a fresh process and in one deep in recursion
    argv = ["homology", "--zoo", "scalar:1", "--sector", "0", "--jet-order", "0",
            "--poly-degree", str(degree)]
    fresh = _run_python("-m", "gaugelab", *argv)

    def nested(depth):
        return nested(depth - 1) if depth else run_command(argv)

    code = nested(sys.getrecursionlimit() - 200)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and captured.out.startswith("sector 0: window homology dimension ")


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    assert build_parser() is build_parser()
    first = ["homology", "--zoo", "bf:2", "--stage", "-1", "--sector", "2"]
    plain = ["homology", "--zoo", "bf:2"]
    calls = [(first + ["--report", str(tmp_path / "a.json")], 0),
             (["homology", "--zoo", "bf:2", "--sector", "two"], 2),
             (plain, 0)]
    outs = []
    for argv, code in calls:
        assert run_command(argv) == code
        outs.append(capsys.readouterr().out)
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
    # the options the first call set are back at their defaults
    args = build_parser().parse_args(plain)
    assert (args.stage, args.sector, args.report, args.jet_order, args.poly_degree) == (
        None, 1, None, 1, 1)
    assert outs[1] == ""
    assert outs[2].startswith("sector 1: ")
    # each call prints and writes what a fresh process does
    fresh = _run_python("-m", "gaugelab", *first, "--report", str(tmp_path / "b.json"))
    assert fresh.returncode == 0, fresh.stderr
    assert outs[0] == fresh.stdout
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    fresh = _run_python("-m", "gaugelab", *plain)
    assert fresh.returncode == 0, fresh.stderr
    assert outs[2] == fresh.stdout


@pytest.mark.parametrize("window, line", [
    (["--sector", "100000"], "sector 100000: window homology dimension 0 "
                             "(window-relative; jet order <= 1, degree <= 1)"),
    (["--sector", "1000000", "--jet-order", "0", "--poly-degree", "1"],
     "sector 1000000: window homology dimension 0 "
     "(window-relative; jet order <= 0, degree <= 1)"),
], ids=["sector 100000", "sector 1000000 j0 p1"])
def test_homology_past_the_reachable_sectors_exits_0_at_once(window, line):
    # the chain count stops at the degree bound instead of running up to
    # the sector; the timeout turns a slow count into a failure
    r = _run_python("-m", "gaugelab", "homology", "--zoo", "bf:2", *window, timeout=20)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == line


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


# Each command runs with the cyclic collector paused, which is safe only while
# a command leaves no reference cycle: every object it builds must be freed
# by reference counting.  One stdlib cycle is allowed, named by the module of
# what it holds: argparse's HelpFormatter on a usage error, which holds no
# gaugelab object.  The usage error is an unknown option: on Python 3.10 an
# argument argparse cannot convert leaves a cycle of argparse's own frame
# with its exception, which keeps the frames of its callers, the CLI's among
# them, alive through f_back.  A --report write makes no cycle: the report
# writer is the CLI's own, not json's indenting encoder.
ARGPARSE = "argparse"
ACYCLIC_COMMANDS = [
    (["check", "--zoo", "bf:3", "--report", "{report}"], 0, set()),
    (["check", "--model", "{bad}", "--report", "{report}"], 1, set()),
    (["check", "--model", "{top}", "--report", "{report}"], 1, set()),
    (["gauge", "--zoo", "bf:3"], 0, set()),
    (["homology", "--zoo", "bf:2", "--poly-degree", "2"], 0, set()),
    (["homology", "--zoo", "scalar:1", "--sector", "0"], 0, set()),
    (["homology", "--zoo", "bf:3", "--stage", "-1"], 0, set()),
    (["homology", "--zoo", "bf:2", "--jet-order", "0", "--poly-degree", "60"], 2, set()),
    (["homology", "--zoo", "scalar:1", "--sector", "0", "--jet-order", "0",
      "--poly-degree", "5000"], 2, set()),
    (["zoo", "bf:3"], 0, set()),
    (["check", "--model", "{junk}"], 2, set()),
    (["check", "--zoo", "bf:2", "--frobnicate"], 2, {ARGPARSE}),
]


def _failing_and_unparsable(tmp_path):
    """Model files on which ``check`` exits 1 (``bad``: a stage-0 defect;
    ``top``: a defect at the top stage of bf:4, where the gauge supersymmetry
    still holds) and 2 (``junk``)."""
    paths = {name: tmp_path / f"{name}.glm" for name in ("bad", "top", "junk")}
    paths["bad"].write_text(render_model(
        rebuild_with_mutation(zoo_model("bf:2"), 0, "D", (), flip_first_term)))
    paths["top"].write_text(render_model(
        rebuild_with_mutation(zoo_model("bf:4"), 2, "D", (), flip_first_term)))
    paths["junk"].write_text("dim 2\nfield A\nL = A +\n")
    return paths


def _module(o) -> str:
    """The module a function or frame runs the code of, else the module of
    the object's class."""
    if isinstance(o, types.FunctionType):
        return o.__module__
    if isinstance(o, types.FrameType):
        return o.f_globals["__name__"]
    return type(o).__module__


@pytest.mark.parametrize("argv, code, allowed", ACYCLIC_COMMANDS,
                         ids=[" ".join(case[0]) for case in ACYCLIC_COMMANDS])
def test_a_command_leaves_no_reference_cycle(argv, code, allowed, tmp_path, capsys):
    argv = [a.format(report=tmp_path / "r.json", **_failing_and_unparsable(tmp_path))
            for a in argv]
    # the process's one parser is built on first use, and argparse formats
    # each new option through a HelpFormatter: build it before looking
    build_parser()
    enabled = gc.isenabled()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)      # what a collection finds stays in gc.garbage
    try:
        assert run_command(argv) == code
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    modules = {_module(o) for o in garbage}
    assert not [m for m in modules if m.partition(".")[0] == "gaugelab"], modules
    assert modules <= {"builtins", *allowed}, modules
    if not allowed:
        assert not garbage, garbage[:10]


REPORT_COMMANDS = [
    ["check", "--zoo", "bf:3"],
    ["check", "--model", "{bad}"],
    ["check", "--model", "{top}"],
    ["gauge", "--zoo", "bf:3"],
    ["homology", "--zoo", "bf:2", "--poly-degree", "2"],
    ["homology", "--zoo", "bf:3", "--stage", "-1"],
    ["homology", "--zoo", "bf:2", "--sector", "100000"],
    ["zoo", "bf:3"],
    ["zoo", "trivial"],
]


def test_the_report_writer_matches_json_on_every_command(tmp_path):
    paths = _failing_and_unparsable(tmp_path)
    for argv in REPORT_COMMANDS:
        args = build_parser().parse_args([a.format(**paths) for a in argv])
        _, payload, _ = args.func(args)
        expected = json.dumps(payload, indent=2, sort_keys=True)
        assert gaugelab.cli._report_json(payload) == expected, argv


json_leaves = st.none() | st.booleans() | st.integers() | st.text()


@settings(max_examples=200, deadline=None)
@given(st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=20))
def test_the_report_writer_matches_json_on_nested_payloads(payload):
    assert gaugelab.cli._report_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


class _Interrupt(BaseException):
    """Like the alarm a benchmark worker raises in a command that runs too long."""


def test_a_command_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, capsys):
    paths = _failing_and_unparsable(tmp_path)
    load = gaugelab.cli._load
    seen = []

    def recording_load(args):
        seen.append(gc.isenabled())
        return load(args)

    def interrupted_load(args):
        raise _Interrupt

    monkeypatch.setattr(gaugelab.cli, "_load", recording_load)
    assert gc.isenabled()
    for argv, code in [(["check", "--zoo", "bf:2"], 0), (["check", "--model", str(paths["bad"])], 1),
                       (["check", "--model", str(paths["junk"])], 2)]:
        assert run_command(argv) == code
        assert gc.isenabled()
    assert seen == [False, False, False]
    monkeypatch.setattr(gaugelab.cli, "_load", interrupted_load)
    with pytest.raises(_Interrupt):
        run_command(["gauge", "--zoo", "bf:2"])
    assert gc.isenabled()
    # a caller that paused the collector itself keeps it paused
    gc.disable()
    try:
        assert run_command(["zoo", "bf:2"]) == 0
        assert not gc.isenabled()
        with pytest.raises(_Interrupt):
            run_command(["gauge", "--zoo", "bf:2"])
        assert not gc.isenabled()
    finally:
        gc.enable()
