"""Benchmark smoke check: a short traced run of every workload.

    python3 scripts/bench_smoke.py

Run from anywhere in a source checkout.  For each workload that
BENCHMARK.json lists it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace 1 --out F

and fails unless the run prints ``"correct": true`` and every input's report
sha256 in F equals the one in ``perfbench/baseline/W-seed1-trace0.json``.
``run.py`` exits 0 even when a verdict is wrong, so its exit code alone
proves little.  The traced run also fails when a function the tracer wraps
has been renamed or deleted.  Exit 0 when every workload passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 5


def check(workload: str, out: Path) -> list[str]:
    """Problems of one smoke run of the workload; [] when it passes."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        return [f"run.py exited {done.returncode}: {done.stderr.strip()[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    problems = [line for line in lines if line.startswith("WRONG ")]
    if summary.get("correct") is not True:
        problems.append(f"run.py did not report correct: true ({lines[-1] if lines else ''})")
    baseline = json.loads((ROOT / "perfbench" / "baseline"
                           / f"{workload}-seed{SEED}-trace0.json").read_text())
    got = json.loads(out.read_text())["inputs"]
    want = baseline["inputs"]
    if sorted(got) != sorted(want):
        problems.append(f"inputs {sorted(got)} differ from the baseline's {sorted(want)}")
    for name in sorted(set(got) & set(want)):
        if got[name]["sha256"] != want[name]["sha256"]:
            problems.append(f"{name}: report sha256 {got[name]['sha256']} differs from "
                            f"the baseline's {want[name]['sha256']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for w in spec["workloads"]:
            problems = check(w["name"], Path(tmp) / f"{w['name']}.json")
            print(f"{w['name']}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
