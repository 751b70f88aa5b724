"""gaugelab benchmark: seeded verification workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.json]

Run from the root of a source checkout; the package is imported from
``src/``.  The run

1. writes the workload's seeded model files under ``.perfbench_work/``;
2. verifies them in a closed loop with one client (worker.py), in fresh
   worker processes that share the run's time: two untraced workers with
   ``--trace 0``; with ``--trace 1`` one untraced worker, then one traced
   worker whose spans give the per-layer metrics;
3. times ``setup_s`` before and after the workers: each sample is the
   reference-speed CPU time a fresh interpreter spends until
   ``gaugelab.cli`` is imported (setup_probe.py), and the median counts;
4. checks every verdict against the workload's known answer, and every
   report's sha256 against the first report of the same input, across
   passes and across workers;
5. prints each metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` (wrong verdicts) and the metrics that
   BENCHMARK.json lists for the trace mode.

Every timing is in reference-speed CPU seconds (speedclock.py): the CPU
time of the process doing the work, scaled by the core's speed as measured
on a fixed reference chunk every 20 ms of CPU time.  The program is
single-threaded and CPU-bound, so on an idle core at full speed this is its
wall time.  On a shared host neither wall nor CPU time is steady: other
tenants' load spread a check-defects batch from 4.5 to 7.6 CPU seconds
over five runs, while its scaled ``batch_s`` spread by 1% IQR over ten
(2-core Intel Xeon VM).  Each input is verdicted at least once per
worker; ``batch_s`` is the sum over the workload's inputs of each input's
median verdict time, and ``verdict_s_p50`` the lower median of those, which
is always one input's time, never the mean of two inputs of different size.
Comparisons take medians over runs.

``--out`` also writes every metric, the per-input verdicts and hashes, the
per-input self times of a traced run and the machine to a results file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import INPUT_LIMIT_S

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 10     # before the workers, and again after them
RUN_DEADLINE_S = 150   # the workers run no input after this


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def setup_samples(env: dict) -> list[float]:
    """``setup_s`` samples, each from a fresh interpreter (setup_probe.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env,
                              capture_output=True, text=True, check=True)
        samples.append(float(done.stdout))
    return samples


def run_worker(work: Path, tag: str, env: dict, budget: float, deadline: float,
               trace: bool) -> dict:
    out = work / f"{tag}.json"
    hard_stop = max(deadline - time.perf_counter() - INPUT_LIMIT_S, 0.0)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
                    str(out), f"{budget:.3f}", f"{hard_stop:.3f}", "1" if trace else "0"],
                   env=env, check=True, timeout=hard_stop + INPUT_LIMIT_S + 20)
    with open(out) as f:
        return json.load(f)


def judge(inputs: dict, workers: list[dict]) -> list[str]:
    """One line per wrong verdict: error, report bytes or known answer."""
    ref: dict[str, str] = {}
    for w in workers:
        for v in w["verdicts"]:
            if v["sha256"] is not None:
                ref.setdefault(v["input"], v["sha256"])
    cache: dict[tuple, str | None] = {}
    wrong = []
    for i, w in enumerate(workers):
        for v in w["verdicts"]:
            name = v["input"]
            if v["error"] is not None:
                problem = v["error"]
            elif v["sha256"] is None:
                problem = "no report written"
            elif v["sha256"] != ref[name]:
                problem = "report bytes differ from the first run of this input"
            else:
                key = (name, v["code"], v["sha256"])
                if key not in cache:
                    try:
                        report = json.loads(w["reports"][v["sha256"]])
                        cache[key] = inputs[name].problem(v["code"], report)
                    except (KeyError, TypeError, ValueError) as e:
                        cache[key] = f"malformed report: {type(e).__name__} {e}"
                problem = cache[key]
            if problem is not None:
                wrong.append(f"worker {i} pass {v['pass']} {name}: {problem}")
    return wrong


def verdict_times(workers: list[dict]) -> dict[str, float]:
    """Each input's median verdict time over the workers' runs."""
    times: dict[str, list[float]] = {}
    for w in workers:
        for v in w["verdicts"]:
            if v["ref_s"] is not None:
                times.setdefault(v["input"], []).append(v["ref_s"])
    return {name: statistics.median(t) for name, t in times.items()}


def batch_seconds(workers: list[dict]) -> float:
    return sum(verdict_times(workers).values())


def end_to_end(workers: list[dict], setup: list[float]) -> dict[str, float]:
    return {
        "batch_s": batch_seconds(workers),
        "verdict_s_p50": statistics.median_low(verdict_times(workers).values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(w["peak_rss_kb"] for w in workers) / 1024,
    }


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full results to this file")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gaugelab" / "cli.py").is_file():
        return _fail("no src/gaugelab here; run from the root of a source checkout")
    try:
        with open(root / "BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return _fail(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = workloads.generate(args.workload, args.seed)
        plan = []
        for inp in inputs:
            model, report = work / f"{inp.name}.glm", work / f"{inp.name}.json"
            model.write_text(inp.text)
            plan.append({"name": inp.name, "report": str(report),
                         "argv": [inp.command, "--model", str(model),
                                  "--report", str(report), *inp.flags]})
        (work / "plan.json").write_text(json.dumps(plan))

        setup = setup_samples(env)
        start = time.perf_counter()
        deadline = start + RUN_DEADLINE_S
        first = run_worker(work, "untraced-0", env,
                           args.seconds / (3 if args.trace else 2), deadline, False)
        rest = args.seconds - (time.perf_counter() - start)
        second = run_worker(work, "traced" if args.trace else "untraced-1", env,
                            rest, deadline, bool(args.trace))
        setup += setup_samples(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    workers = [first, second]
    untraced = [first] if args.trace else workers
    wrong = judge({inp.name: inp for inp in inputs}, workers)
    attempted = sum(len(w["verdicts"]) for w in workers)
    metrics = end_to_end(untraced, setup)
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine(), "attempted": attempted,
               "wrong_verdicts": wrong,
               "inputs": {inp.name: {"command": [inp.command, *inp.flags],
                                     "expect": inp.expect} for inp in inputs}}
    if args.trace:
        import tracing
        verdict_pass = [v["pass"] for v in second["verdicts"]]
        metrics.update(tracing.layer_metrics(second["spans"], verdict_pass, len(inputs)))
        metrics["trace.overhead_s"] = batch_seconds([second]) - batch_seconds([first])
        results["self_s_by_input"] = tracing.self_s_by_input(
            second["spans"], [v["input"] for v in second["verdicts"]], verdict_pass)
    for name, entry in results["inputs"].items():
        entry["sha256"] = sorted({v["sha256"] for w in workers for v in w["verdicts"]
                                  if v["input"] == name and v["sha256"]})
        entry["seconds"] = [v["seconds"] for w in untraced for v in w["verdicts"]
                            if v["input"] == name]
        entry["ref_s"] = [v["ref_s"] for w in untraced for v in w["verdicts"]
                          if v["input"] == name]
    results["setup_samples"] = setup

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    results["metrics"] = metrics
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    verdicts = [len(w["verdicts"]) for w in workers]
    print(f"{args.workload} seed {args.seed}: {len(inputs)} inputs, "
          f"verdicts per worker {verdicts}")
    for line in wrong:
        print(f"WRONG {line}")
    print(f"wrong_verdict_share {len(wrong) / attempted:.4f} ratio "
          f"({len(wrong)} of {attempted} attempted)")
    for name, m in shown.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
