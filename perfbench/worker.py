"""Closed-loop benchmark worker: one client, one thread, a fresh process.

Reads a plan written by run.py, then verifies its inputs through
``gaugelab.cli.run_command`` in the plan's order, pass after pass; the next
input starts only after the previous verdict.  Each verdict is timed twice:
``seconds`` is wall time, which paces the passes, and ``ref_s`` is CPU time
in seconds of a reference-speed core (speedclock.py), which the metrics
use.  The first pass runs every input.  Each later pass runs every input
whose fastest wall time so far still fits in the time budget, and the
worker stops when none fits, so the budget buys repeated verdicts of every
input that is small enough.  Writes the verdicts, report hashes, each
distinct report once, its own peak memory and, when traced, the spans to
the output file.

    python3 perfbench/worker.py PLAN OUT BUDGET_S HARD_STOP_S TRACE

Past HARD_STOP_S seconds it runs no further input; those count as wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

INPUT_LIMIT_S = 30    # a verdict slower than this counts as wrong


class InputTimeout(BaseException):
    """Raised in the verdict that exceeds INPUT_LIMIT_S.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise InputTimeout


def main(plan_path: str, out_path: str, budget: float, hard_stop: float,
         trace: bool) -> None:
    with open(plan_path) as f:
        plan = json.load(f)
    from gaugelab import cli
    from speedclock import SpeedClock

    clock = SpeedClock()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(clock.now)
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    clock.start()

    sink = io.StringIO()
    verdicts: list[dict] = []
    fastest: dict[str, float] = {}
    reports: dict[str, str] = {}
    start = time.perf_counter()
    pass_no = 0
    stopped = False
    while not stopped:
        ran = 0
        for item in plan:
            name = item["name"]
            if pass_no and time.perf_counter() - start + fastest[name] > budget:
                continue
            report = item["report"]
            with contextlib.suppress(FileNotFoundError):
                os.remove(report)
            verdict = {"input": name, "pass": pass_no, "seconds": None,
                       "ref_s": None, "code": None, "sha256": None, "error": None}
            verdicts.append(verdict)
            ran += 1
            if time.perf_counter() - start > hard_stop:
                verdict["error"] = "not run: the worker passed its hard stop"
                stopped = True
                continue
            if tracer is not None:
                tracer.verdict = len(verdicts) - 1
            sink.seek(0)
            sink.truncate()
            signal.setitimer(signal.ITIMER_REAL, INPUT_LIMIT_S)
            t0, c0 = time.perf_counter(), clock.now()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    verdict["code"] = cli.run_command(item["argv"])
            except InputTimeout:
                verdict["error"] = f"over the {INPUT_LIMIT_S} s limit"
            except Exception as e:  # an uncaught exception is a wrong verdict
                verdict["error"] = f"uncaught {type(e).__name__}: {e}"
            finally:
                t1, c1 = time.perf_counter(), clock.now()
                signal.setitimer(signal.ITIMER_REAL, 0)
            verdict["seconds"] = t1 - t0
            verdict["ref_s"] = c1 - c0
            fastest[name] = min(t1 - t0, fastest.get(name, t1 - t0))
            if os.path.exists(report):
                with open(report, "rb") as f:
                    data = f.read()
                verdict["sha256"] = hashlib.sha256(data).hexdigest()
                reports.setdefault(verdict["sha256"], data.decode())
        stopped = stopped or not ran
        pass_no += 1
    clock.stop()

    out = {
        "verdicts": verdicts,
        "reports": reports,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed_samples": clock.samples,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(out_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), float(sys.argv[4]),
         sys.argv[5] == "1")
