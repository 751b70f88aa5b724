"""Command-line front end: check, gauge, homology, zoo.

Human-readable lines go to stdout; ``--report PATH`` writes the JSON report
(canonical polynomial strings, sorted keys), which is byte-identical across
runs for a fixed model and command.  Each command returns its exit code,
report payload and stdout text; ``run_command`` checks the ``--report``
target before any work, writes the report, prints the text, and is the one
place where errors become exit codes.  Exit codes: 0 all checks pass, 1 a
check failed (the report carries the witness) or the two differentials of a
homology window do not compose to zero, 2 a usage, input or parse error,
printed as one ``error:`` line (parse errors as one line per diagnostic)
with nothing on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cache
from pathlib import Path

from .algebra import factor_str, render_poly
from .dsl import ModelFormatError, parse_or_raise, render_model
from .errors import GaugelabError, NotAComplex
from .homology import (MAX_WINDOW_CHAINS, MAX_WINDOW_FACTORS, TruncationWindow, kt_homology,
                       window_size)
from .koszul import ascent_operator, run_checks
from .zoo import zoo_model


class UsageError(Exception):
    """A command line or input file the CLI rejects before any work runs."""


def _check_report_target(path) -> None:
    """Raise UsageError when ``--report PATH`` could not be written; touches no file."""
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        raise UsageError(f"cannot write report {path}: it is a directory")
    if not target.parent.is_dir():
        raise UsageError(f"cannot write report {path}: {target.parent} is not a directory")
    if not os.access(target.parent, os.W_OK | os.X_OK) or (
            target.exists() and not os.access(target, os.W_OK)):
        raise UsageError(f"cannot write report {path}: permission denied")


def _zoo(spec: str):
    try:
        return zoo_model(spec)
    except ValueError as e:
        raise UsageError(e) from None
    except (MemoryError, OverflowError):
        raise UsageError(f"zoo model {spec!r} is too large to build") from None


def _load(args) -> tuple:
    """(model, resolved --stage) from the model flags."""
    if args.zoo and args.model:
        raise UsageError("pass either --model or --zoo, not both")
    if not args.zoo and not args.model:
        raise UsageError("a model is required (--model PATH or --zoo NAME)")
    if args.zoo:
        spec = _zoo(args.zoo)
    else:
        try:
            text = Path(args.model).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise UsageError(f"{args.model}: not UTF-8 text "
                             f"({e.reason} at byte {e.start})") from None
        spec = parse_or_raise(text, name=Path(args.model).stem)
    return spec, spec.resolve_stage(args.stage)


def _report_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a report, without the
    reference cycle that json's indenting encoder leaves before Python 3.13."""
    inner = pad + "  "
    if isinstance(value, dict):
        items, ends = [f"{json.dumps(k)}: {_report_json(value[k], inner)}"
                       for k in sorted(value)], "{}"
    elif isinstance(value, list):
        items, ends = [_report_json(v, inner) for v in value], "[]"
    else:
        return json.dumps(value)
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


# Each command returns (exit code, report payload, stdout text).

def _cmd_check(args) -> tuple:
    m, N = _load(args)
    results = run_checks(m, N)
    ok = all(r.ok for r in results)
    checks = []
    for r in results:
        entry = {"name": r.name, "status": "pass" if r.ok else "fail"}
        if r.witness is not None:
            entry["witness"] = r.witness
        checks.append(entry)
    text = "".join(f"{r.name}: {'pass' if r.ok else 'FAIL'}\n" for r in results)
    text += f"{'all checks pass' if ok else 'some checks FAILED'} ({m.name})\n"
    return 0 if ok else 1, {"model": m.name, "command": "check", "checks": checks}, text


def _cmd_gauge(args) -> tuple:
    m, N = _load(args)
    u = ascent_operator(m, N)
    components = {factor_str(sym): render_poly(p) for sym, p in u.components.items()}
    payload = {
        "model": m.name,
        "command": "gauge",
        "ascent": {
            "parity": u.parity,
            "ghost_number_delta": u.ghost_delta,
            "components": components,
        },
    }
    text = "".join(f"u({t}) = {components[t]}\n" for t in sorted(components))
    return 0, payload, text or "u = 0\n"


def _cmd_homology(args) -> tuple:
    try:
        w = TruncationWindow(args.jet_order, args.poly_degree, args.sector)
    except ValueError as e:
        raise UsageError(e) from None
    m, N = _load(args)
    # a message, not a prebuilt exception: one raised from a local would hold
    # this frame, and the model, in a reference cycle through its traceback
    too_large = (f"homology window (jet order {w.max_jet_order}, degree "
                 f"{w.max_poly_degree}) is too large to build")
    chains, factors = window_size(m, w, N)
    if chains > MAX_WINDOW_CHAINS or factors > MAX_WINDOW_FACTORS:
        raise UsageError(too_large)
    try:
        report = kt_homology(m, w, max_stage=N)
    except MemoryError:
        raise UsageError(too_large) from None
    gens = [render_poly(rep) for rep in report.representatives]
    entry = {
        "sector": report.sector,
        "window": {"jet_order": w.max_jet_order, "poly_degree": w.max_poly_degree},
        "window_relative": True,
        "dims": {
            "chains": report.dim_chains,
            "cycles": report.dim_cycles,
            "boundary_rank_in_window": report.rank_in_window,
            "homology": report.dim_homology,
        },
        "generators": gens,
    }
    text = (f"sector {report.sector}: window homology dimension {report.dim_homology} "
            f"(window-relative; jet order <= {w.max_jet_order}, "
            f"degree <= {w.max_poly_degree})\n")
    if gens:
        text += "generator candidates found within the window:\n"
        text += "".join(f"  {g}\n" for g in gens)
    else:
        text += "no generator candidates within this window\n"
    return 0, {"model": m.name, "command": "homology", "homology": [entry]}, text


def _cmd_zoo(args) -> tuple:
    m = _zoo(args.name)
    text = render_model(m)
    return 0, {"model": m.name, "command": "zoo", "dsl": text}, text


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` returns a fresh
    namespace on every call, so no state carries from one call to the next."""
    ap = argparse.ArgumentParser(
        prog="gaugelab",
        description="Exact checks of Noether identity towers and the gauge "
                    "supersymmetries they generate.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", help="path to a model file")
        p.add_argument("--zoo", help="built-in model: bf:N | trivial | scalar:N")
        p.add_argument("--stage", type=int, default=None,
                       help="truncate the generator tower at this stage")
        p.add_argument("--report", help="write the JSON report to this path")

    p = sub.add_parser("check", help="verify identities, nilpotency, closure, "
                                     "and gauge supersymmetry")
    add_model_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gauge", help="emit the ascent operator components")
    add_model_flags(p)
    p.set_defaults(func=_cmd_gauge)

    p = sub.add_parser("homology", help="window-relative homology report")
    add_model_flags(p)
    p.add_argument("--sector", type=int, default=1, help="antifield sector (default 1)")
    p.add_argument("--jet-order", type=int, default=1, dest="jet_order",
                   help="max jet order of chains (default 1)")
    p.add_argument("--poly-degree", type=int, default=1, dest="poly_degree",
                   help="max polynomial degree of chains (default 1)")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("zoo", help="print a built-in model in the model format")
    p.add_argument("name", help="bf:N | trivial | scalar:N")
    p.add_argument("--report", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_zoo)
    return ap


def run_command(argv) -> int:
    """Run one command line and return its exit code.

    The one place where errors become exit codes: each is printed to stderr
    before anything reaches stdout, and no report is written.  The command
    runs with the cyclic garbage collector paused: the package makes no
    reference cycle, so reference counting frees all it builds, and a
    collection would only rescan the growing heap.  The caller's collector
    state comes back on every exit, an exception included.
    """
    enabled = gc.isenabled()
    try:
        gc.disable()
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        _check_report_target(args.report)
        code, payload, text = args.func(args)
        if args.report:
            Path(args.report).write_text(_report_json(payload) + "\n")
    except NotAComplex as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ModelFormatError as e:
        for d in e.diagnostics:
            print(f"{args.model}:{d}", file=sys.stderr)
        return 2
    except (UsageError, GaugelabError, OSError) as e:  # OSError: the model or report file
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
