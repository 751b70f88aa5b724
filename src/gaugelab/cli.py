"""Command-line front end: check, gauge, homology, zoo.

Human-readable lines go to stdout; ``--report PATH`` writes the JSON report
(canonical polynomial strings, sorted keys), which is byte-identical across
runs for a fixed model and command.  Exit codes: 0 all checks pass, 1 a check
failed (the report carries the witness), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import as_poly, factor_str, render_poly
from .dsl import load_model, render_model
from .errors import GaugelabError, MissingStage, NotAComplex
from .homology import TruncationWindow, kt_homology
from .jets import apply_prolonged
from .koszul import (
    ascent_operator,
    build_stage_differential,
    check_ascent_nilpotency,
    check_nilpotency,
    extended_lagrangian,
    identity_defect,
    verify_variational_supersymmetry,
)
from .zoo import zoo_model


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _report_problem(path) -> str | None:
    """Why ``--report PATH`` could not be written, or None; touches no file."""
    if not path:
        return None
    target = Path(path)
    if target.is_dir():
        return f"cannot write report {path}: it is a directory"
    if not target.parent.is_dir():
        return f"cannot write report {path}: {target.parent} is not a directory"
    if not os.access(target.parent, os.W_OK | os.X_OK) or (
            target.exists() and not os.access(target, os.W_OK)):
        return f"cannot write report {path}: permission denied"
    return None


def _zoo(spec: str):
    """The built-in model, or None after printing why it could not be built."""
    try:
        return zoo_model(spec)
    except (ValueError, GaugelabError) as e:
        _error(e)
    except MemoryError:
        _error(f"zoo model {spec!r} is too large to build")
    return None


def _load(args) -> tuple:
    """(model, resolved --stage) or (None, exit code) after printing the problem.

    The ``--report`` target is checked first, so no work runs for a report
    that could not be written.
    """
    problem = _report_problem(args.report)
    if problem:
        return None, _error(problem)
    if args.zoo and args.model:
        return None, _error("pass either --model or --zoo, not both")
    if not args.zoo and not args.model:
        return None, _error("a model is required (--model PATH or --zoo NAME)")
    if args.zoo:
        spec = _zoo(args.zoo)
        if spec is None:
            return None, 2
    else:
        try:
            text = Path(args.model).read_text(encoding="utf-8")
        except OSError as e:
            return None, _error(e)
        except UnicodeDecodeError as e:
            return None, _error(f"{args.model}: not UTF-8 text ({e.reason} at byte {e.start})")
        spec, diags = load_model(text, name=Path(args.model).stem)
        for d in diags:
            print(f"{args.model}:{d}", file=sys.stderr)
        if spec is None:
            return None, 2
    try:
        return spec, spec.resolve_stage(args.stage)
    except MissingStage as e:
        return None, _error(e)


def _emit(args, payload: dict) -> bool:
    """Write the --report JSON; False after printing why it could not be written."""
    if args.report:
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        try:
            Path(args.report).write_text(data)
        except OSError as e:
            _error(e)
            return False
    return True


def _cmd_check(args) -> int:
    m, N = _load(args)
    if m is None:
        return N
    checks = []

    def record(name: str, ok: bool, witness: str | None = None):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        if witness is not None and not ok:
            entry["witness"] = witness
        checks.append(entry)
        print(f"{name}: {'pass' if ok else 'FAIL'}")

    try:
        for fam in m.families:
            if fam.stage > N:
                continue
            defects = [(ct, identity_defect(m, fam, ct)) for ct, _ in fam.sorted_members()]
            bad = [(ct, d) for ct, d in defects if not d.is_zero()]
            kind = "noether-identity" if fam.stage == 0 else f"stage-{fam.stage}-identity"
            witness = None
            if bad:
                ct, d = bad[0]
                witness = f"{fam.name}{list(ct)}: {render_poly(d)}"
            record(f"{kind}[{fam.name}]", not bad, witness)

        delta = build_stage_differential(m, N)
        r = check_nilpotency(delta)
        record("kt-nilpotency", r.ok,
               None if r.ok else f"{factor_str(r.witness[0])}: {render_poly(r.witness[1])}")

        le = extended_lagrangian(m, N)
        closure = apply_prolonged(delta, le)
        record("extended-lagrangian-closure", closure.is_zero(),
               render_poly(as_poly(closure)))

        u = ascent_operator(m, N)
        record("gauge-supersymmetry", verify_variational_supersymmetry(m, u))

        r = check_ascent_nilpotency(u)
        record("ascent-nilpotency", r.ok,
               None if r.ok else f"{factor_str(r.witness[0])}: {render_poly(r.witness[1])}")
    except GaugelabError as e:
        return _error(e)

    ok = all(c["status"] == "pass" for c in checks)
    if not _emit(args, {"model": m.name, "command": "check", "checks": checks}):
        return 2
    print(f"{'all checks pass' if ok else 'some checks FAILED'} ({m.name})")
    return 0 if ok else 1


def _cmd_gauge(args) -> int:
    m, N = _load(args)
    if m is None:
        return N
    try:
        u = ascent_operator(m, N)
    except GaugelabError as e:
        return _error(e)
    components = {factor_str(sym): render_poly(p) for sym, p in u.sorted_components()}
    for target in sorted(components):
        print(f"u({target}) = {components[target]}")
    payload = {
        "model": m.name,
        "command": "gauge",
        "ascent": {
            "parity": u.parity,
            "ghost_number_delta": u.ghost_delta,
            "components": components,
        },
    }
    return 0 if _emit(args, payload) else 2


def _cmd_homology(args) -> int:
    try:
        w = TruncationWindow(args.jet_order, args.poly_degree, args.sector)
    except ValueError as e:
        return _error(e)
    m, N = _load(args)
    if m is None:
        return N
    try:
        report = kt_homology(m, w, max_stage=N)
    except NotAComplex as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GaugelabError as e:
        return _error(e)
    gens = [render_poly(as_poly(rep)) for rep in report.representatives]
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
    if not _emit(args, {"model": m.name, "command": "homology", "homology": [entry]}):
        return 2
    print(f"sector {report.sector}: window homology dimension {report.dim_homology} "
          f"(window-relative; jet order <= {w.max_jet_order}, degree <= {w.max_poly_degree})")
    if gens:
        print("generator candidates found within the window:")
        for g in gens:
            print(f"  {g}")
    else:
        print("no generator candidates within this window")
    return 0


def _cmd_zoo(args) -> int:
    problem = _report_problem(args.report)
    if problem:
        return _error(problem)
    m = _zoo(args.name)
    if m is None:
        return 2
    text = render_model(m)
    sys.stdout.write(text)
    return 0 if _emit(args, {"model": m.name, "command": "zoo", "dsl": text}) else 2


def build_parser() -> argparse.ArgumentParser:
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    return args.func(args)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
