"""Command-line front end: check, gauge, homology, zoo.

Human-readable lines go to stdout; ``--report PATH`` writes the JSON report
(canonical polynomial strings, sorted keys), which is byte-identical across
runs for a fixed model and command.  Exit codes: 0 all checks pass, 1 a check
failed (the report carries the witness), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import as_poly, factor_str, render_poly
from .dsl import load_model, render_model
from .errors import GaugelabError, NotAComplex
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


def _load(args) -> tuple:
    """(model, None) or (None, exit_code) after printing the problem."""
    if args.zoo and args.model:
        print("error: pass either --model or --zoo, not both", file=sys.stderr)
        return None, 2
    if args.zoo:
        try:
            return zoo_model(args.zoo), None
        except (ValueError, GaugelabError) as e:
            print(f"error: {e}", file=sys.stderr)
            return None, 2
    if not args.model:
        print("error: a model is required (--model PATH or --zoo NAME)", file=sys.stderr)
        return None, 2
    try:
        text = Path(args.model).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return None, 2
    spec, diags = load_model(text, name=Path(args.model).stem)
    for d in diags:
        print(f"{args.model}:{d}", file=sys.stderr)
    if spec is None:
        return None, 2
    return spec, None


def _emit(args, payload: dict) -> None:
    if args.report:
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        Path(args.report).write_text(data)


def _cmd_check(args) -> int:
    m, code = _load(args)
    if m is None:
        return code
    N = m.max_stage if args.stage is None else args.stage
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
        print(f"error: {e}", file=sys.stderr)
        return 2

    ok = all(c["status"] == "pass" for c in checks)
    payload = {"model": m.name, "command": "check", "checks": checks}
    _emit(args, payload)
    print(f"{'all checks pass' if ok else 'some checks FAILED'} ({m.name})")
    return 0 if ok else 1


def _cmd_gauge(args) -> int:
    m, code = _load(args)
    if m is None:
        return code
    N = m.max_stage if args.stage is None else args.stage
    try:
        u = ascent_operator(m, N)
    except GaugelabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
    _emit(args, payload)
    return 0


def _cmd_homology(args) -> int:
    try:
        w = TruncationWindow(args.jet_order, args.poly_degree, args.sector)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    m, code = _load(args)
    if m is None:
        return code
    try:
        report = kt_homology(m, w, max_stage=args.stage)
    except NotAComplex as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GaugelabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
    payload = {"model": m.name, "command": "homology", "homology": [entry]}
    _emit(args, payload)
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
    try:
        m = zoo_model(args.name)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = render_model(m)
    sys.stdout.write(text)
    if args.report:
        Path(args.report).write_text(json.dumps(
            {"model": m.name, "command": "zoo", "dsl": text},
            indent=2, sort_keys=True) + "\n")
    return 0


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
