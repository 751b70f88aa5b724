"""Recompute the pinned window numbers of workloads.WINDOWS independently.

    python3 perfbench/crosscheck.py [SEED ...]

For each window, on ``bf:N`` and on the homology-windows inputs of each
SEED (default 1 and 2), this counts the chain monomials directly and
takes every rank with its own Gaussian elimination over Fraction; only the
boundary matrix entries come from gaugelab.  With W the window's chains and
B the in-map,

    cycles          = chains - rank(out-map)
    boundary rank   = rank(B) - rank(rows of B outside W)
    homology        = cycles - boundary rank

(the window boundaries are B applied to the kernel of B's outside rows, and
that kernel contains the kernel of B).  Exits 1 when a number differs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaugelab.algebra import GHOST  # noqa: E402
from gaugelab.dsl import parse_or_raise  # noqa: E402
from gaugelab.homology import (  # noqa: E402
    TruncationWindow, boundary_matrix, kt_differentials_for_sector)
from gaugelab.zoo import bf_model  # noqa: E402

import workloads  # noqa: E402


def rank(columns) -> int:
    """Rank of sparse columns {row: value} by Gaussian elimination."""
    pivots: dict = {}            # leading row -> reduced column
    for col in columns:
        v = {r: Fraction(c) for r, c in col.items() if c}
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                break
            f = v[lead] / p[lead]
            for r, c in p.items():
                x = v.get(r, 0) - f * c
                if x:
                    v[r] = x
                else:
                    del v[r]
    return len(pivots)


def chain_count(m, w: TruncationWindow, cap: int) -> int:
    """Monomials of degree 1..p and antifield number k: no ghosts, no
    antifield of stage above ``cap``, no odd variable twice."""
    ways = {(0, 0): 1}           # (degree, antifield number) -> monomials
    for decl in m.table.decls:
        if decl.kind == GHOST or decl.stage > cap:
            continue
        jets = sum(1 for k in range(w.max_jet_order + 1)
                   for _ in combinations_with_replacement(range(m.n), k))
        for _ in range(len(m.table.component_tuples(decl)) * jets):
            most = 1 if decl.parity else w.max_poly_degree
            nxt = dict(ways)
            for (deg, ant), c in ways.items():
                for e in range(1, most + 1):
                    key = (deg + e, ant + e * decl.antifield_number)
                    if key[0] <= w.max_poly_degree and key[1] <= w.sector:
                        nxt[key] = nxt.get(key, 0) + c
            ways = nxt
    return sum(c for (deg, ant), c in ways.items() if deg and ant == w.sector)


def window_numbers(m, sector, jets, degree, stage) -> tuple:
    w = TruncationWindow(jets, degree, sector)
    d_in, d_out, out_cap, in_cap = kt_differentials_for_sector(m, sector, stage)
    out = boundary_matrix(d_out, m, w, out_cap)
    inn = boundary_matrix(d_in, m, TruncationWindow(jets, degree, sector + 1), in_cap)
    chains = chain_count(m, w, out_cap)
    if chains != len(out.source):
        raise SystemExit(f"chain count {chains} != basis size {len(out.source)}")
    window = set(out.source)
    outside = {i for i, fs in enumerate(inn.target) if fs not in window}
    cycles = chains - rank(out.columns)
    bounds = rank(inn.columns) - rank(
        {i: c for i, c in col.items() if i in outside} for col in inn.columns)
    return chains, cycles, bounds, cycles - bounds


def main(seeds) -> int:
    cases = [(f"bf:{n}", bf_model(n), (sector, jets, degree, stage), pinned)
             for n, sector, jets, degree, stage, *pinned in workloads.WINDOWS]
    for seed in seeds:
        for inp in workloads.generate("homology-windows", seed):
            flags = dict(zip(inp.flags[::2], map(int, inp.flags[1::2])))
            window = (flags["--sector"], flags["--jet-order"], flags["--poly-degree"],
                      flags.get("--stage"))
            dims = inp.expect["dims"]
            cases.append((f"seed {seed} {inp.name}", parse_or_raise(inp.text), window,
                          [dims["chains"], dims["cycles"],
                           dims["boundary_rank_in_window"], dims["homology"]]))
    bad = 0
    for label, m, window, pinned in cases:
        got = window_numbers(m, *window)
        ok = list(got) == pinned
        bad += not ok
        print(f"{label} {window}: chains, cycles, boundary rank, homology = "
              f"{got} {'matches' if ok else 'DIFFERS from'} {tuple(pinned)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1, 2]))
