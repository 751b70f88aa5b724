"""Desk-scale homology of the stage differentials on truncation windows.

Chains are monomial densities in fields and antifields (never ghosts) with a
fixed antifield number, bounded jet order, and bounded polynomial degree.
Boundary maps are expanded exactly in the monomial basis: the cycle condition
is exact vanishing of the image density, never a statement modulo total
divergences.  Every number reported here is window-relative: no finite window
can refute non-trivial homology, it can only exhibit generators, so reports
distinguish "found" from "none within window".  A window's span keys each
chain by its basis index and each in-map target outside the window above them
all, so the span's low pivots are the window boundaries.  A boundary column
is the raw numerators of the Leibniz rule on one chain over the derivation's
denominator, with no polynomial built per chain.  The elimination, cycles
included, is in ``int`` arithmetic (``linalg``); only the representatives are
rational.
``window_size`` counts a window's chains and their factors without building
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import ClassVar

from .algebra import GHOST, GradedPoly, _term_key
from .errors import GradingMismatch, NotAComplex
from .jets import VerticalDerivation, _prolonged, window_jets
from .koszul import ModelSpec, build_stage_differential
from .linalg import LinearSpan, _kernel


@dataclass(frozen=True)
class TruncationWindow:
    """Finite probe: jet order and degree bounds plus the antifield sector."""

    max_jet_order: int
    max_poly_degree: int
    sector: int

    def __post_init__(self):
        if self.max_jet_order < 0:
            raise ValueError("max_jet_order must be >= 0")
        if self.max_poly_degree < 1:
            raise ValueError("max_poly_degree must be >= 1")
        if self.sector < 0:
            raise ValueError("sector must be >= 0")


def chain_basis(m: ModelSpec, w: TruncationWindow,
                max_stage: int | None = None) -> list[tuple]:
    """Ordered monomial basis of the sector-k chain space inside the window.

    Ghost variables never enter chains; ``max_stage`` keeps only antifields of
    stage <= max_stage (fields and field antifields count as stage -1).
    Chains come depth first in pool order, each before its extensions, from
    a plain loop: no stack frame per factor, so the caller's stack depth
    never limits a chain's length.
    """
    pool = window_jets(m.table, [d for d in m.table.decls if d.kind != GHOST
                                 and (max_stage is None or d.stage <= max_stage)],
                       w.max_jet_order)
    ants = [s.var.antifield_number for s in pool]
    max_ant = max(ants, default=0)
    sector, degree = w.sector, w.max_poly_degree
    # idx holds the pool indices of chosen; i is the next one tried after it
    out: list[tuple] = []
    chosen: list = []
    idx: list[int] = []
    ant = i = 0
    while True:
        slots = degree - len(chosen)
        while slots and i < len(pool):
            a = ant + ants[i]
            if (a <= sector and a + (slots - 1) * max_ant >= sector
                    and not (pool[i].parity and idx and idx[-1] == i)):
                break
            i += 1
        else:
            if not idx:
                return out
            i = idx.pop()
            chosen.pop()
            ant -= ants[i]
            i += 1
            continue
        idx.append(i)
        chosen.append(pool[i])
        ant = a
        if ant == sector:
            out.append(tuple(chosen))


MAX_WINDOW_CHAINS = 200_000
MAX_WINDOW_FACTORS = 2_000_000


def window_size(m: ModelSpec, w: TruncationWindow,
                max_stage: int | None = None) -> tuple[int, int]:
    """(chains, factors) of the out- and in-map sources of ``kt_homology`` at
    w, from the generating function, without building them: antifield
    monomials by (degree, antifield number), field monomials of degree <= D
    and their summed degrees in closed form.  Both are exact while the
    chains stay within MAX_WINDOW_CHAINS; the count stops as soon as the
    chains pass it, and both are then lower bounds."""
    jets = comb(m.table.n + w.max_jet_order, m.table.n)
    total = factors = 0
    for k, cap in zip((w.sector, w.sector + 1), _caps(m, w.sector, max_stage)):
        fields, ways = [0, 0], {(0, 0): 1}      # even, odd field jets; (deg, ant) -> count
        decls = [d for d in m.table.decls if d.kind != GHOST and d.stage <= cap]
        amax = max((d.antifield_number for d in decls), default=0)
        reached = total
        for d in decls:
            n, a = len(m.table.component_tuples(d)) * jets, d.antifield_number
            if not a:
                fields[d.parity] += n
                continue
            for (deg, ant), c in list(ways.items()):
                if ant + (w.max_poly_degree - deg) * amax < k:
                    continue                    # sector k is out of reach
                # i of the n jets within sector k and degree D; odd jets at most once
                top = min((k - ant) // a, w.max_poly_degree - deg)
                if d.parity:
                    top = min(top, n)
                for i in range(1, top + 1):
                    key = (deg + i, ant + a * i)
                    x = c * comb(n if d.parity else n + i - 1, i)
                    ways[key] = ways.get(key, 0) + x
                    if key[1] == k:     # each of these x monomials is at least one chain
                        reached += x
                        if reached > MAX_WINDOW_CHAINS:
                            return reached, factors
        even, odd = fields
        for (deg, ant), c in ways.items():
            if ant != k:
                continue
            # past MAX_WINDOW_CHAINS a higher degree no longer changes the verdict
            top = min(w.max_poly_degree - deg, MAX_WINDOW_CHAINS + 1)
            total -= deg == 0                   # the empty monomial is no chain
            for j in range(min(odd, top) + 1):
                # j odd field jets, then even ones of degree <= t: C(E+t, E)
                # monomials whose even degrees sum to E*C(E+t, E+1)
                x, t = c * comb(odd, j), top - j
                total += x * comb(even + t, even)
                factors += x * ((deg + j) * comb(even + t, even) + even * comb(even + t, even + 1))
                if total > MAX_WINDOW_CHAINS:
                    return total, factors
    return total, factors


@dataclass
class BoundaryMatrix:
    """Exact matrix of a stage differential from a windowed chain basis:
    ``int`` ``columns`` over a common denominator that is not kept, since one
    scale on every column changes no kernel, rank or span."""

    source: list          # list of factor tuples
    target: list          # list of factor tuples, discovery order
    columns: list         # list of dict[target index -> numerator]

    @property
    def rank(self) -> int:
        """Rank by sparse elimination of the rows, pivoting on the largest
        column index: independent of the column kernel (``linalg._kernel``),
        which eliminates columns and pivots on rows, so rank-nullity
        cross-checks the two."""
        rows: dict = {}
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                rows.setdefault(i, {})[j] = c
        span = LinearSpan()
        for row in rows.values():
            span._add(row)
        return span.rank


def boundary_matrix(delta: VerticalDerivation, m: ModelSpec,
                    w: TruncationWindow, max_stage: int | None = None) -> BoundaryMatrix:
    """Column j is delta of chain j as the raw Leibniz numerators over
    ``delta.den`` (``jets._prolonged``), its nonzero entries in canonical
    term order: that order, chain by chain, is the target discovery order."""
    if delta.antifield_delta != -1:
        raise GradingMismatch("boundary maps must lower the antifield number by 1")
    source = chain_basis(m, w, max_stage)
    index: dict = {}        # target -> its index, in discovery order
    columns = []
    for fs in source:
        image = [t for t in _prolonged(delta, ((fs, 1),)).items() if t[1]]
        image.sort(key=_term_key)
        columns.append({index.setdefault(tfs, len(index)): c for tfs, c in image})
    return BoundaryMatrix(source, list(index), columns)


@dataclass
class HomologyReport:
    """Window-relative homology numbers at one antifield sector."""

    window: TruncationWindow
    dim_chains: int
    dim_in_chains: int
    rank_out: int
    rank_in_window: int
    dim_cycles: int
    representatives: tuple      # GradedPoly densities, leading coefficient 1
    window_relative: ClassVar[bool] = True

    @property
    def sector(self) -> int:
        return self.window.sector

    @property
    def dim_homology(self) -> int:
        return self.dim_cycles - self.rank_in_window


def homology_dimension(m: ModelSpec, w: TruncationWindow, out_cap: int,
                       in_cap: int) -> HomologyReport:
    """Cycles of the stage-``out_cap`` differential modulo window boundaries of
    the stage-``in_cap`` differential at sector k, the chains at k and k+1
    holding antifields of stage <= their map's cap.

    The composition delta_out(delta_in(chain)) is checked to vanish exactly on
    every in-window chain; a nonzero value indicates inconsistent generators.
    """
    bm_out = boundary_matrix(build_stage_differential(m, out_cap), m, w, out_cap)
    w_in = TruncationWindow(w.max_jet_order, w.max_poly_degree, w.sector + 1)
    bm_in = boundary_matrix(build_stage_differential(m, in_cap), m, w_in, in_cap)

    # In-window chain j is key j, in-map target i outside the window is key
    # len(source) + i: inside pivots have no outside entries, so they are a
    # basis of image ∩ window.  Outside keys keep the target order and source
    # is in factor-tuple order, so the eliminations, pivots and report bytes
    # equal those of a kernel of the outside rows then a span of window images.
    n = len(bm_out.source)
    inside = {fs: j for j, fs in enumerate(bm_out.source)}
    keys = [inside.get(fs, n + i) for i, fs in enumerate(bm_in.target)]
    span = LinearSpan()
    for col in bm_in.columns:
        span._add({keys[i]: c for i, c in col.items()})
    boundaries = [vec for k, vec in span.pivots.items() if k < n]

    # complex property where it matters: every boundary that lands inside the
    # window must be annihilated by the out-map, applied through its matrix
    for vec in boundaries:
        image: dict = {}
        for j, c in vec.items():
            for i, cc in bm_out.columns[j].items():
                image[i] = image.get(i, 0) + c * cc
        if any(image.values()):
            raise NotAComplex(
                "window boundaries are not cycles; the generator tower is inconsistent")

    cycle_combos = _kernel(bm_out.columns)
    reps = []
    for combo, _ in cycle_combos:     # a scale changes no span or normalised class
        rem, _ = span._add(combo)
        if rem:     # a new class: its density, leading coefficient 1
            lead = rem[min(rem)]    # c / lead is c * lead over the positive lead**2
            reps.append(GradedPoly._from_dict(
                {bm_out.source[j]: c * lead for j, c in rem.items()}, lead * lead))

    dim_cycles = len(cycle_combos)
    rank_out = bm_out.rank
    if rank_out + dim_cycles != len(bm_out.source):
        raise AssertionError("rank and kernel computations disagree")
    report = HomologyReport(
        window=w,
        dim_chains=len(bm_out.source),
        dim_in_chains=len(bm_in.source),
        rank_out=rank_out,
        rank_in_window=len(boundaries),
        dim_cycles=dim_cycles,
        representatives=tuple(reps),
    )
    if report.dim_homology != len(reps):
        raise AssertionError("homology bookkeeping is inconsistent")
    return report


def _caps(m: ModelSpec, sector: int, max_stage: int | None) -> tuple[int, int]:
    """Stage caps of the chains at sector k and at k+1: min(k-2, N) and
    min(k-1, N), never below the fields' stage -1."""
    N = m.resolve_stage(max_stage)
    return max(min(sector - 2, N), -1), max(min(sector - 1, N), -1)


def kt_differentials_for_sector(m: ModelSpec, sector: int,
                                max_stage: int | None = None):
    """Stage caps and differentials of the truncated tower at one sector.

    The chain space at sector k uses fields and antifields of stage <= its
    cap (``_caps``); the map out of sector k is the differential of that
    stage and the map in from sector k+1 the differential of the next cap.
    """
    out_cap, in_cap = _caps(m, sector, max_stage)
    delta_out = build_stage_differential(m, out_cap)
    return build_stage_differential(m, in_cap), delta_out, out_cap, in_cap


def kt_homology(m: ModelSpec, w: TruncationWindow,
                max_stage: int | None = None) -> HomologyReport:
    """Window homology of the tower at w.sector with the standard caps."""
    return homology_dimension(m, w, *_caps(m, w.sector, max_stage))


@dataclass(frozen=True)
class RegularityReport:
    """Window probe of the homology regularity condition at one level."""

    level: int
    window: TruncationWindow
    dim_cycles: int
    rank_boundaries: int
    window_relative: ClassVar[bool] = True

    @property
    def holds(self) -> bool:
        return self.dim_cycles == self.rank_boundaries


def regularity_probe(m: ModelSpec, level: int, max_jet_order: int,
                     max_poly_degree: int) -> RegularityReport:
    """Check that every window cycle of the stage-``level`` differential at
    sector level+3 is a window boundary of the stage-(level+1) differential."""
    w = TruncationWindow(max_jet_order, max_poly_degree, level + 3)
    report = homology_dimension(m, w, level, level + 1)
    return RegularityReport(level, w, report.dim_cycles, report.rank_in_window)
