"""Desk-scale homology of the stage differentials on truncation windows.

Chains are monomial densities in fields and antifields (never ghosts) with a
fixed antifield number, bounded jet order, and bounded polynomial degree.
Boundary maps are expanded exactly in the monomial basis: the cycle condition
is exact vanishing of the image density, never a statement modulo total
divergences.  Every number reported here is window-relative: no finite window
can refute non-trivial homology, it can only exhibit generators, so reports
distinguish "found" from "none within window".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Density, GHOST, GradedPoly, JetSymbol
from .errors import GradingMismatch, NotAComplex
from .jets import VerticalDerivation, apply_prolonged
from .koszul import ModelSpec, build_stage_differential
from .linalg import LinearSpan, kernel_of_columns

from itertools import combinations_with_replacement


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
    """
    pool: list[JetSymbol] = []
    for decl in m.table.decls:
        if decl.kind == GHOST:
            continue
        if max_stage is not None and decl.stage > max_stage:
            continue
        for ct in m.table.component_tuples(decl):
            for k in range(w.max_jet_order + 1):
                for mi in combinations_with_replacement(range(m.n), k):
                    pool.append(JetSymbol(decl, ct, mi))
    pool.sort(key=lambda s: s.key)
    max_ant = max((s.var.antifield_number for s in pool), default=0)
    out: list[tuple] = []

    def rec(start: int, chosen: list, ant: int):
        if ant == w.sector and chosen:
            out.append(tuple(chosen))
        if len(chosen) == w.max_poly_degree:
            return
        slots = w.max_poly_degree - len(chosen)
        for i in range(start, len(pool)):
            s = pool[i]
            if ant + s.var.antifield_number > w.sector:
                continue
            if ant + s.var.antifield_number + (slots - 1) * max_ant < w.sector:
                continue
            if s.parity and chosen and chosen[-1] == s:
                continue
            chosen.append(s)
            rec(i, chosen, ant + s.var.antifield_number)
            chosen.pop()

    rec(0, [], 0)
    return out


@dataclass
class BoundaryMatrix:
    """Exact matrix of a stage differential from a windowed chain basis."""

    source: list          # list of factor tuples
    target: list          # list of factor tuples, discovery order
    columns: list         # list of dict[target index -> Fraction]

    @property
    def rank(self) -> int:
        """Rank by sparse elimination of the rows, pivoting on the largest
        column index: independent of ``kernel_of_columns``, which eliminates
        columns and pivots on rows, so rank-nullity cross-checks the two."""
        rows: dict = {}
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                rows.setdefault(i, {})[j] = c
        span = LinearSpan()
        for row in rows.values():
            span.add(row)
        return span.rank


def boundary_matrix(delta: VerticalDerivation, m: ModelSpec,
                    w: TruncationWindow, max_stage: int | None = None) -> BoundaryMatrix:
    """Columns are the exact monomial expansions of delta on the chain basis."""
    if delta.antifield_delta != -1:
        raise GradingMismatch("boundary maps must lower the antifield number by 1")
    source = chain_basis(m, w, max_stage)
    index: dict = {}
    target: list = []
    columns = []
    for fs in source:
        image = apply_prolonged(delta, GradedPoly(((fs, Fraction(1)),)))
        col = {}
        for tfs, c in image.terms:
            i = index.get(tfs)
            if i is None:
                i = len(target)
                index[tfs] = i
                target.append(tfs)
            col[i] = c
        columns.append(col)
    return BoundaryMatrix(source, target, columns)


@dataclass
class HomologyReport:
    """Window-relative homology numbers at one antifield sector."""

    sector: int
    window: TruncationWindow
    dim_chains: int
    dim_in_chains: int
    rank_out: int
    rank_in_window: int
    dim_cycles: int
    dim_homology: int
    representatives: tuple
    window_relative: bool = True

    def found_generators(self) -> bool:
        return self.dim_homology > 0


def _window_boundaries(bm_in: BoundaryMatrix, window_set: set) -> list[dict]:
    """Boundary vectors (over window chain coordinates) of the in-map image
    intersected with the window span."""
    outside = {i for i, fs in enumerate(bm_in.target) if fs not in window_set}
    if outside:
        combos = kernel_of_columns(
            [{i: c for i, c in col.items() if i in outside} for col in bm_in.columns])
    else:
        combos = [{j: Fraction(1)} for j in range(len(bm_in.source))]
    vectors = []
    for combo in combos:
        vec: dict = {}
        for j, f in combo.items():
            for i, c in bm_in.columns[j].items():
                fs = bm_in.target[i]
                if fs in window_set:
                    nv = vec.get(fs, Fraction(0)) + f * c
                    if nv == 0:
                        vec.pop(fs, None)
                    else:
                        vec[fs] = nv
        if vec:
            vectors.append(vec)
    return vectors


def _density_from_vec(vec: dict) -> Density:
    lead = min(vec)
    scale = Fraction(1) / vec[lead]
    return Density(GradedPoly._from_dict({fs: c * scale for fs, c in vec.items()}))


def homology_dimension(m: ModelSpec, delta_in: VerticalDerivation,
                       delta_out: VerticalDerivation, w: TruncationWindow,
                       max_stage_out: int | None = None,
                       max_stage_in: int | None = None) -> HomologyReport:
    """Cycles of delta_out modulo window boundaries of delta_in at sector k.

    The composition delta_out(delta_in(chain)) is checked to vanish exactly on
    every in-window chain; a nonzero value indicates inconsistent generators.
    """
    bm_out = boundary_matrix(delta_out, m, w, max_stage_out)
    w_in = TruncationWindow(w.max_jet_order, w.max_poly_degree, w.sector + 1)
    bm_in = boundary_matrix(delta_in, m, w_in, max_stage_in)

    cycle_combos = kernel_of_columns(bm_out.columns)
    window_set = set(bm_out.source)
    boundaries = _window_boundaries(bm_in, window_set)

    # complex property where it matters: every boundary that lands inside the
    # window must be annihilated by the out-map, applied through its matrix
    source_index = {fs: j for j, fs in enumerate(bm_out.source)}
    for vec in boundaries:
        image: dict = {}
        for fs, c in vec.items():
            for i, cc in bm_out.columns[source_index[fs]].items():
                image[i] = image.get(i, 0) + c * cc
        if any(image.values()):
            raise NotAComplex(
                "window boundaries are not cycles; the generator tower is inconsistent")

    span = LinearSpan()
    for vec in boundaries:
        span.add(vec)
    rank_in_window = span.rank

    reps = []
    for combo in cycle_combos:
        vec = {bm_out.source[j]: c for j, c in combo.items()}
        rem = span.reduce(vec)
        if rem and span.add(rem):
            reps.append(_density_from_vec(rem))

    dim_cycles = len(cycle_combos)
    rank_out = bm_out.rank
    if rank_out + dim_cycles != len(bm_out.source):
        raise AssertionError("rank and kernel computations disagree")
    dim_h = dim_cycles - rank_in_window
    if dim_h != len(reps):
        raise AssertionError("homology bookkeeping is inconsistent")
    return HomologyReport(
        sector=w.sector,
        window=w,
        dim_chains=len(bm_out.source),
        dim_in_chains=len(bm_in.source),
        rank_out=rank_out,
        rank_in_window=rank_in_window,
        dim_cycles=dim_cycles,
        dim_homology=dim_h,
        representatives=tuple(reps),
    )


def kt_differentials_for_sector(m: ModelSpec, sector: int,
                                max_stage: int | None = None):
    """Stage caps and differentials of the truncated tower at one sector.

    The chain space at sector k uses antifields of stage <= min(k-2, N); the
    map out of sector k is the stage-min(k-2, N) differential and the map in
    from sector k+1 is the stage-min(k-1, N) differential.
    """
    N = m.resolve_stage(max_stage)
    out_cap = min(sector - 2, N)
    in_cap = min(sector - 1, N)
    delta_out = build_stage_differential(m, max(out_cap, -1))
    delta_in = build_stage_differential(m, max(in_cap, -1))
    return delta_in, delta_out, out_cap, in_cap


def kt_homology(m: ModelSpec, w: TruncationWindow,
                max_stage: int | None = None) -> HomologyReport:
    """Window homology of the tower at w.sector with the standard caps."""
    delta_in, delta_out, out_cap, in_cap = kt_differentials_for_sector(
        m, w.sector, max_stage)
    return homology_dimension(m, delta_in, delta_out, w,
                              max_stage_out=out_cap, max_stage_in=in_cap)


def generator_candidates(m: ModelSpec, w: TruncationWindow,
                         max_stage: int | None = None) -> tuple:
    """Homology representatives at the sector, for inspection and promotion.

    An empty result means "none within this window", not a proof of absence.
    """
    return kt_homology(m, w, max_stage).representatives


@dataclass(frozen=True)
class RegularityReport:
    """Window probe of the homology regularity condition at one level."""

    level: int
    window: TruncationWindow
    dim_cycles: int
    rank_boundaries: int
    holds: bool
    window_relative: bool = True


def regularity_probe(m: ModelSpec, level: int, max_jet_order: int,
                     max_poly_degree: int) -> RegularityReport:
    """Check that every window cycle of the stage-``level`` differential at
    sector level+3 is a window boundary of the stage-(level+1) differential."""
    w = TruncationWindow(max_jet_order, max_poly_degree, level + 3)
    delta_out = build_stage_differential(m, level)
    delta_in = build_stage_differential(m, level + 1)
    report = homology_dimension(m, delta_in, delta_out, w,
                                max_stage_out=level, max_stage_in=level + 1)
    return RegularityReport(
        level=level,
        window=w,
        dim_cycles=report.dim_cycles,
        rank_boundaries=report.rank_in_window,
        holds=report.dim_homology == 0,
    )
