"""Window chain spaces, boundary matrices, homology dimensions, and the
regularity probe, cross-checked against a dense elimination oracle."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import (
    GHOST,
    GradedPoly,
    NotAComplex,
    TruncationWindow,
    apply_prolonged,
    bf_model,
    boundary_matrix,
    build_stage_differential,
    chain_basis,
    free_scalar_model,
    homology_dimension,
    kt_homology,
    regularity_probe,
    render_poly,
    trivial_model,
)
import gaugelab.homology
from gaugelab.homology import (
    MAX_WINDOW_CHAINS, MAX_WINDOW_FACTORS, BoundaryMatrix, kt_differentials_for_sector,
    window_size)
from gaugelab.jets import window_jets
from gaugelab.linalg import _kernel, kernel_of_columns, rank_fraction_free
from support import (
    boundary_rows, dense_rank_oracle, flip_first_term, oracle_apply_prolonged,
    rebuild_with_mutation, rescaled_tower, two_field_model)


def test_chain_basis_single_odd_antifield():
    m = trivial_model([("x", 0)], n=1)
    basis = chain_basis(m, TruncationWindow(0, 1, 1), max_stage=-1)
    assert len(basis) == 1
    assert render_poly(GradedPoly(((basis[0], 1),))) == "sbar(x)"


def test_chain_basis_bf2_first_jets():
    m = bf_model(2)
    basis = chain_basis(m, TruncationWindow(1, 1, 1), max_stage=-1)
    # 3 antifield components, each with derivative multisets {}, {0}, {1}
    assert len(basis) == 9


def test_chain_basis_empty_when_sector_unreachable():
    m = free_scalar_model(2)
    # only Ant-1 variables exist and degree 1 allows a single factor
    assert chain_basis(m, TruncationWindow(1, 1, 3), max_stage=-1) == []


@pytest.mark.parametrize("model", [bf_model(2), bf_model(3), two_field_model(),
                                   trivial_model([("x", 0), ("y", 1)], n=1)], ids=str)
def test_window_chain_count_matches_the_enumerated_bases(model):
    for sector, jets, degree, stage in product(range(4), range(3), range(1, 4), (None, -1)):
        w = TruncationWindow(jets, degree, sector)
        *_, out_cap, in_cap = kt_differentials_for_sector(model, sector, stage)
        bases = (chain_basis(model, w, out_cap)
                 + chain_basis(model, TruncationWindow(jets, degree, sector + 1), in_cap))
        assert window_size(model, w, stage) == (len(bases), sum(map(len, bases)))


@pytest.mark.parametrize("model", [bf_model(2), two_field_model(),
                                   trivial_model([("x", 0), ("y", 1)], n=1)], ids=str)
def test_chain_basis_lists_chains_in_pool_index_order(model):
    # every multiset of pool jets in the sector, no odd jet twice, ordered by
    # its tuple of pool indices: a chain comes before its extensions
    for sector, jets, degree, stage in product(range(4), range(3), range(1, 4), (None, 0)):
        w = TruncationWindow(jets, degree, sector)
        pool = window_jets(model.table, [d for d in model.table.decls if d.kind != GHOST
                                         and (stage is None or d.stage <= stage)], jets)
        indexed = sorted(
            idx for k in range(1, degree + 1)
            for idx in combinations_with_replacement(range(len(pool)), k)
            if sum(pool[i].var.antifield_number for i in idx) == sector
            and not any(i == j and pool[i].parity for i, j in zip(idx, idx[1:])))
        assert chain_basis(model, w, stage) == [tuple(pool[i] for i in idx) for idx in indexed]


def test_sector_zero_is_the_field_monomials_modulo_the_bare_boundaries():
    # no cap falls below the fields' stage -1
    r = kt_homology(free_scalar_model(1), TruncationWindow(1, 1, 0))
    assert (r.dim_chains, r.dim_cycles, r.rank_in_window, r.dim_homology) == (2, 2, 0, 2)
    assert [render_poly(rep) for rep in r.representatives] == ["s", "s_(0)"]
    r = kt_homology(bf_model(2), TruncationWindow(1, 2, 0))
    assert (r.dim_chains, r.dim_cycles, r.rank_in_window, r.dim_homology) == (54, 54, 27, 27)
    assert kt_differentials_for_sector(bf_model(2), 0)[2:] == (-1, -1)


def test_window_chain_count_stops_past_the_cap():
    # bf:2 at jet order 0, degree 60 has 113,460 + 145,790 chains
    for degree in (60, 900, 5000, 10**30):
        assert window_size(bf_model(2), TruncationWindow(0, degree, 1))[0] > MAX_WINDOW_CHAINS
    assert window_size(bf_model(3), TruncationWindow(2, 3, 1))[0] == 92_250
    # sectors and degrees of 1000 pass the cap on the first monomials that
    # reach the sector, before the rest of the generating function is built
    assert window_size(bf_model(5), TruncationWindow(1, 1000, 1000))[0] > MAX_WINDOW_CHAINS
    assert window_size(bf_model(9), TruncationWindow(2, 1000, 1000))[0] > MAX_WINDOW_CHAINS


def test_window_factor_count_bounds_few_long_chains():
    # scalar:1 at sector 0, jet order 0, degree p: the out-map sources s^j
    # and the in-map sources sbar(s)*s^(j-1) for j = 1..p, p(p+1) factors
    m = free_scalar_model(1)
    for p in (1, 2, 990, 5000, 99999):
        assert window_size(m, TruncationWindow(0, p, 0)) == (2 * p, p * (p + 1))
    assert window_size(m, TruncationWindow(0, 10**30, 0))[0] > MAX_WINDOW_CHAINS
    assert 990 * 991 < MAX_WINDOW_FACTORS < 5000 * 5001
    c990 = chain_basis(m, TruncationWindow(0, 990, 0))
    assert [len(fs) for fs in c990] == list(range(1, 991))


def test_window_chain_count_of_a_sector_out_of_reach_is_zero():
    # the degree bounds the antifield number, and an odd jet enters a
    # monomial at most once, so nothing past either bound is counted
    for n, jets, degree, sector in ((2, 1, 1, 100_000), (2, 0, 1, 10**6), (2, 0, 1, 4000),
                                    (5, 0, 1000, 100_000), (5, 1, 100, 1000)):
        assert window_size(bf_model(n), TruncationWindow(jets, degree, sector))[0] == 0
    # degree 4 reaches sector 8 only as a product of four cbar(0) jets
    assert window_size(bf_model(2), TruncationWindow(1, 4, 8))[0] == len(
        chain_basis(bf_model(2), TruncationWindow(1, 4, 8), 0)) == 15


def test_boundary_matrix_zero_for_zero_lagrangian():
    m = trivial_model([("x", 0)], n=1)
    delta = build_stage_differential(m, -1)
    bm = boundary_matrix(delta, m, TruncationWindow(1, 1, 1), max_stage=-1)
    assert all(not col for col in bm.columns)
    assert bm.rank == 0


def test_boundary_matrix_identity_block_for_trivial_model():
    m = trivial_model([("x", 0)], n=1)
    delta = build_stage_differential(m, 0)
    bm = boundary_matrix(delta, m, TruncationWindow(0, 1, 2), max_stage=0)
    # the only sector-2 chain is cbar(0), mapping to sbar(x)
    assert len(bm.source) == 1
    assert bm.rank == 1


def test_boundary_matrix_requires_lowering():
    m = trivial_model([("x", 0)], n=1)
    from gaugelab import VerticalDerivation
    v = VerticalDerivation({}, parity=1, side="right", antifield_delta=0)
    from gaugelab.errors import GradingMismatch
    with pytest.raises(GradingMismatch):
        boundary_matrix(v, m, TruncationWindow(0, 1, 1))


def test_boundary_columns_are_raw_numerators_over_the_derivation_denominator():
    # a Lagrangian and stages rescaled by non-unit fractions give delta.den > 1
    m = rescaled_tower(3, Fraction(3, 2), [Fraction(-4, 3), Fraction(5, 7)])
    for sector in (1, 2, 3):
        delta_in, delta_out, out_cap, in_cap = kt_differentials_for_sector(m, sector)
        for delta, w, cap in ((delta_out, TruncationWindow(1, 2, sector), out_cap),
                              (delta_in, TruncationWindow(1, 2, sector + 1), in_cap)):
            assert delta.den > 1
            bm = boundary_matrix(delta, m, w, max_stage=cap)
            assert bm.source == chain_basis(m, w, max_stage=cap)
            discovered = {}
            for fs, col in zip(bm.source, bm.columns):
                image = oracle_apply_prolonged(delta, GradedPoly(((fs, 1),)))
                for tfs, _ in image.terms:
                    discovered.setdefault(tfs, len(discovered))
                # entry by entry, in the image's canonical term order
                assert list(col.items()) == [(discovered[tfs], delta.den * c)
                                             for tfs, c in image.terms]
                assert all(type(c) is int for c in col.values())
            assert bm.target == list(discovered)


def test_bf2_sector1_kernel_is_the_divergence():
    m = bf_model(2)
    t = m.table
    w = TruncationWindow(1, 1, 1)
    report = homology_dimension(m, w, -1, -1)
    assert report.dim_homology == 1
    rep = report.representatives[0]
    expect = (GradedPoly.from_symbol(t.symbol("sbar(B)", (0,), (0,))) +
              GradedPoly.from_symbol(t.symbol("sbar(B)", (1,), (1,))))
    assert rep == expect
    # no representative involves the antifield of the scalar field
    for r in report.representatives:
        assert all(f.var.name != "sbar(A)" for fs, _ in r.terms for f in fs)


def test_bf2_sector1_rank_cross_checked_dense():
    m = bf_model(2)
    delta = build_stage_differential(m, -1)
    bm = boundary_matrix(delta, m, TruncationWindow(1, 1, 1), max_stage=-1)
    assert bm.rank == dense_rank_oracle(boundary_rows(bm)) == 8


FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_columns(draw):
    """(row count, columns {row: Fraction}) with explicit zero entries and
    zero, repeated and scaled columns mixed in; either side may be empty."""
    nrows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "scaled"]))
        if kind == "zero" or nrows == 0:
            columns.append({})
        elif kind == "fresh" or not columns:
            columns.append(draw(st.dictionaries(
                st.integers(0, nrows - 1), FRACTIONS, max_size=nrows)))
        else:
            col = dict(draw(st.sampled_from(columns)))
            if kind == "scaled":
                f = draw(FRACTIONS.filter(bool))
                col = {i: f * c for i, c in col.items()}
            columns.append(col)
    return nrows, columns


@settings(max_examples=200, deadline=None)
@given(sparse_columns())
def test_sparse_rank_matches_dense_oracle(shape):
    nrows, columns = shape
    bm = BoundaryMatrix(list(range(len(columns))), list(range(nrows)), columns)
    rows = boundary_rows(bm)
    assert bm.rank == dense_rank_oracle(rows) == rank_fraction_free(rows)
    assert bm.rank + len(kernel_of_columns(bm.columns)) == len(bm.source)


@pytest.mark.parametrize("n, sector, jets, degree, dims", [
    (3, 2, 2, 2, (2010, 362, 362, 0)),
    (4, 1, 1, 2, (650, 166, 166, 0)),
])
def test_kt_homology_larger_windows(n, sector, jets, degree, dims):
    # dims confirmed by an elimination outside gaugelab.linalg
    r = kt_homology(bf_model(n), TruncationWindow(jets, degree, sector))
    assert (r.dim_chains, r.dim_cycles, r.rank_in_window, r.dim_homology) == dims


@pytest.mark.parametrize("n, sector, jets, degree, stage, dims", [
    (2, 1, 1, 2, -1, (6, 7)),
    (3, 2, 1, 2, 0, (19, 13)),
])
def test_window_boundaries_and_representatives_match_dense_oracle(
        n, sector, jets, degree, stage, dims, monkeypatch):
    m = bf_model(n)
    w = TruncationWindow(jets, degree, sector)
    r = kt_homology(m, w, max_stage=stage)
    assert (r.rank_in_window, r.dim_homology) == dims
    assert all(rep.terms[0][1] == 1 for rep in r.representatives)
    # the cycles enter the window span as int vectors with their scales
    # dropped; other scales, negative ones too, give the same report
    def rescaled_kernel(columns):
        return [({j: c * (-2 - i) for j, c in vec.items()}, s * (-2 - i))
                for i, (vec, s) in enumerate(_kernel(columns))]

    monkeypatch.setattr(gaugelab.homology, "_kernel", rescaled_kernel)
    assert kt_homology(m, w, max_stage=stage) == r
    delta_in, delta_out, out_cap, in_cap = kt_differentials_for_sector(m, sector, stage)
    bm_in = boundary_matrix(delta_in, m, TruncationWindow(jets, degree, sector + 1),
                            max_stage=in_cap)
    window = set(chain_basis(m, w, max_stage=out_cap))
    rows = boundary_rows(bm_in)
    rank_b = dense_rank_oracle(rows)
    # image ∩ window span: the kernel of the image's projection onto the
    # coordinates outside the window
    outside = [row for fs, row in zip(bm_in.target, rows) if fs not in window]
    assert r.rank_in_window == rank_b - dense_rank_oracle(outside)
    for rep in r.representatives:
        assert all(fs in window for fs, _ in rep.terms)
        assert not apply_prolonged(delta_out, rep)
    # the representatives are independent modulo the whole in-map image
    coords = {fs: i for i, fs in enumerate(bm_in.target)}
    for rep in r.representatives:
        for fs, _ in rep.terms:
            coords.setdefault(fs, len(coords))
    vectors = [{i: c for i, c in col.items()} for col in bm_in.columns]
    vectors += [{coords[fs]: c for fs, c in rep.terms} for rep in r.representatives]
    dense = [[vec.get(i, 0) for i in range(len(coords))] for vec in vectors]
    assert dense_rank_oracle(dense) - rank_b == r.dim_homology


def test_free_scalar_sector1_homology_vanishes():
    m = free_scalar_model(2)
    report = kt_homology(m, TruncationWindow(1, 1, 1), max_stage=-1)
    assert report.dim_homology == 0
    assert report.dim_cycles == 0


def test_trivial_model_stage0_closure_kills_h1():
    m = trivial_model([("x", 0)], n=1)
    report = kt_homology(m, TruncationWindow(1, 1, 1))
    assert report.dim_homology == 0
    # everything was a cycle; the boundaries matched them all
    assert report.dim_cycles == report.rank_in_window


def test_generator_candidates():
    m = bf_model(2)
    reps = kt_homology(m, TruncationWindow(1, 1, 1), max_stage=-1).representatives
    assert len(reps) == 1
    m2 = free_scalar_model(2)
    assert kt_homology(m2, TruncationWindow(1, 1, 1), max_stage=-1).representatives == ()
    m3 = trivial_model([("x", 0)], n=1)
    reps3 = kt_homology(m3, TruncationWindow(0, 1, 1), max_stage=-1).representatives
    assert [render_poly(r) for r in reps3] == ["sbar(x)"]


def test_window_monotonicity():
    m = bf_model(2)
    delta = build_stage_differential(m, -1)
    dims = []
    ranks = []
    for j in (0, 1, 2):
        bm = boundary_matrix(delta, m, TruncationWindow(j, 1, 1), max_stage=-1)
        kernel_dim = len(bm.source) - bm.rank
        dims.append(kernel_dim)
        ranks.append(bm.rank)
    assert dims == sorted(dims)
    assert ranks == sorted(ranks)
    # along the degree axis as well
    by_degree = []
    for deg in (1, 2):
        bm = boundary_matrix(delta, m, TruncationWindow(1, deg, 1), max_stage=-1)
        by_degree.append((len(bm.source) - bm.rank, bm.rank))
    assert by_degree[0][0] <= by_degree[1][0]
    assert by_degree[0][1] <= by_degree[1][1]


def test_boundary_composition_is_zero_on_windows():
    m = bf_model(3)
    for sector in (1, 2):
        report = kt_homology(m, TruncationWindow(1, 1, sector))
        assert report.dim_homology >= 0  # reaching here means NotAComplex did not fire


def test_not_a_complex_detection():
    m = bf_model(2)
    bad = rebuild_with_mutation(m, 0, "D", (), flip_first_term)
    with pytest.raises(NotAComplex):
        kt_homology(bad, TruncationWindow(1, 1, 1))


def test_bf3_sector1_cycles_reduce_to_generator_prolongations():
    # every window cycle must be spanned by the declared divergence
    # generators and their prolongations; no cycle touches sbar(A)
    m = bf_model(3)
    t = m.table
    w = TruncationWindow(1, 1, 1)
    report = homology_dimension(m, w, -1, -1)
    from gaugelab.linalg import LinearSpan
    span = LinearSpan()
    from gaugelab import multi_total_derivative
    fam = m.family(0)
    for ct, member in fam.sorted_members():
        for mi in ((), (0,), (1,), (2,)):
            vec = {fs: c for fs, c in multi_total_derivative(member, mi).terms}
            span.add(vec)
    for rep in report.representatives:
        rem = span.reduce({fs: c for fs, c in rep.terms})
        assert not rem
        assert all(f.var.name != "sbar(A)"
                   for fs, _ in rep.terms for f in fs)


def test_regularity_probe_bf3():
    m = bf_model(3)
    r = regularity_probe(m, 0, max_jet_order=1, max_poly_degree=2)
    assert r.holds
    assert r.window_relative
    assert r.dim_cycles == r.rank_boundaries > 0
