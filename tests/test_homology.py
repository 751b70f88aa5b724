"""Window chain spaces, boundary matrices, homology dimensions, and the
regularity probe, cross-checked against a dense elimination oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import (
    GradedPoly,
    NotAComplex,
    TruncationWindow,
    bf_model,
    boundary_matrix,
    build_stage_differential,
    chain_basis,
    free_scalar_model,
    generator_candidates,
    homology_dimension,
    kt_homology,
    regularity_probe,
    render_poly,
    trivial_model,
)
from gaugelab.homology import BoundaryMatrix
from gaugelab.linalg import kernel_of_columns
from support import boundary_rows, dense_rank_oracle, rebuild_with_mutation, flip_first_term


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


def test_bf2_sector1_kernel_is_the_divergence():
    m = bf_model(2)
    t = m.table
    delta = build_stage_differential(m, -1)
    w = TruncationWindow(1, 1, 1)
    report = homology_dimension(m, delta, delta, w, max_stage_out=-1, max_stage_in=-1)
    assert report.dim_homology == 1
    rep = report.representatives[0].coefficient
    expect = (GradedPoly.from_symbol(t.symbol("sbar(B)", (0,), (0,))) +
              GradedPoly.from_symbol(t.symbol("sbar(B)", (1,), (1,))))
    assert rep == expect
    # no representative involves the antifield of the scalar field
    for r in report.representatives:
        assert all(f.var.name != "sbar(A)" for fs, _ in r.coefficient.terms for f in fs)


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
    assert bm.rank == dense_rank_oracle(boundary_rows(bm))
    assert bm.rank + len(kernel_of_columns(bm.columns)) == len(bm.source)


@pytest.mark.parametrize("n, sector, jets, degree, dims", [
    (3, 2, 2, 2, (2010, 362, 362, 0)),
    (4, 1, 1, 2, (650, 166, 166, 0)),
])
def test_kt_homology_larger_windows(n, sector, jets, degree, dims):
    # dims confirmed by an elimination outside gaugelab.linalg
    r = kt_homology(bf_model(n), TruncationWindow(jets, degree, sector))
    assert (r.dim_chains, r.dim_cycles, r.rank_in_window, r.dim_homology) == dims


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
    reps = generator_candidates(m, TruncationWindow(1, 1, 1), max_stage=-1)
    assert len(reps) == 1
    m2 = free_scalar_model(2)
    assert generator_candidates(m2, TruncationWindow(1, 1, 1), max_stage=-1) == ()
    m3 = trivial_model([("x", 0)], n=1)
    reps3 = generator_candidates(m3, TruncationWindow(0, 1, 1), max_stage=-1)
    assert [render_poly(r.coefficient) for r in reps3] == ["sbar(x)"]


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
    delta = build_stage_differential(m, -1)
    w = TruncationWindow(1, 1, 1)
    report = homology_dimension(m, delta, delta, w, max_stage_out=-1, max_stage_in=-1)
    from gaugelab.linalg import LinearSpan
    span = LinearSpan()
    from gaugelab import multi_total_derivative
    fam = m.family(0)
    for ct, member in fam.sorted_members():
        for mi in ((), (0,), (1,), (2,)):
            vec = {fs: c for fs, c in multi_total_derivative(member, mi).terms}
            span.add(vec)
    for rep in report.representatives:
        rem = span.reduce({fs: c for fs, c in rep.coefficient.terms})
        assert not rem
        assert all(f.var.name != "sbar(A)"
                   for fs, _ in rep.coefficient.terms for f in fs)


def test_regularity_probe_bf3():
    m = bf_model(3)
    r = regularity_probe(m, 0, max_jet_order=1, max_poly_degree=2)
    assert r.holds
    assert r.window_relative
    assert r.dim_cycles == r.rank_boundaries > 0
