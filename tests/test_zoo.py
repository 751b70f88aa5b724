"""Built-in models: construction, gradings, and end-to-end verification."""

import pytest

from gaugelab import (
    GradedPoly,
    bf_model,
    build_stage_differential,
    check_nilpotency,
    epsilon,
    free_scalar_model,
    identity_witness,
    kt_homology,
    trivial_model,
    TruncationWindow,
)


def test_epsilon():
    assert epsilon((0, 1)) == 1
    assert epsilon((1, 0)) == -1
    assert epsilon((0, 0)) == 0
    assert epsilon((2, 0, 1)) == 1


def test_bf2_variable_set():
    m = bf_model(2)
    names = [d.name for d in m.table.decls]
    assert names == ["A", "sbar(A)", "B", "sbar(B)", "cbar(0)", "c(0)"]
    assert m.max_stage == 0
    assert m.table.decl("sbar(B)").parity == 1
    assert m.table.decl("cbar(0)").parity == 0
    assert m.table.decl("cbar(0)").antifield_number == 2
    assert m.table.decl("c(0)").parity == 1
    assert m.table.decl("c(0)").ghost_number == 1


def test_bf_tower_gradings():
    m = bf_model(4)
    assert m.max_stage == 2
    for k in range(3):
        fam = m.family(k)
        anti = fam.antifield
        ghost = fam.ghost
        assert anti.antifield_number == k + 2
        assert anti.parity == k % 2
        assert ghost.ghost_number == k + 1
        assert ghost.parity == (k + 1) % 2
        assert anti.arity == 4 - 2 - k
        for ct, member in fam.sorted_members():
            assert not member.is_zero()


def test_bf_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        bf_model(1)


def test_bf_stage_counts():
    assert bf_model(3).max_stage == 1
    assert len(bf_model(3).family(0).members) == 3
    assert len(bf_model(4).family(0).members) == 6


def test_trivial_model():
    m = trivial_model([("x", 0)], n=1)
    assert identity_witness(m, m.family(0)) is None
    assert check_nilpotency(build_stage_differential(m)).ok
    assert kt_homology(m, TruncationWindow(1, 1, 1)).dim_homology == 0


def test_free_scalar_model():
    m = free_scalar_model(2)
    t = m.table
    el = m.euler_lagrange_map()[t.symbol("s")]
    expect = (GradedPoly.from_symbol(t.symbol("s", (), (0, 0)), -1) +
              GradedPoly.from_symbol(t.symbol("s", (), (1, 1)), -1))
    assert el == expect
    assert check_nilpotency(build_stage_differential(m, -1)).ok
    assert m.families == ()
