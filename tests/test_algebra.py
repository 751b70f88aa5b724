"""Canonical form, graded products, and grading bookkeeping."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab import (
    GradedPoly,
    Grading,
    IndexOutOfRange,
    UnknownVariable,
    grading_of,
    normalize,
    poly_sum,
    render_poly,
)
from support import jet_pool, random_poly, two_field_model

M = two_field_model()
T = M.table
S = T.symbol("s")
S0 = T.symbol("s", (), (0,))
POOL = jet_pool(T, ("s", "psi", "sbar(s)", "sbar(psi)"), 2)

# two even scalars, so both antifields are odd
from gaugelab import trivial_model
M2 = trivial_model([("x", 0), ("y", 0)], n=1)
T2 = M2.table
CBAR_A = T2.symbol("sbar(x)")
CBAR_B = T2.symbol("sbar(y)")


def test_normalize_odd_anticommutativity():
    p = normalize(T2, [(1, (CBAR_A, CBAR_B)), (1, (CBAR_B, CBAR_A))])
    assert p.is_zero()


def test_normalize_odd_square():
    assert normalize(T2, [(1, (CBAR_A, CBAR_A))]).is_zero()


def test_normalize_even_commutativity():
    p = normalize(T, [(3, (S0, S)), (2, (S, S0))])
    assert p == GradedPoly.from_raw([(5, (S, S0))])


def test_normalize_validates_names_and_ranges():
    with pytest.raises(UnknownVariable):
        normalize(T, [(1, [("nope", (), ())])])
    with pytest.raises(IndexOutOfRange):
        normalize(T, [(1, [("s", (), (5,))])])


def test_graded_mul_examples():
    a = GradedPoly.from_symbol(CBAR_A)
    b = GradedPoly.from_symbol(CBAR_B)
    ab = a * b
    assert ab == GradedPoly.from_raw([(1, (CBAR_A, CBAR_B))])
    assert (b * a) == -ab
    assert (a * a).is_zero()
    two_s = GradedPoly.from_symbol(S, 2)
    three_s = GradedPoly.from_symbol(S, 3)
    assert two_s * three_s == GradedPoly.from_raw([(6, (S, S))])


def test_grading_of_examples():
    assert grading_of(GradedPoly.from_symbol(CBAR_A)) == Grading(1, 1, -1)
    p = GradedPoly.from_raw([(1, (CBAR_A, CBAR_B))])
    g = grading_of(p)
    assert g.antifield_number == 2 and g.parity == 0
    mixed = GradedPoly.from_symbol(S) + GradedPoly.from_symbol(T.symbol("sbar(s)"))
    assert grading_of(mixed) == "inhomogeneous"
    assert grading_of(GradedPoly.zero()) == Grading(0, 0, 0)


def test_stage_antifield_grading():
    # the generator antifields of a stage-0 family carry antifield number 2
    fam = M.families[0]
    anti = M.family_antifield(fam)
    assert anti.antifield_number == 2
    ghost = M.family_ghost(fam)
    assert ghost.ghost_number == 1
    assert ghost.parity == (anti.parity + 1) % 2


@st.composite
def raw_terms(draw):
    k = draw(st.integers(1, 4))
    out = []
    for _ in range(k):
        fs = draw(st.lists(st.sampled_from(POOL), max_size=4))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 4))
        out.append((Fraction(num, den), tuple(fs)))
    return out


@settings(max_examples=120, deadline=None)
@given(raw_terms())
def test_normalize_idempotent(raw):
    p = normalize(T, raw)
    again = normalize(T, [(c, fs) for fs, c in p.terms])
    assert again == p


@settings(max_examples=120, deadline=None)
@given(raw_terms(), raw_terms())
def test_supercommutativity(raw_a, raw_b):
    rng = random.Random(0)
    a = normalize(T, raw_a)
    b = normalize(T, raw_b)
    ga = grading_of(a)
    gb = grading_of(b)
    if ga == "inhomogeneous" or gb == "inhomogeneous":
        return
    sign = -1 if (ga.parity and gb.parity) else 1
    assert a * b == (b * a).scale(sign)


@settings(max_examples=60, deadline=None)
@given(raw_terms(), raw_terms(), raw_terms())
def test_associativity_and_bilinearity(ra, rb, rc):
    a, b, c = (normalize(T, r) for r in (ra, rb, rc))
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
@example(0, 0)
def test_poly_sum_matches_repeated_add(seed, k):
    rng = random.Random(seed)
    ps = [random_poly(rng, POOL, max_terms=5) for _ in range(k)]
    total = poly_sum(ps)
    assert total == functools.reduce(operator.add, ps, GradedPoly.zero())
    # independent of both: one canonicalisation of every term at once
    assert total == GradedPoly.from_raw((c, fs) for p in ps for fs, c in p.terms)
    keys = [tuple(f.key for f in fs) for fs, _ in total.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(c != 0 for _, c in total.terms)
    mixed = ps + [-p for p in ps]
    rng.shuffle(mixed)
    assert poly_sum(mixed).is_zero()
    for p in ps:
        assert poly_sum([p]) == p
        assert poly_sum([p, -p]).is_zero()


def test_exact_coefficients_at_256_bit_scale():
    big = 2**256 + 9
    q = Fraction(big, big + 2)
    p = GradedPoly.from_symbol(S, q)
    r = p.scale(Fraction(big + 2, big))
    assert r == GradedPoly.from_symbol(S, 1)
    prod = Fraction(3, 7) * Fraction(big, 5)
    assert prod * Fraction(5, big) == Fraction(3, 7)


def test_rendering_is_deterministic_and_sorted():
    rng = random.Random(3)
    p = random_poly(rng, POOL, max_terms=5)
    assert render_poly(p) == render_poly(p)
    assert render_poly(GradedPoly.zero()) == "0"
    one = GradedPoly.constant(Fraction(-3, 2))
    assert render_poly(one) == "-3/2"


def test_antisymmetric_components_normalize_with_sign():
    from gaugelab import bf_model
    m = bf_model(3)
    t = m.table
    s01 = normalize(t, [(1, [("B", (0, 1), ())])])
    s10 = normalize(t, [(1, [("B", (1, 0), ())])])
    assert s10 == -s01
    assert normalize(t, [(1, [("B", (1, 1), ())])]).is_zero()


def test_conflicting_declaration_is_a_model_mismatch():
    from gaugelab import ModelMismatch, trivial_model
    other = trivial_model([("s", 1)], n=2)  # same name, opposite parity
    foreign = other.table.symbol("s")
    with pytest.raises(ModelMismatch):
        normalize(T, [(1, (foreign,))])
