"""Derivative operators, the integration-by-parts involution, and the
first variational formula."""

import pickle
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import (
    GradedPoly,
    VerticalDerivation,
    apply_prolonged,
    bf_model,
    build_stage_differential,
    eta,
    euler_lagrange,
    euler_operator,
    first_variation_residual,
    free_scalar_model,
    is_dH_exact,
    multi_total_derivative,
    partial_derivative,
    poly_sum,
    run_checks,
    total_derivative,
    trivial_model,
    variational_derivative,
)
from gaugelab.errors import IndexOutOfRange
from support import (
    assert_canonical_coefficients,
    jet_pool,
    oracle_apply_prolonged,
    oracle_euler_operator,
    oracle_partial_derivative,
    oracle_total_derivative,
    raised_pair,
    random_family,
    random_poly,
    two_field_model,
    unit_poly,
)

M = two_field_model()
T = M.table
POOL = jet_pool(T, ("s", "psi", "sbar(s)", "sbar(psi)"), 2)
RNG = random.Random(2024)

ODDM = trivial_model([("x", 0), ("y", 0)], n=1)
OT = ODDM.table
XB = OT.symbol("sbar(x)")
YB = OT.symbol("sbar(y)")


def test_left_partial_leading_factor_rule():
    p = GradedPoly.from_raw([(1, (XB, YB))])
    assert partial_derivative(p, XB) == GradedPoly.from_symbol(YB)
    # second factor: one odd crossing
    assert partial_derivative(p, YB) == GradedPoly.from_symbol(XB, -1)


def test_right_partial_sign_dictionary():
    p = GradedPoly.from_symbol(XB)
    # (-1)^(([p]+1)[x]) with odd p and odd x gives +1
    assert partial_derivative(p, XB, "right") == GradedPoly.constant(1)
    assert partial_derivative(p, XB, "right") == partial_derivative(p, XB)
    q = GradedPoly.from_raw([(1, (XB, YB))])
    # even q, odd x: right = -left
    assert partial_derivative(q, XB, "right") == -partial_derivative(q, XB)


def test_partial_of_even_square():
    s = T.symbol("s")
    p = GradedPoly.from_raw([(1, (s, s))])
    assert partial_derivative(p, s) == GradedPoly.from_symbol(s, 2)


def test_total_derivative_single_jet_raise():
    b = bf_model(2)
    b1 = b.table.symbol("B", (1,))
    d = total_derivative(GradedPoly.from_symbol(b1), 0)
    assert d == GradedPoly.from_symbol(b.table.symbol("B", (1,), (0,)))


def test_total_derivative_leibniz():
    b = bf_model(2)
    t = b.table
    a = t.symbol("A")
    b1 = t.symbol("B", (1,))
    p = GradedPoly.from_raw([(1, (a, b1))])
    d = total_derivative(p, 0)
    expect = (GradedPoly.from_raw([(1, (t.symbol("A", (), (0,)), b1))]) +
              GradedPoly.from_raw([(1, (a, t.symbol("B", (1,), (0,))))]))
    assert d == expect


def test_total_derivative_range_check():
    with pytest.raises(IndexOutOfRange):
        total_derivative(GradedPoly.from_symbol(T.symbol("s")), 5)


def test_total_derivatives_commute_on_random_inputs():
    for _ in range(100):
        f = random_poly(RNG, POOL)
        ab = total_derivative(total_derivative(f, 0), 1)
        ba = total_derivative(total_derivative(f, 1), 0)
        assert ab == ba


def test_multi_total_derivative():
    s = T.symbol("s")
    f = GradedPoly.from_symbol(s)
    assert multi_total_derivative(f, ()) == f
    assert multi_total_derivative(f, (0, 0)) == GradedPoly.from_symbol(
        T.symbol("s", (), (0, 0)))
    p = GradedPoly.from_raw([(1, (s, s))])
    assert multi_total_derivative(p, (0, 1)) == total_derivative(
        total_derivative(p, 1), 0)


def test_total_derivative_is_memoised_on_the_polynomial():
    s, psi = T.symbol("s"), T.symbol("psi")
    p = GradedPoly.from_raw([(Fraction(1, 2), (s, s)), (1, (s, psi))])
    d0 = total_derivative(p, 0)
    assert total_derivative(p, 0) == d0
    assert multi_total_derivative(p, (1, 0)) == total_derivative(d0, 1)
    assert multi_total_derivative(p, ()) is p
    assert total_derivative(GradedPoly.constant(3), 1).is_zero()
    # the memo holds each sorted prefix once, as raw numerators over p's
    # denominator, and a repeated call reads the stored list
    raw = p._d[(0,)]
    assert sorted(p._d) == [(), (0,), (0, 1)]
    assert GradedPoly(((fs, Fraction(c, p._den)) for fs, c in raw)) == d0
    total_derivative(p, 0)
    assert p._d[(0,)] is raw
    # a filled memo is invisible to equality, hashing, repr and pickling
    fresh = GradedPoly(p.terms)
    assert fresh._d is None
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert pickle.dumps(p) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back._d is None


def test_stage_differential_images_are_the_members_memoised_derivatives():
    m = bf_model(5)
    assert all(r.ok for r in run_checks(m))
    d = build_stage_differential(m)
    # the check run filled the raw memos of the components it read
    assert any(comp._d for comp in d.components.values())
    for sym, comp in d.components.items():
        for lam in ((0,), (1, 3), (0, 2, 2)):
            jet = m.table.symbol(sym.var, sym.components, lam)
            img = multi_total_derivative(comp, lam)
            assert img == oracle_apply_prolonged(d, GradedPoly.from_symbol(jet))


def test_full_check_computes_each_derivative_once(monkeypatch):
    from gaugelab import jets
    real = jets._raw_derivative
    computed = {}   # (polynomial id, derivative prefix) -> the polynomial

    def counting(p, L):
        prefixes = [L[:k] for k in range(1, len(L) + 1)]
        before = [(p._d or {}).get(pre) for pre in prefixes]
        out = real(p, L)
        after = [(p._d or {}).get(pre) for pre in prefixes]
        assert not L or out is after[-1]
        for pre, old, new in zip(prefixes, before, after):
            # a raw image the memo did not hold, or one stored anew, is a miss
            if (old is None or new is not old) and p.max_degree() > 0:
                assert (id(p), pre) not in computed
                computed[(id(p), pre)] = p
        return out

    monkeypatch.setattr(jets, "_raw_derivative", counting)
    m = bf_model(6)
    assert all(r.ok for r in run_checks(m))
    # the whole check of bf:6 needs 408 distinct derivatives
    assert 0 < len(computed) <= 408
    # a second check of the same model finds every image of the stage
    # differential in the memos; only the new ascent operator's are computed
    assert all(r.ok for r in run_checks(m))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multi_total_derivative_is_every_composition(seed):
    rng = random.Random(seed)
    # odd factors and fractional coefficients; the component of an odd
    # derivation on the even s is odd
    s, psi = T.symbol("s"), T.symbol("psi")
    p = poly_sum([random_poly(rng, POOL, max_terms=5, parity=1, max_den=12),
                  GradedPoly.from_raw([(Fraction(5, 13), (psi, s.raised(1)))])])
    L = tuple(rng.choice((0, 1)) for _ in range(rng.randint(0, 3)))
    want = p
    for lam in L:
        want = oracle_total_derivative(want, lam)

    def composed(q, order):
        for lam in order:
            q = total_derivative(q, lam)
        return q

    # twin's raw memo is filled through a derivation image first; p's is empty
    twin = GradedPoly(p.terms)
    v = VerticalDerivation({s: twin}, parity=1, side=rng.choice(("left", "right")))
    apply_prolonged(v, GradedPoly.from_raw([(1, (psi, T.symbol("s", (), L)))]))
    assert tuple(sorted(L)) in twin._d and p._d is None
    for q in (p, twin):
        got = multi_total_derivative(q, L)
        assert got == want
        assert_canonical_coefficients(got)
        for order in set(permutations(L)):
            assert composed(q, order) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_linear_derivations_on_linear_inputs_match_the_oracles(seed):
    # every term of the components and of the input has one factor, as on
    # every bf:N tower, except a constant, whose derivatives and image vanish
    rng = random.Random(seed)
    parity, side = rng.randint(0, 1), rng.choice(("left", "right"))

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))

    def linear(pool, k):
        return GradedPoly.from_raw([(coeff(), (x,)) for x in rng.sample(pool, k)])

    comps = {}
    for x in rng.sample([T.symbol(nm) for nm in ("s", "psi", "sbar(s)", "sbar(psi)")],
                        rng.randint(1, 4)):
        want = (parity + x.parity) % 2
        comp = linear([f for f in POOL if f.parity == want], rng.randint(1, 4))
        comps[x] = comp if want else comp + GradedPoly.constant(coeff())
    v = VerticalDerivation(comps, parity=parity, side=side)
    p = linear(POOL, rng.randint(1, 6)) + GradedPoly.constant(coeff())
    L = tuple(rng.choice((0, 1)) for _ in range(rng.randint(1, 3)))
    want_image = oracle_apply_prolonged(v, p)
    want_d = p
    for lam in L:
        want_d = oracle_total_derivative(want_d, lam)
    assert all(comp._d is None for comp in comps.values()) and p._d is None
    # read cold, then again from the filled memos
    for _ in range(2):
        got = apply_prolonged(v, p)
        assert got == want_image
        assert_canonical_coefficients(got)
        got = multi_total_derivative(p, L)
        assert got == want_d
        assert_canonical_coefficients(got)
    assert tuple(sorted(L)) in p._d


def test_euler_lagrange_second_order_scalar():
    m = free_scalar_model(1)
    t = m.table
    el = euler_lagrange(t, m.lagrangian)
    assert el[t.symbol("s")] == GradedPoly.from_symbol(
        t.symbol("s", (), (0, 0)), -1)


def test_euler_lagrange_kills_divergences():
    for _ in range(100):
        xi = random_poly(RNG, POOL)
        lam = RNG.randint(0, 1)
        el = euler_lagrange(T, total_derivative(xi, lam))
        assert all(e.is_zero() for e in el.values())


def test_variational_derivative_examples():
    m = bf_model(2)
    t = m.table
    # linear antifield pairing: d/d sbar(A) of sbar(A)*E with E antifield-free
    e_a = m.euler_lagrange_map()[t.symbol("A")]
    p = GradedPoly.from_symbol(t.symbol("sbar(A)")) * e_a
    v = variational_derivative(p, t.decl("sbar(A)"))
    assert v == e_a or v == -e_a
    # variational derivative of a divergence is zero
    c = t.symbol("c(0)")
    f = random_poly(RNG, jet_pool(t, ("A", "B"), 1), parity=1)
    dd = total_derivative(GradedPoly.from_symbol(c) * f, 0)
    assert variational_derivative(dd, t.decl("c(0)")).is_zero()
    # BF n=2: variational derivative w.r.t. B_1 is -(1/2) d_0 A
    vb1 = variational_derivative(m.lagrangian, t.decl("B"), (1,))
    assert vb1 == GradedPoly.from_symbol(t.symbol("A", (), (0,)), Fraction(-1, 2))


def test_eta_order_zero_identity():
    f = {(): GradedPoly.from_symbol(T.symbol("s"))}
    assert eta(f) == f


def test_eta_first_order_sign():
    one = GradedPoly.constant(1)
    e = eta({(0,): one})
    assert e[(0,)] == -one
    assert () not in e


def test_eta_on_plain_maps():
    f, g = random_poly(RNG, POOL, max_terms=2), random_poly(RNG, POOL, max_terms=2)
    # two spellings of one multiset are one entry
    assert eta({(0, 1): f, (1, 0): g}) == eta({(0, 1): f + g})
    # a zero entry leaves no key
    assert eta({(): GradedPoly.zero()}) == {}
    for _ in range(20):
        fam = {tuple(RNG.choice(range(2)) for _ in range(RNG.randint(0, 3))):
               random_poly(RNG, POOL, max_terms=2) for _ in range(RNG.randint(1, 3))}
        e = eta(fam)
        assert all(list(mi) == sorted(mi) and p for mi, p in e.items())


def test_eta_involution_on_random_families():
    for _ in range(80):
        fam = random_family(RNG, POOL, 4, 4)
        assert eta(eta(fam)) == fam


def test_eta_defining_identity():
    # sum (-1)^|L| d_L(f^L p) = sum eta(f)^L d_L p
    for _ in range(40):
        fam = random_family(RNG, POOL, 2, 3, max_terms=2)
        p = random_poly(RNG, POOL, max_terms=2)
        lhs = GradedPoly.zero()
        for mi, fl in fam.items():
            term = multi_total_derivative(fl * p, mi)
            lhs = lhs + term if len(mi) % 2 == 0 else lhs - term
        rhs = GradedPoly.zero()
        for mi, el in eta(fam).items():
            rhs = rhs + el * multi_total_derivative(p, mi)
        assert lhs == rhs


def test_integration_by_parts_residual_is_divergence():
    for _ in range(25):
        fam = random_family(RNG, POOL, 2, 3, max_terms=2)
        fprime = random_poly(RNG, POOL, max_terms=2)
        lhs = GradedPoly.zero()
        rhs = GradedPoly.zero()
        for mi, fl in fam.items():
            lhs = lhs + fl * multi_total_derivative(fprime, mi)
            t = multi_total_derivative(fl, mi) * fprime
            rhs = rhs + t if len(mi) % 2 == 0 else rhs - t
        assert is_dH_exact(lhs - rhs)


def test_is_dH_exact_examples():
    s = T.symbol("s")
    s1 = T.symbol("s", (), (1,))
    p = total_derivative(GradedPoly.from_raw([(1, (s, s1))]), 0)
    assert is_dH_exact(p)
    assert not is_dH_exact(GradedPoly.from_raw([(1, (s, s))]))
    assert is_dH_exact(GradedPoly.constant(1))


def _ghost_derivation(model, parity=1):
    t = model.table
    comps = {t.symbol("s"): GradedPoly.from_symbol(t.symbol("c(0:D_s)"))}
    return VerticalDerivation(comps, parity=parity, side="left")


def test_apply_prolonged_examples():
    t = T
    c = t.symbol("c(0:D_s)")
    v = _ghost_derivation(M)
    s0 = GradedPoly.from_symbol(t.symbol("s", (), (0,)))
    assert apply_prolonged(v, s0) == GradedPoly.from_symbol(
        t.symbol("c(0:D_s)", (), (0,)))
    p = GradedPoly.from_raw([(1, (t.symbol("s"), t.symbol("s", (), (0,))))])
    out = apply_prolonged(v, p)
    expect = (GradedPoly.from_raw([(1, (c, t.symbol("s", (), (0,))))]) +
              GradedPoly.from_raw([(1, (t.symbol("s"), t.symbol("c(0:D_s)", (), (0,))))]))
    assert out == expect


def test_bare_differential_prolongation():
    m = free_scalar_model(2)
    t = m.table
    delta = build_stage_differential(m, -1)
    e = m.euler_lagrange_map()[t.symbol("s")]
    img = apply_prolonged(delta, GradedPoly.from_symbol(t.symbol("sbar(s)", (), (0, 1))))
    assert img == multi_total_derivative(e, (0, 1))


def test_prolongation_commutes_with_total_derivative():
    for _ in range(50):
        comps = {}
        par = RNG.randint(0, 1)
        for nm in ("s", "psi"):
            z = T.symbol(nm)
            comps[z] = random_poly(RNG, POOL, parity=(par + z.parity) % 2)
        v = VerticalDerivation(comps, parity=par, side="left")
        f = random_poly(RNG, POOL)
        lam = RNG.randint(0, 1)
        assert apply_prolonged(v, total_derivative(f, lam)) == \
            total_derivative(apply_prolonged(v, f), lam)


def test_first_variation_residual_examples():
    m = free_scalar_model(1)
    t = m.table
    comps = {t.symbol("s"): GradedPoly.from_symbol(t.symbol("sbar(s)"))}
    v = VerticalDerivation(comps, parity=1, side="left")
    r = first_variation_residual(m.lagrangian, v)
    assert is_dH_exact(r)
    zero = VerticalDerivation({}, parity=1, side="left")
    assert first_variation_residual(m.lagrangian, zero).is_zero()


def test_first_variation_residual_randomized():
    for _ in range(100):
        L = random_poly(RNG, POOL, max_terms=3)
        par = RNG.randint(0, 1)
        comps = {}
        for nm in ("s", "psi"):
            z = T.symbol(nm)
            comps[z] = random_poly(RNG, POOL, max_terms=2, parity=(par + z.parity) % 2)
        v = VerticalDerivation(comps, parity=par, side="left")
        assert is_dH_exact(first_variation_residual(L, v))


# the same two fields declared by a second, separately built model: its
# symbols are other objects that compare equal by value
OTHER = two_field_model().table


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(1, 12))
def test_derivative_kernels_match_plain_arithmetic_oracles(seed, lam, k):
    rng = random.Random(seed)
    # an even factor to the k-th power, each copy taken from either model
    name, deriv = rng.choice((("s", ()), ("s", (0,)), ("sbar(psi)", ())))
    copies = [rng.choice((T, OTHER)).symbol(name, (), deriv) for _ in range(k)]
    inputs = [random_poly(rng, POOL, max_terms=5), unit_poly(rng, POOL, max_terms=5),
              random_poly(rng, POOL, max_terms=5, max_den=12),
              poly_sum([unit_poly(rng, POOL), raised_pair(rng, POOL, lam)]),
              GradedPoly.from_raw([(Fraction(rng.randint(1, 9), rng.randint(1, 9)), copies)]),
              GradedPoly.from_raw([(1, copies + rng.sample(POOL, 2))])]
    for p in inputs:
        got = total_derivative(p, lam)
        assert got == oracle_total_derivative(p, lam)
        assert_canonical_coefficients(got)
        assert is_dH_exact(got)
        for x in {*p.symbols(), *copies}:
            for side in ("left", "right"):
                got = partial_derivative(p, x, side)
                assert got == oracle_partial_derivative(p, x, side)
                assert_canonical_coefficients(got)
        el = oracle_euler_operator(p)
        assert euler_operator(p) == el
        assert is_dH_exact(p) == (not any(el.values()))
        for table in (T, OTHER):
            for decl in table.decls:
                x = table.symbol(decl)
                got = variational_derivative(p, decl)
                assert got == el.get(x, GradedPoly.zero())
                assert_canonical_coefficients(got)


def test_total_derivative_of_raised_pair_cancels():
    s, psi = T.symbol("s"), T.symbol("psi")
    pair = GradedPoly.from_raw([(1, (s.raised(0), psi)), (-1, (s, psi.raised(0)))])
    got = total_derivative(pair, 0)
    assert got == GradedPoly.from_raw([(1, (s.raised(0).raised(0), psi)),
                                       (-1, (s, psi.raised(0).raised(0)))])
    assert got == oracle_total_derivative(pair, 0)
    assert_canonical_coefficients(got)


# s and the even sbar(psi): rotating one into the other, v(s) = t and
# v(t) = -s, maps SQUARE to terms that cancel in the accumulator
S_, T_ = T.symbol("s"), T.symbol("sbar(psi)")
SQUARE = GradedPoly.from_raw([(1, (S_, S_)), (1, (T_, T_)),
                              (1, (S_.raised(0), S_)), (1, (T_.raised(0), T_))])


def _random_derivation(rng, par, side):
    """Random +-1 components on s and psi; an even one also rotates s and t."""
    comps = {}
    for nm in ("s", "psi"):
        z = T.symbol(nm)
        comps[z] = unit_poly(rng, POOL, max_terms=3, parity=(par + z.parity) % 2)
    if par == 0:
        comps[S_] = comps[S_] + GradedPoly.from_symbol(T_)
        comps[T_] = GradedPoly.from_symbol(S_, -1)
    return VerticalDerivation(comps, parity=par, side=side)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.sampled_from(("left", "right")))
def test_apply_prolonged_matches_plain_arithmetic_oracle(seed, par, side):
    rng = random.Random(seed)
    v = _random_derivation(rng, par, side)
    for p in (random_poly(rng, POOL, max_terms=4), unit_poly(rng, POOL, max_terms=4),
              SQUARE, poly_sum([SQUARE, unit_poly(rng, POOL)])):
        got = apply_prolonged(v, p)
        assert got == oracle_apply_prolonged(v, p)
        assert_canonical_coefficients(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.sampled_from(("left", "right")))
def test_apply_prolonged_over_mixed_denominators(seed, par, side):
    rng = random.Random(seed)
    comps = {}
    for z, comp in _random_derivation(rng, par, side).components.items():
        comp = comp.scale(Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 4, 5, 7, 11, 12))))
        if (par + z.parity) % 2 == 0:
            # a constant part that total derivatives drop, so the images of
            # derived symbols have other denominators than the component
            comp = comp + GradedPoly.constant(Fraction(1, rng.choice((5, 7, 11))))
        comps[z] = comp
    v = VerticalDerivation(comps, parity=par, side=side)
    for p in (random_poly(rng, POOL, max_terms=4, max_den=12), SQUARE,
              poly_sum([SQUARE.scale(Fraction(1, 6)), unit_poly(rng, POOL)])):
        got = apply_prolonged(v, p)
        assert got == oracle_apply_prolonged(v, p)
        assert_canonical_coefficients(got)


def test_rotation_of_the_square_cancels_to_zero():
    v = VerticalDerivation({S_: GradedPoly.from_symbol(T_), T_: GradedPoly.from_symbol(S_, -1)},
                           parity=0)
    assert apply_prolonged(v, SQUARE).is_zero()
    assert oracle_apply_prolonged(v, SQUARE).is_zero()
