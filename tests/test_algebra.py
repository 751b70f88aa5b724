"""Canonical form, graded products, and grading bookkeeping."""

import functools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab import (
    GradedPoly,
    Grading,
    IndexOutOfRange,
    JetSymbol,
    ModelMismatch,
    UnknownVariable,
    bf_model,
    build_stage_differential,
    check_nilpotency,
    grading_of,
    normalize,
    partial_derivative,
    poly_sum,
    render_poly,
    total_derivative,
)
from gaugelab.algebra import perm_sign
from support import (
    _canon_factors,
    assert_canonical_coefficients,
    jet_pool,
    oracle_mul,
    random_poly,
    two_field_model,
    unit_poly,
)

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
    anti = fam.antifield
    assert anti.antifield_number == 2
    ghost = fam.ghost
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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mul_matches_plain_arithmetic_oracle(seed):
    rng = random.Random(seed)
    a = random_poly(rng, POOL, max_terms=5)
    u = unit_poly(rng, POOL, max_terms=5)
    # (u + w)(u - w) with w even: the cross terms cancel in the accumulator
    w = unit_poly(rng, POOL, max_terms=2, parity=0)
    m = random_poly(rng, POOL, max_terms=5, max_den=12)
    for x, y in ((a, u), (u, a), (u, u), (u + w, u - w), (a, -a), (a, m), (m, m)):
        got = x * y
        assert got == oracle_mul(x, y)
        assert_canonical_coefficients(got)
    assert_canonical_coefficients(u)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((5, 7, 11, 12)))
def test_mixed_denominators_reduce_to_lowest_terms(seed, d):
    rng = random.Random(seed)
    a, b = (random_poly(rng, POOL, max_terms=5, max_den=12) for _ in range(2))
    q = Fraction(rng.choice((1, 2, 3, 5, 7, 11)), d)
    total = poly_sum([a, b])
    assert total == GradedPoly.from_raw((c, fs) for p in (a, b) for fs, c in p.terms)
    # sums over the lcm of the denominators that cancel down to b alone, and
    # integer multiples of b that a common factor brings back to b
    for got in (poly_sum([a, b, -a]), poly_sum([total, -a]),
                poly_sum([b.scale(d), a, -a]).scale(Fraction(1, d)),
                poly_sum([b.scale(q), b.scale(1 - q)]), b.scale(q).scale(1 / q)):
        assert got == b and hash(got) == hash(b)
        assert_canonical_coefficients(got)
    for got in (total, a.scale(q), a * b.scale(q)):
        assert_canonical_coefficients(got)


def _oracle_from_raw(raw):
    """Canonical (factors, Fraction) terms of raw (coefficient, factors) pairs:
    each term sorted and signed by _canon_factors, summed over Fraction."""
    acc = {}
    for c, fs in raw:
        r = _canon_factors(fs)
        if r is not None:
            sign, key = r
            acc[key] = acc.get(key, Fraction(0)) + Fraction(c) * sign
    return tuple(sorted(((fs, q) for fs, q in acc.items() if q),
                        key=lambda t: [f.key for f in t[0]]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_from_raw_matches_an_independent_oracle(seed):
    # int, Fraction and zero coefficients; factors in any order, as a tuple
    # or a list, odd factors repeated; and pairs that cancel, also through a
    # reordering
    rng = random.Random(seed)
    raw = []
    for _ in range(rng.randint(0, 6)):
        fs = [rng.choice(POOL) for _ in range(rng.randint(0, 4))]
        if fs and rng.random() < 0.3:
            fs.insert(rng.randrange(len(fs) + 1), rng.choice(fs))
        c = rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
        raw.append((c, tuple(fs)))
        if rng.random() < 0.3:
            raw.append((-c, rng.choice((tuple(fs), list(fs)))))
            rng.shuffle(fs)
            raw.append((c, list(fs)))
    rng.shuffle(raw)
    want = _oracle_from_raw(raw)
    got = GradedPoly.from_raw(raw)
    assert got.terms == want
    assert_canonical_coefficients(got)
    # on canonical input the constructor and from_raw agree, ints or not
    assert GradedPoly(want) == got == GradedPoly.from_raw((c, fs) for fs, c in want)
    ints = tuple((fs, c.numerator) for fs, c in want)
    assert GradedPoly(ints) == GradedPoly.from_raw((c, fs) for fs, c in ints)
    assert_canonical_coefficients(GradedPoly(ints))


def test_from_raw_of_lone_factors():
    # a one-factor term, odd or even and given as a tuple or a list, merges
    # with no sort, and merges that cancel leave the zero polynomial
    psi = T.symbol("psi", (), (1,))
    assert GradedPoly.from_raw([(1, [psi])]) == GradedPoly.from_symbol(psi)
    assert GradedPoly.from_raw([(2, (psi,)), (-1, [psi])]).terms == (((psi,), 1),)
    for raw in ([(1, (psi,)), (-1, [psi])], [(Fraction(1, 3), [S]), (Fraction(-2, 6), (S,))]):
        got = GradedPoly.from_raw(raw)
        assert got.is_zero() and got == GradedPoly.zero()
        assert_canonical_coefficients(got)


def test_mul_cancels_to_zero_coefficients_and_drops_them():
    s, t = T2.symbol("x"), T2.symbol("y")
    a = GradedPoly.from_raw([(1, (s,)), (1, (t,))])
    b = GradedPoly.from_raw([(1, (s,)), (-1, (t,))])
    got = a * b
    assert got == GradedPoly.from_raw([(1, (s, s)), (-1, (t, t))])
    assert got == oracle_mul(a, b)
    assert_canonical_coefficients(got)


def test_scale_by_one_and_minus_one():
    p = random_poly(random.Random(5), POOL, max_terms=5)
    assert p.scale(1) is p
    assert p.scale(Fraction(1)) is p
    assert p.scale(-1) == -p
    assert p.scale(Fraction(-1)) == -p
    assert p.scale(-1).scale(-1) == p
    assert_canonical_coefficients(p.scale(-1))
    assert p.scale(0).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fraction_view_is_the_public_contract(seed):
    rng = random.Random(seed)
    p = random_poly(rng, POOL, max_terms=5, max_den=12)
    r = random_poly(rng, POOL, max_terms=5, max_den=12)
    # the view rebuilds the identical stored form
    back = GradedPoly(p.terms)
    assert back == p and back._terms == p._terms and back._den == p._den
    assert GradedPoly(reversed(p.terms)) == p
    assert_canonical_coefficients(back)
    # equality of polynomials is equality of their views, whatever the route
    same = poly_sum([p.scale(7), r, -r]).scale(Fraction(1, 7))
    for q in (same, r, p.scale(Fraction(5, 11)), GradedPoly.zero()):
        assert (p == q) == (p.terms == q.terms)
        if p == q:
            assert hash(p) == hash(q)
    assert p == same
    # the benchmark's defect: the first term's sign flipped through the view
    if p:
        (fs, c), *rest = p.terms
        flipped = GradedPoly(((fs, -c),) + tuple(rest))
        assert flipped == p - GradedPoly.from_raw([(2 * c, fs)])
        assert flipped.terms == ((fs, -c),) + tuple(rest)
        assert_canonical_coefficients(flipped)


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


# interning: one object per jet coordinate and declaration, equality by value

BF3 = bf_model(3)


@st.composite
def coordinates(draw):
    """(declaration, components, derivative in any order) of bf:3."""
    t = BF3.table
    decl = draw(st.sampled_from(t.decls))
    comps = draw(st.sampled_from(t.component_tuples(decl)))
    deriv = draw(st.lists(st.integers(0, t.n - 1), max_size=3))
    return decl, comps, deriv


@settings(max_examples=100, deadline=None)
@given(coordinates(), st.integers(0, 2))
def test_symbols_are_interned_per_declaration(coord, lam):
    decl, comps, deriv = coord
    sym = JetSymbol(decl, comps, deriv)
    assert JetSymbol(decl, list(comps), reversed(deriv)) is sym
    assert sym.derivative == tuple(sorted(deriv))
    assert sym.parity == decl.parity
    assert sym.raised(lam) is JetSymbol(decl, comps, deriv + [lam])
    assert sym.zero_order() is JetSymbol(decl, comps)
    assert sym.zero_order().zero_order() is sym.zero_order()
    assert JetSymbol(decl, comps, sorted(deriv)) is sym


@settings(max_examples=60, deadline=None)
@given(coordinates())
def test_symbols_of_separately_built_models_are_equal_by_value(coord):
    decl, comps, deriv = coord
    other = bf_model(3).table.decl(decl.name)
    assert other == decl and hash(other) == hash(decl) and other is not decl
    a, b = JetSymbol(decl, comps, deriv), JetSymbol(other, comps, deriv)
    assert a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert {a: 1}[b] == 1
    # a factor of the other model is found by value in the kernels
    pa, pb = GradedPoly.from_symbol(a), GradedPoly.from_symbol(b)
    assert pa * pb == pa * pa and hash(pa * pb) == hash(pa * pa)
    assert partial_derivative(pa * pa, b) == partial_derivative(pa * pa, a)


def test_polynomials_of_separately_built_models_are_equal_by_value():
    m1, m2 = bf_model(3), bf_model(3)
    assert m1 == m2
    l1, l2 = m1.lagrangian, m2.lagrangian
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l1.terms[0][0][0] is not l2.terms[0][0][0]
    for f1, f2 in zip(m1.families, m2.families):
        for (c1, p1), (c2, p2) in zip(f1.sorted_members(), f2.sorted_members()):
            assert c1 == c2 and p1 == p2 and hash(p1) == hash(p2)
    assert poly_sum([l1, -l2]).is_zero()


def test_same_named_but_different_declaration_stays_distinct():
    other = trivial_model([("s", 1)], n=2)  # same name as T's even s, but odd
    foreign, own = other.table.symbol("s"), T.symbol("s")
    assert foreign.key == own.key and foreign != own and foreign is not own
    with pytest.raises(ModelMismatch):
        T.validate_symbol(foreign)
    T.validate_symbol(own)
    # equal keys of different declarations are not a repeated odd factor
    assert GradedPoly.from_raw([(1, (foreign, foreign))]).is_zero()
    assert not GradedPoly.from_raw([(1, (foreign, own))]).is_zero()
    assert not GradedPoly.from_raw([(1, (own, foreign))]).is_zero()


def test_a_table_checks_each_factor_by_its_declaration():
    t = two_field_model().table
    own = t.symbol("s")
    other = trivial_model([("s", 1)], n=2).table
    t.validate_poly(GradedPoly.from_symbol(own))
    with pytest.raises(ModelMismatch):
        t.validate_poly(GradedPoly.from_symbol(other.symbol("s")))
    # jet makes a symbol of any declaration; validate_poly rejects a foreign one
    _, foreign = t.jet(other.decl("s"))
    with pytest.raises(ModelMismatch):
        t.validate_poly(GradedPoly.from_symbol(foreign))
    # a raise past the base is refused when the symbol would be made, before
    # validate_poly sees it, and a refused raise leaves nothing behind
    with pytest.raises(IndexOutOfRange):
        t.validate_poly(GradedPoly.from_symbol(own.raised(t.n)))
    with pytest.raises(IndexOutOfRange):
        t.validate_poly(GradedPoly.from_symbol(own.raised(t.n)))
    t.validate_poly(GradedPoly.from_symbol(own.raised(0)))
    with pytest.raises(IndexOutOfRange):
        t.validate_poly(GradedPoly.from_symbol(own.raised(0).raised(t.n)))
    # a derivative of a foreign symbol has the foreign declaration
    with pytest.raises(ModelMismatch):
        t.validate_poly(GradedPoly.from_symbol(foreign.raised(0)))


def test_repeated_odd_factor_across_declarations_sharing_a_key_vanishes():
    # two odd declarations that differ only in base dimension share a key, so
    # a repeated symbol need not sort next to its first copy
    from gaugelab.algebra import FIELD, ODD, GradedVariableDecl
    x, y = (JetSymbol(GradedVariableDecl("s", FIELD, ODD, n=g)) for g in (1, 2))
    assert x.key == y.key and x != y
    for fs in ((x, y, x), (y, x, y), (x, x, y), (y, x, x)):
        assert GradedPoly.from_raw([(1, fs)]).is_zero()
    xy, yx, lone = (GradedPoly.from_raw([(1, fs)]) for fs in ((x, y), (y, x), (x,)))
    assert not xy.is_zero() and not yx.is_zero()
    for a, b in ((xy, lone), (lone, xy), (yx, lone), (lone, yx), (xy, yx)):
        assert (a * b).is_zero() and a * b == oracle_mul(a, b)


def test_constructor_still_rejects_bad_components():
    t = BF3.table
    b = t.decl("B")  # arity 2, antisymmetric
    for _ in range(2):  # a rejected coordinate is not left behind in the table
        with pytest.raises(ValueError, match="expects 2 component"):
            JetSymbol(b, (0,))
        with pytest.raises(ValueError, match="strictly increasing"):
            JetSymbol(b, (1, 0))
        with pytest.raises(ValueError, match="strictly increasing"):
            JetSymbol(b, (1, 1), (0,))
    assert JetSymbol(b, (0, 1)).components == (0, 1)


def _raise_model():
    """A fresh builder model whose only jets are zero-order: an even and an
    odd scalar, an antisymmetric 2-form field and an antisymmetric stage-0
    family, so every derivative symbol is first made by ``raised``."""
    from gaugelab import ModelBuilder

    b = ModelBuilder("raise", 3)
    b.add_field("s", parity=0)
    b.add_field("psi", parity=1)
    b.add_field("B", parity=0, arity=2, antisym=True)
    b.add_stage([("G", 2, True, {})])
    return b.build()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 2)), min_size=1, max_size=12))
def test_raised_symbols_are_the_constructors_symbols(steps):
    # each step raises the current jet of one coordinate, so coordinates,
    # antisymmetric ones among them, are raised in random orders and
    # interleaved, and every derivative symbol is made by raised
    m, other = _raise_model(), _raise_model()
    t = m.table
    coords = [(d, ct) for d in t.decls for ct in t.component_tuples(d)]
    current = {}
    for i, lam in steps:
        decl, comps = coords[i % len(coords)]
        zero = t.symbol(decl, comps)
        sym = current.get((decl.name, comps), zero)
        deriv = tuple(sorted(sym.derivative + (lam,)))
        assert (comps, deriv) not in decl.symbols     # so raised makes it
        up = sym.raised(lam)
        current[decl.name, comps] = up
        assert up is JetSymbol(decl, comps, deriv) and up.derivative == deriv
        assert up.zero_order() is zero and up.zero_order() == JetSymbol(decl, comps)
        twin = JetSymbol(other.table.decl(decl.name), comps, deriv)
        assert twin is not up and twin == up
        assert twin.key == up.key and hash(twin) == hash(up)
        x = pickle.loads(pickle.dumps(up))
        assert x == up and hash(x) == hash(up) and x.raised(lam) == twin.raised(lam)
    # pickled with its model, a raised symbol re-interns into the copy
    syms = tuple(current.values())
    m2, xs = pickle.loads(pickle.dumps((m, syms)))
    for x, up in zip(xs, syms):
        assert x == up and x is not up
        assert x.var is m2.table.decl(up.var.name)
        assert x is JetSymbol(x.var, x.components, x.derivative)
        assert x.zero_order() is m2.table.symbol(x.var, x.components)


def _first_bad(comps, deriv, n):
    """The message for the first out-of-range index, in the order given."""
    for what, idx in (("component", comps), ("derivative", deriv)):
        for i in idx:
            if not 0 <= i < n:
                return f"{what} index {i} out of range for n={n}"
    return None


def _assert_in_range(sym, n):
    assert all(0 <= i < n for i in sym.components + sym.derivative)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_out_of_range_coordinate_can_be_made(data):
    m = _raise_model()
    t, n = m.table, m.table.n
    idx = st.integers(-1, n + 1)
    decl = data.draw(st.sampled_from(t.decls))
    comps = tuple(data.draw(st.lists(idx, min_size=decl.arity, max_size=decl.arity)))
    deriv = tuple(data.draw(st.lists(idx, max_size=3)))
    lam = data.draw(idx)
    bad = _first_bad(comps, deriv, n)
    canonical = not decl.antisym or list(comps) == sorted(set(comps))

    def outcome(make):
        try:
            return make(), None
        except ValueError as e:
            return None, e

    for make in (lambda: JetSymbol(decl, comps, deriv),
                 lambda: t.symbol(decl.name, comps, deriv)):
        sym, err = outcome(make)
        if bad:
            assert type(err) is IndexOutOfRange and str(err) == bad
        elif canonical:
            assert err is None
            _assert_in_range(sym, n)
        else:
            assert type(err) is ValueError
    res, err = outcome(lambda: t.jet(decl.name, comps, deriv))
    if bad:
        assert type(err) is IndexOutOfRange and str(err) == bad
    else:
        sign, sym = res
        assert (sym is None) == (len(set(comps)) < len(comps) and decl.antisym)
        if sym is not None:
            assert sign == (perm_sign(comps) if decl.antisym else 1)
            _assert_in_range(sym, n)
    # raising a valid coordinate, alone or inside a polynomial
    good = t.symbol(decl, tuple(range(decl.arity)), [d for d in deriv if 0 <= d < n])
    p = GradedPoly.from_symbol(good) * GradedPoly.from_symbol(t.symbol("s"))
    for make in (lambda: good.raised(lam), lambda: total_derivative(p, lam)):
        out, err = outcome(make)
        if 0 <= lam < n:
            assert err is None
            for sym in (out.symbols() if isinstance(out, GradedPoly) else (out,)):
                _assert_in_range(sym, n)
        else:
            assert type(err) is IndexOutOfRange
            assert str(err) == f"derivative index {lam} out of range for n={n}"
    # a rejected coordinate is not left behind
    for d in t.decls:
        for sym in d.symbols.values():
            _assert_in_range(sym, n)


def test_jet_names_the_first_bad_index_in_the_order_given():
    t = bf_model(3).table
    b = t.decl("B")   # arity 2, antisymmetric
    with pytest.raises(IndexOutOfRange, match="^component index 5 out of range for n=3$"):
        JetSymbol(b, (0, 5))
    for comps, named in (((5, 5), 5), ((7, 5), 7), ((5, 7), 5), ((1, 9), 9)):
        with pytest.raises(IndexOutOfRange, match=f"^component index {named} out of range"):
            t.jet("B", comps)
    with pytest.raises(IndexOutOfRange, match="^derivative index 7 out of range for n=3$"):
        t.jet("B", (1, 0), (7, 5))
    with pytest.raises(IndexOutOfRange, match="^B expects 2 component indices, got 3$"):
        t.jet("B", (1, 1, 1))
    assert t.jet("B", (1, 1)) == (0, None) and t.jet("B", (2, 2), (0,)) == (0, None)
    assert t.jet("B", (2, 0)) == (-1, t.symbol("B", (0, 2)))
    assert all(0 <= i < 3 for comps, deriv in b.symbols for i in comps + deriv)


def test_declarations_over_different_bases_are_different():
    from gaugelab import FIELD, BaseSpace, GradedVariableDecl, ModelBuilder, VariableTable

    assert bf_model(3).table.decl("A") != bf_model(4).table.decl("A")
    assert bf_model(3).table.decl("A") == bf_model(3).table.decl("A")
    m3 = bf_model(3)

    def builder(n):
        b = ModelBuilder("copy", n)
        for d in m3.table.kind_decls(FIELD):
            b.add_field(d.name, parity=d.parity, arity=d.arity, antisym=d.antisym)
        return b

    # the same fields over a wider base: every index is in range, but the
    # declarations differ
    with pytest.raises(ModelMismatch):
        builder(4).set_lagrangian(m3.lagrangian)
    b = builder(3)
    b.set_lagrangian(m3.lagrangian)
    assert b.build().lagrangian is m3.lagrangian
    table = VariableTable(BaseSpace(3))
    with pytest.raises(ModelMismatch, match="n=4"):
        table.declare(GradedVariableDecl("x", FIELD, 0, n=4))
    assert not table.has("x")
    assert table.declare(GradedVariableDecl("x", FIELD, 0, n=3)).n == 3


def test_pickle_round_trip_re_interns():
    m = pickle.loads(pickle.dumps(bf_model(3)))
    assert m == bf_model(3)
    t = m.table
    assert [d.n for d in t.decls] == [3] * len(t.decls)
    a = t.symbol("A")
    first = m.lagrangian.terms[0][0]
    assert first[0] is a and first[0].var is t.decl("A")
    for fam in m.families:
        for _, poly in fam.sorted_members():
            for sym in poly.symbols():
                assert sym.var is t.decl(sym.var.name)
                assert JetSymbol(sym.var, sym.components, sym.derivative) is sym
                assert sym.zero_order() is t.symbol(sym.var, sym.components)
    assert check_nilpotency(build_stage_differential(m)).ok
    # one symbol pickled alone is equal, and repeats load as one object
    sym = BF3.table.symbol("B", (0, 1), (2,))
    x, y = pickle.loads(pickle.dumps((sym, sym)))
    assert x == sym and x is y and x is not sym
    assert x.raised(0) == sym.raised(0)
