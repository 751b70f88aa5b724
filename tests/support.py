"""Shared helpers for the test suite: random inputs, an independent
dense-elimination rank oracle, plain-arithmetic copies of the term kernels,
and a polynomial-valued copy of the model-file expander."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from gaugelab import GradedPoly, poly_sum, total_derivative, trivial_model
from gaugelab.algebra import _term_parity, perm_sign
from gaugelab.errors import IndexOutOfRange, UnknownVariable


def two_field_model(n=2):
    """An even scalar and an odd scalar; the workhorse for random tests."""
    return trivial_model([("s", 0), ("psi", 1)], n=n)


def jet_pool(table, names, max_order, n=None):
    n = table.n if n is None else n
    pool = []
    for nm in names:
        decl = table.decl(nm)
        for comps in table.component_tuples(decl):
            for k in range(max_order + 1):
                for mi in combinations_with_replacement(range(n), k):
                    pool.append(table.symbol(decl, comps, mi))
    return pool


def random_poly(rng, pool, max_terms=4, max_degree=3, parity=None,
                coeff_range=(-3, 3), max_den=3):
    """Random canonical polynomial over the pool, optionally parity-pure,
    with coefficient denominators drawn from 1..max_den."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        for _attempt in range(50):
            fs = tuple(rng.choice(pool) for _ in range(rng.randint(0, max_degree)))
            par = 0
            for f in fs:
                par ^= f.parity
            if parity is None or par == parity:
                break
        else:
            continue
        num = rng.randint(*coeff_range)
        den = rng.randint(1, max_den)
        terms.append((Fraction(num, den), fs))
    return GradedPoly.from_raw(terms)


def unit_poly(rng, pool, **kw):
    """A random polynomial whose every coefficient is +1 or -1."""
    terms = random_poly(rng, pool, **kw).terms
    return GradedPoly.from_raw((rng.choice((1, -1)), fs) for fs, _ in terms)


def raised_pair(rng, pool, lam):
    """fs with factor i raised by lam, minus fs with factor j raised.

    The lam-th total derivative of this pair produces fs with both factors
    raised twice, with opposite coefficients, so the accumulator cancels it.
    """
    fs = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
    i, j = rng.sample(range(len(fs)), 2)
    up_i = fs[:i] + [fs[i].raised(lam)] + fs[i + 1:]
    up_j = fs[:j] + [fs[j].raised(lam)] + fs[j + 1:]
    return GradedPoly.from_raw([(1, up_i), (-1, up_j)])


def dense_rank_oracle(rows):
    """Plain Gaussian elimination over Fraction; independent of the
    fraction-free implementation in the package."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def boundary_rows(bm):
    """Dense row-major copy (targets x sources) of a BoundaryMatrix."""
    rows = [[Fraction(0)] * len(bm.source) for _ in bm.target]
    for j, col in enumerate(bm.columns):
        for i, c in col.items():
            rows[i][j] = c
    return rows


def increasing_tuples(n, k):
    return list(combinations(range(n), k))


def rebuild_with_mutation(m, stage, fam_name, comps, fn):
    """Rebuild a model with fn applied to one generator member."""
    from gaugelab import FIELD, ModelBuilder

    b = ModelBuilder(m.name + "+mut", m.n)
    for decl in m.table.kind_decls(FIELD):
        b.add_field(decl.name, parity=decl.parity, arity=decl.arity,
                    antisym=decl.antisym)
    b.set_lagrangian(m.lagrangian)
    for k in range(m.max_stage + 1):
        fams = []
        for fam in m.families_at(k):
            members = dict(fam.members)
            if k == stage and fam.name == fam_name:
                members[tuple(comps)] = fn(members[tuple(comps)])
            fams.append((fam.name, fam.arity, fam.antisym, members))
        b.add_stage(fams)
    return b.build()


def rescaled_tower(n, lagrangian_factor, stage_factors):
    """bf:n with the Lagrangian and each generator stage scaled by its own
    nonzero factor (the stages are linear in their generators, so every
    check still passes)."""
    from gaugelab import FIELD, ModelBuilder, bf_model

    base = bf_model(n)
    b = ModelBuilder(base.name, n)
    for decl in base.table.kind_decls(FIELD):
        b.add_field(decl.name, parity=decl.parity, arity=decl.arity,
                    antisym=decl.antisym)
    b.set_lagrangian(base.lagrangian.scale(lagrangian_factor))
    for fam, q in zip(base.families, stage_factors):
        members = {comps: poly.scale(q) for comps, poly in fam.sorted_members()}
        b.add_stage([(fam.name, fam.arity, fam.antisym, members)])
    return b.build()


def split_model(rng, max_den=12):
    """A builder model over one base direction whose stage-1 and stage-2
    members mix terms linear in the previous stage's antifields with
    correction terms, with coefficient denominators up to max_den."""
    from gaugelab import ModelBuilder

    b = ModelBuilder("split", 1)
    b.add_field("x", parity=0)
    b.add_field("y", parity=0)
    t = b.table
    fields = jet_pool(t, ["x", "y"], 1)
    sbar = jet_pool(t, ["sbar(x)", "sbar(y)"], 1)
    b.set_lagrangian(random_poly(rng, fields, max_terms=3, max_den=max_den))

    def member(linear_heads, correction_heads):
        raw = []
        for heads, count in ((linear_heads, rng.randint(0, 3)),
                             (correction_heads, rng.randint(0, 2) if correction_heads else 0)):
            for _ in range(count):
                mono = tuple(rng.choice(fields) for _ in range(rng.randint(0, 2)))
                coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, max_den))
                raw.append((coeff, rng.choice(heads) + mono))
        return GradedPoly.from_raw(raw)

    b.add_stage([("D", 0, False, {(): member([(s,) for s in sbar], [])})])
    cbar0 = jet_pool(t, ["cbar(0)"], 1)
    b.add_stage([("E", 0, False, {(): member([(c,) for c in cbar0],
                                             list(combinations(sbar, 2)))})])
    b.add_stage([("F", 0, False, {(): member([(c,) for c in jet_pool(t, ["cbar(1)"], 1)],
                                             [(c, s) for c in cbar0 for s in sbar])})])
    return b.build()


def oracle_split(stage, member):
    """(linear, correction) of a stage-k member by a term filter: the linear
    part is every term with a stage-(k-1) antifield factor, the correction
    is the member minus it."""
    linear = GradedPoly.from_raw(
        (c, fs) for fs, c in member.terms
        if any(f.var.kind == "antifield" and f.var.stage == stage - 1 for f in fs))
    return linear, member - linear


def oracle_identity_defect(m, fam, comps):
    """The stage identity of one member, recomputed from oracle_split."""
    from gaugelab import (apply_prolonged, build_stage_differential,
                          multi_total_derivative, partial_derivative)

    linear, correction = oracle_split(fam.stage, fam.member(comps))
    parts = []
    for s in sorted(linear.symbols(), key=lambda s: s.key):
        if s.var.kind != "antifield" or s.var.stage != fam.stage - 1:
            continue
        if fam.stage == 0:
            inner = m.euler_lagrange_map()[m.table.symbol(m.field_for_antifield(s.var),
                                                          s.components)]
        else:
            prev = next(f for f in m.families if f.antifield is s.var)
            inner = oracle_split(prev.stage, prev.member(s.components))[0]
        parts.append(partial_derivative(linear, s, "right")
                     * multi_total_derivative(inner, s.derivative))
    if not correction.is_zero():
        parts.append(apply_prolonged(build_stage_differential(m, -1), correction))
    return poly_sum(parts)


def ascent_model(rng):
    """A builder model for the ascent operator: an even, an odd and a
    vector field; two stage-0 families and one stage-1 member, each linear
    in antifield jets with derivative multisets of order up to 3 times
    coefficient monomials in the fields, the stage-1 member with a
    correction term bilinear in field antifields."""
    from gaugelab import ModelBuilder

    b = ModelBuilder("ascent", rng.randint(1, 2))
    b.add_field("x", parity=0)
    b.add_field("psi", parity=1)
    b.add_field("v", parity=0, arity=1)
    t = b.table
    fields = jet_pool(t, ["x", "psi", "v"], 1)
    b.set_lagrangian(random_poly(rng, fields, max_terms=2, parity=0))
    sbar = jet_pool(t, ["sbar(x)", "sbar(psi)", "sbar(v)"], 3)

    def member(parity, heads, correction_heads=()):
        raw = []
        for pool, count in ((heads, rng.randint(1, 3)),
                            (correction_heads, rng.randint(1, 2) if correction_heads else 0)):
            for _ in range(count):
                head = rng.choice(pool)
                mono = ()
                for _attempt in range(50):
                    mono = tuple(rng.choice(fields) for _ in range(rng.randint(0, 2)))
                    if _term_parity(head + mono) == parity:
                        break
                if _term_parity(head + mono) == parity:
                    coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
                    raw.append((coeff, head + mono))
        return GradedPoly.from_raw(raw)

    heads = [(s,) for s in sbar]
    g_parity = rng.randint(0, 1)
    b.add_stage([("D", 0, False, {(): member(rng.randint(0, 1), heads)}),
                 ("G", 1, False, {(i,): member(g_parity, heads) for i in range(t.n)})])
    cbar0 = [(c,) for c in jet_pool(t, ["cbar(0:D)", "cbar(0:G)"], 3)]
    pairs = list(combinations(jet_pool(t, ["sbar(x)", "sbar(psi)"], 1), 2))
    b.add_stage([("E", 0, False, {(): member(rng.randint(0, 1), cbar0, pairs)})])
    return b.build()


def oracle_ascent_operator(m, N=None):
    """The ascent operator composed step by step: right partials against
    each linear antifield jet, grouped into coefficient families, the
    involution ``eta``, then products with the ghost jets."""
    from gaugelab import CoefficientFamily, VerticalDerivation, eta, partial_derivative

    N = m.resolve_stage(N)
    parts = {}
    for fam in m.families:
        if fam.stage > N:
            continue
        for fcomps, member in fam.sorted_members():
            linear = oracle_split(fam.stage, member)[0]
            groups = {}
            for s in sorted(linear.symbols(), key=lambda s: s.key):
                if s.var.kind == "antifield":
                    groups.setdefault((s.var, s.components), {})[s.derivative] = \
                        partial_derivative(linear, s, "right")
            for (anti, acomps), family_map in groups.items():
                target = (m.field_for_antifield(anti) if fam.stage == 0
                          else m.family_for_antifield(anti).ghost)
                for lam, coeff in eta(CoefficientFamily(family_map)).items:
                    ghost = GradedPoly.from_symbol(m.table.symbol(fam.ghost, fcomps, lam))
                    parts.setdefault(m.table.symbol(target, acomps), []).append(ghost * coeff)
    return VerticalDerivation({sym: poly_sum(ps) for sym, ps in parts.items()},
                              parity=1, side="left", antifield_delta=0, ghost_delta=1)


def flip_first_term(poly):
    fs, c = poly.terms[0]
    from gaugelab import GradedPoly
    return poly - GradedPoly(((fs, 2 * c),))


def drop_first_term(poly):
    fs, c = poly.terms[0]
    from gaugelab import GradedPoly
    return poly - GradedPoly(((fs, c),))


# Plain copies of the term kernels over the Fraction view: every coefficient
# fold is acc.get(k, Fraction(0)) + c * sign, with no shortcut for a first
# insert, a +-1 sign or a common denominator, and every Koszul sign comes from
# _canon_factors below, not from the package.  The public constructor
# GradedPoly(terms) drops the zeros and sorts.

def _canon_factors(factors):
    """(sign, factors sorted by key), or None when an odd factor repeats.

    The sign is (-1) to the number of inversions among the odd factors' keys.
    Repeats are found by value equality, not by key: symbols of two
    declarations can share a key and still be distinct.
    """
    odd = [f for f in factors if f.parity]
    if len(set(odd)) < len(odd):
        return None
    inversions = sum(a.key > b.key for a, b in combinations(odd, 2))
    return (-1) ** inversions, tuple(sorted(factors, key=lambda f: f.key))


def oracle_mul(a, b):
    acc = {}
    for fa, ca in a.terms:
        for fb, cb in b.terms:
            r = _canon_factors(fa + fb)
            if r is None:
                continue
            sign, fs = r
            acc[fs] = acc.get(fs, Fraction(0)) + ca * cb * sign
    return GradedPoly(acc.items())


def oracle_partial_derivative(p, x, side="left"):
    acc = {}
    for fs, c in p.terms:
        outer = -1 if side == "right" and x.parity and not _term_parity(fs) else 1
        pref = 0
        for i, f in enumerate(fs):
            if f == x:
                sign = -1 if (x.parity and pref & 1) else 1
                rest = fs[:i] + fs[i + 1:]
                acc[rest] = acc.get(rest, Fraction(0)) + c * sign * outer
            pref ^= f.parity
    return GradedPoly(acc.items())


def oracle_total_derivative(p, lam):
    acc = {}
    for fs, c in p.terms:
        for i, f in enumerate(fs):
            r = _canon_factors(fs[:i] + (f.raised(lam),) + fs[i + 1:])
            if r is None:
                continue
            sign, out = r
            acc[out] = acc.get(out, Fraction(0)) + c * sign
    return GradedPoly(acc.items())


def oracle_euler_operator(p):
    """{zero-order symbol x: E_x(p)} by the per-symbol formula: the sum over
    the jets x_(L) of p of (-1)^|L| times the oracle total derivatives d_L of
    the oracle left partial with respect to x_(L)."""
    acc = {}
    for x in p.symbols():
        g = oracle_partial_derivative(p, x)
        for lam in x.derivative:
            g = oracle_total_derivative(g, lam)
        terms = acc.setdefault(x.zero_order(), {})
        for fs, c in g.terms:
            terms[fs] = terms.get(fs, Fraction(0)) + (-c if len(x.derivative) % 2 else c)
    return {x: GradedPoly(terms.items()) for x, terms in acc.items()}


def oracle_apply_prolonged(v, p):
    """The prolonged derivation, with images rebuilt by the oracle total
    derivative rather than taken from ``v.image``."""
    def image(f):
        img = v.components.get(f.zero_order())
        if img is not None:
            for lam in f.derivative:
                img = oracle_total_derivative(img, lam)
        return img

    acc = {}
    for fs, c in p.terms:
        for i, f in enumerate(fs):
            img = image(f)
            if img is None:
                continue
            crossed = fs[:i] if v.side == "left" else fs[i + 1:]
            sign = -1 if (v.parity and _term_parity(crossed)) else 1
            for gf, gc in img.terms:
                r = _canon_factors(fs[:i] + gf + fs[i + 1:])
                if r is None:
                    continue
                s, out = r
                acc[out] = acc.get(out, Fraction(0)) + c * sign * gc * s
    return GradedPoly(acc.items())


def assert_canonical_coefficients(p):
    """The stored form is nonzero int numerators over a positive denominator
    in lowest terms (denominator 1 for zero), and the view yields nonzero
    Fractions."""
    nums = [c for _, c in p._terms]
    assert all(type(c) is int and c != 0 for c in nums), p._terms
    assert type(p._den) is int and p._den >= 1, p._den
    assert gcd(p._den, *nums) == 1, (p._den, nums)
    assert nums or p._den == 1, p._den
    for _, c in p.terms:
        assert type(c) is Fraction and c != 0, (p, c)


# A copy of the model-file expander as it was before loading emitted raw
# terms: it evaluates every node to a GradedPoly, multiplies products factor
# by factor and expands x^k as k factors.  It walks plain tuple trees
# instead of the parser's nodes:
#   ("num", int)  ("ref", name, indices)  ("eps", indices)  ("delta", i, j)
#   ("d", index, sub)  ("add", ((sign, sub), ...))  ("neg", sub)
#   ("mul", (sub | ("div", sub), ...))  ("pow", sub, k)
# where an index is an int or a letter.  A diagnostic raises OracleError
# with its code.

class OracleError(Exception):
    def __init__(self, code):
        super().__init__(code)
        self.code = code


class OracleExpander:
    def __init__(self, table, n):
        self.table = table
        self.n = n
        self.bound = {}

    def frees(self, node):
        kind = node[0]
        if kind == "num" or (kind == "pow" and node[2] == 0):
            return frozenset()
        if kind in ("ref", "eps", "delta"):
            idxs = node[1:] if kind == "delta" else node[-1]
            return self._bind(node, [i for i in idxs if isinstance(i, str)])
        if kind == "d":
            letters = list(self.frees(node[2]))
            if isinstance(node[1], str):
                letters.append(node[1])
            return self._bind(node, letters)
        if kind in ("mul", "neg", "pow"):
            letters = []
            for f in self._factors(node):
                letters.extend(self.frees(f[1] if f[0] == "div" else f))
            return self._bind(node, letters)
        sets = [self.frees(sub) for _, sub in node[1]]
        if any(s != sets[0] for s in sets[1:]):
            raise OracleError("E-FREE-SUM")
        return sets[0]

    @staticmethod
    def _factors(node):
        if node[0] == "neg":
            return (("num", -1), node[1])
        if node[0] == "pow":
            return (node[1],) * node[2]
        return node[1]

    def _bind(self, node, letters):
        counts = {}
        for l in letters:
            counts[l] = counts.get(l, 0) + 1
        if any(c > 2 for c in counts.values()):
            raise OracleError("E-IDX-ARITY")
        here = tuple(sorted(l for l, c in counts.items() if c == 2))
        if here:
            self.bound[id(node)] = here
        return frozenset(l for l, c in counts.items() if c == 1)

    def eval(self, node, env):
        here = self.bound.get(id(node), ())
        if not here:
            return self._eval(node, env)
        return poly_sum(self._eval(node, {**env, **dict(zip(here, assign))})
                        for assign in product(range(self.n), repeat=len(here)))

    def _idx(self, idx, env):
        v = env[idx] if isinstance(idx, str) else idx
        if not 0 <= v < self.n:
            raise OracleError("E-IDX-RANGE")
        return v

    def _eval(self, node, env):
        kind = node[0]
        if kind == "num" or (kind == "pow" and node[2] == 0):
            return GradedPoly.constant(node[1] if kind == "num" else 1)
        if kind == "eps":
            if len(node[1]) != self.n:
                raise OracleError("E-EPS-ARITY")
            return GradedPoly.constant(perm_sign([self._idx(i, env) for i in node[1]]))
        if kind == "delta":
            return GradedPoly.constant(int(self._idx(node[1], env) == self._idx(node[2], env)))
        if kind == "ref":
            vals = tuple(self._idx(i, env) for i in node[2])
            try:
                sign, sym = self.table.jet(node[1], vals, ())
            except UnknownVariable:
                raise OracleError("E-UNKNOWN-VAR") from None
            except IndexOutOfRange:
                raise OracleError("E-IDX-RANGE") from None
            return GradedPoly.zero() if sym is None else GradedPoly.from_symbol(sym, sign)
        if kind == "d":
            return total_derivative(self.eval(node[2], env), self._idx(node[1], env), self.n)
        if kind == "add":
            return poly_sum(self.eval(sub, env) if sign > 0 else -self.eval(sub, env)
                            for sign, sub in node[1])
        acc = GradedPoly.constant(1)
        for f in self._factors(node):
            if f[0] == "div":
                v = self.eval(f[1], env)
                if v.max_degree() > 0 or v.is_zero():
                    raise OracleError("E-SYNTAX")
                acc = acc.scale(Fraction(1) / v.terms[0][1])
            else:
                acc = acc * self.eval(f, env)
        return acc


def oracle_expand(table, node):
    """The polynomial of a closed tree, as the expander used to compute it."""
    ex = OracleExpander(table, table.n)
    if ex.frees(node):
        raise OracleError("E-FREE-IDX")
    return ex.eval(node, {})
