"""Shared helpers for the test suite: random inputs, an independent
dense-elimination rank oracle, and plain-arithmetic copies of the term
kernels."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from gaugelab import GradedPoly, trivial_model
from gaugelab.algebra import _canon_factors, _term_parity


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
                coeff_range=(-3, 3)):
    """Random canonical polynomial over the pool, optionally parity-pure."""
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
        den = rng.randint(1, 3)
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


def flip_first_term(poly):
    fs, c = poly.terms[0]
    from gaugelab import GradedPoly
    return poly - GradedPoly(((fs, 2 * c),))


def drop_first_term(poly):
    fs, c = poly.terms[0]
    from gaugelab import GradedPoly
    return poly - GradedPoly(((fs, c),))


# Plain copies of the term kernels: every coefficient fold is
# acc.get(k, Fraction(0)) + c * sign, with no shortcut for a first insert or a
# +-1 sign.  GradedPoly._from_dict drops the zeros and sorts.

def oracle_mul(a, b):
    acc = {}
    for fa, ca in a.terms:
        for fb, cb in b.terms:
            r = _canon_factors(fa + fb)
            if r is None:
                continue
            sign, fs = r
            acc[fs] = acc.get(fs, Fraction(0)) + ca * cb * sign
    return GradedPoly._from_dict(acc)


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
    return GradedPoly._from_dict(acc)


def oracle_total_derivative(p, lam):
    acc = {}
    for fs, c in p.terms:
        for i, f in enumerate(fs):
            r = _canon_factors(fs[:i] + (f.raised(lam),) + fs[i + 1:])
            if r is None:
                continue
            sign, out = r
            acc[out] = acc.get(out, Fraction(0)) + c * sign
    return GradedPoly._from_dict(acc)


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
    return GradedPoly._from_dict(acc)


def assert_canonical_coefficients(p):
    """Every stored coefficient is a nonzero Fraction."""
    for _, c in p.terms:
        assert type(c) is Fraction and c != 0, (p, c)
