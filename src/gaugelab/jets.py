"""Differential operators of the variational calculus at the density level.

Everything acts on x-independent polynomials, so the explicit base-coordinate
term of the total derivative is absent and a constant density counts as a
total divergence.  The volume form then carries no information, so a density
is its coefficient polynomial.  Derivative multi-indices are multisets; the
partial derivative with respect to a jet symbol picks out that exact multiset
with coefficient 1 and no multinomial factor, and the total derivative raises
one multiset entry per factor.

One Euler operator gives E_x for every variable x of a density from one pass
over its terms; partial and variational derivatives, the Euler-Lagrange map
and total-divergence detection are views of it.  A density is a total
divergence (on one contractible chart) exactly when every E_x vanishes; no
boundary-term witness is produced.

All operations are pure.  Total derivatives are memoised on the polynomial
as raw images, which derivation images read as they are; the total
derivative functions are canonical views of them.  In both term loops a
one-factor term, the only kind on the ``bf:N`` towers, is merged as it is,
with no slice, sort or sign; every other term takes ``_add_term``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations_with_replacement, groupby, product
from math import comb, lcm, prod
from typing import Iterable, Mapping

from .algebra import (
    FIELD,
    Factors,
    GradedPoly,
    GradedVariableDecl,
    JetSymbol,
    MultiIndex,
    VariableTable,
    _ZERO,
    _add_term,
    _reduced,
    _term_key,
    _term_parity,
    multi_index,
    poly_sum,
)
from .errors import GradingMismatch

LEFT = "left"
RIGHT = "right"


def _left_partials(p: GradedPoly) -> dict[JetSymbol, dict[Factors, int]]:
    """{x: int numerators over p's denominator of the left partial of p with
    respect to x} for every jet symbol x of p, from one pass over the terms.
    Crossing the prefix gives (-1)^([x][prefix]).  Factors are sorted, so each
    rest is canonical, and the k adjacent copies of an even x give k*c once."""
    out = defaultdict(dict)
    for fs, c in p._terms:
        pref = i = 0
        for x, copies in groupby(fs):
            k = len(tuple(copies))
            acc, rest = out[x], fs[:i] + fs[i + 1:]
            acc[rest] = acc.get(rest, 0) + (-c if x.parity and pref else c) * k
            pref ^= x.parity
            i += k
    return out


def partial_derivative(p: GradedPoly, x: JetSymbol, side: str = LEFT) -> GradedPoly:
    """Graded partial derivative with respect to one jet symbol: the left rule
    removes x after crossing the factors before it; the right rule multiplies
    each term by (-1)^(([term]+1)[x]), which is (-1)^[rest] for an odd x."""
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be left or right, got {side!r}")
    acc = _left_partials(p).get(x, {})
    if side == RIGHT and x.parity:
        acc = {fs: -c if _term_parity(fs) else c for fs, c in acc.items()}
    return GradedPoly._from_dict(acc, p._den)


def _raw_derivative(p: GradedPoly, L: MultiIndex):
    """d_L p for a sorted multiset L: distinct canonical factors with nonzero
    int numerators over p._den, unsorted.  Memoised on p prefix by prefix.
    Each step stores d_lam of a one-factor term (f,) as (f_lam,) directly;
    longer terms go through ``_add_term``.
    A lam outside 0..n-1 raises IndexOutOfRange, unless p is a constant."""
    memo = p._d
    if memo is None:
        memo = p._d = {(): p._terms}
    out = memo.get(L)
    if out is None:
        k = len(L) - 1
        while (out := memo.get(L[:k])) is None:
            k -= 1
        for j in range(k, len(L)):
            lam = L[j]
            acc: dict[Factors, int] = {}
            for fs, c in out:
                if len(fs) == 1:
                    # (f_lam,) is canonical, and no other term lands on it:
                    # raising by lam is one-to-one and keeps the length
                    acc[(fs[0].raised(lam),)] = c
                    continue
                for i, f in enumerate(fs):
                    _add_term(acc, fs[:i] + (f.raised(lam),) + fs[i + 1:], c)
            out = memo[L[:j + 1]] = [t for t in acc.items() if t[1]]
    return out


def total_derivative(p: GradedPoly, lam: int) -> GradedPoly:
    """Total derivative d_lam: raises each factor's derivative multiset.
    A lam outside 0..n-1 raises IndexOutOfRange, unless p is a constant."""
    return multi_total_derivative(p, (lam,))


def multi_total_derivative(p: GradedPoly, Lam: Iterable[int]):
    """Composition of total derivatives over a multi-index (order immaterial)."""
    L = multi_index(Lam)
    return _reduced(tuple(sorted(_raw_derivative(p, L), key=_term_key)), p._den) if L else p


def multi_indices(n: int, max_order: int) -> list[MultiIndex]:
    """Every derivative multiset over n base directions up to max_order."""
    return [mi for k in range(max_order + 1)
            for mi in combinations_with_replacement(range(n), k)]


def window_jets(table: VariableTable, decls, max_order: int) -> list[JetSymbol]:
    """Every jet symbol of the given declarations up to the jet order,
    sorted by key: the variable pool of a truncation window."""
    mis = multi_indices(table.n, max_order)
    return sorted((JetSymbol(decl, ct, mi) for decl in decls
                   for ct in table.component_tuples(decl) for mi in mis),
                  key=lambda s: s.key)


def euler_operator(P: GradedPoly) -> dict[JetSymbol, GradedPoly]:
    """The Euler-Lagrange operator: {zero-order symbol x: E_x(P)} for every
    variable x with a jet in P, where E_x(P) is the sum over the jets x_(L)
    of P of (-1)^|L| d_L (left partial of P w.r.t. x_(L))."""
    parts: dict[JetSymbol, list] = {}
    for sym, acc in _left_partials(P).items():
        g = multi_total_derivative(GradedPoly._from_dict(acc, P._den), sym.derivative)
        parts.setdefault(sym.zero_order(), []).append(-g if sym.order % 2 else g)
    return {x: poly_sum(ps) for x, ps in parts.items()}


def variational_derivative(P: GradedPoly, decl: GradedVariableDecl,
                           components=()) -> GradedPoly:
    """The Euler-Lagrange expression of P for the variable decl[components]."""
    comps = tuple(components)
    return next((e for x, e in euler_operator(P).items()
                 if x.components == comps and (x.var is decl or x.var == decl)), _ZERO)


def euler_lagrange(table: VariableTable, L: GradedPoly) -> dict[JetSymbol, GradedPoly]:
    """Euler-Lagrange expression for every dynamical field component."""
    el = euler_operator(L)
    syms = [JetSymbol(decl, comps) for decl in table.kind_decls(FIELD)
            for comps in table.component_tuples(decl)]
    return {sym: el.get(sym, _ZERO) for sym in syms}


def is_dH_exact(P: GradedPoly) -> bool:
    """True when every variational derivative of the density vanishes."""
    return not any(euler_operator(P).values())


def eta_splits(M: MultiIndex):
    """(sigma, lam, w) for each split of the multiset M into sigma and lam:
    eta sends w * d_sigma of the order-M coefficient to order lam, where w is
    (-1)^|M| times the product of per-index binomial coefficients.  Every
    lam comes out sorted, and the first split has sigma empty and lam = M."""
    idxs = sorted(set(M))
    mults = [M.count(i) for i in idxs]
    sign = -1 if len(M) % 2 else 1
    for choice in product(*(range(m + 1) for m in mults)):
        sigma = tuple(i for i, c in zip(idxs, choice) for _ in range(c))
        lam = tuple(i for i, m, c in zip(idxs, mults, choice) for _ in range(m - c))
        yield sigma, lam, sign * prod(map(comb, mults, choice))


def eta(fam: Mapping[MultiIndex, GradedPoly]) -> dict[MultiIndex, GradedPoly]:
    """Integration-by-parts involution on coefficient families: finite maps
    from derivative multisets to polynomials, returned as a dict with sorted
    multiset keys and no zero entries.

    Determined by  sum_L (-1)^|L| d_L(f^L p) = sum_L eta(f)^L d_L p  for every
    polynomial p; on multiset-indexed families the splitting multiplicity is
    the product of per-index binomial coefficients.  Satisfies eta(eta(f)) = f.
    """
    parts: dict[MultiIndex, list] = {}
    for M, f in fam.items():
        for sigma, lam, w in eta_splits(M):
            parts.setdefault(lam, []).append(multi_total_derivative(f, sigma).scale(w))
    return {lam: p for lam, ps in parts.items() if (p := poly_sum(ps))}


class VerticalDerivation:
    """A vertical graded derivation given by its zero-order components.

    The action on a derived symbol v_(L) is the L-th total derivative of the
    component on v, read raw from the component's derivative memo.  ``side``
    selects the left or the right Leibniz rule.  Missing components act as
    zero.  Treat instances as immutable.  ``den`` is the lcm of the
    components' denominators; every image's denominator divides it.
    """

    __slots__ = ("parity", "side", "components", "antifield_delta", "ghost_delta", "den")

    def __init__(self, components: Mapping[JetSymbol, GradedPoly], parity: int,
                 side: str = LEFT, antifield_delta: int = 0, ghost_delta: int = 0):
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be left or right, got {side!r}")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        cleaned = {}
        for sym, poly in components.items():
            if sym.derivative:
                raise ValueError(f"components must be given on underived symbols: {sym!r}")
            if poly.is_zero():
                continue
            want = (parity + sym.parity) % 2
            if any(_term_parity(fs) != want for fs, _ in poly._terms):
                raise GradingMismatch(f"component on {sym!r} must have parity {want}")
            cleaned[sym] = poly
        self.parity = parity
        self.side = side
        self.components = dict(sorted(cleaned.items(), key=lambda t: t[0].key))
        self.antifield_delta = antifield_delta
        self.ghost_delta = ghost_delta
        self.den = lcm(*[p._den for p in cleaned.values()])

    def is_zero(self) -> bool:
        return not self.components


def apply_prolonged(v: VerticalDerivation, P: GradedPoly) -> GradedPoly:
    """Apply the prolonged derivation with the graded Leibniz rule of v.side."""
    return GradedPoly._from_dict(_prolonged(v, P._terms), P._den * v.den)


def _prolonged(v: VerticalDerivation, terms: Iterable[tuple]) -> dict[Factors, int]:
    """The Leibniz loop of ``apply_prolonged``: the image of the sum of the
    canonical (factors, int) terms, as {factors: int numerator over v.den} in
    discovery order; a merge that cancels leaves a 0.  A one-factor term
    (f,) crosses no factor, so the raw image of f is merged as it is, each
    factor tuple already canonical; longer terms go through ``_add_term``."""
    vden = v.den
    right = v.side == RIGHT
    comps = v.components
    acc: dict[Factors, int] = {}
    for fs, c in terms:
        if len(fs) == 1:
            f = fs[0]
            base = comps.get(f._zero or f)
            if base is not None:
                img = base._d and base._d.get(f.derivative)
                if img is None:
                    img = _raw_derivative(base, f.derivative)
                k = c * (vden // base._den)
                for gf, gc in img:
                    prev = acc.get(gf)
                    acc[gf] = k * gc if prev is None else prev + k * gc
            continue
        # parity of the factors v crosses: before f (left rule) or after f (right)
        crossed = _term_parity(fs) if right else 0
        for i, f in enumerate(fs):
            if right:
                crossed ^= f.parity
            base = comps.get(f._zero or f)
            if base is not None:
                img = base._d and base._d.get(f.derivative)
                if img is None:
                    img = _raw_derivative(base, f.derivative)
                # k carries the sign and base's share of the common denominator
                k = (-c if v.parity and crossed else c) * (vden // base._den)
                for gf, gc in img:
                    _add_term(acc, fs[:i] + gf + fs[i + 1:], k * gc)
            if not right:
                crossed ^= f.parity
    return acc


def first_variation_residual(L: GradedPoly, v: VerticalDerivation) -> GradedPoly:
    """v(L) minus the contraction of v with the variational one-form of L.

    For every vertical derivation the result is a total divergence; the
    ``is_dH_exact`` test of the result is the checkable content of the first
    variational formula.
    """
    if v.side != LEFT:
        raise ValueError("first variation is taken along left derivations")
    return apply_prolonged(v, L) - contracted_el_density(euler_operator(L), v)


def contracted_el_density(el: Mapping[JetSymbol, GradedPoly],
                          v: VerticalDerivation) -> GradedPoly:
    """The density sum_x v^x * E_x, with the Euler-Lagrange expression E_x
    read from ``el``; a component with no entry in ``el`` counts as zero."""
    parts = []
    for sym, comp in v.components.items():
        e = el.get(sym, _ZERO)
        if not e.is_zero():
            parts.append(comp * e)
    return poly_sum(parts)


def is_variational_supersymmetry(el: Mapping[JetSymbol, GradedPoly],
                                 v: VerticalDerivation) -> bool:
    """True when the contracted Euler-Lagrange density of v is a total divergence."""
    return is_dH_exact(contracted_el_density(el, v))
