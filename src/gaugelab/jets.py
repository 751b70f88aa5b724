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

All operations are pure; total derivatives are memoised on the polynomial.
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
    _term_parity,
    multi_index,
    poly_sum,
)
from .errors import GradingMismatch, IndexOutOfRange

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


def total_derivative(p: GradedPoly, lam: int, n: int | None = None) -> GradedPoly:
    """Total derivative d_lam: raises each factor's derivative multiset.
    Memoised on p: a later call for the same p and lam returns this object."""
    if lam < 0 or (n is not None and lam >= n):
        raise IndexOutOfRange(f"derivative index {lam} out of range")
    terms = p._terms
    if not terms or not terms[-1][0]:   # a constant: the empty monomial sorts first
        return _ZERO
    memo = p._d
    if memo is None:
        memo = p._d = {}
    else:
        out = memo.get(lam)
        if out is not None:
            return out
    acc: dict[Factors, int] = {}
    for fs, c in terms:
        for i, f in enumerate(fs):
            _add_term(acc, fs[:i] + (f.raised(lam),) + fs[i + 1:], c)
    out = memo[lam] = GradedPoly._from_dict(acc, p._den)
    return out


def multi_total_derivative(p: GradedPoly, Lam: Iterable[int], n: int | None = None):
    """Composition of total derivatives over a multi-index (order immaterial)."""
    out = p
    for lam in multi_index(Lam):
        out = total_derivative(out, lam, n)
    return out


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


class CoefficientFamily:
    """Finitely supported map from derivative multi-indices to polynomials."""

    __slots__ = ("_items",)

    def __init__(self, mapping: Mapping[MultiIndex, GradedPoly] | Iterable = ()):
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        parts: dict[MultiIndex, list] = {}
        for mi, poly in items:
            parts.setdefault(multi_index(mi), []).append(poly)
        sums = ((mi, poly_sum(ps)) for mi, ps in parts.items())
        self._items = tuple(sorted(((mi, p) for mi, p in sums if not p.is_zero()),
                                   key=lambda t: (len(t[0]), t[0])))

    @property
    def items(self) -> tuple:
        return self._items

    def get(self, mi: Iterable[int]) -> GradedPoly:
        mi = multi_index(mi)
        for k, p in self._items:
            if k == mi:
                return p
        return GradedPoly.zero()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoefficientFamily) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{mi}: {p!r}" for mi, p in self._items)
        return f"CoefficientFamily({{{body}}})"


def eta_splits(M: MultiIndex):
    """(sigma, lam, w) for each split of the multiset M into sigma and lam:
    eta sends w * d_sigma of the order-M coefficient to order lam, where w is
    (-1)^|M| times the product of per-index binomial coefficients."""
    idxs = sorted(set(M))
    mults = [M.count(i) for i in idxs]
    sign = -1 if len(M) % 2 else 1
    for choice in product(*(range(m + 1) for m in mults)):
        sigma = tuple(i for i, c in zip(idxs, choice) for _ in range(c))
        lam = tuple(i for i, m, c in zip(idxs, mults, choice) for _ in range(m - c))
        yield sigma, lam, sign * prod(map(comb, mults, choice))


def eta(fam: CoefficientFamily) -> CoefficientFamily:
    """Integration-by-parts involution on coefficient families.

    Determined by  sum_L (-1)^|L| d_L(f^L p) = sum_L eta(f)^L d_L p  for every
    polynomial p; on multiset-indexed families the splitting multiplicity is
    the product of per-index binomial coefficients.  Satisfies eta(eta(f)) = f.
    """
    return CoefficientFamily((lam, multi_total_derivative(f, sigma).scale(w))
                             for M, f in fam.items for sigma, lam, w in eta_splits(M))


class VerticalDerivation:
    """A vertical graded derivation given by its zero-order components.

    The action on a derived symbol v_(L) is the L-th total derivative of the
    component on v, read from the component's derivative memo.  ``side``
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

    def image(self, sym: JetSymbol) -> GradedPoly | None:
        """Prolonged action on one jet symbol, or None when the component is zero."""
        base = self.components.get(sym.zero_order())
        return None if base is None else multi_total_derivative(base, sym.derivative)

    def sorted_components(self):
        return tuple(self.components.items())


def apply_prolonged(v: VerticalDerivation, P: GradedPoly) -> GradedPoly:
    """Apply the prolonged derivation with the graded Leibniz rule of v.side."""
    vden = v.den
    right = v.side == RIGHT
    acc: dict[Factors, int] = {}
    for fs, c in P._terms:
        # parity of the factors v crosses: before f (left rule) or after f (right)
        crossed = _term_parity(fs) if right else 0
        for i, f in enumerate(fs):
            if right:
                crossed ^= f.parity
            img = v.image(f)
            if img is not None:
                # k carries the sign and img's share of the common denominator
                k = (-c if v.parity and crossed else c) * (vden // img._den)
                for gf, gc in img._terms:
                    _add_term(acc, fs[:i] + gf + fs[i + 1:], k * gc)
            if not right:
                crossed ^= f.parity
    return GradedPoly._from_dict(acc, P._den * vden)


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
    for sym, comp in v.sorted_components():
        e = el.get(sym, _ZERO)
        if not e.is_zero():
            parts.append(comp * e)
    return poly_sum(parts)


def is_variational_supersymmetry(el: Mapping[JetSymbol, GradedPoly],
                                 v: VerticalDerivation) -> bool:
    """True when the contracted Euler-Lagrange density of v is a total divergence."""
    return is_dH_exact(contracted_el_density(el, v))
