"""Differential operators of the variational calculus at the density level.

Everything acts on x-independent polynomials, so the explicit base-coordinate
term of the total derivative is absent and a constant density counts as a
total divergence.  The volume form then carries no information, so a density
is its coefficient polynomial.  Derivative multi-indices are multisets; the
partial derivative with respect to a jet symbol picks out that exact multiset
with coefficient 1 and no multinomial factor, and the total derivative raises
one multiset entry per factor.

Total-divergence detection works on a single contractible chart: a density is
a total divergence exactly when all of its variational derivatives vanish.
No boundary-term witness is produced.

All operations are pure; total derivatives are memoised on the polynomial.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
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
    _canon_factors,
    _merge,
    _term_parity,
    multi_index,
    poly_sum,
)
from .errors import GradingMismatch, IndexOutOfRange

LEFT = "left"
RIGHT = "right"


def partial_derivative(p: GradedPoly, x: JetSymbol, side: str = LEFT) -> GradedPoly:
    """Graded partial derivative with respect to one jet symbol.

    The left rule removes the factor after crossing the preceding ones; the
    right rule is the left one times (-1)^(([term]+1)[x]) per monomial.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be left or right, got {side!r}")
    acc: dict[Factors, int] = {}
    xkey = x.key
    for fs, c in p._terms:
        outer = -1 if side == RIGHT and x.parity and not _term_parity(fs) else 1
        pref = 0
        for i, f in enumerate(fs):
            # interned symbols match by identity; the key test keeps a symbol
            # of an equal declaration from another model matching by value
            if f is x or (f.key == xkey and f == x):
                # factors are sorted, so further copies (only an even x has
                # any) follow at once, and removing any one of them leaves
                # the same term with the same sign
                k = 1
                for g in fs[i + 1:]:
                    if not (g is x or (g.key == xkey and g == x)):
                        break
                    k += 1
                if k > 1:
                    c = c * k
                sign = -outer if (x.parity and pref & 1) else outer
                _merge(acc, fs[:i] + fs[i + 1:], c if sign > 0 else -c)
                break
            pref ^= f.parity
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
            raw = fs[:i] + (f.raised(lam),) + fs[i + 1:]
            r = _canon_factors(raw)
            if r is None:
                continue
            sign, out = r
            _merge(acc, out, c if sign > 0 else -c)
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


def variational_derivative(P: GradedPoly, decl: GradedVariableDecl,
                           components=()) -> GradedPoly:
    """Sum over present jets of (-1)^|L| d_L (left partial w.r.t. v[comps]_(L))."""
    comps = tuple(components)
    lams = sorted({f.derivative for f in P.symbols()
                   if f.components == comps and (f.var is decl or f.var == decl)})
    parts = []
    for Lam in lams:
        g = partial_derivative(P, JetSymbol(decl, comps, Lam), LEFT)
        g = multi_total_derivative(g, Lam)
        parts.append(-g if len(Lam) % 2 else g)
    return poly_sum(parts)


def euler_lagrange(table: VariableTable, L: GradedPoly) -> dict[JetSymbol, GradedPoly]:
    """Euler-Lagrange expression for every dynamical field component."""
    out: dict[JetSymbol, GradedPoly] = {}
    for decl in table.kind_decls(FIELD):
        for comps in table.component_tuples(decl):
            out[JetSymbol(decl, comps)] = variational_derivative(L, decl, comps)
    return out


def is_dH_exact(P: GradedPoly) -> bool:
    """True when every variational derivative of the density vanishes."""
    targets = sorted({(f.var, f.components) for f in P.symbols()},
                     key=lambda t: (t[0].sort_rank, t[1]))
    for decl, comps in targets:
        if not variational_derivative(P, decl, comps).is_zero():
            return False
    return True


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
                sign = -1 if (v.parity and crossed) else 1
                _insert_image(acc, fs, i, img, (c if sign > 0 else -c) * (vden // img._den))
            if not right:
                crossed ^= f.parity
    return GradedPoly._from_dict(acc, P._den * vden)


def _insert_image(acc, fs, i, img, coeff):
    """Add coeff times img, with img's factor substituted at position i of fs,
    into acc; coeff already carries img's share of the common denominator."""
    for gf, gc in img._terms:
        r = _canon_factors(fs[:i] + gf + fs[i + 1:])
        if r is None:
            continue
        sign, out = r
        c = coeff * gc
        _merge(acc, out, c if sign > 0 else -c)


def first_variation_residual(L: GradedPoly, v: VerticalDerivation) -> GradedPoly:
    """v(L) minus the contraction of v with the variational one-form of L.

    For every vertical derivation the result is a total divergence; the
    ``is_dH_exact`` test of the result is the checkable content of the first
    variational formula.
    """
    if v.side != LEFT:
        raise ValueError("first variation is taken along left derivations")
    el = {sym: variational_derivative(L, sym.var, sym.components) for sym in v.components}
    return apply_prolonged(v, L) - contracted_el_density(el, v)


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
