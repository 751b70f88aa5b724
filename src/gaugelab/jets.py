"""Differential operators of the variational calculus at the density level.

Everything acts on x-independent polynomials, so the explicit base-coordinate
term of the total derivative is absent and a constant density counts as a
total divergence.  Derivative multi-indices are multisets; the partial
derivative with respect to a jet symbol picks out that exact multiset with
coefficient 1 and no multinomial factor, and the total derivative raises one
multiset entry per factor.

Total-divergence detection works on a single contractible chart: a density is
a total divergence exactly when all of its variational derivatives vanish.
No boundary-term witness is produced.

All operations are pure functions of immutable values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable, Mapping

from .algebra import (
    Density,
    FIELD,
    Factors,
    GradedPoly,
    GradedVariableDecl,
    JetSymbol,
    MultiIndex,
    VariableTable,
    _canon_factors,
    _term_parity,
    as_poly,
    multi_index,
    poly_sum,
)
from .errors import GradingMismatch, IndexOutOfRange

_F0 = Fraction(0)

LEFT = "left"
RIGHT = "right"


def partial_derivative(p: GradedPoly, x: JetSymbol, side: str = LEFT) -> GradedPoly:
    """Graded partial derivative with respect to one jet symbol.

    The left rule removes the factor after crossing the preceding ones; the
    right rule is the left one times (-1)^(([term]+1)[x]) per monomial.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be left or right, got {side!r}")
    acc: dict[Factors, Fraction] = {}
    for fs, c in p.terms:
        outer = -1 if side == RIGHT and x.parity and not _term_parity(fs) else 1
        pref = 0
        for i, f in enumerate(fs):
            if f == x:
                sign = -1 if (x.parity and pref & 1) else 1
                rest = fs[:i] + fs[i + 1:]
                acc[rest] = acc.get(rest, _F0) + c * sign * outer
            pref ^= f.parity
    return GradedPoly._from_dict(acc)


def total_derivative(p, lam: int, n: int | None = None):
    """Total derivative d_lam: raises each factor's derivative multiset."""
    if lam < 0 or (n is not None and lam >= n):
        raise IndexOutOfRange(f"derivative index {lam} out of range")
    density = isinstance(p, Density)
    poly = as_poly(p)
    acc: dict[Factors, Fraction] = {}
    for fs, c in poly.terms:
        for i, f in enumerate(fs):
            raw = fs[:i] + (f.raised(lam),) + fs[i + 1:]
            r = _canon_factors(raw)
            if r is None:
                continue
            sign, out = r
            acc[out] = acc.get(out, _F0) + c * sign
    result = GradedPoly._from_dict(acc)
    return Density(result) if density else result


def multi_total_derivative(p, Lam: Iterable[int], n: int | None = None):
    """Composition of total derivatives over a multi-index (order immaterial)."""
    out = p
    for lam in multi_index(Lam):
        out = total_derivative(out, lam, n)
    return out


def variational_derivative(P, decl: GradedVariableDecl, components=()) -> GradedPoly:
    """Sum over present jets of (-1)^|L| d_L (left partial w.r.t. v[comps]_(L))."""
    poly = as_poly(P)
    comps = tuple(components)
    lams = sorted({f.derivative for f in poly.symbols()
                   if f.var == decl and f.components == comps})
    parts = []
    for Lam in lams:
        g = partial_derivative(poly, JetSymbol(decl, comps, Lam), LEFT)
        g = multi_total_derivative(g, Lam)
        parts.append(-g if len(Lam) % 2 else g)
    return poly_sum(parts)


def euler_lagrange(table: VariableTable, L) -> dict[JetSymbol, GradedPoly]:
    """Euler-Lagrange expression for every dynamical field component."""
    out: dict[JetSymbol, GradedPoly] = {}
    for decl in table.kind_decls(FIELD):
        for comps in table.component_tuples(decl):
            out[JetSymbol(decl, comps)] = variational_derivative(L, decl, comps)
    return out


def is_dH_exact(table: VariableTable, P) -> bool:
    """True when every variational derivative of the density vanishes."""
    poly = as_poly(P)
    targets = sorted({(f.var, f.components) for f in poly.symbols()},
                     key=lambda t: (t[0].sort_rank, t[1]))
    for decl, comps in targets:
        if not variational_derivative(poly, decl, comps).is_zero():
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

    @property
    def support(self) -> tuple:
        return tuple(mi for mi, _ in self._items)

    @property
    def max_order(self) -> int:
        return max((len(mi) for mi, _ in self._items), default=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoefficientFamily) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{mi}: {p!r}" for mi, p in self._items)
        return f"CoefficientFamily({{{body}}})"


def _sub_multisets(mi: MultiIndex):
    """(sub, complement, multiplicity) triples; multiplicity is the product of
    per-index binomial coefficients counting the ways to split the multiset."""
    idxs = sorted(set(mi))
    mults = [mi.count(i) for i in idxs]
    for choice in product(*(range(m + 1) for m in mults)):
        sub = []
        rest = []
        ways = 1
        for i, m, c in zip(idxs, mults, choice):
            sub.extend([i] * c)
            rest.extend([i] * (m - c))
            ways *= comb(m, c)
        yield tuple(sub), tuple(rest), ways


def eta(fam: CoefficientFamily) -> CoefficientFamily:
    """Integration-by-parts involution on coefficient families.

    Determined by  sum_L (-1)^|L| d_L(f^L p) = sum_L eta(f)^L d_L p  for every
    polynomial p; on multiset-indexed families the splitting multiplicity is
    the product of per-index binomial coefficients.  Satisfies eta(eta(f)) = f.
    """
    parts: list[tuple] = []
    for M, f in fam.items:
        sign = 1 if len(M) % 2 == 0 else -1
        for sigma, lam, ways in _sub_multisets(M):
            parts.append((lam, multi_total_derivative(f, sigma).scale(sign * ways)))
    return CoefficientFamily(parts)


class VerticalDerivation:
    """A vertical graded derivation given by its zero-order components.

    The action on a derived symbol v_(L) is the L-th total derivative of the
    component on v; the prolongation is implied, never stored.  ``side``
    selects the left or the right Leibniz rule.  Missing components act as
    zero.  Treat instances as immutable.
    """

    __slots__ = ("parity", "side", "components", "antifield_delta", "ghost_delta", "_cache")

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
            if any(_term_parity(fs) != want for fs, _ in poly.terms):
                raise GradingMismatch(f"component on {sym!r} must have parity {want}")
            cleaned[sym] = poly
        self.parity = parity
        self.side = side
        self.components = dict(sorted(cleaned.items(), key=lambda t: t[0].key))
        self.antifield_delta = antifield_delta
        self.ghost_delta = ghost_delta
        self._cache: dict[JetSymbol, GradedPoly] = {}

    def is_zero(self) -> bool:
        return not self.components

    def image(self, sym: JetSymbol) -> GradedPoly | None:
        """Prolonged action on one jet symbol, or None when the component is zero."""
        base = self.components.get(sym.zero_order())
        if base is None:
            return None
        if not sym.derivative:
            return base
        cached = self._cache.get(sym)
        if cached is None:
            cached = multi_total_derivative(base, sym.derivative)
            self._cache[sym] = cached
        return cached

    def sorted_components(self):
        return tuple(self.components.items())


def apply_prolonged(v: VerticalDerivation, P):
    """Apply the prolonged derivation with the graded Leibniz rule of v.side."""
    density = isinstance(P, Density)
    poly = as_poly(P)
    acc: dict[Factors, Fraction] = {}
    for fs, c in poly.terms:
        if v.side == LEFT:
            pref = 0
            for i, f in enumerate(fs):
                img = v.image(f)
                if img is not None:
                    sign = -1 if (v.parity and pref & 1) else 1
                    _insert_image(acc, fs, i, img, c * sign)
                pref ^= f.parity
        else:
            suffix = [0] * (len(fs) + 1)
            for i in range(len(fs) - 1, -1, -1):
                suffix[i] = suffix[i + 1] ^ fs[i].parity
            for i, f in enumerate(fs):
                img = v.image(f)
                if img is not None:
                    sign = -1 if (v.parity and suffix[i + 1] & 1) else 1
                    _insert_image(acc, fs, i, img, c * sign)
    result = GradedPoly._from_dict(acc)
    return Density(result) if density else result


def _insert_image(acc, fs, i, img, coeff):
    for gf, gc in img.terms:
        r = _canon_factors(fs[:i] + gf + fs[i + 1:])
        if r is None:
            continue
        sign, out = r
        acc[out] = acc.get(out, _F0) + coeff * gc * sign


def first_variation_residual(table: VariableTable, L, v: VerticalDerivation) -> Density:
    """v(L) minus the contraction of v with the variational one-form of L.

    For every vertical derivation the result is a total divergence; the
    ``is_dH_exact`` test of the result is the checkable content of the first
    variational formula.
    """
    if v.side != LEFT:
        raise ValueError("first variation is taken along left derivations")
    return Density(as_poly(apply_prolonged(v, L))) - contracted_el_density(table, L, v)


def contracted_el_density(table: VariableTable, L, v: VerticalDerivation) -> Density:
    """The density sum_x v^x * (variational derivative of L w.r.t. x)."""
    parts = []
    for sym, comp in v.sorted_components():
        e = variational_derivative(L, sym.var, sym.components)
        if not e.is_zero():
            parts.append(comp * e)
    return Density(poly_sum(parts))


def is_variational_supersymmetry(table: VariableTable, L, v: VerticalDerivation) -> bool:
    """True when the contracted Euler-Lagrange density of v is a total divergence."""
    return is_dH_exact(table, contracted_el_density(table, L, v))
