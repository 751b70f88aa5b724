"""Graded-commutative polynomials over jet coordinates, with exact coefficients.

A jet symbol stands for a single coordinate ``v[comps]_(L)``: a declared
variable, a tuple of component indices, and a symmetric derivative multi-index
``L`` (stored as a sorted multiset of base indices, since derivatives
commute).  A monomial is a tuple of jet symbols kept in one global total
order; putting factors into that order contributes a sign of -1 for every
transposition of two odd factors, and a repeated odd factor annihilates the
monomial.  Coefficients are ``fractions.Fraction``, so two polynomials are
equal exactly when their canonical representations coincide.

Antisymmetric index blocks store only strictly increasing component tuples;
permuted input components are folded into the coefficient with the
permutation sign, and repeated components give zero.

All values here are immutable and hashable and may be shared freely between
threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IndexOutOfRange, ModelMismatch, UnknownVariable

EVEN = 0
ODD = 1

FIELD = "field"
ANTIFIELD = "antifield"
GHOST = "ghost"

_KIND_RANK = {FIELD: 0, ANTIFIELD: 1, GHOST: 2}

_F0 = Fraction(0)
_F1 = Fraction(1)

MultiIndex = tuple


def multi_index(entries: Iterable[int]) -> MultiIndex:
    """Canonical multi-index: a sorted multiset of base indices."""
    return tuple(sorted(entries))


@dataclass(frozen=True)
class BaseSpace:
    """Base dimension; base indices range over 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"base dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class GradedVariableDecl:
    """One declared family of graded variables.

    ``stage`` is -1 for dynamical fields and for their antifields, k >= 0 for
    the antifield/ghost family attached to the stage-k generator family.
    """

    name: str
    kind: str
    parity: int
    antifield_number: int = 0
    ghost_number: int = 0
    stage: int = -1
    arity: int = 0
    antisym: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if self.antifield_number < 0:
            raise ValueError("antifield number must be >= 0")
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if self.arity < 2 and self.antisym:
            # antisymmetry is vacuous below two indices
            object.__setattr__(self, "antisym", False)

    @property
    def sort_rank(self) -> tuple:
        return (self.stage, _KIND_RANK[self.kind], self.name)


class JetSymbol:
    """One jet coordinate: variable + component tuple + derivative multiset."""

    __slots__ = ("var", "components", "derivative", "key", "_hash")

    def __init__(self, var: GradedVariableDecl, components: Sequence[int] = (),
                 derivative: Iterable[int] = ()):
        comps = tuple(components)
        deriv = tuple(sorted(derivative))
        if len(comps) != var.arity:
            raise ValueError(f"{var.name} expects {var.arity} component indices, got {comps}")
        if var.antisym and any(comps[i] >= comps[i + 1] for i in range(len(comps) - 1)):
            raise ValueError(f"antisymmetric components must be strictly increasing: {comps}")
        self.var = var
        self.components = comps
        self.derivative = deriv
        self.key = (var.stage, _KIND_RANK[var.kind], var.name, comps, deriv)
        self._hash = hash(self.key)

    @property
    def parity(self) -> int:
        return self.var.parity

    @property
    def order(self) -> int:
        return len(self.derivative)

    def zero_order(self) -> "JetSymbol":
        if not self.derivative:
            return self
        return JetSymbol(self.var, self.components, ())

    def raised(self, lam: int) -> "JetSymbol":
        return JetSymbol(self.var, self.components, self.derivative + (lam,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JetSymbol) and self.key == other.key and self.var == other.var

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "JetSymbol") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"JetSymbol({factor_str(self)})"


def factor_str(sym: JetSymbol) -> str:
    """Canonical rendering of one jet symbol: name[components]_(derivatives)."""
    s = sym.var.name
    if sym.components:
        s += "[" + ",".join(str(c) for c in sym.components) + "]"
    if sym.derivative:
        s += "_(" + ",".join(str(d) for d in sym.derivative) + ")"
    return s


Factors = tuple  # tuple[JetSymbol, ...] in canonical order


def _canon_factors(factors: Sequence[JetSymbol]):
    """Sort factors into the global order, tracking the Koszul sign.

    Returns (sign, tuple) or None when an odd factor repeats.
    """
    out: list[JetSymbol] = []
    sign = 1
    for f in factors:
        i = len(out)
        crossed_odd = 0
        while i > 0 and out[i - 1].key > f.key:
            if out[i - 1].parity:
                crossed_odd += 1
            i -= 1
        if f.parity:
            if crossed_odd & 1:
                sign = -sign
            if i > 0 and out[i - 1] == f:
                return None
        out.insert(i, f)
    return sign, tuple(out)


def _term_parity(factors: Factors) -> int:
    p = 0
    for f in factors:
        p ^= f.parity
    return p


@dataclass(frozen=True)
class Grading:
    parity: int
    antifield_number: int
    ghost_number: int


INHOMOGENEOUS = "inhomogeneous"


class GradedPoly:
    """Canonical sum of monomials; construction-normalized and immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: tuple = ()):
        # terms must already be canonical: sorted factor tuples, no zeros
        self._terms = terms

    @classmethod
    def _from_dict(cls, acc: Mapping[Factors, Fraction]) -> "GradedPoly":
        items = tuple(sorted(((fs, c) for fs, c in acc.items() if c != 0),
                             key=lambda t: tuple(s.key for s in t[0])))
        return cls(items)

    @classmethod
    def zero(cls) -> "GradedPoly":
        return _ZERO

    @classmethod
    def constant(cls, value) -> "GradedPoly":
        q = Fraction(value)
        if q == 0:
            return _ZERO
        return cls((((), q),))

    @classmethod
    def from_symbol(cls, sym: JetSymbol, coeff=1) -> "GradedPoly":
        q = Fraction(coeff)
        if q == 0:
            return _ZERO
        return cls((((sym,), q),))

    @classmethod
    def from_raw(cls, raw: Iterable[tuple]) -> "GradedPoly":
        """Build from (coefficient, factor sequence) pairs in any factor order."""
        acc: dict[Factors, Fraction] = {}
        for coeff, factors in raw:
            q = Fraction(coeff)
            if q == 0:
                continue
            r = _canon_factors(tuple(factors))
            if r is None:
                continue
            sign, fs = r
            acc[fs] = acc.get(fs, _F0) + sign * q
        return cls._from_dict(acc)

    @property
    def terms(self) -> tuple:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return poly_sum((self, other)) if isinstance(other, GradedPoly) else NotImplemented

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return poly_sum((self, -other)) if isinstance(other, GradedPoly) else NotImplemented

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(tuple((fs, -c) for fs, c in self._terms))

    def scale(self, q) -> "GradedPoly":
        q = Fraction(q)
        if q == 0:
            return _ZERO
        return GradedPoly(tuple((fs, c * q) for fs, c in self._terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        acc: dict[Factors, Fraction] = {}
        for fa, ca in self._terms:
            for fb, cb in other._terms:
                r = _canon_factors(fa + fb)
                if r is None:
                    continue
                sign, fs = r
                c = acc.get(fs, _F0) + ca * cb * sign
                acc[fs] = c
        return GradedPoly._from_dict(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def symbols(self) -> Iterator[JetSymbol]:
        """Distinct jet symbols appearing in the polynomial, in canonical order."""
        seen = set()
        for fs, _ in self._terms:
            for f in fs:
                if f not in seen:
                    seen.add(f)
                    yield f

    def max_jet_order(self) -> int:
        return max((f.order for fs, _ in self._terms for f in fs), default=0)

    def max_degree(self) -> int:
        return max((len(fs) for fs, _ in self._terms), default=0)

    def __repr__(self) -> str:
        return f"GradedPoly({render_poly(self)})"


_ZERO = GradedPoly(())


def poly_sum(polys: Iterable[GradedPoly]) -> GradedPoly:
    """Sum of polynomials, merged term by term and canonicalised once.

    Every sum of polynomials goes through here; build a list of the parts
    and sum it once rather than adding them one at a time.
    """
    acc: dict[Factors, Fraction] = {}
    for p in polys:
        for fs, c in p._terms:
            acc[fs] = acc.get(fs, _F0) + c
    return GradedPoly._from_dict(acc)


def normalize(table: "VariableTable", raw: Iterable[tuple]) -> GradedPoly:
    """Canonicalize raw (coefficient, factors) input against a variable table.

    A factor is either a JetSymbol or a (name, components, derivative) triple;
    triples may carry permuted antisymmetric components, which are folded into
    the coefficient with the permutation sign.
    """
    prepared = []
    for coeff, factors in raw:
        sign = Fraction(coeff)
        syms = []
        dead = False
        for f in factors:
            if isinstance(f, JetSymbol):
                table.validate_symbol(f)
                syms.append(f)
                continue
            name, comps, deriv = f
            s, sym = table.jet(name, comps, deriv)
            if sym is None:
                dead = True
                break
            sign *= s
            syms.append(sym)
        if not dead:
            prepared.append((sign, tuple(syms)))
    return GradedPoly.from_raw(prepared)


def grading_of(p: GradedPoly):
    """Parity / antifield number / ghost number, or "inhomogeneous".

    The zero polynomial and rational constants grade as (0, 0, 0).
    """
    grading = None
    for fs, _ in p.terms:
        g = term_grading(fs)
        if grading is None:
            grading = g
        elif grading != g:
            return INHOMOGENEOUS
    return grading if grading is not None else Grading(0, 0, 0)


def term_grading(fs: Factors) -> Grading:
    return Grading(_term_parity(fs), sum(f.var.antifield_number for f in fs),
                   sum(f.var.ghost_number for f in fs))


def _coeff_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_poly(p: GradedPoly) -> str:
    """Deterministic textual form used in reports and golden files."""
    if p.is_zero():
        return "0"
    parts = []
    for i, (fs, c) in enumerate(p.terms):
        mag = abs(c)
        body = "*".join(factor_str(f) for f in fs)
        if not body:
            piece = _coeff_str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = _coeff_str(mag) + "*" + body
        if i == 0:
            parts.append(piece if c > 0 else "-" + piece)
        else:
            parts.append((" + " if c > 0 else " - ") + piece)
    return "".join(parts)


@dataclass(frozen=True)
class Density:
    """A horizontal density: coefficient times the implicit volume form."""

    coefficient: GradedPoly

    def is_zero(self) -> bool:
        return self.coefficient.is_zero()

    def __add__(self, other: "Density") -> "Density":
        return Density(self.coefficient + other.coefficient)

    def __sub__(self, other: "Density") -> "Density":
        return Density(self.coefficient - other.coefficient)

    def __neg__(self) -> "Density":
        return Density(-self.coefficient)

    def scale(self, q) -> "Density":
        return Density(self.coefficient.scale(q))


def as_poly(x) -> GradedPoly:
    return x.coefficient if isinstance(x, Density) else x


def perm_sign(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting seq ascending; 0 on repeats."""
    s = list(seq)
    sign = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] == s[j]:
                return 0
            if s[i] > s[j]:
                sign = -sign
    return sign


class VariableTable:
    """Declared variables of one model plus the base space.

    Symbol construction goes through ``jet`` so component and derivative
    indices are range-checked and antisymmetric components are normalized.
    """

    def __init__(self, base: BaseSpace, decls: Sequence[GradedVariableDecl] = ()):
        self.base = base
        self._decls: list[GradedVariableDecl] = []
        self._by_name: dict[str, GradedVariableDecl] = {}
        for d in decls:
            self.declare(d)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def decls(self) -> tuple:
        return tuple(self._decls)

    def declare(self, decl: GradedVariableDecl) -> GradedVariableDecl:
        if decl.name in self._by_name:
            raise ValueError(f"duplicate variable {decl.name!r}")
        self._decls.append(decl)
        self._by_name[decl.name] = decl
        return decl

    def decl(self, name: str) -> GradedVariableDecl:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def kind_decls(self, kind: str) -> tuple:
        return tuple(d for d in self._decls if d.kind == kind)

    def component_tuples(self, decl: GradedVariableDecl) -> tuple:
        if decl.arity == 0:
            return ((),)
        if decl.antisym:
            return tuple(combinations(range(self.n), decl.arity))
        return tuple(product(range(self.n), repeat=decl.arity))

    def jet(self, name, components: Sequence[int] = (), derivative: Iterable[int] = ()):
        """(sign, symbol) for possibly permuted components; (0, None) if it vanishes."""
        decl = name if isinstance(name, GradedVariableDecl) else self.decl(name)
        comps = tuple(components)
        deriv = tuple(derivative)
        if len(comps) != decl.arity:
            raise IndexOutOfRange(
                f"{decl.name} expects {decl.arity} component indices, got {len(comps)}")
        for c in comps:
            if not 0 <= c < self.n:
                raise IndexOutOfRange(f"component index {c} out of range for n={self.n}")
        for d in deriv:
            if not 0 <= d < self.n:
                raise IndexOutOfRange(f"derivative index {d} out of range for n={self.n}")
        sign = 1
        if decl.antisym and decl.arity > 1:
            sign = perm_sign(comps)
            if sign == 0:
                return 0, None
            comps = tuple(sorted(comps))
        return sign, JetSymbol(decl, comps, deriv)

    def symbol(self, name, components: Sequence[int] = (), derivative: Iterable[int] = ()) -> JetSymbol:
        """Strict constructor: components must already be canonical."""
        sign, sym = self.jet(name, components, derivative)
        if sym is None or sign != 1:
            raise ValueError(f"non-canonical components for {name}: {components}")
        return sym

    def validate_symbol(self, sym: JetSymbol) -> None:
        d = self._by_name.get(sym.var.name)
        if d is None:
            raise UnknownVariable(sym.var.name)
        if d != sym.var:
            raise ModelMismatch(
                f"{sym.var.name!r} is declared differently in this model")
        for c in sym.components:
            if not 0 <= c < self.n:
                raise IndexOutOfRange(f"component index {c} out of range for n={self.n}")
        for d_ in sym.derivative:
            if not 0 <= d_ < self.n:
                raise IndexOutOfRange(f"derivative index {d_} out of range for n={self.n}")

    def validate_poly(self, p) -> None:
        for sym in as_poly(p).symbols():
            self.validate_symbol(sym)
