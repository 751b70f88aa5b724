"""Graded-commutative polynomials over jet coordinates, with exact coefficients.

A jet symbol stands for a single coordinate ``v[comps]_(L)``: a declared
variable, a tuple of component indices, and a symmetric derivative multi-index
``L`` (stored as a sorted multiset of base indices, since derivatives
commute).  A monomial is a tuple of jet symbols kept in one global total
order; putting factors into that order contributes a sign of -1 for every
transposition of two odd factors, and a repeated odd factor annihilates the
monomial.  Every kernel that builds terms from raw factors (products, total
derivatives, derivation images, loading) enters them through ``_add_term``,
the one place that sorts factors and applies that sign.  Coefficients are
exact rationals: a polynomial stores ``int`` numerators over one positive
common denominator in lowest terms (the gcd of the denominator and every
numerator is 1, and the zero polynomial has denominator 1).  That form is
unique, so two polynomials are equal exactly when their stored forms
coincide, and the term kernels do only ``int`` arithmetic.
``GradedPoly.terms`` is the ``(factors, Fraction)`` view of the same terms.
The constructors accept any rational coefficients; ``_cleared``, shared with
``linalg``'s span, is the one place where they become ``int`` numerators.

Antisymmetric index blocks store only strictly increasing component tuples;
permuted input components are folded into the coefficient with the
permutation sign, and repeated components give zero.

Jet symbols are interned per declaration: each declaration keeps a table of
its symbols, so one model holds one object per jet coordinate and the term
kernels mostly compare factors by identity.  A declaration carries its base
dimension n, and a symbol's indices are checked against it once, when the
symbol is made; a raise checks only its new index.  Equality and hashing
stay by value, so symbols and polynomials of two separately built models
with equal declarations (n included) compare and hash equal.
Pickling re-interns: an unpickled symbol is looked up in (or added to) its
unpickled declaration's table, and a pickled declaration carries no table.
Two threads racing on the first request for a coordinate can at worst make
two equal symbols.  A variable table empties its declarations' symbol
tables when it is freed, so a model needs no cyclic garbage collection; a
declaration that outlives its table interns afresh, into symbols equal by
value to the old ones.

All values here are immutable and hashable and may be shared freely between
threads or worker processes.  A polynomial's derivative memo (filled by
``jets``) is a benign, idempotent cache: two threads racing on one entry
store equal values, and it takes no part in equality, hashing, ``repr`` or
pickling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IndexOutOfRange, ModelMismatch, UnknownVariable

EVEN = 0
ODD = 1

FIELD = "field"
ANTIFIELD = "antifield"
GHOST = "ghost"

_KIND_RANK = {FIELD: 0, ANTIFIELD: 1, GHOST: 2}

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
    The grading follows from kind and stage and is never passed in: a field
    (stage -1) has antifield and ghost number (0, 0), a stage-k antifield
    (k >= -1) has (k+2, -(k+2)), and a stage-k ghost (k >= 0) has (0, k+1);
    any other kind/stage pair raises ValueError.
    ``n`` is the base dimension, over which every index of its symbols ranges.
    ``symbols`` interns this declaration's jet symbols by (components,
    derivative); it takes no part in comparison, hashing or pickling.
    """

    name: str
    kind: str
    parity: int
    stage: int = -1
    arity: int = 0
    antisym: bool = False
    n: int = 1
    antifield_number: int = field(init=False, compare=False)
    ghost_number: int = field(init=False, compare=False)
    symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, k = self.kind, self.stage
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown kind {kind!r}")
        if kind == FIELD and k == -1:
            grading = (0, 0)
        elif kind == ANTIFIELD and k >= -1:
            grading = (k + 2, -(k + 2))
        elif kind == GHOST and k >= 0:
            grading = (0, k + 1)
        else:
            raise ValueError(f"a {kind} cannot sit at stage {k}")
        object.__setattr__(self, "antifield_number", grading[0])
        object.__setattr__(self, "ghost_number", grading[1])
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if self.arity < 2 and self.antisym:
            # antisymmetry is vacuous below two indices
            object.__setattr__(self, "antisym", False)

    def __reduce__(self):
        return (GradedVariableDecl, tuple(getattr(self, f.name) for f in fields(self) if f.init))


class JetSymbol:
    """One jet coordinate: variable + component tuple + derivative multiset.

    ``JetSymbol(var, comps, deriv)`` returns the declaration's interned
    symbol for that coordinate, creating it on the first request.  A wrong
    component count or an index outside 0..var.n-1 raises IndexOutOfRange.
    """

    __slots__ = ("var", "components", "derivative", "key", "parity", "_hash", "_zero")

    def __new__(cls, var: GradedVariableDecl, components: Sequence[int] = (),
                derivative: Iterable[int] = ()):
        return _intern(var, tuple(components), tuple(derivative))

    @property
    def order(self) -> int:
        return len(self.derivative)

    def zero_order(self) -> "JetSymbol":
        return self._zero or self

    def raised(self, lam: int) -> "JetSymbol":
        """d_lam of this coordinate: one table lookup, and on a miss, once lam
        is in range, a symbol with this one's components and zero-order symbol."""
        var = self.var
        comps = self.components
        d = self.derivative
        deriv = d + (lam,) if not d or d[-1] <= lam else tuple(sorted(d + (lam,)))
        sym = var.symbols.get((comps, deriv))
        if sym is None:
            if not 0 <= lam < var.n:
                raise IndexOutOfRange(f"derivative index {lam} out of range for n={var.n}")
            sym = _new_symbol(var, comps, deriv, self._zero or self)
        return sym

    def __reduce__(self):
        return (JetSymbol, (self.var, self.components, self.derivative))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, JetSymbol) and self.key == other.key
                                 and self.var == other.var)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "JetSymbol") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"JetSymbol({factor_str(self)})"


def _intern(var: GradedVariableDecl, comps: tuple, deriv: tuple) -> JetSymbol:
    """The symbol of var at canonical comps and deriv (in any order); on first
    use its indices are checked and it is made."""
    key = (comps, tuple(sorted(deriv)))
    sym = var.symbols.get(key)
    if sym is not None:
        return sym
    _check_indices(var, comps, deriv)
    if var.antisym and any(comps[i] >= comps[i + 1] for i in range(len(comps) - 1)):
        raise ValueError(f"antisymmetric components must be strictly increasing: {comps}")
    return _new_symbol(var, comps, key[1], _intern(var, comps, ()) if deriv else None)


def _check_indices(var: GradedVariableDecl, comps: tuple, deriv: tuple) -> None:
    """Raise IndexOutOfRange unless var takes len(comps) components and every
    index lies in 0..var.n-1; the first bad index in the order given is named."""
    if len(comps) != var.arity:
        raise IndexOutOfRange(f"{var.name} expects {var.arity} component indices, got {len(comps)}")
    n = var.n
    for c in comps:
        if not 0 <= c < n:
            raise IndexOutOfRange(f"component index {c} out of range for n={n}")
    for d in deriv:
        if not 0 <= d < n:
            raise IndexOutOfRange(f"derivative index {d} out of range for n={n}")


def _new_symbol(var: GradedVariableDecl, comps: tuple, deriv: tuple, zero) -> JetSymbol:
    """Make and intern the symbol of var at checked comps and sorted deriv;
    zero is its zero-order symbol, None when deriv is empty."""
    sym = object.__new__(JetSymbol)
    sym.var = var
    sym.components = comps
    sym.derivative = deriv
    sym.key = (var.stage, _KIND_RANK[var.kind], var.name, comps, deriv)
    sym.parity = var.parity
    sym._hash = hash(sym.key)
    # None, not sym itself: a symbol must not be a reference cycle
    sym._zero = zero
    var.symbols[(comps, deriv)] = sym
    return sym


def factor_str(sym: JetSymbol) -> str:
    """Canonical rendering of one jet symbol: name[components]_(derivatives)."""
    s = sym.var.name
    if sym.components:
        s += "[" + ",".join(str(c) for c in sym.components) + "]"
    if sym.derivative:
        s += "_(" + ",".join(str(d) for d in sym.derivative) + ")"
    return s


Factors = tuple  # tuple[JetSymbol, ...] in canonical order


def _add_term(acc: dict, factors: Sequence[JetSymbol], c) -> None:
    """Merge c times the monomial of factors, given in any order, into acc.

    This is the one entry for raw terms: it sorts the factors into the global
    order, negates c once per transposition of two odd factors, and stores
    nothing when an odd factor repeats, also apart within the run of its key
    (two declarations can share a key).  A one-factor monomial is already
    canonical, so it is merged as it is, with no sort.  A first insert stores
    c itself, never 0 + c, and the sign is applied by negation, which skips
    the normalising gcd that a product with an int sign would pay.  The
    canonical form of a polynomial is unique, so the result depends only on
    the terms merged, never on the order their factors arrive in.
    """
    if len(factors) == 1:
        fs = tuple(factors)
        prev = acc.get(fs)
        acc[fs] = c if prev is None else prev + c
        return
    out: list[JetSymbol] = []
    odd_swaps = 0
    for f in factors:
        i = len(out)
        crossed_odd = 0
        while i > 0 and out[i - 1].key > f.key:
            crossed_odd ^= out[i - 1].parity
            i -= 1
        if f.parity:
            odd_swaps ^= crossed_odd
            if i > 0:
                prev = out[i - 1]
                if prev is f or (prev.key == f.key and f in out[:i]):
                    return
        out.insert(i, f)
    fs = tuple(out)
    if odd_swaps:
        c = -c
    prev = acc.get(fs)
    acc[fs] = c if prev is None else prev + c


_symbol_key = attrgetter("key")
_numerator = itemgetter(1)


def _term_key(term: tuple) -> tuple:
    """Sort key of a (factors, coefficient) term: its factors' keys in order."""
    return tuple(map(_symbol_key, term[0]))


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
    """Canonical sum of monomials; construction-normalized and immutable.

    ``_terms`` holds (factors, nonzero int numerator) pairs in canonical
    order over the positive common denominator ``_den``, in lowest terms.
    ``_d`` is None or the derivative memo, sorted multiset L -> d_L as
    unsorted (factors, nonzero int numerator over ``_den``) pairs.
    """

    __slots__ = ("_terms", "_den", "_d")

    def __init__(self, terms: Iterable[tuple] = ()):
        """From (canonical factor tuple, rational) pairs with distinct factor
        tuples, in any order; zero coefficients are dropped."""
        items, self._den = _cleared(terms)     # den 1 when no item is left
        self._terms = tuple(sorted(items, key=_term_key))
        self._d = None

    @classmethod
    def _from_dict(cls, acc: Mapping[Factors, int], den: int) -> "GradedPoly":
        """The polynomial of acc's int numerators over den; zeros are dropped."""
        items = [(fs, c) for fs, c in acc.items() if c]
        if len(items) > 1:
            items.sort(key=_term_key)
        return _reduced(tuple(items), den)

    @classmethod
    def zero(cls) -> "GradedPoly":
        return _ZERO

    @classmethod
    def constant(cls, value) -> "GradedPoly":
        return _monomial((), value)

    @classmethod
    def from_symbol(cls, sym: JetSymbol, coeff=1) -> "GradedPoly":
        return _monomial((sym,), coeff)

    @classmethod
    def from_raw(cls, raw: Iterable[tuple]) -> "GradedPoly":
        """Build from (coefficient, factor sequence) pairs in any factor order."""
        nums, den = _cleared((fs, c) for c, fs in raw)
        acc: dict[Factors, int] = {}
        for fs, c in nums:
            _add_term(acc, fs, c)
        return cls._from_dict(acc, den)

    @property
    def terms(self) -> tuple:
        """(factors, nonzero Fraction) pairs in canonical order."""
        den = self._den
        return tuple((fs, Fraction(c, den)) for fs, c in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedPoly) and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self._terms, self._den))

    def __reduce__(self):
        return (_make, (self._terms, self._den))

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return poly_sum((self, other)) if isinstance(other, GradedPoly) else NotImplemented

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return poly_sum((self, -other)) if isinstance(other, GradedPoly) else NotImplemented

    def __neg__(self) -> "GradedPoly":
        return _make(tuple((fs, -c) for fs, c in self._terms), self._den)

    def scale(self, q) -> "GradedPoly":
        return self * _monomial((), q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        for a, b in ((self, other), (other, self)):
            if len(b._terms) == 1 and not b._terms[0][0]:   # b is a constant: scale a
                num, den = b._terms[0][1], b._den
                if den == 1 and (num == 1 or num == -1):
                    return a if num == 1 else -a
                return _reduced(tuple((fs, c * num) for fs, c in a._terms), a._den * den)
        acc: dict[Factors, int] = {}
        for fa, ca in self._terms:
            for fb, cb in other._terms:
                _add_term(acc, fa + fb, ca * cb)
        return GradedPoly._from_dict(acc, self._den * other._den)

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


def _make(terms: tuple, den: int) -> GradedPoly:
    """A polynomial of terms already in canonical form over den."""
    p = object.__new__(GradedPoly)
    p._terms = terms
    p._den = den
    p._d = None
    return p


def _cleared(pairs: Iterable[tuple]) -> tuple[list, int]:
    """(nonzero (key, int numerator) pairs, den) for (key, rational) pairs, den
    the lcm of their reduced denominators, so den and the numerators have gcd
    1.  This is the one place where rational coefficients become integers."""
    pairs = list(pairs)
    for _, c in pairs:
        if c.__class__ is not int or not c:
            break
    else:       # nonzero ints are cleared over 1 as they are, with no Fraction
        return pairs, 1
    qs = [(k, c if c.__class__ in (int, Fraction) else Fraction(c)) for k, c in pairs]
    den = lcm(*[q.denominator for _, q in qs])
    return [(k, q.numerator * (den // q.denominator)) for k, q in qs if q], den


def _monomial(fs: Factors, coeff) -> GradedPoly:
    """coeff times the monomial of canonical factors fs."""
    items, den = _cleared(((fs, coeff),))
    return _make(tuple(items), den) if items else _ZERO


def _reduced(terms: tuple, den: int) -> GradedPoly:
    """The polynomial of sorted nonzero int terms over den, in lowest terms."""
    if not terms:
        return _ZERO
    if den != 1:
        g = gcd(den, *map(_numerator, terms))
        if g != 1:
            den //= g
            terms = tuple((fs, c // g) for fs, c in terms)
    return _make(terms, den)


_ZERO = _make((), 1)


def poly_sum(polys: Iterable[GradedPoly]) -> GradedPoly:
    """Sum of polynomials, merged term by term and canonicalised once.

    Every sum of polynomials goes through here; build a list of the parts
    and sum it once rather than adding them one at a time.
    """
    polys = list(polys)
    if len(polys) == 1:
        return polys[0]
    den = lcm(*[p._den for p in polys])
    acc: dict[Factors, int] = {}
    for p in polys:
        k = den // p._den
        for fs, c in p._terms:
            c *= k
            prev = acc.get(fs)
            acc[fs] = c if prev is None else prev + c
    return GradedPoly._from_dict(acc, den)


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
            if s < 0:
                sign = -sign
            syms.append(sym)
        if not dead:
            prepared.append((sign, tuple(syms)))
    return GradedPoly.from_raw(prepared)


def grading_of(p: GradedPoly):
    """Parity / antifield number / ghost number, or "inhomogeneous".

    The zero polynomial and rational constants grade as (0, 0, 0).
    """
    grading = None
    for fs, _ in p._terms:
        g = (_term_parity(fs), sum(f.var.antifield_number for f in fs),
             sum(f.var.ghost_number for f in fs))
        if grading is None:
            grading = g
        elif grading != g:
            return INHOMOGENEOUS
    return Grading(*(grading or (0, 0, 0)))


def _coeff_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_terms(p: GradedPoly, monomial_str) -> str:
    """The signed sum of p's terms, each monomial rendered by monomial_str.

    The model-file renderer calls this, not ``render_poly``, whose traced
    call count measures report rendering only.
    """
    if p.is_zero():
        return "0"
    parts = []
    for i, (fs, c) in enumerate(p.terms):
        mag = abs(c)
        body = monomial_str(fs)
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


def render_poly(p: GradedPoly) -> str:
    """Deterministic textual form used in reports and golden files."""
    return _render_terms(p, lambda fs: "*".join(map(factor_str, fs)))


def as_poly(x) -> GradedPoly:
    """The identity; a density is its coefficient polynomial.

    Kept only because the benchmark harness in ``perfbench/`` imports it.
    """
    return x


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

    Every declaration of a table has the table's base dimension, so a symbol
    of a declaration is valid here exactly when that declaration, or one
    equal to it by value, is declared under its name.  ``jet`` folds permuted
    antisymmetric components into a sign; ``validate_poly`` looks at each
    factor's declaration only.
    """

    def __init__(self, base: BaseSpace, decls: Sequence[GradedVariableDecl] = ()):
        self.base = base
        self._decls: list[GradedVariableDecl] = []
        self._by_name: dict[str, GradedVariableDecl] = {}
        for d in decls:
            self.declare(d)

    def __del__(self) -> None:
        # a declaration and its interned symbols (whose var it is) form a
        # cycle; emptying the tables lets reference counting free the model
        for d in self._decls:
            d.symbols.clear()

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def decls(self) -> tuple:
        return tuple(self._decls)

    def declare(self, decl: GradedVariableDecl) -> GradedVariableDecl:
        if decl.name in self._by_name:
            raise ValueError(f"duplicate variable {decl.name!r}")
        if decl.n != self.n:
            raise ModelMismatch(f"{decl.name!r} is declared over n={decl.n}, not n={self.n}")
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
        sign = 1
        if decl.antisym and any(a >= b for a, b in zip(comps, comps[1:])):
            # checked before the fold, which would reorder or drop a bad index
            _check_indices(decl, comps, deriv)
            sign = perm_sign(comps)
            if sign == 0:
                return 0, None
            comps = tuple(sorted(comps))
        return sign, _intern(decl, comps, deriv)

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
        if d is not sym.var and d != sym.var:
            raise ModelMismatch(
                f"{sym.var.name!r} is declared differently in this model")

    def validate_poly(self, p: GradedPoly) -> None:
        by_name = self._by_name
        for fs, _ in p._terms:
            for f in fs:
                if by_name.get(f.var.name) is not f.var:
                    self.validate_symbol(f)
