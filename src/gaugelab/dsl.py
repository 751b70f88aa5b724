"""Model definition language: parsing, index expansion, and rendering.

A model file is line-oriented:

    dim 2
    field A
    field B[1]
    odd-field psi
    L = 1/2*A*eps[mu,nu]*d[mu](B[nu])
    stage 0: D[] = d[mu](sbar(B)[mu])

Expressions use ``+ - * / ^``, rational literals, ``d[i](...)`` for total
derivatives, ``eps[...]`` and ``delta[i,j]``, field names with component
indices, ``sbar(NAME)[...]`` for field antifields and ``cbar(K)[...]`` (or
``cbar(K:FAMILY)`` when stage K holds several families) for stage antifields.
An index is a letter or a concrete integer.  Within any subexpression a
letter may occur once (free) or twice (summed over 0..n-1); the free letters
of all summands of a sum must agree.  Generator families are declared with
distinct free letters and are evaluated on strictly increasing index tuples;
they may also be given member by member with concrete indices.

Parsing either yields exactly one model or a list of positioned diagnostics
with stable codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .algebra import EVEN, GradedPoly, ODD, as_poly, perm_sign, poly_sum
from .errors import GaugelabError, IndexOutOfRange, UnknownVariable
from .jets import total_derivative
from .koszul import ModelBuilder, ModelSpec


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.code}: {self.message}"


class ModelFormatError(GaugelabError):
    """Raised by ``parse_or_raise`` with the collected diagnostics attached."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<punct>[=\[\](),;:+\-*/^])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str        # "int" | "name" | "punct" | "end"
    text: str
    line: int
    col: int


def _tokenize_line(line: str, lineno: int, diags: list) -> list[Token]:
    out = []
    pos = 0
    while pos < len(line):
        mo = _TOKEN_RE.match(line, pos)
        if mo is None:
            diags.append(Diagnostic(lineno, pos + 1, "E-SYNTAX",
                                    f"unexpected character {line[pos]!r}"))
            return []
        if mo.lastgroup == "comment":
            break
        if mo.lastgroup != "ws":
            out.append(Token(mo.lastgroup, mo.group(), lineno, mo.start() + 1))
        pos = mo.end()
    return out


# ---------------------------------------------------------------------------
# expression AST

@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: tuple


@dataclass(frozen=True)
class Ref:
    """A variable reference: the ``name`` is the declared table name."""
    name: str
    indices: tuple   # of ("let", str) | ("lit", int)
    pos: tuple


@dataclass(frozen=True)
class DTot:
    index: tuple     # ("let", str) | ("lit", int)
    sub: object
    pos: tuple


@dataclass(frozen=True)
class Eps:
    indices: tuple
    pos: tuple


@dataclass(frozen=True)
class Delta:
    a: tuple
    b: tuple
    pos: tuple


@dataclass(frozen=True)
class Add:
    items: tuple     # of (sign, node)
    pos: tuple


@dataclass(frozen=True)
class Mul:
    factors: tuple   # of node | ("div", node)
    pos: tuple


@dataclass(frozen=True)
class FamilyDef:
    stage: int
    name: str
    indices: tuple
    expr: object
    pos: tuple


@dataclass
class ModelDocument:
    """Syntax-level model: declarations and unexpanded expression trees."""

    dim: int | None = None
    decls: list = field(default_factory=list)      # (name, parity, arity, antisym, pos)
    lagrangian: tuple | None = None                 # (expr, pos)
    families: list = field(default_factory=list)    # FamilyDef


class _ExprParser:
    def __init__(self, tokens: list[Token], diags: list):
        self.toks = tokens
        self.i = 0
        self.diags = diags

    def peek(self) -> Token:
        if self.i < len(self.toks):
            return self.toks[self.i]
        last = self.toks[-1] if self.toks else Token("end", "", 1, 1)
        return Token("end", "", last.line, last.col + len(last.text))

    def take(self) -> Token:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text: str) -> Token | None:
        t = self.peek()
        if t.text == text:
            return self.take()
        self.diags.append(Diagnostic(t.line, t.col, "E-SYNTAX",
                                     f"expected {text!r}, found {t.text or 'end of line'!r}"))
        return None

    def fail(self, msg: str):
        t = self.peek()
        self.diags.append(Diagnostic(t.line, t.col, "E-SYNTAX", msg))
        raise _Bail()

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    # expr := term (("+"|"-") term)*
    def expr(self):
        pos = (self.peek().line, self.peek().col)
        items = [(1, self.term())]
        while self.peek().text in ("+", "-"):
            sign = 1 if self.take().text == "+" else -1
            items.append((sign, self.term()))
        if len(items) == 1 and items[0][0] == 1:
            return items[0][1]
        return Add(tuple(items), pos)

    # term := signed (("*"|"/") signed)*
    def term(self):
        pos = (self.peek().line, self.peek().col)
        factors = [self.signed()]
        while self.peek().text in ("*", "/"):
            op = self.take().text
            f = self.signed()
            factors.append(f if op == "*" else ("div", f))
        if len(factors) == 1 and not isinstance(factors[0], tuple):
            return factors[0]
        return Mul(tuple(factors), pos)

    def signed(self):
        sign = 1
        while self.peek().text in ("+", "-"):
            if self.take().text == "-":
                sign = -sign
        node = self.power()
        if sign == -1:
            pos = (self.peek().line, self.peek().col)
            return Mul((Num(Fraction(-1), pos), node), pos)
        return node

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            self.take()
            t = self.take()
            if t.kind != "int":
                self.fail("exponent must be a nonnegative integer")
            k = int(t.text)
            if k == 0:
                return Num(Fraction(1), (t.line, t.col))
            return Mul((base,) * k, (t.line, t.col))
        return base

    def _index(self) -> tuple:
        t = self.take()
        if t.kind == "int":
            return ("lit", int(t.text))
        if t.kind == "name":
            return ("let", t.text)
        self.diags.append(Diagnostic(t.line, t.col, "E-SYNTAX",
                                     f"expected an index, found {t.text!r}"))
        raise _Bail()

    def _index_list(self) -> tuple:
        self.expect("[") or self._bail()
        out = []
        if self.peek().text != "]":
            out.append(self._index())
            while self.peek().text == ",":
                self.take()
                out.append(self._index())
        self.expect("]") or self._bail()
        return tuple(out)

    def _bail(self):
        raise _Bail()

    def atom(self):
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "int":
            self.take()
            return Num(Fraction(int(t.text)), pos)
        if t.text == "(":
            self.take()
            e = self.expr()
            self.expect(")") or self._bail()
            return e
        if t.kind == "name":
            name = self.take().text
            if name == "d":
                idxs = self._index_list()
                if len(idxs) != 1:
                    self.diags.append(Diagnostic(*pos, "E-SYNTAX",
                                                 "d[] takes exactly one index"))
                    raise _Bail()
                self.expect("(") or self._bail()
                sub = self.expr()
                self.expect(")") or self._bail()
                return DTot(idxs[0], sub, pos)
            if name == "eps":
                return Eps(self._index_list(), pos)
            if name == "delta":
                idxs = self._index_list()
                if len(idxs) != 2:
                    self.diags.append(Diagnostic(*pos, "E-SYNTAX",
                                                 "delta[] takes exactly two indices"))
                    raise _Bail()
                return Delta(idxs[0], idxs[1], pos)
            if name == "sbar":
                self.expect("(") or self._bail()
                inner = self.take()
                if inner.kind != "name":
                    self.fail("sbar(...) needs a field name")
                self.expect(")") or self._bail()
                idxs = self._index_list() if self.peek().text == "[" else ()
                return Ref(f"sbar({inner.text})", idxs, pos)
            if name == "cbar":
                self.expect("(") or self._bail()
                stage_tok = self.take()
                if stage_tok.kind != "int":
                    self.fail("cbar(...) needs a stage number")
                tag = stage_tok.text
                if self.peek().text == ":":
                    self.take()
                    fam = self.take()
                    if fam.kind != "name":
                        self.fail("cbar(K:FAMILY) needs a family name")
                    tag = f"{tag}:{fam.text}"
                self.expect(")") or self._bail()
                idxs = self._index_list() if self.peek().text == "[" else ()
                return Ref(f"cbar({tag})", idxs, pos)
            idxs = self._index_list() if self.peek().text == "[" else ()
            return Ref(name, idxs, pos)
        self.fail(f"unexpected token {t.text or 'end of line'!r}")


class _Bail(Exception):
    pass


def parse_model(text: str):
    """Syntax pass: (ModelDocument | None, diagnostics)."""
    diags: list[Diagnostic] = []
    doc = ModelDocument()
    saw_statement = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, lineno, diags)
        if not toks:
            continue
        saw_statement = True
        head = toks[0]
        try:
            if head.text == "dim":
                if len(toks) != 2 or toks[1].kind != "int":
                    diags.append(Diagnostic(lineno, head.col, "E-SYNTAX",
                                            "usage: dim N"))
                    continue
                if doc.dim is not None:
                    diags.append(Diagnostic(lineno, head.col, "E-DUP-DECL",
                                            "dimension already declared"))
                    continue
                doc.dim = int(toks[1].text)
            elif head.text in ("field", "odd-field"):
                _parse_field(doc, toks, diags)
            elif head.text == "L":
                p = _ExprParser(toks[1:], diags)
                if p.expect("=") is None:
                    continue
                expr = p.expr()
                if not p.at_end():
                    p.fail("trailing tokens after the Lagrangian")
                if doc.lagrangian is not None:
                    diags.append(Diagnostic(lineno, head.col, "E-DUP-DECL",
                                            "Lagrangian already declared"))
                    continue
                doc.lagrangian = (expr, (lineno, head.col))
            elif head.text == "stage":
                _parse_stage(doc, toks, diags)
            else:
                diags.append(Diagnostic(lineno, head.col, "E-SYNTAX",
                                        f"unknown statement {head.text!r}"))
        except _Bail:
            continue
    if not saw_statement:
        diags.append(Diagnostic(1, 1, "E-EMPTY", "the model file has no statements"))
    if any(d.code != "W" for d in diags):
        return None, diags
    return doc, diags


def _parse_field(doc: ModelDocument, toks: list[Token], diags: list) -> None:
    parity = ODD if toks[0].text == "odd-field" else EVEN
    if len(toks) < 2 or toks[1].kind != "name":
        diags.append(Diagnostic(toks[0].line, toks[0].col, "E-SYNTAX",
                                "usage: field NAME [ARITY [antisym]]"))
        return
    name = toks[1].text
    arity = 0
    antisym = False
    rest = toks[2:]
    if rest:
        if (len(rest) not in (3, 4) or rest[0].text != "[" or rest[1].kind != "int"
                or rest[-1].text != "]"
                or (len(rest) == 4 and rest[2].text != "antisym")):
            diags.append(Diagnostic(toks[0].line, toks[0].col, "E-SYNTAX",
                                    "usage: field NAME [ARITY [antisym]]"))
            return
        arity = int(rest[1].text)
        antisym = len(rest) == 4
    if any(d[0] == name for d in doc.decls):
        diags.append(Diagnostic(toks[0].line, toks[1].col, "E-DUP-DECL",
                                f"field {name!r} already declared"))
        return
    doc.decls.append((name, parity, arity, antisym, (toks[0].line, toks[0].col)))


def _parse_stage(doc: ModelDocument, toks: list[Token], diags: list) -> None:
    if len(toks) < 3 or toks[1].kind != "int" or toks[2].text != ":":
        diags.append(Diagnostic(toks[0].line, toks[0].col, "E-SYNTAX",
                                "usage: stage K: NAME[idx,...] = expr ; ..."))
        return
    stage = int(toks[1].text)
    body = toks[3:]
    chunks: list[list[Token]] = [[]]
    for t in body:
        if t.text == ";":
            chunks.append([])
        else:
            chunks[-1].append(t)
    for chunk in chunks:
        if not chunk:
            continue
        p = _ExprParser(chunk, diags)
        try:
            name_tok = p.take()
            if name_tok.kind != "name":
                p.fail("a generator definition starts with a family name")
            idxs = p._index_list()
            if p.expect("=") is None:
                continue
            expr = p.expr()
            if not p.at_end():
                p.fail("trailing tokens after a generator definition")
            doc.families.append(FamilyDef(stage, name_tok.text, idxs, expr,
                                          (name_tok.line, name_tok.col)))
        except _Bail:
            continue


# ---------------------------------------------------------------------------
# index analysis and evaluation

class _Expander:
    def __init__(self, table, n: int, diags: list):
        self.table = table
        self.n = n
        self.diags = diags
        self.bound: dict[int, tuple] = {}

    def frees(self, node) -> frozenset:
        """Free letters after binding; populates the per-node binding table."""
        if isinstance(node, Num):
            return frozenset()
        if isinstance(node, (Ref, Eps)):
            letters = [i[1] for i in node.indices if i[0] == "let"]
            return self._bind(node, letters)
        if isinstance(node, Delta):
            letters = [i[1] for i in (node.a, node.b) if i[0] == "let"]
            return self._bind(node, letters)
        if isinstance(node, DTot):
            letters = list(self.frees(node.sub))
            if node.index[0] == "let":
                letters.append(node.index[1])
            return self._bind(node, letters)
        if isinstance(node, Mul):
            letters = []
            for f in node.factors:
                sub = f[1] if isinstance(f, tuple) else f
                letters.extend(self.frees(sub))
            return self._bind(node, letters)
        if isinstance(node, Add):
            sets = [self.frees(sub) for _, sub in node.items]
            first = sets[0]
            for s in sets[1:]:
                if s != first:
                    self.diags.append(Diagnostic(*node.pos, "E-FREE-SUM",
                                                 "summands carry different free indices"))
                    raise _Bail()
            return first
        raise TypeError(node)

    def _bind(self, node, letters) -> frozenset:
        counts: dict[str, int] = {}
        for l in letters:
            counts[l] = counts.get(l, 0) + 1
        over = sorted(l for l, c in counts.items() if c > 2)
        if over:
            self.diags.append(Diagnostic(*node.pos, "E-IDX-ARITY",
                                         f"index letter {over[0]!r} appears more than twice"))
            raise _Bail()
        here = tuple(sorted(l for l, c in counts.items() if c == 2))
        if here:
            self.bound[id(node)] = here
        return frozenset(l for l, c in counts.items() if c == 1)

    def eval(self, node, env) -> GradedPoly:
        here = self.bound.get(id(node), ())
        if not here:
            return self._eval(node, env)
        return poly_sum(self._eval(node, {**env, **dict(zip(here, assign))})
                        for assign in product(range(self.n), repeat=len(here)))

    def _idx(self, idx, env, pos) -> int:
        if idx[0] == "lit":
            v = idx[1]
        else:
            try:
                v = env[idx[1]]
            except KeyError:
                self.diags.append(Diagnostic(*pos, "E-FREE-IDX",
                                             f"unbound index letter {idx[1]!r}"))
                raise _Bail() from None
        if not 0 <= v < self.n:
            self.diags.append(Diagnostic(*pos, "E-IDX-RANGE",
                                         f"index {v} out of range for dim {self.n}"))
            raise _Bail()
        return v

    def _eval(self, node, env) -> GradedPoly:
        if isinstance(node, Num):
            return GradedPoly.constant(node.value)
        if isinstance(node, Eps):
            if len(node.indices) != self.n:
                self.diags.append(Diagnostic(*node.pos, "E-EPS-ARITY",
                                             f"eps takes {self.n} indices here"))
                raise _Bail()
            vals = tuple(self._idx(i, env, node.pos) for i in node.indices)
            return GradedPoly.constant(perm_sign(vals))
        if isinstance(node, Delta):
            a = self._idx(node.a, env, node.pos)
            b_ = self._idx(node.b, env, node.pos)
            return GradedPoly.constant(1 if a == b_ else 0)
        if isinstance(node, Ref):
            vals = tuple(self._idx(i, env, node.pos) for i in node.indices)
            try:
                sign, sym = self.table.jet(node.name, vals, ())
            except UnknownVariable:
                self.diags.append(Diagnostic(*node.pos, "E-UNKNOWN-VAR",
                                             f"unknown variable {node.name!r}"))
                raise _Bail() from None
            except IndexOutOfRange as e:
                self.diags.append(Diagnostic(*node.pos, "E-IDX-RANGE", str(e)))
                raise _Bail() from None
            if sym is None:
                return GradedPoly.zero()
            return GradedPoly.from_symbol(sym, sign)
        if isinstance(node, DTot):
            lam = self._idx(node.index, env, node.pos)
            return total_derivative(self.eval(node.sub, env), lam, self.n)
        if isinstance(node, Add):
            return poly_sum(self.eval(sub, env) if sign > 0 else -self.eval(sub, env)
                            for sign, sub in node.items)
        if isinstance(node, Mul):
            acc = GradedPoly.constant(1)
            for f in node.factors:
                if isinstance(f, tuple):
                    v = self.eval(f[1], env)
                    if v.max_degree() > 0 or v.is_zero():
                        self.diags.append(Diagnostic(*node.pos, "E-SYNTAX",
                                                     "division only by nonzero rational constants"))
                        raise _Bail()
                    acc = acc.scale(Fraction(1) / v.terms[0][1])
                else:
                    acc = acc * self.eval(f, env)
            return acc
        raise TypeError(node)


def elaborate(doc: ModelDocument, name: str = "model"):
    """Semantic pass: (ModelSpec | None, diagnostics)."""
    diags: list[Diagnostic] = []
    if doc.dim is None:
        diags.append(Diagnostic(1, 1, "E-DIM-MISSING", "missing 'dim N' statement"))
        return None, diags
    builder = ModelBuilder(name, doc.dim)
    for fname, parity, arity, antisym, pos in doc.decls:
        try:
            builder.add_field(fname, parity=parity, arity=arity, antisym=antisym)
        except ValueError as e:
            diags.append(Diagnostic(*pos, "E-DUP-DECL", str(e)))
            return None, diags
    ex = _Expander(builder.table, doc.dim, diags)

    if doc.lagrangian is None:
        diags.append(Diagnostic(1, 1, "E-L-MISSING", "missing 'L = ...' statement"))
        return None, diags
    lexpr, lpos = doc.lagrangian
    try:
        free = ex.frees(lexpr)
        if free:
            diags.append(Diagnostic(*lpos, "E-FREE-IDX",
                                    f"the Lagrangian has free indices {sorted(free)}"))
            return None, diags
        builder.set_lagrangian(ex.eval(lexpr, {}))
    except _Bail:
        return None, diags

    stages = sorted({f.stage for f in doc.families})
    if stages and stages != list(range(len(stages))):
        diags.append(Diagnostic(1, 1, "E-STAGE-ORDER",
                                f"stages must be 0,1,... without gaps, got {stages}"))
        return None, diags
    for stage in stages:
        defs = [f for f in doc.families if f.stage == stage]
        grouped: dict[str, list[FamilyDef]] = {}
        for fd in defs:
            grouped.setdefault(fd.name, []).append(fd)
        fams = []
        ok = True
        for famname in sorted(grouped):
            members: dict[tuple, list] = {}
            arity = None
            antisym = None
            for fd in grouped[famname]:
                if arity is None:
                    arity = len(fd.indices)
                    antisym = arity > 1
                elif arity != len(fd.indices):
                    diags.append(Diagnostic(*fd.pos, "E-IDX-ARITY",
                                            f"family {famname!r} redefined with a different arity"))
                    ok = False
                    continue
                kinds = {i[0] for i in fd.indices}
                if len(kinds) > 1:
                    diags.append(Diagnostic(*fd.pos, "E-SYNTAX",
                                            "family indices must be all letters or all integers"))
                    ok = False
                    continue
                try:
                    if not fd.indices or kinds == {"let"}:
                        letters = tuple(i[1] for i in fd.indices)
                        if len(set(letters)) != len(letters):
                            diags.append(Diagnostic(*fd.pos, "E-IDX-ARITY",
                                                    "family indices must be distinct letters"))
                            ok = False
                            continue
                        free = ex.frees(fd.expr)
                        if free != frozenset(letters):
                            diags.append(Diagnostic(*fd.pos, "E-FREE-IDX",
                                                    f"free indices {sorted(free)} do not match "
                                                    f"the family indices {sorted(letters)}"))
                            ok = False
                            continue
                        for comps in combinations(range(doc.dim), arity):
                            env = dict(zip(letters, comps))
                            members.setdefault(comps, []).append(ex.eval(fd.expr, env))
                    else:
                        comps = tuple(i[1] for i in fd.indices)
                        if list(comps) != sorted(set(comps)):
                            diags.append(Diagnostic(*fd.pos, "E-SYNTAX",
                                                    "concrete family indices must be strictly increasing"))
                            ok = False
                            continue
                        free = ex.frees(fd.expr)
                        if free:
                            diags.append(Diagnostic(*fd.pos, "E-FREE-IDX",
                                                    f"member definition has free indices {sorted(free)}"))
                            ok = False
                            continue
                        members.setdefault(comps, []).append(ex.eval(fd.expr, {}))
                except _Bail:
                    ok = False
                    continue
            if arity is None:
                continue
            for comps in combinations(range(doc.dim), arity):
                members.setdefault(comps, [])
            fams.append((famname, arity, arity > 1,
                         {comps: poly_sum(ps) for comps, ps in members.items()}))
        if not ok:
            return None, diags
        try:
            builder.add_stage(fams)
        except GaugelabError as e:
            diags.append(Diagnostic(1, 1, "E-SHAPE", str(e)))
            return None, diags
    return builder.build(), diags


def load_model(text: str, name: str = "model"):
    """(ModelSpec | None, diagnostics): the one public entry point."""
    doc, diags = parse_model(text)
    if doc is None:
        return None, diags
    spec, more = elaborate(doc, name)
    return spec, list(diags) + list(more)


def parse_or_raise(text: str, name: str = "model") -> ModelSpec:
    spec, diags = load_model(text, name)
    if spec is None:
        raise ModelFormatError(diags)
    return spec


# ---------------------------------------------------------------------------
# rendering

def _coeff_prefix(c: Fraction) -> str:
    mag = abs(c)
    if mag == 1:
        return ""
    if mag.denominator == 1:
        return f"{mag.numerator}*"
    return f"{mag.numerator}/{mag.denominator}*"


def _symbol_dsl(sym) -> str:
    name = sym.var.name
    if sym.var.kind == "ghost":
        raise ValueError("ghost symbols have no model-file syntax")
    s = name
    if sym.components:
        s += "[" + ",".join(str(c) for c in sym.components) + "]"
    for lam in reversed(sym.derivative):
        s = f"d[{lam}]({s})"
    return s


def poly_to_dsl(p: GradedPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, (fs, c) in enumerate(p.terms):
        pieces = []
        j = 0
        while j < len(fs):
            k = j
            while k < len(fs) and fs[k] == fs[j]:
                k += 1
            base = _symbol_dsl(fs[j])
            pieces.append(base if k - j == 1 else f"{base}^{k - j}")
            j = k
        body = "*".join(pieces)
        piece = _coeff_prefix(c) + body if body else str(abs(c))
        if i == 0:
            parts.append(piece if c > 0 else "-" + piece)
        else:
            parts.append((" + " if c > 0 else " - ") + piece)
    return "".join(parts)


def render_model(m: ModelSpec) -> str:
    """Deterministic model-file text; parsing it back gives an equal model."""
    lines = [f"dim {m.n}"]
    for decl in m.table.kind_decls("field"):
        head = "odd-field" if decl.parity == ODD else "field"
        if decl.arity == 0:
            lines.append(f"{head} {decl.name}")
        elif decl.antisym:
            lines.append(f"{head} {decl.name}[{decl.arity} antisym]")
        else:
            lines.append(f"{head} {decl.name}[{decl.arity}]")
    lines.append(f"L = {poly_to_dsl(as_poly(m.lagrangian))}")
    for fam in m.families:
        for comps, poly in fam.sorted_members():
            idx = ",".join(str(c) for c in comps)
            lines.append(f"stage {fam.stage}: {fam.name}[{idx}] = {poly_to_dsl(poly)}")
    return "\n".join(lines) + "\n"
