"""Model definition language: parsing, index expansion, and rendering.

A model file is line-oriented:

    dim 2
    field A
    field B[1]
    odd-field psi
    L = 1/2*A*eps[mu,nu]*d[mu](B[nu])
    stage 0: D[] = d[mu](sbar(B)[mu])

Input is ASCII, and ASCII whitespace between tokens is skipped.  Names
match ``[A-Za-z_][A-Za-z0-9_]*``, so ``A-B`` is a difference;
``odd-field`` is the one hyphenated keyword.  Expressions use
``+ - * / ^``, integer literals, ``d[i](...)`` for total derivatives,
``eps[...]`` and ``delta[i,j]``, field names with component indices,
``sbar(NAME)[...]`` for field antifields and ``cbar(K)[...]`` (or
``cbar(K:FAMILY)`` when stage K holds several families) for stage
antifields.  ``^`` takes a nonnegative integer literal; ``/`` divides by a
nonzero rational constant.  Parentheses and ``d[i](...)`` nest at most
``_MAX_NESTING`` deep.  An index is a letter or a concrete integer.  Within
any subexpression a letter may occur once (free) or twice (summed over
0..n-1); the free letters of all summands of a sum must agree.  Generator
families are declared with distinct free letters and are evaluated on
strictly increasing index tuples; they may also be given member by member
with concrete indices.

Loading is one pass per statement.  One regex pass gives a line's token
texts and 1-based columns; a token's first character is its kind, and an
integer index list without spaces (``[0,1]``, ``[]``) is one token, which a
message names by its ``[``.  A recursive descent parser folds each product's
literals into one coefficient, and an expander turns each Lagrangian or
generator member into raw (coefficient, factors) terms for one
``GradedPoly.from_raw``.  The expander range-checks every index, so a
message names its position; a jet symbol is valid once made, so the
builder's ``validate_poly`` looks only at each factor's declaration.  It
yields exactly one model or a list of positioned diagnostics with stable codes.
A check raises its diagnostic (``_reject``), and only the statement loops
record it: every line is checked for syntax, and each statement, or each
``;``-separated generator definition, gives at most one diagnostic.  The
semantic pass stops at the first failing statement, except that every
family of a stage is checked first.
"""

from __future__ import annotations

import re
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby, product

from .algebra import EVEN, GradedPoly, ODD, _add_term, _render_terms, perm_sign
from .errors import GaugelabError, GradingMismatch, IndexOutOfRange, UnknownVariable
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


_TOKEN_RE = re.compile(
    r"\[(?:\d+(?:,\d+)*)?\]|odd-field(?!\w)|[A-Za-z_]\w*|\d+|[=\[\](),;:+\-*/^]", re.ASCII)
_BAD_RE = re.compile(r"[^\s\w=\[\](),;:+\-*/^]", re.ASCII)

# Deepest nesting of (...) and d[i](...) in one expression; parsing takes
# three stack frames per level.
_MAX_NESTING = 200
_TOO_DEEP = "expression nested too deeply"


def _tokenize_line(line: str, lineno: int) -> tuple:
    """(texts, 1-based columns) of the line's tokens, rejecting its first bad character."""
    code = line.partition("#")[0]
    bad = _BAD_RE.search(code)
    if bad:
        _reject((lineno, bad.start() + 1), "E-SYNTAX", f"unexpected character {bad[0]!r}")
    found = list(_TOKEN_RE.finditer(code))
    return [mo[0] for mo in found], [mo.start() + 1 for mo in found]


def _shown(text: str) -> str:       # a message names an index list by its "["
    return "[" if text[:1] == "[" else text


# ---------------------------------------------------------------------------
# expression AST: an index is an int or a letter, and each node ends with
# its (line, column)

Num = namedtuple("Num", "value pos")                # value: int | Fraction
Ref = namedtuple("Ref", "name indices pos")         # name: the declared table name
DTot = namedtuple("DTot", "index sub pos")
Eps = namedtuple("Eps", "indices pos")
Delta = namedtuple("Delta", "a b pos")
Add = namedtuple("Add", "items pos")                # items: (sign, node) pairs
Mul = namedtuple("Mul", "coeff factors pos")        # coeff: the literal factors' product;
                                                    # factors: node | ("div", node)
Pow = namedtuple("Pow", "base k pos")               # k >= 1
# letters: whether any index of the definition is a letter
FamilyDef = namedtuple("FamilyDef", "stage name indices expr pos letters")


@dataclass
class ModelDocument:
    """Syntax-level model: declarations and unexpanded expression trees."""

    dim: int | None = None
    decls: list = field(default_factory=list)      # (name, parity, arity, antisym, pos)
    lagrangian: tuple | None = None                 # (expr, pos, letters)
    families: list = field(default_factory=list)    # FamilyDef


class _Bail(Exception):
    """Carries one check's diagnostic to the statement loop that records it."""


def _reject(pos: tuple, code: str, msg: str):
    raise _Bail(Diagnostic(*pos, code, msg))


@contextmanager
def _nesting_at(pos: tuple):
    """Rejects at pos an expression too deeply nested to elaborate."""
    try:
        yield
    except RecursionError:
        _reject(pos, "E-SYNTAX", _TOO_DEEP)


class _ExprParser:
    """Recursive descent over one line's tokens, closed by end-of-line tokens ``""``."""

    def __init__(self, toks: tuple, line: int, start: int = 0):
        texts, cols = toks
        end = cols[-1] + len(texts[-1])
        # two, since a rule that takes the first one still looks at the next
        self.texts = texts + ["", ""]
        self.cols = cols + [end, end]
        self.i = start
        self.line = line
        self.depth = 0
        self.letters = False

    def take(self) -> str:
        t = self.texts[self.i]
        self.i += 1
        return t

    def error(self, col: int, msg: str):
        _reject((self.line, col), "E-SYNTAX", msg)

    def fail(self, msg: str):
        self.error(self.cols[self.i], msg)

    def fail_after(self, msg: str):
        """Reject at the token after the one just taken; after a lexed index
        list, at its second character, as if the list were split."""
        t = self.texts[self.i - 1]
        lexed = len(t) > 1 and t[0] == "["
        self.error(self.cols[self.i - 1] + 1 if lexed else self.cols[self.i], msg)

    def expect(self, text: str) -> None:
        found = self.texts[self.i]
        if found != text:
            self.fail(f"expected {text!r}, found {_shown(found) or 'end of line'!r}")
        self.i += 1

    def at_end(self) -> bool:
        return not self.texts[self.i]

    # expr := term (("+"|"-") term)*
    def expr(self):
        texts = self.texts
        pos = (self.line, self.cols[self.i])
        items = [(1, self.term())]
        while texts[self.i] in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            items.append((sign, self.term()))
        return items[0][1] if len(items) == 1 else Add(tuple(items), pos)

    # term := ("+"|"-")* power (("*"|"/") ("+"|"-")* power)*
    def term(self):
        """One product; its signs and literal factors fold into one coefficient.

        A division by 0 or by a non-literal stays a factor: elaboration
        evaluates it in its place and reports it at the product.
        """
        texts = self.texts
        pos = (self.line, self.cols[self.i])
        coeff = 1
        factors = []
        div = False
        while True:
            while texts[self.i] in ("+", "-"):
                if self.take() == "-":
                    coeff = -coeff
            node = self.atom()
            if texts[self.i] == "^":
                node = self.power(node)
            if node.__class__ is not Num:
                factors.append(("div", node) if div else node)
            elif not div:
                coeff = coeff * node.value
            elif node.value:
                coeff = Fraction(coeff, node.value)
            else:
                factors.append(("div", node))
            op = texts[self.i]
            if op != "*" and op != "/":
                break
            div = op == "/"
            self.i += 1
        if not factors:
            return Num(coeff, pos)
        if coeff == 1 and len(factors) == 1 and factors[0].__class__ is not tuple:
            return factors[0]
        return Mul(coeff, tuple(factors), pos)

    def power(self, base):
        self.i += 1
        pos = (self.line, self.cols[self.i])
        text = self.take()
        if not text[:1].isdigit():
            self.fail_after("exponent must be a nonnegative integer")
        k = int(text)
        if k == 0:
            return Num(1, pos)
        if base.__class__ is Num:
            return Num(base.value ** k, pos)
        return Pow(base, k, pos)

    def _index(self):
        text = self.take()
        if text[:1].isdigit():
            return int(text)
        if not text[:1].isidentifier():
            self.error(self.cols[self.i - 1], f"expected an index, found {_shown(text)!r}")
        self.letters = True
        return text

    def _index_list(self) -> tuple:
        text = self.texts[self.i]
        if len(text) > 1 and text[0] == "[":    # a lexed list, not a lone "["
            self.i += 1
            return tuple(map(int, text[1:-1].split(","))) if len(text) > 2 else ()
        self.expect("[")
        out = []
        if self.texts[self.i] != "]":
            out.append(self._index())
            while self.texts[self.i] == ",":
                self.i += 1
                out.append(self._index())
        self.expect("]")
        return tuple(out)

    def _open(self) -> None:
        """Take the "(" of a nested expression, within the nesting limit."""
        col = self.cols[self.i]
        self.expect("(")
        if self.depth == _MAX_NESTING:
            self.error(col, _TOO_DEEP)
        self.depth += 1

    def _close(self) -> None:
        self.expect(")")
        self.depth -= 1

    def atom(self):
        text, col = self.texts[self.i], self.cols[self.i]
        pos = (self.line, col)
        if text[:1].isidentifier():
            self.i += 1
            if text == "d":
                idxs = self._index_list()
                if len(idxs) != 1:
                    self.error(col, "d[] takes exactly one index")
                self._open()
                sub = self.expr()
                self._close()
                return DTot(idxs[0], sub, pos)
            if text == "eps":
                return Eps(self._index_list(), pos)
            if text == "delta":
                idxs = self._index_list()
                if len(idxs) != 2:
                    self.error(col, "delta[] takes exactly two indices")
                return Delta(idxs[0], idxs[1], pos)
            if text == "sbar":
                self.expect("(")
                inner = self.take()
                if not inner[:1].isidentifier():
                    self.fail_after("sbar(...) needs a field name")
                self.expect(")")
                text = f"sbar({inner})"
            elif text == "cbar":
                self.expect("(")
                tag = self.take()
                if not tag[:1].isdigit():
                    self.fail_after("cbar(...) needs a stage number")
                if self.texts[self.i] == ":":
                    self.i += 1
                    fam = self.take()
                    if not fam[:1].isidentifier():
                        self.fail_after("cbar(K:FAMILY) needs a family name")
                    tag = f"{tag}:{fam}"
                self.expect(")")
                text = f"cbar({tag})"
            idxs = self._index_list() if self.texts[self.i][:1] == "[" else ()
            return Ref(text, idxs, pos)
        if text[:1].isdigit():
            self.i += 1
            return Num(int(text), pos)
        if text == "(":
            self._open()
            e = self.expr()
            self._close()
            return e
        self.fail(f"unexpected token {_shown(text) or 'end of line'!r}")


def parse_model(text: str):
    """Syntax pass: (ModelDocument | None, diagnostics)."""
    diags: list[Diagnostic] = []
    doc = ModelDocument()
    saw_statement = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            toks = _tokenize_line(raw, lineno)
            texts, cols = toks
            if not texts:
                continue
            saw_statement = True
            head = texts[0]
            pos = (lineno, cols[0])
            if head == "dim":
                if len(texts) != 2 or not texts[1][:1].isdigit():
                    _reject(pos, "E-SYNTAX", "usage: dim N")
                if int(texts[1]) < 1:
                    _reject(pos, "E-SYNTAX", "dim N needs N >= 1")
                if doc.dim is not None:
                    _reject(pos, "E-DUP-DECL", "dimension already declared")
                doc.dim = int(texts[1])
            elif head in ("field", "odd-field"):
                _parse_field(doc, texts, cols, lineno)
            elif head == "L":
                p = _ExprParser(toks, lineno, 1)
                p.expect("=")
                expr = p.expr()
                if not p.at_end():
                    p.fail("trailing tokens after the Lagrangian")
                if doc.lagrangian is not None:
                    _reject(pos, "E-DUP-DECL", "Lagrangian already declared")
                doc.lagrangian = (expr, pos, p.letters)
            elif head == "stage":
                _parse_stage(doc, texts, cols, lineno, diags)
            else:
                _reject(pos, "E-SYNTAX", f"unknown statement {_shown(head)!r}")
        except _Bail as e:
            diags.append(e.args[0])
    if not saw_statement:
        diags.append(Diagnostic(1, 1, "E-EMPTY", "the model file has no statements"))
    return (None if diags else doc), diags


def _parse_field(doc: ModelDocument, texts: list, cols: list, line: int) -> None:
    col = cols[0]
    rest = texts[2:]
    if len(rest) == 1 and rest[0][:1] == "[":
        rest = ["[", rest[0][1:-1], "]"]
    if len(texts) < 2 or not texts[1][:1].isidentifier() or rest and (
            len(rest) not in (3, 4) or rest[0] != "[" or not rest[1].isdigit()
            or rest[-1] != "]" or (len(rest) == 4 and rest[2] != "antisym")):
        _reject((line, col), "E-SYNTAX", "usage: field NAME [ARITY [antisym]]")
    name = texts[1]
    if any(d[0] == name for d in doc.decls):
        _reject((line, cols[1]), "E-DUP-DECL", f"field {name!r} already declared")
    parity = ODD if texts[0] == "odd-field" else EVEN
    doc.decls.append((name, parity, int(rest[1]) if rest else 0, len(rest) == 4, (line, col)))


def _parse_stage(doc: ModelDocument, texts: list, cols: list, line: int, diags: list) -> None:
    """Parses each ``;``-separated definition, recording its diagnostic."""
    cuts = [i for i, t in enumerate(texts) if t == ";"]
    if (len(texts) < 3 or not texts[1][:1].isdigit() or texts[2] != ":"
            or len(cuts) == len(texts) - 3):        # no definition after the ':'
        _reject((line, cols[0]), "E-SYNTAX", "usage: stage K: NAME[idx,...] = expr ; ...")
    stage = int(texts[1])
    for start, stop in zip([2] + cuts, cuts + [len(texts)]):
        if stop == start + 1:
            continue
        p = _ExprParser((texts[start + 1:stop], cols[start + 1:stop]), line)
        try:
            col = cols[start + 1]
            name = p.take()
            if not name[:1].isidentifier():
                p.fail_after("a generator definition starts with a family name")
            idxs = p._index_list()
            p.expect("=")
            expr = p.expr()
            if not p.at_end():
                p.fail("trailing tokens after a generator definition")
            doc.families.append(FamilyDef(stage, name, idxs, expr, (line, col), p.letters))
        except _Bail as e:
            diags.append(e.args[0])


# ---------------------------------------------------------------------------
# index analysis and evaluation

def _fold(raw) -> list:
    """Merged nonzero terms, with canonical factors, of raw terms."""
    acc: dict = {}
    for c, fs in raw:
        _add_term(acc, fs, c)
    return [(c, fs) for fs, c in acc.items() if c]


def _fold_product(a: list, b: list) -> list:
    return _fold((ca * cb, fa + fb) for ca, fa in a for cb, fb in b)


class _Expander:
    """Evaluates expressions to raw (coefficient, factors) terms.

    Factors stay in written order and like terms stay apart: a sum or a
    summed letter concatenates term lists, and ``GradedPoly.from_raw``
    canonicalises each member once.  Only a product with a factor of several
    terms, a power of a sum and a derivative of a product fold their terms,
    which keeps ``(A+B)^12`` at 13 terms.
    """

    def __init__(self, table, n: int):
        self.table = table
        self.n = n
        self.bound: dict[int, tuple] = {}

    def frees(self, node) -> frozenset:
        """Free letters after binding; populates the per-node binding table."""
        cls = node.__class__
        if cls is Num:
            return frozenset()
        if cls is Ref or cls is Eps:
            return self._bind(node, [i for i in node.indices if i.__class__ is str])
        if cls is Delta:
            return self._bind(node, [i for i in (node.a, node.b) if i.__class__ is str])
        if cls is DTot:
            letters = list(self.frees(node.sub))
            if node.index.__class__ is str:
                letters.append(node.index)
            return self._bind(node, letters)
        if cls is Mul:
            letters = []
            for f in node.factors:
                letters.extend(self.frees(f[1] if f.__class__ is tuple else f))
            return self._bind(node, letters)
        if cls is Pow:
            return self._bind(node, list(self.frees(node.base)) * node.k)
        sets = [self.frees(sub) for _, sub in node.items]
        if any(s != sets[0] for s in sets[1:]):
            _reject(node.pos, "E-FREE-SUM", "summands carry different free indices")
        return sets[0]

    def _bind(self, node, letters) -> frozenset:
        counts: dict[str, int] = {}
        for l in letters:
            counts[l] = counts.get(l, 0) + 1
        over = sorted(l for l, c in counts.items() if c > 2)
        if over:
            _reject(node.pos, "E-IDX-ARITY",
                    f"index letter {over[0]!r} appears more than twice")
        here = tuple(sorted(l for l, c in counts.items() if c == 2))
        if here:
            self.bound[id(node)] = here
        return frozenset(l for l, c in counts.items() if c == 1)

    def eval(self, node, env) -> list:
        here = self.bound.get(id(node)) if self.bound else None
        if not here:
            return self._terms(node, env)
        return [t for assign in product(range(self.n), repeat=len(here))
                for t in self._terms(node, {**env, **dict(zip(here, assign))})]

    def _idx(self, idx, env, pos) -> int:
        if idx.__class__ is str:
            try:
                idx = env[idx]
            except KeyError:
                _reject(pos, "E-FREE-IDX", f"unbound index letter {idx!r}")
        if not 0 <= idx < self.n:
            _reject(pos, "E-IDX-RANGE", f"index {idx} out of range for dim {self.n}")
        return idx

    def _terms(self, node, env) -> list:
        cls = node.__class__
        if cls is Ref:
            vals = tuple([self._idx(i, env, node.pos) for i in node.indices])
            try:
                sign, sym = self.table.jet(node.name, vals)
            except UnknownVariable:
                _reject(node.pos, "E-UNKNOWN-VAR", f"unknown variable {node.name!r}")
            except IndexOutOfRange as e:
                _reject(node.pos, "E-IDX-RANGE", str(e))
            return [] if sym is None else [(sign, (sym,))]
        if cls is Mul:
            terms = [(node.coeff, ())] if node.coeff else []
            for f in node.factors:
                if f.__class__ is tuple:
                    q = _fold(self.eval(f[1], env))
                    if len(q) != 1 or q[0][1]:
                        _reject(node.pos, "E-SYNTAX",
                                "division only by nonzero rational constants")
                    q = Fraction(q[0][0])
                    terms = [(c / q, fs) for c, fs in terms]
                    continue
                ts = self.eval(f, env)
                if len(ts) == 1:
                    c1, g = ts[0]
                    terms = [(c if c1 == 1 else -c if c1 == -1 else c * c1, fs + g)
                             for c, fs in terms]
                else:
                    terms = _fold_product(terms, ts)
            return terms
        if cls is DTot:
            lam = self._idx(node.index, env, node.pos)
            sub = self.eval(node.sub, env)
            raw = [(c, fs[:i] + (f.raised(lam),) + fs[i + 1:])
                   for c, fs in sub for i, f in enumerate(fs)]
            # Leibniz split a product: fold, so chained d[] stay small
            return _fold(raw) if len(raw) > len(sub) else raw
        if cls is Add:
            out = []
            for sign, sub in node.items:
                ts = self.eval(sub, env)
                out.extend(ts if sign > 0 else [(-c, fs) for c, fs in ts])
            return out
        if cls is Num:
            return [(node.value, ())] if node.value else []
        if cls is Pow:
            base = self.eval(node.base, env)
            k = node.k
            if len(base) == 1:
                c, fs = base[0]
                return [(c ** k, fs * k)]
            out = [(1, ())]
            while True:
                if k & 1:
                    out = _fold_product(out, base)
                k >>= 1
                if not k:
                    return out
                base = _fold_product(base, base)
        if cls is Eps:
            if len(node.indices) != self.n:
                _reject(node.pos, "E-EPS-ARITY", f"eps takes {self.n} indices here")
            s = perm_sign([self._idx(i, env, node.pos) for i in node.indices])
            return [(s, ())] if s else []
        if cls is Delta:
            equal = self._idx(node.a, env, node.pos) == self._idx(node.b, env, node.pos)
            return [(1, ())] if equal else []
        raise TypeError(node)


def _member_assignments(ex: _Expander, fd: FamilyDef) -> list:
    """(components, letter values) of each member a family definition gives."""
    kinds = {i.__class__ for i in fd.indices}
    if len(kinds) > 1:
        _reject(fd.pos, "E-SYNTAX", "family indices must be all letters or all integers")
    if kinds == {int}:
        if list(fd.indices) != sorted(set(fd.indices)):
            _reject(fd.pos, "E-SYNTAX", "concrete family indices must be strictly increasing")
        if fd.indices and fd.indices[-1] >= ex.n:   # increasing: the last is the largest
            _reject(fd.pos, "E-IDX-RANGE", f"index {fd.indices[-1]} out of range for dim {ex.n}")
        free = ex.frees(fd.expr) if fd.letters else None
        if free:
            _reject(fd.pos, "E-FREE-IDX", f"member definition has free indices {sorted(free)}")
        return [(fd.indices, {})]
    letters = fd.indices
    if len(set(letters)) != len(letters):
        _reject(fd.pos, "E-IDX-ARITY", "family indices must be distinct letters")
    free = ex.frees(fd.expr) if fd.letters else frozenset()
    if free != frozenset(letters):
        _reject(fd.pos, "E-FREE-IDX", f"free indices {sorted(free)} do not match "
                                      f"the family indices {sorted(letters)}")
    return [(comps, dict(zip(letters, comps)))
            for comps in combinations(range(ex.n), len(letters))]


def elaborate(doc: ModelDocument, name: str = "model"):
    """Semantic pass: (ModelSpec | None, diagnostics).

    It stops at the first failing statement, except that every generator
    definition of a stage is checked before the stage is rejected.
    """
    diags: list[Diagnostic] = []
    try:
        if doc.dim is None:
            _reject((1, 1), "E-DIM-MISSING", "missing 'dim N' statement")
        builder = ModelBuilder(name, doc.dim)
        for fname, parity, arity, antisym, pos in doc.decls:
            try:
                builder.add_field(fname, parity=parity, arity=arity, antisym=antisym)
            except ValueError as e:
                _reject(pos, "E-DUP-DECL", str(e))
        ex = _Expander(builder.table, doc.dim)
        if doc.lagrangian is None:
            _reject((1, 1), "E-L-MISSING", "missing 'L = ...' statement")
        lexpr, lpos, letters = doc.lagrangian
        with _nesting_at(lpos):
            free = ex.frees(lexpr) if letters else None
            if free:
                _reject(lpos, "E-FREE-IDX", f"the Lagrangian has free indices {sorted(free)}")
            try:
                builder.set_lagrangian(GradedPoly.from_raw(ex.eval(lexpr, {})))
            except GradingMismatch as e:
                _reject(lpos, "E-SHAPE", str(e))
        stages = sorted({f.stage for f in doc.families})
        if stages != list(range(len(stages))):
            _reject((1, 1), "E-STAGE-ORDER",
                    f"stages must be 0,1,... without gaps, got {stages}")
        for stage in stages:
            fams = []
            origin = {}   # (family name, components) -> position of its first definition
            defs = [f for f in doc.families if f.stage == stage]
            for famname in sorted({f.name for f in defs}):
                group = [f for f in defs if f.name == famname]
                arity = len(group[0].indices)
                members: dict[tuple, list] = {}
                for fd in group:
                    try:
                        with _nesting_at(fd.pos):
                            if arity != len(fd.indices):
                                _reject(fd.pos, "E-IDX-ARITY", f"family {famname!r} "
                                                              "redefined with a different arity")
                            for comps, env in _member_assignments(ex, fd):
                                members.setdefault(comps, []).extend(ex.eval(fd.expr, env))
                                origin.setdefault((famname, comps), fd.pos)
                    except _Bail as e:
                        diags.append(e.args[0])
                for comps in combinations(range(doc.dim), arity):
                    members.setdefault(comps, [])
                fams.append((famname, arity, arity > 1,
                             {comps: GradedPoly.from_raw(raw) for comps, raw in members.items()}))
            if diags:
                break
            try:
                builder.add_stage(fams)
            except GaugelabError as e:
                _reject(origin[e.member], "E-SHAPE", str(e))
    except _Bail as e:
        diags.append(e.args[0])
    return (None, diags) if diags else (builder.build(), diags)


def load_model(text: str, name: str = "model"):
    """(ModelSpec | None, diagnostics): the one public entry point."""
    doc, diags = parse_model(text)
    if doc is None:
        return None, diags
    return elaborate(doc, name)


def parse_or_raise(text: str, name: str = "model") -> ModelSpec:
    spec, diags = load_model(text, name)
    if spec is None:
        raise ModelFormatError(diags)
    return spec


# ---------------------------------------------------------------------------
# rendering

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


def _monomial_dsl(fs) -> str:
    pieces = []
    for sym, run in groupby(fs):
        k = len(list(run))
        base = _symbol_dsl(sym)
        pieces.append(base if k == 1 else f"{base}^{k}")
    return "*".join(pieces)


def poly_to_dsl(p: GradedPoly) -> str:
    return _render_terms(p, _monomial_dsl)


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
    lines.append(f"L = {poly_to_dsl(m.lagrangian)}")
    for fam in m.families:
        for comps, poly in fam.sorted_members():
            idx = ",".join(str(c) for c in comps)
            lines.append(f"stage {fam.stage}: {fam.name}[{idx}] = {poly_to_dsl(poly)}")
    return "\n".join(lines) + "\n"
