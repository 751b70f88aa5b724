"""Noether identity towers, stage differentials, and gauge supersymmetries.

A model is a base dimension, dynamical fields with a Lagrangian density, and
generator families organized by stage.  Every field automatically gets an
antifield of antifield number 1 and opposite parity; every stage-k generator
family gets an antifield family of antifield number k+2 (parity opposite to
the generator density) and a ghost family of ghost number k+1 (parity
opposite to the antifield).  Users never declare antifields or ghosts by
hand, and no grading is stated twice: a declaration derives its antifield
and ghost numbers from its kind and stage, and a family reads its stage,
arity, antisymmetry and parity from its ghost.

Stage-0 generator densities are linear in the field antifields.  A stage-k
density (k >= 1) is a part linear in the stage-(k-1) antifields plus an
optional correction bilinear in a stage-(k-2) antifield and a field
antifield; any other shape raises UnsupportedCorrection.  ``add_stage``
splits every member into these two parts once, while it checks the shape,
and stores the split on the family as ``parts``; the stage identities and
the ascent operator read it from there.

One Koszul-Tate-type derivation sends every field antifield to its
Euler-Lagrange expression and chosen generator antifields to their images.
With every member up to stage N as the images it is the stage differential;
with the linear parts of the stage-(k-1) members it is the stage-k identity
derivation, and a stage-k identity is the image of the member under it.
``run_checks`` applies the stage differential once to each of its
components; the stage identities, Koszul-Tate nilpotency and closure of the
extended Lagrangian all read that one list of images.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .algebra import (
    ANTIFIELD,
    BaseSpace,
    EVEN,
    FIELD,
    GHOST,
    GradedPoly,
    GradedVariableDecl,
    Grading,
    INHOMOGENEOUS,
    JetSymbol,
    ODD,
    VariableTable,
    _add_term,
    _make,
    _reduced,
    _term_parity,
    factor_str,
    grading_of,
    poly_sum,
    render_poly,
)
from .errors import (
    EvenDerivation,
    GaugelabError,
    GradingMismatch,
    IndexOutOfRange,
    MissingStage,
    UnsupportedCorrection,
)
from .jets import (
    LEFT,
    RIGHT,
    VerticalDerivation,
    apply_prolonged,
    eta_splits,
    euler_lagrange,
    is_variational_supersymmetry,
    multi_indices,
    multi_total_derivative,
    window_jets,
)
from .linalg import LinearSpan


class NoetherGeneratorFamily:
    """One family of stage-k generator densities, indexed by component tuples.

    ``antifield`` and ``ghost`` are the family's declarations; ``parts`` maps
    each member's components to its (linear, correction) split, both in
    lowest terms, with the member itself as the linear part when it has no
    correction.  ``stage``, ``arity``, ``antisym`` and ``parity`` are the
    ghost's, so the family holds no copy of them.
    """

    __slots__ = ("name", "members", "antifield", "ghost", "parts")

    def __init__(self, name, members, antifield, ghost, parts):
        self.name = name
        self.members = dict(sorted(members.items()))
        self.antifield = antifield
        self.ghost = ghost
        self.parts = parts

    stage = property(lambda self: self.ghost.stage)
    arity = property(lambda self: self.ghost.arity)
    antisym = property(lambda self: self.ghost.antisym)
    parity = property(lambda self: self.ghost.parity)

    def member(self, comps) -> GradedPoly:
        return self.members.get(tuple(comps), GradedPoly.zero())

    def sorted_members(self):
        return tuple(self.members.items())

    def __eq__(self, other):
        return (isinstance(other, NoetherGeneratorFamily)
                and (self.name, self.ghost) == (other.name, other.ghost)
                and self.members == other.members)

    def __repr__(self):
        return f"NoetherGeneratorFamily(stage={self.stage}, name={self.name!r})"


class ModelSpec:
    """Immutable model: fields, Lagrangian, and the declared generator tower."""

    def __init__(self, name, table, lagrangian, families, field_antifield):
        self.name = name
        self.table = table
        self.lagrangian = lagrangian
        self.families = tuple(sorted(families, key=lambda f: (f.stage, f.name)))
        self._field_antifield = field_antifield      # field decl -> antifield decl
        self._antifield_field = {a: f for f, a in field_antifield.items()}
        self._antifield_family = {f.antifield: f for f in self.families}
        self._el_cache = None
        self._identity_cache = {}   # stage -> its identity derivation

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def max_stage(self) -> int:
        return max((f.stage for f in self.families), default=-1)

    def families_at(self, stage: int) -> tuple:
        return tuple(f for f in self.families if f.stage == stage)

    def family(self, stage: int, name: str | None = None) -> NoetherGeneratorFamily:
        fams = self.families_at(stage)
        if name is not None:
            fams = tuple(f for f in fams if f.name == name)
        if not fams:
            raise MissingStage(f"no generator family at stage {stage}" +
                               (f" named {name!r}" if name else ""))
        if len(fams) > 1:
            raise ValueError(f"stage {stage} has several families; pass a name")
        return fams[0]

    def field_antifield(self, decl: GradedVariableDecl) -> GradedVariableDecl:
        return self._field_antifield[decl]

    def field_for_antifield(self, decl: GradedVariableDecl) -> GradedVariableDecl:
        return self._antifield_field[decl]

    def family_for_antifield(self, decl: GradedVariableDecl) -> NoetherGeneratorFamily:
        return self._antifield_family[decl]

    def euler_lagrange_map(self) -> dict[JetSymbol, GradedPoly]:
        if self._el_cache is None:
            self._el_cache = euler_lagrange(self.table, self.lagrangian)
        return self._el_cache

    def resolve_stage(self, N: int | None) -> int:
        """The tower cut for a requested stage: None means the top stage,
        -1 the bare differential.  Raises MissingStage outside -1..max_stage
        or when a stage up to N has no generator family."""
        if N is None:
            N = self.max_stage
        if not -1 <= N <= self.max_stage:
            raise MissingStage(f"stage {N} requested but the model has stages "
                               f"-1..{self.max_stage}")
        present = {f.stage for f in self.families}
        for k in range(N + 1):
            if k not in present:
                raise MissingStage(f"stage {k} has no generator family")
        return N

    def __eq__(self, other):
        return (isinstance(other, ModelSpec)
                and self.table.base == other.table.base
                and self.table.decls == other.table.decls
                and self.lagrangian == other.lagrangian
                and self.families == other.families)

    def __repr__(self):
        return f"ModelSpec({self.name!r}, n={self.n}, stages<={self.max_stage})"


class ModelBuilder:
    """Stage-ordered construction of a ModelSpec.

    Fields first (their antifields appear immediately), then the Lagrangian,
    then generator stages in increasing order; each ``add_stage`` call
    declares that stage's antifield and ghost families, so the next stage can
    be written in terms of them.
    """

    def __init__(self, name: str, n: int):
        self.name = name
        self.table = VariableTable(BaseSpace(n))
        self._lagrangian = GradedPoly.zero()
        self._families: list[NoetherGeneratorFamily] = []
        self._field_antifield = {}
        self._next_stage = 0

    def add_field(self, name: str, parity: int = EVEN, arity: int = 0,
                  antisym: bool = False) -> GradedVariableDecl:
        decl = self.table.declare(GradedVariableDecl(
            name=name, kind=FIELD, parity=parity, arity=arity, antisym=antisym, n=self.table.n))
        anti = self.table.declare(GradedVariableDecl(
            name=f"sbar({name})", kind=ANTIFIELD, parity=(parity + 1) % 2,
            arity=arity, antisym=antisym, n=self.table.n))
        self._field_antifield[decl] = anti
        return decl

    def set_lagrangian(self, L: GradedPoly) -> None:
        """Raises GradingMismatch when a term of L is odd; an even Lagrangian
        may hold antifields."""
        self.table.validate_poly(L)
        if any(_term_parity(fs) for fs, _ in L._terms):
            raise GradingMismatch("the Lagrangian has an odd term")
        self._lagrangian = L

    def add_stage(self, families) -> None:
        """Declare all generator families of the next stage at once.

        ``families`` is a list of (name, arity, antisym, members) where
        members maps component tuples to generator densities written against
        the current table.  Every family is checked before any antifield or
        ghost is declared, so a rejected call leaves the table unchanged.  A
        rejected member's error carries ``member``: (family name, components).
        """
        stage = self._next_stage
        n = self.table.n
        families = list(families)
        built = []
        for fname, arity, antisym, members in families:
            antisym = antisym if arity >= 2 else False
            cleaned, parts = {}, {}
            parity = None
            for comps, poly in members.items():
                comps = tuple(comps)
                try:
                    if (len(comps) != arity or not all(0 <= c < n for c in comps)
                            or antisym and any(a >= b for a, b in zip(comps, comps[1:]))):
                        raise IndexOutOfRange(
                            f"generator {fname}{list(comps)} needs {arity} "
                            f"{'strictly increasing ' if antisym else ''}"
                            f"component indices in 0..{n - 1}")
                    self.table.validate_poly(poly)
                    parts[comps] = _split_member(stage, fname, poly)
                    g = grading_of(poly)
                    if g == INHOMOGENEOUS:
                        raise GradingMismatch(f"generator {fname}{comps} has mixed parity")
                    if poly and parity not in (None, g.parity):
                        raise GradingMismatch(f"family {fname} has members of mixed parity")
                except GaugelabError as e:
                    e.member = (fname, comps)
                    raise
                cleaned[comps] = poly
                if poly:
                    parity = g.parity
            if parity is None:
                parity = ODD if stage % 2 == 0 else EVEN
            tag = f"{stage}:{fname}" if len(families) > 1 else f"{stage}"
            anti = GradedVariableDecl(
                name=f"cbar({tag})", kind=ANTIFIELD, parity=(parity + 1) % 2,
                stage=stage, arity=arity, antisym=antisym, n=n)
            ghost = GradedVariableDecl(
                name=f"c({tag})", kind=GHOST, parity=parity,
                stage=stage, arity=arity, antisym=antisym, n=n)
            built.append(NoetherGeneratorFamily(fname, cleaned, anti, ghost, parts))
        if not built:
            raise ValueError("a stage needs at least one generator family")
        names = [d.name for fam in built for d in (fam.antifield, fam.ghost)]
        for name in names:
            if names.count(name) > 1 or self.table.has(name):
                raise ValueError(f"duplicate variable {name!r}")
        built.sort(key=lambda f: f.name)
        for fam in built:
            self.table.declare(fam.antifield)
            self.table.declare(fam.ghost)
        self._families.extend(built)
        self._next_stage += 1

    def build(self) -> ModelSpec:
        return ModelSpec(self.name, self.table, self._lagrangian, self._families,
                         self._field_antifield)


def _split_member(stage, fname, poly) -> tuple:
    """A stage-k member's (linear, correction) parts: the terms linear in
    stage-(k-1) antifields, and the optional stage-(k-2) antifield times
    field antifield terms.  Any other term shape is rejected.  Every other
    factor of a linear term is a field, and fields (stage -1, kind rank 0)
    sort before every antifield, so a linear term's antifield is its last
    factor."""
    linear, correction = [], []
    for term in poly._terms:
        fs = term[0]
        if any(f.var.kind == GHOST for f in fs):
            raise UnsupportedCorrection(
                f"generator {fname} (stage {stage}) contains a ghost")
        ant = sum(f.var.antifield_number for f in fs)
        if ant != stage + 1:
            raise GradingMismatch(
                f"generator {fname} (stage {stage}) has a term of antifield "
                f"number {ant}, expected {stage + 1}")
        stages = sorted(f.var.stage for f in fs if f.var.kind == ANTIFIELD)
        if stages == [stage - 1]:
            linear.append(term)
        elif stage >= 1 and stages == sorted([stage - 2, -1]):
            correction.append(term)
        else:
            raise UnsupportedCorrection(
                f"generator {fname} (stage {stage}) has an unsupported term shape")
    if not correction:
        return poly, GradedPoly.zero()
    # a subset of the terms can have a larger common factor than all of them
    return _reduced(tuple(linear), poly._den), _reduced(tuple(correction), poly._den)


def _koszul_tate(m: ModelSpec, images) -> VerticalDerivation:
    """The odd right derivation sending every field antifield to its
    Euler-Lagrange expression and every antifield in ``images`` to its image."""
    comps = {JetSymbol(m.field_antifield(sym.var), sym.components): e
             for sym, e in m.euler_lagrange_map().items()}
    comps.update(images)
    return VerticalDerivation(comps, parity=ODD, side=RIGHT,
                              antifield_delta=-1, ghost_delta=1)


def build_stage_differential(m: ModelSpec, N: int | None = None) -> VerticalDerivation:
    """The odd right derivation sending each antifield to what it resolves.

    N = -1 gives the bare differential (field antifields only); stage-k
    antifields up to N are sent to their generator densities.
    """
    N = m.resolve_stage(N)
    return _koszul_tate(m, {JetSymbol(fam.antifield, ct): member for fam in m.families
                            if fam.stage <= N for ct, member in fam.sorted_members()})


@dataclass(frozen=True)
class NilpotencyResult:
    witness: tuple | None = None   # (JetSymbol, GradedPoly) for the first failure

    @property
    def ok(self) -> bool:
        return self.witness is None


def check_nilpotency(v: VerticalDerivation) -> NilpotencyResult:
    """``check_ascent_nilpotency`` for an odd derivation.

    Nilpotency of an odd derivation is exactly the vanishing of the images of
    its own components; requesting the check for an even derivation is an
    error.
    """
    if v.parity != ODD:
        raise EvenDerivation("nilpotency requires an odd derivation")
    return check_ascent_nilpotency(v)


def check_ascent_nilpotency(v: VerticalDerivation) -> NilpotencyResult:
    """Apply the prolonged derivation to each of its own components, in
    component order, and report the first nonzero image; non-nilpotence is a
    report, not an error."""
    for sym, comp in v.components.items():
        r = apply_prolonged(v, comp)
        if not r.is_zero():
            return NilpotencyResult((sym, r))
    return NilpotencyResult()


def identity_defect(m: ModelSpec, fam: NoetherGeneratorFamily, comps) -> GradedPoly:
    """The left-hand side of the stage identity for one family member.

    The member's image under the stage-k identity derivation, which sends
    every field antifield to its Euler-Lagrange expression and every
    stage-(k-1) antifield to the linear part (``parts``) of the member it
    names.  A linear term holds one stage-(k-1) antifield and otherwise only
    fields; in a correction term the derivation acts on the field antifield
    alone, as the bare differential does.  Built once per stage and model.
    """
    delta = m._identity_cache.get(fam.stage)
    if delta is None:
        m.resolve_stage(fam.stage - 1)
        delta = m._identity_cache[fam.stage] = _koszul_tate(m, {
            JetSymbol(prev.antifield, ct): linear
            for prev in m.families_at(fam.stage - 1) for ct, (linear, _) in prev.parts.items()})
    return apply_prolonged(delta, fam.member(comps))


def identity_witness(m: ModelSpec, fam: NoetherGeneratorFamily) -> tuple | None:
    """(components, defect) of the first member whose stage identity does not
    vanish exactly, or None when every member's does."""
    for ct, _ in fam.sorted_members():
        defect = identity_defect(m, fam, ct)
        if not defect.is_zero():
            return ct, defect
    return None


def extended_lagrangian(m: ModelSpec, N: int | None = None) -> GradedPoly:
    """The original Lagrangian plus ghost * generator for every member of
    every stage <= N, as one ``poly_sum``.  The stage differential
    annihilates the result exactly whenever the declared identities verify.
    """
    N = m.resolve_stage(N)
    return poly_sum([m.lagrangian] + [
        GradedPoly.from_symbol(JetSymbol(fam.ghost, ct)) * member
        for fam in m.families if fam.stage <= N for ct, member in fam.members.items()])


def ascent_operator(m: ModelSpec, N: int | None = None) -> VerticalDerivation:
    """The odd left derivation of ghost number 1 assembling the gauge ladder.

    Field components come from the stage-0 generators, ghost components from
    the next stage's generators, in both cases through the
    integration-by-parts involution of the coefficient families; antifield
    components are zero.  A linear term c*(prefix, a_(M)) ends in its one
    antifield (see ``_split_member``), so taking the right partial on a
    costs no sign; per split (sigma, lam, w) of M the term adds w * c *
    ghost_(lam) * d_sigma(prefix) to the component on a's target.  The
    numerators go into one accumulator per antifield a, whose target is
    resolved once at the end.  The splits of each multiset M are listed once
    per call; when the prefix is empty only the split with sigma empty
    contributes, as d_sigma of a constant vanishes, and the one-factor term
    ghost_(M) is merged as it is.  Each member's underived ghost symbol is
    made once; a ghost jet is that symbol for an empty lam, one raise of it
    for |lam| = 1, and a symbol-table lookup only for |lam| >= 2.
    """
    N = m.resolve_stage(N)
    fams = [fam for fam in m.families if fam.stage <= N]
    den = lcm(*[linear._den for fam in fams for linear, _ in fam.parts.values()])
    accs: dict[JetSymbol, dict] = {}   # a's zero-order symbol -> int numerators over den
    splits: dict[tuple, tuple] = {}    # M -> eta_splits(M), the sigma-empty split first
    for fam in fams:
        ghost = fam.ghost
        for fcomps, (linear, _) in fam.parts.items():
            k = den // linear._den
            g0 = JetSymbol(ghost, fcomps)
            for fs, c in linear._terms:
                a = fs[-1]      # every other factor is a field (see _split_member)
                c *= k
                acc = accs.get(za := a.zero_order())
                if acc is None:
                    acc = accs[za] = {}
                ways = splits.get(a.derivative)
                if ways is None:
                    ways = splits[a.derivative] = tuple(eta_splits(a.derivative))
                rest = fs[:-1]
                q = _make(((rest, 1),), 1) if rest else None
                for sigma, lam, w in ways if rest else ways[:1]:
                    g = (g0 if not lam else g0.raised(lam[0]) if len(lam) == 1
                         else JetSymbol(ghost, fcomps, lam),)
                    if q is None:
                        prev = acc.get(g)
                        acc[g] = w * c if prev is None else prev + w * c
                        continue
                    for gf, gc in multi_total_derivative(q, sigma)._terms:
                        _add_term(acc, g + gf, w * c * gc)
    comps = {}
    for a, acc in accs.items():
        target = (m.field_for_antifield(a.var) if a.var.stage < 0
                  else m.family_for_antifield(a.var).ghost)
        comps[JetSymbol(target, a.components)] = GradedPoly._from_dict(acc, den)
    return VerticalDerivation(comps, parity=ODD, side=LEFT, antifield_delta=0, ghost_delta=1)


def verify_variational_supersymmetry(m: ModelSpec, v: VerticalDerivation) -> bool:
    """Is the contraction of v with the Euler-Lagrange form a total divergence."""
    return is_variational_supersymmetry(m.euler_lagrange_map(), v)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None   # the rendered first failure; None when ok


def _result(name: str, found: tuple | None, label=factor_str) -> CheckResult:
    """A passing result when ``found`` is None; else a failing one whose
    witness is ``label(key): poly`` for the pair (key, poly) in ``found``."""
    if found is None:
        return CheckResult(name, True)
    key, poly = found
    return CheckResult(name, False, f"{label(key)}: {render_poly(poly)}")


def _correction_derivation(m: ModelSpec, k: int) -> VerticalDerivation | None:
    """epsilon_k, the stage differential minus the stage-k identity derivation
    on stage-k members, or None when zero: it sends each stage-(k-1)
    antifield to its member's correction part and, when stage k has
    correction terms, each stage-(k-2) antifield to its member."""
    comps = {JetSymbol(prev.antifield, ct): corr for prev in m.families_at(k - 1)
             for ct, (_, corr) in prev.parts.items() if corr}
    if k >= 2 and any(corr for fam in m.families_at(k) for _, corr in fam.parts.values()):
        comps.update((JetSymbol(prev.antifield, ct), member)
                     for prev in m.families_at(k - 2) for ct, member in prev.members.items())
    return (VerticalDerivation(comps, parity=ODD, side=RIGHT, antifield_delta=-1, ghost_delta=1)
            if comps else None)


def run_checks(m: ModelSpec, N: int | None = None) -> list[CheckResult]:
    """The fixed check sequence of the tower cut at stage N, in report order.

    Every stage identity up to N, Koszul-Tate nilpotency, closure of the
    extended Lagrangian under the stage differential, gauge supersymmetry of
    the ascent operator, and ascent nilpotency.  Every check runs even after
    one fails; a failing check carries its first failure as the witness,
    except gauge supersymmetry, which has none.

    The stage differential delta is applied once to each of its components.
    A stage-k identity is the member's image minus epsilon_k(member), which
    is ``identity_defect``, and its witness is ``identity_witness``'s.
    Nilpotency reports the first nonzero image, as ``check_nilpotency``
    does.  Closure is delta(L) + sum of ghost * delta(member) over the same
    images, which is delta of ``extended_lagrangian(m, N)`` term by term:
    delta is a right derivation with no ghost component.
    """
    N = m.resolve_stage(N)
    delta = build_stage_differential(m, N)
    images = {sym: apply_prolonged(delta, comp) for sym, comp in delta.components.items()}

    results = []
    for fam in m.families:
        if fam.stage > N:
            continue
        k = fam.stage
        eps = _correction_derivation(m, k)
        found = None
        for ct, member in fam.sorted_members():
            if member:
                r = images[JetSymbol(fam.antifield, ct)]
                if eps is not None:
                    r = r - apply_prolonged(eps, member)
                if r:
                    found = ct, r
                    break
        kind = "noether-identity" if k == 0 else f"stage-{k}-identity"
        results.append(_result(f"{kind}[{fam.name}]", found,
                               lambda ct: f"{fam.name}{list(ct)}"))

    results.append(_result("kt-nilpotency", next(
        ((sym, r) for sym, r in images.items() if r), None)))

    closure = poly_sum([apply_prolonged(delta, m.lagrangian)] + [
        GradedPoly.from_symbol(JetSymbol(m.family_for_antifield(sym.var).ghost,
                                         sym.components)) * r
        for sym, r in images.items() if r and sym.var.stage >= 0])
    results.append(CheckResult("extended-lagrangian-closure", closure.is_zero(),
                               None if closure.is_zero() else render_poly(closure)))

    u = ascent_operator(m, N)
    results.append(CheckResult("gauge-supersymmetry", verify_variational_supersymmetry(m, u)))
    results.append(_result("ascent-nilpotency", check_ascent_nilpotency(u).witness))
    return results


@dataclass(frozen=True)
class OnShellResult:
    residual: GradedPoly

    @property
    def in_ideal(self) -> bool:
        return self.residual.is_zero()


def on_shell_reduce(m: ModelSpec, p: GradedPoly, max_jet_order: int | None = None,
                    max_multiplier_degree: int = 2) -> OnShellResult:
    """Decide membership of p in the window-truncated shell ideal.

    The span is {q * d_L(E_x)} over all field components x, derivative
    multisets of order <= the jet window, and monomial multipliers q of
    degree <= max_multiplier_degree built from jets inside the window; only
    multipliers matching p's grading sector are generated.  A negative answer
    means "not found at this window": enlarging the window can only grow the
    span, never shrink it.
    """
    if p.is_zero():
        return OnShellResult(p)
    g = grading_of(p)
    if g == INHOMOGENEOUS:
        raise GradingMismatch("on-shell reduction expects a graded-homogeneous input")
    nonzero_el = {sym: e for sym, e in m.euler_lagrange_map().items() if e}
    if not nonzero_el:
        return OnShellResult(p)
    if max_jet_order is None:
        max_jet_order = p.max_jet_order() + max(e.max_jet_order()
                                                for e in nonzero_el.values())
    mis = multi_indices(m.n, max_jet_order)
    pool = window_jets(m.table, m.table.decls, max_jet_order)

    multipliers = [GradedPoly.constant(1)]
    for deg in range(1, max_multiplier_degree + 1):
        for combo in combinations_with_replacement(pool, deg):
            mono = GradedPoly.from_raw([(1, combo)])
            if not mono.is_zero():
                multipliers.append(mono)
    by_grading: dict = {}       # each group keeps the multipliers' order
    for q in multipliers:
        by_grading.setdefault(grading_of(q), []).append(q)
    span = LinearSpan()
    for sym in sorted(nonzero_el, key=lambda s: s.key):
        for mi in mis:
            gen = multi_total_derivative(nonzero_el[sym], mi)
            gg = grading_of(gen)
            qs = multipliers if gg == INHOMOGENEOUS else by_grading.get(Grading(
                g.parity ^ gg.parity, g.antifield_number - gg.antifield_number,
                g.ghost_number - gg.ghost_number), ())
            for q in qs:
                vec = q * gen
                if vec:     # over its denominator: a scale changes no span
                    span._add(dict(vec._terms))
    out, scale = span._reduce(dict(p._terms))
    if scale < 0:
        out, scale = {fs: -c for fs, c in out.items()}, -scale
    return OnShellResult(GradedPoly._from_dict(out, scale * p._den))
