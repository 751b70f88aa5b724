"""Noether identity towers, stage differentials, and gauge supersymmetries.

A model is a base dimension, dynamical fields with a Lagrangian density, and
generator families organized by stage.  Every field automatically gets an
antifield of antifield number 1 and opposite parity; every stage-k generator
family gets an antifield family of antifield number k+2 (parity opposite to
the generator density) and a ghost family of ghost number k+1 (parity
opposite to the antifield).  Users never declare antifields or ghosts by
hand: the grading bookkeeping is fixed, and declaring it manually only
invites inconsistency.

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
    INHOMOGENEOUS,
    JetSymbol,
    ODD,
    VariableTable,
    _add_term,
    _monomial,
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
    correction.
    """

    __slots__ = ("stage", "name", "arity", "antisym", "members", "parity",
                 "antifield", "ghost", "parts")

    def __init__(self, stage, name, arity, antisym, members, parity, antifield, ghost,
                 parts):
        self.stage = stage
        self.name = name
        self.arity = arity
        self.antisym = antisym
        self.members = dict(sorted(members.items()))
        self.parity = parity
        self.antifield = antifield
        self.ghost = ghost
        self.parts = parts

    def member(self, comps) -> GradedPoly:
        return self.members.get(tuple(comps), GradedPoly.zero())

    def sorted_members(self):
        return tuple(self.members.items())

    def __eq__(self, other):
        return (isinstance(other, NoetherGeneratorFamily)
                and (self.stage, self.name, self.arity, self.antisym) ==
                    (other.stage, other.name, other.arity, other.antisym)
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
            name=name, kind=FIELD, parity=parity, arity=arity, antisym=antisym))
        anti = self.table.declare(GradedVariableDecl(
            name=f"sbar({name})", kind=ANTIFIELD, parity=(parity + 1) % 2,
            antifield_number=1, ghost_number=-1, stage=-1,
            arity=arity, antisym=antisym))
        self._field_antifield[decl] = anti
        return decl

    def set_lagrangian(self, L: GradedPoly) -> None:
        self.table.validate_poly(L)
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
                antifield_number=stage + 2, ghost_number=-(stage + 2),
                stage=stage, arity=arity, antisym=antisym)
            ghost = GradedVariableDecl(
                name=f"c({tag})", kind=GHOST, parity=parity,
                antifield_number=0, ghost_number=stage + 1,
                stage=stage, arity=arity, antisym=antisym)
            built.append(NoetherGeneratorFamily(stage, fname, arity, antisym, cleaned,
                                                parity, anti, ghost, parts))
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
    field antifield terms.  Any other term shape is rejected."""
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
    ok: bool
    witness: tuple | None = None   # (JetSymbol, GradedPoly) for the first failure


def check_nilpotency(v: VerticalDerivation) -> NilpotencyResult:
    """Apply the prolonged derivation to each of its own components.

    Nilpotency of an odd derivation is exactly the vanishing of all these
    images; requesting the check for an even derivation is an error.
    """
    if v.parity != ODD:
        raise EvenDerivation("nilpotency requires an odd derivation")
    return _self_application(v)


def check_ascent_nilpotency(v: VerticalDerivation) -> NilpotencyResult:
    """Same computation, but non-nilpotence is a report, not an error."""
    return _self_application(v)


def _self_application(v: VerticalDerivation) -> NilpotencyResult:
    for sym, comp in v.sorted_components():
        r = apply_prolonged(v, comp)
        if not r.is_zero():
            return NilpotencyResult(False, (sym, r))
    return NilpotencyResult(True, None)


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
    """The original Lagrangian plus ghost * generator for every stage <= N.

    The stage differential annihilates the result exactly whenever the
    declared identities verify.
    """
    N = m.resolve_stage(N)
    parts = [m.lagrangian]
    for fam in m.families:
        if fam.stage > N:
            continue
        for ct, member in fam.sorted_members():
            if not member.is_zero():
                parts.append(GradedPoly.from_symbol(JetSymbol(fam.ghost, ct)) * member)
    return poly_sum(parts)


def ascent_operator(m: ModelSpec, N: int | None = None) -> VerticalDerivation:
    """The odd left derivation of ghost number 1 assembling the gauge ladder.

    Field components come from the stage-0 generators, ghost components from
    the next stage's generators, in both cases through the
    integration-by-parts involution of the coefficient families; antifield
    components are zero.  One pass over each linear term c*(prefix, a_(M),
    suffix) adds, per split (sigma, lam, w) of M, (-1)^([a]*[suffix]) * w * c
    * ghost_(lam) * d_sigma(prefix*suffix) to the component on a's target.
    """
    N = m.resolve_stage(N)
    fams = [fam for fam in m.families if fam.stage <= N]
    den = lcm(*[linear._den for fam in fams for linear, _ in fam.parts.values()])
    accs: dict[JetSymbol, dict] = {}   # target -> int numerators over den
    for fam in fams:
        for fcomps, (linear, _) in fam.parts.items():
            for fs, c in linear._terms:
                i = next(i for i, f in enumerate(fs) if f.var.kind == ANTIFIELD)
                a, q = fs[i], _monomial(fs[:i] + fs[i + 1:], 1)
                c *= (den // linear._den) * (-1 if a.parity and _term_parity(fs[i + 1:]) else 1)
                target_decl = (m.field_for_antifield(a.var) if fam.stage == 0
                               else m.family_for_antifield(a.var).ghost)
                acc = accs.setdefault(JetSymbol(target_decl, a.components), {})
                for sigma, lam, w in eta_splits(a.derivative):
                    g = (JetSymbol(fam.ghost, fcomps, lam),)
                    for gf, gc in multi_total_derivative(q, sigma)._terms:
                        _add_term(acc, g + gf, w * c * gc)
    return VerticalDerivation({sym: GradedPoly._from_dict(acc, den) for sym, acc in accs.items()},
                              parity=ODD, side=LEFT, antifield_delta=0, ghost_delta=1)


def verify_variational_supersymmetry(m: ModelSpec, v: VerticalDerivation) -> bool:
    """Is the contraction of v with the Euler-Lagrange form a total divergence."""
    return is_variational_supersymmetry(m.euler_lagrange_map(), v)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: str | None = None   # the rendered first failure; None when ok


def _failed(name: str, label: str, poly: GradedPoly) -> CheckResult:
    return CheckResult(name, False, f"{label}: {render_poly(poly)}")


def _nilpotency_result(name: str, r: NilpotencyResult) -> CheckResult:
    return CheckResult(name, True) if r.ok else _failed(name, factor_str(r.witness[0]),
                                                        r.witness[1])


def run_checks(m: ModelSpec, N: int | None = None) -> list[CheckResult]:
    """The fixed check sequence of the tower cut at stage N, in report order.

    Every stage identity up to N, Koszul-Tate nilpotency, closure of the
    extended Lagrangian under the stage differential, gauge supersymmetry of
    the ascent operator, and ascent nilpotency.  Every check runs even after
    one fails; a failing check carries its first failure as the witness,
    except gauge supersymmetry, which has none.
    """
    N = m.resolve_stage(N)
    results = []
    for fam in m.families:
        if fam.stage > N:
            continue
        kind = "noether-identity" if fam.stage == 0 else f"stage-{fam.stage}-identity"
        name = f"{kind}[{fam.name}]"
        found = identity_witness(m, fam)
        results.append(CheckResult(name, True) if found is None
                       else _failed(name, f"{fam.name}{list(found[0])}", found[1]))

    delta = build_stage_differential(m, N)
    results.append(_nilpotency_result("kt-nilpotency", check_nilpotency(delta)))

    closure = apply_prolonged(delta, extended_lagrangian(m, N))
    results.append(CheckResult("extended-lagrangian-closure", closure.is_zero(),
                               None if closure.is_zero() else render_poly(closure)))

    u = ascent_operator(m, N)
    results.append(CheckResult("gauge-supersymmetry", verify_variational_supersymmetry(m, u)))
    results.append(_nilpotency_result("ascent-nilpotency", check_ascent_nilpotency(u)))
    return results


@dataclass(frozen=True)
class OnShellResult:
    residual: GradedPoly
    in_ideal: bool


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
        return OnShellResult(p, True)
    g = grading_of(p)
    if g == INHOMOGENEOUS:
        raise GradingMismatch("on-shell reduction expects a graded-homogeneous input")
    el = m.euler_lagrange_map()
    nonzero_el = {sym: e for sym, e in el.items() if not e.is_zero()}
    if not nonzero_el:
        return OnShellResult(p, False)
    if max_jet_order is None:
        max_jet_order = p.max_jet_order() + max(e.max_jet_order()
                                                for e in nonzero_el.values())
    mis = multi_indices(m.n, max_jet_order)
    pool = window_jets(m.table, m.table.decls, max_jet_order)

    span = LinearSpan()
    generators = []
    for sym in sorted(nonzero_el, key=lambda s: s.key):
        for mi in mis:
            d = multi_total_derivative(nonzero_el[sym], mi)
            if not d.is_zero():
                generators.append(d)
    multipliers = [GradedPoly.constant(1)]
    for deg in range(1, max_multiplier_degree + 1):
        for combo in combinations_with_replacement(pool, deg):
            mono = GradedPoly.from_raw([(1, combo)])
            if not mono.is_zero():
                multipliers.append(mono)
    for gen in generators:
        gg = grading_of(gen)
        graded = gg != INHOMOGENEOUS
        for q in multipliers:
            if graded:
                qg = grading_of(q)
                if ((qg.parity ^ gg.parity) != g.parity
                        or qg.antifield_number + gg.antifield_number != g.antifield_number
                        or qg.ghost_number + gg.ghost_number != g.ghost_number):
                    continue
            vec = q * gen
            if not vec.is_zero():
                span.add({fs: c for fs, c in vec.terms})
    residual_vec = span.reduce({fs: c for fs, c in p.terms})
    residual = GradedPoly(residual_vec.items())
    return OnShellResult(residual, residual.is_zero())
