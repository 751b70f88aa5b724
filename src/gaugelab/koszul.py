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
antifield; any other shape raises UnsupportedCorrection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .algebra import (
    ANTIFIELD,
    BaseSpace,
    Density,
    EVEN,
    FIELD,
    GHOST,
    GradedPoly,
    GradedVariableDecl,
    INHOMOGENEOUS,
    JetSymbol,
    ODD,
    VariableTable,
    as_poly,
    grading_of,
    poly_sum,
)
from .errors import (
    EvenDerivation,
    GradingMismatch,
    MissingStage,
    UnsupportedCorrection,
)
from .jets import (
    LEFT,
    RIGHT,
    CoefficientFamily,
    VerticalDerivation,
    apply_prolonged,
    eta,
    euler_lagrange,
    is_variational_supersymmetry,
    multi_total_derivative,
    partial_derivative,
)


class NoetherGeneratorFamily:
    """One family of stage-k generator densities, indexed by component tuples."""

    __slots__ = ("stage", "name", "arity", "antisym", "members", "parity")

    def __init__(self, stage, name, arity, antisym, members, parity):
        self.stage = stage
        self.name = name
        self.arity = arity
        self.antisym = antisym if arity >= 2 else False
        self.members = dict(sorted(members.items()))
        self.parity = parity

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

    def __init__(self, name, table, lagrangian, families,
                 field_antifield, antifield_field, family_antifield,
                 family_ghost):
        self.name = name
        self.table = table
        self.lagrangian = lagrangian
        self.families = tuple(sorted(families, key=lambda f: (f.stage, f.name)))
        self._field_antifield = field_antifield      # field decl -> antifield decl
        self._antifield_field = antifield_field      # antifield decl -> field decl
        self._family_antifield = family_antifield    # (stage, name) -> antifield decl
        self._family_ghost = family_ghost            # (stage, name) -> ghost decl
        self._antifield_family = {d: key for key, d in family_antifield.items()}
        self._el_cache = None

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

    def family_antifield(self, fam: NoetherGeneratorFamily) -> GradedVariableDecl:
        return self._family_antifield[(fam.stage, fam.name)]

    def family_ghost(self, fam: NoetherGeneratorFamily) -> GradedVariableDecl:
        return self._family_ghost[(fam.stage, fam.name)]

    def family_for_antifield(self, decl: GradedVariableDecl) -> NoetherGeneratorFamily:
        stage, name = self._antifield_family[decl]
        return self.family(stage, name)

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
                and as_poly(self.lagrangian) == as_poly(other.lagrangian)
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
        self._lagrangian = Density(GradedPoly.zero())
        self._families: list[NoetherGeneratorFamily] = []
        self._field_antifield = {}
        self._antifield_field = {}
        self._family_antifield = {}
        self._family_ghost = {}
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
        self._antifield_field[anti] = decl
        return decl

    def set_lagrangian(self, L) -> None:
        poly = as_poly(L)
        self.table.validate_poly(poly)
        self._lagrangian = Density(poly)

    def add_stage(self, families) -> None:
        """Declare all generator families of the next stage at once.

        ``families`` is a list of (name, arity, antisym, members) where
        members maps component tuples to generator densities written against
        the current table.
        """
        stage = self._next_stage
        built = []
        for fname, arity, antisym, members in families:
            cleaned = {}
            parity = None
            for comps, poly in members.items():
                poly = as_poly(poly)
                self.table.validate_poly(poly)
                self._check_shape(stage, fname, poly)
                if poly.is_zero():
                    cleaned[tuple(comps)] = poly
                    continue
                g = grading_of(poly)
                if g == INHOMOGENEOUS:
                    raise GradingMismatch(f"generator {fname}{comps} has mixed parity")
                if parity is None:
                    parity = g.parity
                elif parity != g.parity:
                    raise GradingMismatch(f"family {fname} has members of mixed parity")
                cleaned[tuple(comps)] = poly
            if parity is None:
                parity = ODD if stage % 2 == 0 else EVEN
            built.append(NoetherGeneratorFamily(stage, fname, arity, antisym,
                                                cleaned, parity))
        if not built:
            raise ValueError("a stage needs at least one generator family")
        built.sort(key=lambda f: f.name)
        multi = len(built) > 1
        for fam in built:
            tag = f"{stage}:{fam.name}" if multi else f"{stage}"
            anti_parity = (fam.parity + 1) % 2
            anti = self.table.declare(GradedVariableDecl(
                name=f"cbar({tag})", kind=ANTIFIELD, parity=anti_parity,
                antifield_number=stage + 2, ghost_number=-(stage + 2),
                stage=stage, arity=fam.arity, antisym=fam.antisym))
            ghost = self.table.declare(GradedVariableDecl(
                name=f"c({tag})", kind=GHOST, parity=(anti_parity + 1) % 2,
                antifield_number=0, ghost_number=stage + 1,
                stage=stage, arity=fam.arity, antisym=fam.antisym))
            self._family_antifield[(stage, fam.name)] = anti
            self._family_ghost[(stage, fam.name)] = ghost
            self._families.append(fam)
        self._next_stage += 1

    def _check_shape(self, stage, fname, poly) -> None:
        """Stage-k generators: linear in stage-(k-1) antifields, plus an
        optional stage-(k-2) antifield times field antifield correction."""
        for fs, _ in poly.terms:
            anti = [f for f in fs if f.var.kind == ANTIFIELD]
            stages = sorted(f.var.stage for f in anti)
            ant = sum(f.var.antifield_number for f in fs)
            if any(f.var.kind == GHOST for f in fs):
                raise UnsupportedCorrection(
                    f"generator {fname} (stage {stage}) contains a ghost")
            if ant != stage + 1:
                raise GradingMismatch(
                    f"generator {fname} (stage {stage}) has a term of antifield "
                    f"number {ant}, expected {stage + 1}")
            if stages == [stage - 1]:
                continue
            if stage >= 1 and stages == sorted([stage - 2, -1]):
                continue
            raise UnsupportedCorrection(
                f"generator {fname} (stage {stage}) has an unsupported term shape")

    def build(self) -> ModelSpec:
        return ModelSpec(self.name, self.table, self._lagrangian, self._families,
                         self._field_antifield, self._antifield_field,
                         self._family_antifield, self._family_ghost)


def build_stage_differential(m: ModelSpec, N: int | None = None) -> VerticalDerivation:
    """The odd right derivation sending each antifield to what it resolves.

    N = -1 gives the bare differential (field antifields only); stage-k
    antifields up to N are sent to their generator densities.
    """
    N = m.resolve_stage(N)
    comps: dict[JetSymbol, GradedPoly] = {}
    el = m.euler_lagrange_map()
    for decl in m.table.kind_decls(FIELD):
        anti = m.field_antifield(decl)
        for ct in m.table.component_tuples(decl):
            e = el[JetSymbol(decl, ct)]
            if not e.is_zero():
                comps[JetSymbol(anti, ct)] = e
    for fam in m.families:
        if fam.stage > N:
            continue
        anti = m.family_antifield(fam)
        for ct, member in fam.sorted_members():
            if not member.is_zero():
                comps[JetSymbol(anti, ct)] = member
    return VerticalDerivation(comps, parity=ODD, side=RIGHT,
                              antifield_delta=-1, ghost_delta=1)


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


def generator_g_part(fam: NoetherGeneratorFamily, comps) -> GradedPoly:
    """Monomials of the member linear in the previous level of antifields."""
    member = fam.member(comps)
    want_stage = fam.stage - 1
    keep = []
    for fs, c in member.terms:
        if any(f.var.kind == ANTIFIELD and f.var.stage == want_stage for f in fs):
            keep.append((fs, c))
    return GradedPoly(tuple(keep))


def generator_h_part(fam: NoetherGeneratorFamily, comps) -> GradedPoly:
    return fam.member(comps) - generator_g_part(fam, comps)


def _linear_antifield_coefficients(poly: GradedPoly, stage: int):
    """(antifield jet symbol, right-partial coefficient) pairs, sorted."""
    syms = sorted((s for s in poly.symbols()
                   if s.var.kind == ANTIFIELD and s.var.stage == stage),
                  key=lambda s: s.key)
    return [(s, partial_derivative(poly, s, RIGHT)) for s in syms]


def identity_defect(m: ModelSpec, fam: NoetherGeneratorFamily, comps) -> GradedPoly:
    """The left-hand side of the stage identity for one family member.

    Stage 0: the coefficients against field antifields contracted with the
    total derivatives of the Euler-Lagrange expressions.  Stage k >= 1: the
    coefficients against stage-(k-1) antifields contracted with the total
    derivatives of the previous generators' antifield-linear parts, plus the
    bare differential applied to the correction term.
    """
    parts = []
    if fam.stage == 0:
        el = m.euler_lagrange_map()
        for sym, coeff in _linear_antifield_coefficients(fam.member(comps), -1):
            field = m.field_for_antifield(sym.var)
            e = el[JetSymbol(field, sym.components)]
            parts.append(coeff * multi_total_derivative(e, sym.derivative))
        return poly_sum(parts)
    m.resolve_stage(fam.stage - 1)
    gpart = generator_g_part(fam, comps)
    for sym, coeff in _linear_antifield_coefficients(gpart, fam.stage - 1):
        prev_fam = m.family_for_antifield(sym.var)
        if prev_fam.stage == 0:
            inner = prev_fam.member(sym.components)
        else:
            inner = generator_g_part(prev_fam, sym.components)
        parts.append(coeff * multi_total_derivative(inner, sym.derivative))
    hpart = generator_h_part(fam, comps)
    if not hpart.is_zero():
        parts.append(apply_prolonged(build_stage_differential(m, -1), hpart))
    return poly_sum(parts)


def verify_noether_identity(m: ModelSpec, fam: NoetherGeneratorFamily) -> bool:
    """Exact polynomial-zero check of the stage-0 identity for every member."""
    if fam.stage != 0:
        raise ValueError("verify_noether_identity takes a stage-0 family")
    return all(identity_defect(m, fam, ct).is_zero() for ct, _ in fam.sorted_members())


def verify_stage_identity(m: ModelSpec, fam: NoetherGeneratorFamily) -> bool:
    """Exact polynomial-zero check of the stage-k identity (k >= 1)."""
    if fam.stage < 1:
        raise ValueError("verify_stage_identity takes a stage >= 1 family")
    return all(identity_defect(m, fam, ct).is_zero() for ct, _ in fam.sorted_members())


def extended_lagrangian(m: ModelSpec, N: int | None = None) -> Density:
    """The original Lagrangian plus ghost * generator for every stage <= N.

    The stage differential annihilates the result exactly whenever the
    declared identities verify.
    """
    N = m.resolve_stage(N)
    parts = [as_poly(m.lagrangian)]
    for fam in m.families:
        if fam.stage > N:
            continue
        ghost = m.family_ghost(fam)
        for ct, member in fam.sorted_members():
            if not member.is_zero():
                parts.append(GradedPoly.from_symbol(JetSymbol(ghost, ct)) * member)
    return Density(poly_sum(parts))


def ascent_operator(m: ModelSpec, N: int | None = None) -> VerticalDerivation:
    """The odd left derivation of ghost number 1 assembling the gauge ladder.

    Field components come from the stage-0 generators, ghost components from
    the next stage's generators, in both cases through the
    integration-by-parts involution of the coefficient families; antifield
    components are zero.
    """
    N = m.resolve_stage(N)
    parts: dict[JetSymbol, list] = {}
    for fam in m.families:
        if fam.stage > N:
            continue
        ghost = m.family_ghost(fam)
        for fcomps, member in fam.sorted_members():
            if member.is_zero():
                continue
            if fam.stage == 0:
                linear = member
            else:
                linear = generator_g_part(fam, fcomps)
            groups: dict[tuple, dict] = {}
            for sym, coeff in _linear_antifield_coefficients(linear, fam.stage - 1):
                key = (sym.var, sym.components)
                groups.setdefault(key, {})[sym.derivative] = coeff
            for (anti_decl, acomps), family_map in groups.items():
                e = eta(CoefficientFamily(family_map))
                if fam.stage == 0:
                    target_decl = m.field_for_antifield(anti_decl)
                else:
                    target_decl = m.family_ghost(m.family_for_antifield(anti_decl))
                parts.setdefault(JetSymbol(target_decl, acomps), []).extend(
                    GradedPoly.from_symbol(JetSymbol(ghost, fcomps, Lam)) * coeff
                    for Lam, coeff in e.items)
    return VerticalDerivation({sym: poly_sum(ps) for sym, ps in parts.items()},
                              parity=ODD, side=LEFT, antifield_delta=0, ghost_delta=1)


def verify_variational_supersymmetry(m: ModelSpec, v: VerticalDerivation,
                                     L=None) -> bool:
    """Is the contraction of v with the Euler-Lagrange form a total divergence."""
    if L is None:
        L = m.lagrangian
    return is_variational_supersymmetry(m.table, L, v)


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
    from .linalg import LinearSpan

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
    n = m.n
    mis = [()]
    for k in range(1, max_jet_order + 1):
        mis.extend(combinations_with_replacement(range(n), k))
    pool = []
    for decl in m.table.decls:
        for ct in m.table.component_tuples(decl):
            for mi in mis:
                pool.append(JetSymbol(decl, ct, mi))
    pool.sort(key=lambda s: s.key)

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
    residual = GradedPoly._from_dict(residual_vec)
    return OnShellResult(residual, residual.is_zero())
