"""Stage differentials, identity verification, the extended Lagrangian,
and the ascent operator."""

import gc
import pickle
import random
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import (
    EvenDerivation,
    GradedPoly,
    Grading,
    IndexOutOfRange,
    MissingStage,
    UnsupportedCorrection,
    VerticalDerivation,
    apply_prolonged,
    ascent_operator,
    bf_model,
    build_stage_differential,
    check_ascent_nilpotency,
    check_nilpotency,
    extended_lagrangian,
    factor_str,
    free_scalar_model,
    grading_of,
    identity_defect,
    identity_witness,
    multi_total_derivative,
    on_shell_reduce,
    parse_or_raise,
    poly_sum,
    render_poly,
    run_checks,
    total_derivative,
    trivial_model,
    verify_variational_supersymmetry,
    zoo_model,
)
from gaugelab import koszul
from gaugelab.algebra import GradedVariableDecl
from gaugelab.jets import multi_indices, window_jets
from gaugelab.koszul import CheckResult, ModelBuilder
from support import (
    ONSHELL_GLM,
    ROTOR_GLM,
    FractionSpan,
    ascent_model,
    assert_canonical_coefficients,
    drop_first_term,
    flip_first_term,
    jet_pool,
    oracle_mul,
    oracle_ascent_operator,
    oracle_extended_lagrangian,
    oracle_identity_defect,
    oracle_split,
    random_poly,
    rebuild_with_mutation,
    rescaled_tower,
    split_model,
)

RNG = random.Random(5)


def test_bare_differential_components():
    m = free_scalar_model(2)
    t = m.table
    d = build_stage_differential(m, -1)
    assert set(d.components) == {t.symbol("sbar(s)")}
    assert d.components[t.symbol("sbar(s)")] == m.euler_lagrange_map()[t.symbol("s")]
    assert d.side == "right" and d.parity == 1 and d.antifield_delta == -1


def test_trivial_model_stage_zero_differential():
    m = trivial_model([("x", 0)], n=1)
    t = m.table
    d = build_stage_differential(m, 0)
    # L = 0 so the field antifield maps to nothing; cbar maps to sbar
    assert t.symbol("sbar(x)") not in d.components
    assert d.components[t.symbol("cbar(0)")] == GradedPoly.from_symbol(t.symbol("sbar(x)"))


def test_bf3_stage_zero_components():
    m = bf_model(3)
    t = m.table
    d = build_stage_differential(m, 0)
    img = d.components[t.symbol("cbar(0)", (0,))]
    expect = (GradedPoly.from_symbol(t.symbol("sbar(B)", (0, 1), (1,)), -1) +
              GradedPoly.from_symbol(t.symbol("sbar(B)", (0, 2), (2,)), -1))
    assert img == expect


def test_missing_stage_raises():
    m = bf_model(2)
    with pytest.raises(MissingStage):
        build_stage_differential(m, 1)


def test_resolve_stage_bounds():
    m = bf_model(4)
    assert m.resolve_stage(None) == m.max_stage == 2
    assert [m.resolve_stage(k) for k in (-1, 0, 2)] == [-1, 0, 2]
    for bad in (-2, 3):
        with pytest.raises(MissingStage):
            m.resolve_stage(bad)
        for fn in (build_stage_differential, extended_lagrangian, ascent_operator):
            with pytest.raises(MissingStage):
                fn(m, bad)


def test_nilpotency_of_bare_differential():
    for m in (free_scalar_model(2), bf_model(3)):
        assert check_nilpotency(build_stage_differential(m, -1)).ok


def test_nilpotency_requires_odd():
    m = free_scalar_model(1)
    t = m.table
    v = VerticalDerivation({t.symbol("s"): GradedPoly.from_symbol(t.symbol("s"))},
                           parity=0, side="left")
    with pytest.raises(EvenDerivation):
        check_nilpotency(v)


def _odd_derivations(rng):
    """Stage differentials and ascent operators of a random tower, at every
    cut and with one member sign-flipped, then random odd derivations on an
    even and an odd scalar, some nilpotent and most not."""
    for m in _with_first_members_flipped(rng.choice([split_model, ascent_model])(rng)):
        for N in range(-1, m.max_stage + 1):
            yield build_stage_differential(m, N)
            yield ascent_operator(m, N)
    t = trivial_model([("s", 0), ("psi", 1)], n=1).table
    pool = jet_pool(t, ["s", "psi", "sbar(s)", "sbar(psi)"], 1)
    for side in ("left", "right"):
        comps = {t.symbol(nm): random_poly(rng, pool, max_terms=2, max_degree=2,
                                           parity=1 - t.symbol(nm).parity)
                 for nm in ("s", "psi") if rng.random() < 0.8}
        yield VerticalDerivation(comps, parity=1, side=side)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nilpotency_is_the_ascent_scan_guarded_for_parity(seed):
    rng = random.Random(seed)
    for v in _odd_derivations(rng):
        assert check_nilpotency(v) == check_ascent_nilpotency(v)
    t = trivial_model([("s", 0)], n=1).table
    s = t.symbol("s")
    even = VerticalDerivation({s: random_poly(rng, jet_pool(t, ["s"], 1), parity=0)},
                              parity=0, side=rng.choice(("left", "right")))
    with pytest.raises(EvenDerivation):
        check_nilpotency(even)


def test_full_tower_nilpotency():
    for n in (2, 3, 4):
        assert check_nilpotency(build_stage_differential(bf_model(n))).ok
    assert check_nilpotency(build_stage_differential(trivial_model([("x", 0)]))).ok


def test_corrupted_generator_gives_witness():
    m = bf_model(3)
    bad = rebuild_with_mutation(m, 0, "D", (0,), drop_first_term)
    r = check_nilpotency(build_stage_differential(bad))
    assert not r.ok
    sym, poly = r.witness
    assert not poly.is_zero()


def test_verify_noether_identity():
    for n in (2, 3, 4):
        m = bf_model(n)
        assert identity_witness(m, m.family(0)) is None
    m = trivial_model([("x", 0), ("y", 1)])
    for fam in m.families_at(0):
        assert identity_witness(m, fam) is None


def test_verify_noether_identity_sign_flip_fails():
    m = bf_model(2)
    bad = rebuild_with_mutation(m, 0, "D", (), flip_first_term)
    comps, defect = identity_witness(bad, bad.family(0))
    assert comps == () and defect == identity_defect(bad, bad.family(0), ())
    assert not defect.is_zero()


def test_verify_stage_identities():
    for n in (3, 4):
        m = bf_model(n)
        for k in range(1, m.max_stage + 1):
            assert identity_witness(m, m.family(k)) is None


def test_verify_stage_identity_mutation_fails():
    m = bf_model(3)
    bad = rebuild_with_mutation(m, 1, "D", (), flip_first_term)
    assert identity_witness(bad, bad.family(1)) is not None


def test_nilpotency_identity_equivalence_under_mutation():
    # ok iff every declared identity verifies, probed by mutations
    m = bf_model(3)
    cases = []
    for stage, comps in ((0, (0,)), (0, (1,)), (0, (2,)), (1, ())):
        for fn in (flip_first_term, drop_first_term):
            cases.append((stage, comps, fn))
    for stage, comps, fn in cases:
        bad = rebuild_with_mutation(m, stage, "D", comps, fn)
        nil = check_nilpotency(build_stage_differential(bad)).ok
        idents = all(identity_witness(bad, f) is None for f in bad.families)
        assert nil == idents == False  # noqa: E712


def test_extended_lagrangian_examples():
    m = free_scalar_model(2)
    assert extended_lagrangian(m, -1) == m.lagrangian

    m2 = bf_model(2)
    t = m2.table
    le = extended_lagrangian(m2)
    expect = m2.lagrangian + \
        GradedPoly.from_symbol(t.symbol("c(0)")) * m2.family(0).member(())
    assert le == expect


def _assert_extended_lagrangian_matches_oracle(m):
    assert extended_lagrangian(m, -1) == m.lagrangian
    for N in range(-1, m.max_stage + 1):
        le = extended_lagrangian(m, N)
        assert le == oracle_extended_lagrangian(m, N)
        assert_canonical_coefficients(le)


def test_extended_lagrangian_matches_oracle_on_a_rescaled_tower():
    _assert_extended_lagrangian_matches_oracle(_named_model("rescaled"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extended_lagrangian_matches_oracle_on_random_models(seed):
    rng = random.Random(seed)
    _assert_extended_lagrangian_matches_oracle(split_model(rng))
    _assert_extended_lagrangian_matches_oracle(ascent_model(rng))


def test_extended_lagrangian_closure():
    for n in (2, 3, 4):
        m = bf_model(n)
        d = build_stage_differential(m)
        assert apply_prolonged(d, extended_lagrangian(m)).is_zero()
    m = trivial_model([("x", 0), ("y", 1)])
    d = build_stage_differential(m)
    assert apply_prolonged(d, extended_lagrangian(m)).is_zero()


def test_closure_fails_for_mutated_model():
    m = bf_model(2)
    bad = rebuild_with_mutation(m, 0, "D", (), flip_first_term)
    d = build_stage_differential(bad)
    assert not apply_prolonged(d, extended_lagrangian(bad)).is_zero()


def _with_first_members_flipped(m):
    """m, then m with the first nonzero member of one family sign-flipped,
    once per family."""
    yield m
    for fam in m.families:
        comps, member = fam.sorted_members()[0]
        if member:
            yield rebuild_with_mutation(m, fam.stage, fam.name, comps, flip_first_term)


def _assert_shared_images_give_the_direct_checks(m):
    # run_checks derives kt-nilpotency and closure from one list of member
    # images; the direct oracle applies the differential to L_E itself
    for N in range(-1, m.max_stage + 1):
        got = {r.name: r for r in run_checks(m, N)}
        d = build_stage_differential(m, N)
        assert got["kt-nilpotency"] == koszul._result(
            "kt-nilpotency", check_nilpotency(d).witness)
        closure = apply_prolonged(d, extended_lagrangian(m, N))
        assert got["extended-lagrangian-closure"] == CheckResult(
            "extended-lagrangian-closure", closure.is_zero(),
            None if closure.is_zero() else render_poly(closure))


def _with_each_member_flipped(m):
    """m, then m with one nonzero member sign-flipped, once per member."""
    yield m
    for fam in m.families:
        for comps, member in fam.sorted_members():
            if member:
                yield rebuild_with_mutation(m, fam.stage, fam.name, comps, flip_first_term)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([split_model, ascent_model]))
def test_identities_from_the_stage_differential_images_match_the_direct_path(seed, make):
    # run_checks reads each identity off delta's member images minus the
    # correction derivation; identity_witness applies the identity derivation
    for m in _with_each_member_flipped(make(random.Random(seed))):
        for N in range(m.max_stage + 1):
            got = {r.name: r for r in run_checks(m, N)}
            for fam in m.families:
                if fam.stage > N:
                    continue
                kind = "noether-identity" if fam.stage == 0 else f"stage-{fam.stage}-identity"
                name = f"{kind}[{fam.name}]"
                assert got[name] == koszul._result(name, identity_witness(m, fam),
                                                   lambda ct: f"{fam.name}{list(ct)}")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([split_model, ascent_model]))
def test_shared_images_give_the_direct_checks(seed, make):
    for m in _with_first_members_flipped(make(random.Random(seed))):
        _assert_shared_images_give_the_direct_checks(m)


def test_shared_images_with_field_antifields_in_the_lagrangian():
    # such a Lagrangian gives field antifields nonzero images, which have no
    # ghost and enter closure only through delta(L)
    b = ModelBuilder("antifield-lagrangian", 1)
    b.add_field("x", parity=0)
    b.add_field("y", parity=0)
    t = b.table
    x, y, sx = t.symbol("x"), t.symbol("y"), t.symbol("sbar(x)")
    b.set_lagrangian(GradedPoly.from_raw([(1, (x, y, sx, t.symbol("sbar(y)", (), (0,))))]))
    b.add_stage([("D", 0, False, {(): GradedPoly.from_symbol(sx)})])
    m = b.build()
    bare = build_stage_differential(m, -1)
    assert apply_prolonged(bare, bare.components[sx])    # the image of sbar(x)
    _assert_shared_images_give_the_direct_checks(m)


def test_full_check_applies_the_stage_differential_once_per_component(monkeypatch):
    real_apply, real_build = koszul.apply_prolonged, koszul.build_stage_differential
    built, calls = [], []

    def building(m, N=None):
        built.append(real_build(m, N))
        return built[-1]

    def applying(v, p):
        calls.append((v, p))
        return real_apply(v, p)

    monkeypatch.setattr(koszul, "build_stage_differential", building)
    monkeypatch.setattr(koszul, "apply_prolonged", applying)
    m = bf_model(6)
    assert all(r.ok for r in run_checks(m))
    (d,) = built
    inputs = [p for v, p in calls if v is d]
    want = list(d.components.values()) + [m.lagrangian]
    assert sorted(map(id, inputs)) == sorted(map(id, want))
    assert extended_lagrangian(m) not in inputs
    # the identities read the same images: no identity derivation is built,
    # and the correction derivation of a bf tower is zero, so the only other
    # derivation applied is the (left) ascent operator
    assert m._identity_cache == {}
    assert all(v is d or v.side == "left" for v, _ in calls)


def expected_bf_ascent(m):
    """Independent construction of the descent pattern: on each target
    component tuple j, minus the alternating sum of d over removed indices."""
    t = m.table
    expect = {}
    fams = {fam.stage: fam for fam in m.families}
    for stage in range(m.max_stage + 1):
        fam = fams[stage]
        ghost = fam.ghost
        if stage == 0:
            target_decl = t.decl("B")
        else:
            target_decl = fams[stage - 1].ghost
        for comps in t.component_tuples(target_decl):
            acc = GradedPoly.zero()
            for pos, mu in enumerate(comps):
                rest = comps[:pos] + comps[pos + 1:]
                sign = -1 if pos % 2 == 0 else 1
                acc = acc + GradedPoly.from_symbol(
                    t.symbol(ghost, rest, (mu,)), sign)
            expect[t.symbol(target_decl, comps)] = acc
    return expect


def test_ascent_operator_matches_descent_pattern():
    for n in (2, 3, 4):
        m = bf_model(n)
        u = ascent_operator(m)
        assert u.components == expected_bf_ascent(m)
        assert u.parity == 1 and u.side == "left" and u.ghost_delta == 1


def test_ascent_operator_trivial_model():
    m = trivial_model([("x", 0), ("y", 1)])
    t = m.table
    u = ascent_operator(m)
    assert u.components[t.symbol("x")] == GradedPoly.from_symbol(t.symbol("c(0:D_x)"))
    assert u.components[t.symbol("y")] == GradedPoly.from_symbol(t.symbol("c(0:D_y)"))


# an on-shell reducible tower: its stage-1 members carry a correction term
ONSHELL = """dim 2
field x[1]
field y[1]
L = x[a]*y[a]
stage 0: D[0] = x[0]*sbar(x)[0] - y[0]*sbar(y)[0]; D[1] = x[1]*sbar(x)[1] - y[1]*sbar(y)[1]
stage 1: E[0] = sbar(x)[0]*sbar(y)[0] - cbar(0)[0]; E[1] = sbar(x)[1]*sbar(y)[1] - cbar(0)[1]
"""


# linear terms at derivative order >= 2, with and without a coefficient
# monomial (u is compared with its oracle; the identities need not hold)
SECOND_ORDER = """dim 2
field x
odd-field psi
L = 1/2*d[0](x)*d[0](x)
stage 0: D[] = d[0](d[1](sbar(x))) + 2/3*x*d[0](d[0](d[1](sbar(x)))) - d[1](x)*psi*d[1](d[1](sbar(psi)))
stage 1: E[] = d[1](d[1](cbar(0))) - 3/5*x*d[0](d[1](cbar(0)))
"""


def _named_model(name):
    if name == "rescaled":      # L and each stage with its own denominator
        return rescaled_tower(4, Fraction(3, 4), [Fraction(2, 3), Fraction(-5, 7), Fraction(1, 6)])
    texts = {"onshell": ONSHELL, "second-order": SECOND_ORDER}
    return parse_or_raise(texts[name]) if name in texts else zoo_model(name)


def _assert_ascent_matches_oracle(m):
    for N in range(m.max_stage + 1):
        u, want = ascent_operator(m, N), oracle_ascent_operator(m, N)
        assert u.components == want.components
        assert (u.parity, u.side, u.ghost_delta, u.den) == (1, "left", 1, want.den)


@pytest.mark.parametrize("name", ["bf:2", "bf:3", "bf:4", "bf:5", "bf:6", "trivial", "onshell",
                                  "second-order", "rescaled"])
def test_ascent_operator_matches_eta_oracle_on_named_models(name):
    # the stage identities of every member are checked against their oracle too
    m = _named_model(name)
    if name == "onshell":
        assert any(fam.parts[c][1] for fam in m.families_at(1) for c in fam.parts)
    _assert_ascent_matches_oracle(m)
    for fam in m.families:
        for comps, _ in fam.sorted_members():
            assert identity_defect(m, fam, comps) == oracle_identity_defect(m, fam, comps)


def test_second_order_model_reaches_both_kinds_of_linear_term():
    # a linear term with no coefficient monomial adds its sigma-empty split
    # alone; one with a monomial adds every split; both at order >= 2
    shapes = set()
    for fam in _named_model("second-order").families:
        for linear, _ in fam.parts.values():
            for fs, _ in linear._terms:
                (a,) = [f for f in fs if f.var.kind == "antifield"]
                if a.order >= 2:
                    shapes.add(len(fs) > 1)
    assert shapes == {False, True}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ascent_operator_matches_eta_oracle_on_random_models(seed):
    _assert_ascent_matches_oracle(ascent_model(random.Random(seed)))


def test_variational_supersymmetry():
    for n in (2, 3, 4):
        m = bf_model(n)
        assert verify_variational_supersymmetry(m, ascent_operator(m))
    m = bf_model(2)
    zero = VerticalDerivation({}, parity=1, side="left")
    assert verify_variational_supersymmetry(m, zero)
    t = m.table
    not_susy = VerticalDerivation(
        {t.symbol("B", (1,)): GradedPoly.from_symbol(t.symbol("B", (1,)))},
        parity=0, side="left")
    assert not verify_variational_supersymmetry(m, not_susy)


def test_ascent_nilpotency():
    for n in (2, 3, 4):
        assert check_ascent_nilpotency(ascent_operator(bf_model(n))).ok
    assert check_ascent_nilpotency(ascent_operator(trivial_model([("x", 0)]))).ok


def test_ascent_descent_relations_reduce_to_zero():
    # with no corrections the ghost-ladder composition vanishes identically,
    # so the on-shell residual is exactly zero
    m = bf_model(3)
    u = ascent_operator(m)
    for sym, comp in u.components.items():
        image = apply_prolonged(u, comp)
        r = on_shell_reduce(m, image, max_jet_order=0)
        assert r.in_ideal and r.residual.is_zero()


def test_on_shell_reduce_explicit_member():
    m = free_scalar_model(1)
    t = m.table
    e = m.euler_lagrange_map()[t.symbol("s")]
    p = total_derivative(e, 0) * GradedPoly.from_symbol(t.symbol("s"))
    r = on_shell_reduce(m, p)
    assert r.in_ideal and r.residual.is_zero()


def test_on_shell_reduce_constant_not_in_ideal():
    m = bf_model(2)
    r = on_shell_reduce(m, GradedPoly.constant(1))
    assert not r.in_ideal
    assert r.residual == GradedPoly.constant(1)


def _ascent_square(m):
    u = ascent_operator(m)
    return {sym: apply_prolonged(u, comp) for sym, comp in u.components.items()}


def test_on_shell_square_is_in_the_shell_ideal():
    # the square is -c(1)[a] times the Euler-Lagrange expression of y[a]
    m = parse_or_raise(ONSHELL_GLM)
    square = {factor_str(sym): sq for sym, sq in _ascent_square(m).items() if sq}
    assert {k: render_poly(sq) for k, sq in square.items()} == {
        "x[0]": "-x[0]*c(1)[0]", "x[1]": "-x[1]*c(1)[1]",
        "y[0]": "y[0]*c(1)[0]", "y[1]": "y[1]*c(1)[1]"}
    for sq in square.values():
        r = on_shell_reduce(m, sq, max_jet_order=0)
        assert r.in_ideal and r.residual.is_zero()


# the rotor's square is the BRST ghost term of its closed so(3) algebra; no
# multiplier of degree <= 2 at jet order 1 brings a component into the shell
# ideal, and each residual is the component itself
ROTOR_SQUARE = {
    "a0": "a1*c(0:D0)*c(0:D1) + a2*c(0:D0)*c(0:D2) + c(0:D1)*c(0:D2)_(0)"
          " + c(0:D1)_(0)*c(0:D2)",
    "a1": "-a0*c(0:D0)*c(0:D1) + a2*c(0:D1)*c(0:D2) - c(0:D0)*c(0:D2)_(0)"
          " - c(0:D0)_(0)*c(0:D2)",
    "a2": "-a0*c(0:D0)*c(0:D2) - a1*c(0:D1)*c(0:D2) + c(0:D0)*c(0:D1)_(0)"
          " + c(0:D0)_(0)*c(0:D1)",
    "q0": "q1*c(0:D0)*c(0:D1) + q2*c(0:D0)*c(0:D2)",
    "q1": "-q0*c(0:D0)*c(0:D1) + q2*c(0:D1)*c(0:D2)",
    "q2": "-q0*c(0:D0)*c(0:D2) - q1*c(0:D1)*c(0:D2)",
}


def test_rotor_square_is_not_in_the_shell_ideal():
    m = parse_or_raise(ROTOR_GLM)
    square = {factor_str(sym): sq for sym, sq in _ascent_square(m).items() if sq}
    assert {k: render_poly(sq) for k, sq in square.items()} == ROTOR_SQUARE
    for name, sq in square.items():
        r = on_shell_reduce(m, sq, max_jet_order=1, max_multiplier_degree=2)
        assert not r.in_ideal
        assert render_poly(r.residual) == ROTOR_SQUARE[name]
        assert_canonical_coefficients(r.residual)


# E_x = 2y - 3y^2 leads with -3 at y^2, so reducing y^2 scales by -3
UNEVEN_GLM = "dim 1\nfield x\nfield y\nL = 2*x*y - 3*x*y^2\n"
# odd Euler-Lagrange expressions take multipliers of the opposite parity
FERMION_GLM = ("dim 1\nfield x\nodd-field psi\nodd-field chi\n"
               "L = psi*d[0](chi) + 3*x*psi*chi - 2*x^2*psi*chi\n")


def test_on_shell_residual_over_a_negative_pivot_is_exact():
    m = parse_or_raise(UNEVEN_GLM)
    y = m.table.symbol("y")
    for degree in (0, 1, 2):
        r = on_shell_reduce(m, GradedPoly.from_raw([(1, (y, y))]), max_jet_order=0,
                            max_multiplier_degree=degree)
        assert not r.in_ideal
        assert r.residual == GradedPoly.from_symbol(y, Fraction(2, 3))
        assert_canonical_coefficients(r.residual)


def _window_products(m, jet_order, degree):
    """Every product q * d_L(E_x) of a monomial multiplier q of degree <=
    degree over the window's jets and a derivative of order <= jet_order of
    a nonzero Euler-Lagrange expression, multiplied by the plain-arithmetic
    oracle; no grading filter."""
    pool = window_jets(m.table, m.table.decls, jet_order)
    multipliers = [GradedPoly.constant(1)] + [
        GradedPoly.from_raw([(1, combo)]) for k in range(1, degree + 1)
        for combo in combinations_with_replacement(pool, k)]
    generators = [multi_total_derivative(e, mi) for e in m.euler_lagrange_map().values()
                  for mi in multi_indices(m.n, jet_order)]
    return [v for q in multipliers for gen in generators if (v := oracle_mul(q, gen))]


@pytest.mark.parametrize("model, jet_order, degree", [
    (free_scalar_model(1), 1, 1),
    (parse_or_raise(ONSHELL_GLM), 0, 1),
    (rescaled_tower(2, Fraction(3, 5), [Fraction(-2, 7)]), 0, 2),
    (parse_or_raise(UNEVEN_GLM), 0, 1),
    (parse_or_raise(FERMION_GLM), 0, 1),
], ids=["scalar:1", "onshell", "bf:2 rescaled", "uneven", "fermion"])
def test_on_shell_reduce_matches_a_fraction_span_over_every_multiplier(
        model, jet_order, degree):
    # the oracle span holds every product, whatever its grading; the inputs
    # are rational combinations of products of one grading, with multipliers
    # of the reduction's degree or of one degree more
    inside = _window_products(model, jet_order, degree)
    oracle = FractionSpan()
    for v in inside:
        oracle.add(dict(v.terms))
    beyond = _window_products(model, jet_order, degree + 1)
    rng = random.Random(17)
    verdicts = set()
    for _ in range(40):
        products = rng.choice((inside, beyond))
        first = rng.choice(products)
        same = [v for v in products if grading_of(v) == grading_of(first)]
        p = poly_sum([first] + rng.sample(same, min(2, len(same)))).scale(
            Fraction(rng.choice((-5, -1, 2, 3)), rng.randint(1, 6)))
        r = on_shell_reduce(model, p, max_jet_order=jet_order, max_multiplier_degree=degree)
        assert r.in_ideal == (not oracle.reduce(dict(p.terms)))
        assert r.in_ideal == r.residual.is_zero()
        assert not oracle.reduce(dict((p - r.residual).terms))  # p - residual is in the span
        assert_canonical_coefficients(r.residual)
        verdicts.add(r.in_ideal)
    assert verdicts == {True, False}


def test_supported_correction_shape_accepted():
    # a stage-1 generator may carry a term bilinear in the field antifields
    b = ModelBuilder("h-term", 1)
    b.add_field("x", parity=0)
    b.set_lagrangian(GradedPoly.zero())
    t = b.table
    sx = t.symbol("sbar(x)")
    b.add_stage([("D", 0, False, {(): GradedPoly.from_symbol(sx)})])
    g = GradedPoly.from_symbol(t.symbol("cbar(0)"), Fraction(1, 2))
    h = GradedPoly.from_raw([(Fraction(1, 3), (sx, t.symbol("sbar(x)", (), (0,))))])
    b.add_stage([("E", 0, False, {(): g + h})])
    m = b.build()
    assert m.max_stage == 1
    # over the member's denominator 6 each part keeps its own lowest terms
    fam = m.families_at(1)[0]
    assert fam.parts[()] == (g, h)
    assert_canonical_coefficients(fam.parts[()][0])
    assert_canonical_coefficients(fam.parts[()][1])
    # a member with no correction term is its own linear part
    stage0 = m.families_at(0)[0]
    assert stage0.parts[()][0] is stage0.member(()) and stage0.parts[()][1].is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_member_split_matches_term_filter(seed):
    m = split_model(random.Random(seed))
    for fam in m.families:
        for comps, member in fam.sorted_members():
            linear, correction = fam.parts[comps]
            assert linear + correction == member
            assert_canonical_coefficients(linear)
            assert_canonical_coefficients(correction)
            want = oracle_split(fam.stage, member)
            assert (linear, correction) == want
            if want[1].is_zero():
                assert linear is member
            assert identity_defect(m, fam, comps) == oracle_identity_defect(m, fam, comps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([split_model, ascent_model]))
def test_a_linear_term_ends_in_its_antifield(seed, make):
    # ascent_operator reads a linear term's antifield as its last factor
    m = make(random.Random(seed))
    for fam in m.families:
        for linear, _ in fam.parts.values():
            for fs, _ in linear._terms:
                assert fs[-1].var.kind == "antifield"
                assert fs[-1].var.stage == fam.stage - 1
                assert all(f.var.kind == "field" for f in fs[:-1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([split_model, ascent_model]))
def test_every_derivation_declares_the_grading_shift_of_its_components(seed, make):
    # each nonzero component has its symbol's grading shifted by (parity,
    # antifield_delta, ghost_delta): delta_N for every N, every epsilon_k and u
    for m in [zoo_model(z) for z in ("trivial", "bf:2", "bf:3", "bf:4", "scalar:2")] + [
            make(random.Random(seed))]:
        derivations = [build_stage_differential(m, N) for N in range(-1, m.max_stage + 1)]
        derivations += [ascent_operator(m, N) for N in range(-1, m.max_stage + 1)]
        derivations += [eps for k in range(m.max_stage + 1)
                        if (eps := koszul._correction_derivation(m, k)) is not None]
        for v in derivations:
            for sym, comp in v.components.items():
                g = grading_of(GradedPoly.from_symbol(sym))
                assert grading_of(comp) == Grading(
                    (g.parity + v.parity) % 2, g.antifield_number + v.antifield_delta,
                    g.ghost_number + v.ghost_delta), (m, sym, comp)


def test_correction_term_enters_the_stage_identity():
    # L = x*y; D = sbar(x)*x - sbar(y)*y; the bare differential sends
    # sbar(x)*sbar(y) to D, so E = -cbar(0) + sbar(x)*sbar(y) is an identity
    # only through its correction term
    def stage_one(sign):
        b = ModelBuilder("corrected", 1)
        b.add_field("x", parity=0)
        b.add_field("y", parity=0)
        t = b.table
        x, y, sx, sy = (t.symbol(name) for name in ("x", "y", "sbar(x)", "sbar(y)"))
        b.set_lagrangian(GradedPoly.from_raw([(1, (x, y))]))
        b.add_stage([("D", 0, False, {(): GradedPoly.from_raw([(1, (sx, x)), (-1, (sy, y))])})])
        b.add_stage([("E", 0, False, {(): GradedPoly.from_raw(
            [(sign, (t.symbol("cbar(0)"),)), (1, (sx, sy))])})])
        return b.build()

    m = stage_one(-1)
    assert identity_witness(m, m.family(1)) is None
    assert check_nilpotency(build_stage_differential(m)).ok
    m = stage_one(1)
    t = m.table
    assert identity_witness(m, m.family(1)) == ((), GradedPoly.from_raw(
        [(2, (t.symbol("x"), t.symbol("sbar(x)"))), (-2, (t.symbol("y"), t.symbol("sbar(y)")))]))


def test_unsupported_correction_shape_rejected():
    b = ModelBuilder("bad", 1)
    b.add_field("x", parity=0)
    b.set_lagrangian(GradedPoly.zero())
    t = b.table
    sx = t.symbol("sbar(x)")
    b.add_stage([("D", 0, False, {(): GradedPoly.from_symbol(sx)})])
    # ghosts may never enter a generator density
    with pytest.raises(UnsupportedCorrection):
        b.add_stage([("E", 0, False, {(): GradedPoly.from_raw(
            [(1, (t.symbol("c(0)"), t.symbol("cbar(0)")))])})])


@pytest.mark.parametrize("comps", [(7,), (-1,), (), (0, 1)], ids=str)
def test_member_keys_are_range_checked(comps):
    # a member key has the family's arity and indices in 0..n-1
    b = ModelBuilder("keys", 2)
    b.add_field("A", parity=0, arity=1)
    b.set_lagrangian(GradedPoly.zero())
    member = GradedPoly.from_symbol(b.table.symbol("sbar(A)", (0,)))
    with pytest.raises(IndexOutOfRange):
        b.add_stage([("D", 1, False, {comps: member})])
    b.add_stage([("D", 1, False, {(1,): member})])
    assert b.build().family(0).member((1,)) == member


def _antisym_builder():
    b = ModelBuilder("keys", 3)
    b.add_field("A", parity=0, arity=2, antisym=True)
    b.set_lagrangian(GradedPoly.zero())
    return b, GradedPoly.from_symbol(b.table.symbol("sbar(A)", (0, 1)))


def test_antisymmetric_member_key_must_increase():
    # (1, 0) names no antisymmetric component; it is rejected up front, not
    # later by symbol interning inside the checks
    b, member = _antisym_builder()
    for comps in ((1, 0), (1, 1)):
        with pytest.raises(IndexOutOfRange):
            b.add_stage([("D", 2, True, {comps: member})])
    b.add_stage([("D", 2, True, {(0, 1): member})])
    assert all(r.ok for r in run_checks(b.build()))


def _rule_grading(decl):
    """(antifield number, ghost number) that kind and stage give a declaration."""
    k = decl.stage
    return {"field": (0, 0), "antifield": (k + 2, -(k + 2)), "ghost": (0, k + 1)}[decl.kind]


def _assert_tower_bookkeeping(m):
    for copy in (m, pickle.loads(pickle.dumps(m))):
        for decl in copy.table.decls:
            assert decl.stage >= {"field": -1, "antifield": -1, "ghost": 0}[decl.kind]
            assert decl.kind != "field" or decl.stage == -1
            assert (decl.antifield_number, decl.ghost_number) == _rule_grading(decl)
        for fam in copy.families:
            g = fam.ghost
            assert (fam.stage, fam.arity, fam.antisym, fam.parity) == (
                g.stage, g.arity, g.antisym, g.parity)
            a = fam.antifield
            assert (a.stage, a.arity, a.antisym, a.parity) == (
                g.stage, g.arity, g.antisym, 1 - g.parity)


@pytest.mark.parametrize("spec", ["bf:2", "bf:3", "bf:4", "bf:5", "trivial", "scalar:1",
                                  "scalar:3"])
def test_zoo_declarations_carry_the_grading_of_their_kind_and_stage(spec):
    _assert_tower_bookkeeping(zoo_model(spec))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([split_model, ascent_model]))
def test_random_tower_declarations_carry_the_grading_of_their_kind_and_stage(seed, make):
    _assert_tower_bookkeeping(make(random.Random(seed)))


@pytest.mark.parametrize("kind, stage", [("ghost", -1), ("field", 0), ("antifield", -2),
                                         ("ghost", -2), ("field", -2)])
def test_a_declaration_at_a_stage_its_kind_cannot_take_is_rejected(kind, stage):
    with pytest.raises(ValueError):
        GradedVariableDecl("x", kind, 1, stage=stage)


def test_a_family_holds_no_copy_of_its_ghost_grading():
    fam = bf_model(3).family(0)
    for attr in ("stage", "arity", "antisym", "parity"):
        with pytest.raises(AttributeError):
            setattr(fam, attr, 0)


def test_duplicate_family_name_declares_nothing():
    b, member = _antisym_builder()
    good = ("D", 2, True, {(0, 1): member})
    with pytest.raises(ValueError, match="duplicate variable 'cbar"):
        b.add_stage([good, good])
    # a retried call declares exactly one antifield and one ghost
    b.add_stage([good])
    assert [d.name for d in b.build().table.decls] == ["A", "sbar(A)", "cbar(0)", "c(0)"]


def test_rejected_stage_leaves_table_unchanged():
    # every family of a call is checked before anything is declared, so a
    # failure in a later family leaves no orphan antifield or ghost behind
    b, member = _antisym_builder()
    t = b.table
    b.add_stage([("D", 2, True, {(0, 1): member})])
    lifted = GradedPoly.from_symbol(t.symbol("cbar(0)", (0, 1)))
    good = ("D", 2, True, {(0, 1): lifted})
    ghost = GradedPoly.from_symbol(t.symbol("c(0)", (0, 1)))
    before = t.decls
    for second, error in ((good, ValueError),
                          (("E", 2, True, {(1, 0): lifted}), IndexOutOfRange),
                          (("E", 2, True, {(0, 1): ghost}), UnsupportedCorrection)):
        with pytest.raises(error):
            b.add_stage([good, second])
        assert t.decls == before


def test_higher_stage_without_previous_stage_is_missing():
    m = bf_model(4)
    with pytest.raises(MissingStage):
        # ask for more stages than declared
        build_stage_differential(m, 5)


def test_extended_lagrangian_second_form():
    # L_e - L equals the stage differential applied to the ghost-antifield
    # pairing density, an independent check of the right-derivation signs
    for n in (2, 3, 4):
        m = bf_model(n)
        t = m.table
        d = build_stage_differential(m)
        pairing = GradedPoly.zero()
        for fam in m.families:
            ghost = fam.ghost
            anti = fam.antifield
            for ct, _ in fam.sorted_members():
                pairing = pairing + \
                    GradedPoly.from_symbol(t.symbol(ghost, ct)) * \
                    GradedPoly.from_symbol(t.symbol(anti, ct))
        lhs = apply_prolonged(d, pairing)
        rhs = extended_lagrangian(m) - m.lagrangian
        assert lhs == rhs


def _scaled_trivial_model():
    """Zero Lagrangian, two opposite stage-0 families with polynomial
    coefficients, and a stage-1 generator pairing them."""
    b = ModelBuilder("scaled-trivial", 1)
    b.add_field("x", parity=0)
    b.set_lagrangian(GradedPoly.zero())
    t = b.table
    x = GradedPoly.from_symbol(t.symbol("x"))
    xsq = x * x
    sx = GradedPoly.from_symbol(t.symbol("sbar(x)"))
    sx0 = GradedPoly.from_symbol(t.symbol("sbar(x)", (), (0,)))
    delta_a = x * sx + xsq * sx0
    b.add_stage([("Da", 0, False, {(): delta_a}),
                 ("Db", 0, False, {(): -delta_a})])
    t = b.table
    b.add_stage([("E", 0, False, {(): GradedPoly.from_symbol(t.symbol("cbar(0:Da)")) +
                                      GradedPoly.from_symbol(t.symbol("cbar(0:Db)"))})])
    return b.build()


def test_polynomial_coefficient_generators_end_to_end():
    m = _scaled_trivial_model()
    for fam in m.families_at(0):
        assert identity_witness(m, fam) is None
    assert identity_witness(m, m.family(1)) is None
    d = build_stage_differential(m)
    assert check_nilpotency(d).ok
    assert apply_prolonged(d, extended_lagrangian(m)).is_zero()
    u = ascent_operator(m)
    t = m.table
    # eta on the non-constant family {(): x, (0): x^2}: order-zero part
    # x - d_0(x^2), order-one part -x^2
    x = GradedPoly.from_symbol(t.symbol("x"))
    x0 = GradedPoly.from_symbol(t.symbol("x", (), (0,)))
    ca = GradedPoly.from_symbol(t.symbol("c(0:Da)"))
    ca0 = GradedPoly.from_symbol(t.symbol("c(0:Da)", (), (0,)))
    cb = GradedPoly.from_symbol(t.symbol("c(0:Db)"))
    cb0 = GradedPoly.from_symbol(t.symbol("c(0:Db)", (), (0,)))
    eta0 = x - x * x0 * 2
    eta1 = -(x * x)
    expect = ca * eta0 + ca0 * eta1 - cb * eta0 - cb0 * eta1
    assert u.components[t.symbol("x")] == expect
    assert verify_variational_supersymmetry(m, u)
    # with no corrections the ghost ladder closes, but the field component of
    # this x-dependent symmetry does not square to zero: non-nilpotence is a
    # report with a witness, not an error
    for sym, comp in u.components.items():
        if sym.var.kind == "ghost":
            assert apply_prolonged(u, comp).is_zero()
    r = check_ascent_nilpotency(u)
    assert not r.ok
    assert r.witness[0] == t.symbol("x")
    assert not r.witness[1].is_zero()


def test_scaled_trivial_round_trips_through_model_file():
    from gaugelab import parse_or_raise, render_model
    m = _scaled_trivial_model()
    text = render_model(m)
    assert "cbar(0:Da)" in text
    assert parse_or_raise(text) == m


def test_checked_model_is_freed_by_reference_counting():
    # declarations intern their symbols and each symbol points back at its
    # declaration; a model must still be freed without the cyclic collector
    gc.collect()
    gc.disable()
    try:
        m = bf_model(4)
        assert all(r.ok for r in run_checks(m))
        refs = [weakref.ref(d) for d in m.table.decls]
        del m
        assert all(ref() is None for ref in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()
