"""Stage differentials, identity verification, the extended Lagrangian,
and the ascent operator."""

import random

import pytest

from gaugelab import (
    EvenDerivation,
    GradedPoly,
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
    free_scalar_model,
    identity_defect,
    multi_total_derivative,
    on_shell_reduce,
    total_derivative,
    trivial_model,
    verify_noether_identity,
    verify_stage_identity,
    verify_variational_supersymmetry,
)
from gaugelab.koszul import ModelBuilder
from support import drop_first_term, flip_first_term, rebuild_with_mutation

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
        assert verify_noether_identity(m, m.family(0))
    m = trivial_model([("x", 0), ("y", 1)])
    for fam in m.families_at(0):
        assert verify_noether_identity(m, fam)


def test_verify_noether_identity_sign_flip_fails():
    m = bf_model(2)
    bad = rebuild_with_mutation(m, 0, "D", (), flip_first_term)
    assert not verify_noether_identity(bad, bad.family(0))


def test_verify_stage_identities():
    for n in (3, 4):
        m = bf_model(n)
        for k in range(1, m.max_stage + 1):
            assert verify_stage_identity(m, m.family(k))


def test_verify_stage_identity_mutation_fails():
    m = bf_model(3)
    bad = rebuild_with_mutation(m, 1, "D", (), flip_first_term)
    assert not verify_stage_identity(bad, bad.family(1))


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
        idents = (all(verify_noether_identity(bad, f) for f in bad.families_at(0))
                  and all(verify_stage_identity(bad, f) for f in bad.families_at(1)))
        assert nil == idents == False  # noqa: E712


def test_extended_lagrangian_examples():
    m = free_scalar_model(2)
    assert extended_lagrangian(m, -1).coefficient == m.lagrangian.coefficient

    m2 = bf_model(2)
    t = m2.table
    le = extended_lagrangian(m2)
    expect = m2.lagrangian.coefficient + \
        GradedPoly.from_symbol(t.symbol("c(0)")) * m2.family(0).member(())
    assert le.coefficient == expect


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


def expected_bf_ascent(m):
    """Independent construction of the descent pattern: on each target
    component tuple j, minus the alternating sum of d over removed indices."""
    t = m.table
    expect = {}
    fams = {fam.stage: fam for fam in m.families}
    for stage in range(m.max_stage + 1):
        fam = fams[stage]
        ghost = m.family_ghost(fam)
        if stage == 0:
            target_decl = t.decl("B")
        else:
            target_decl = m.family_ghost(fams[stage - 1])
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
        assert dict(u.sorted_components()) == expected_bf_ascent(m)
        assert u.parity == 1 and u.side == "left" and u.ghost_delta == 1


def test_ascent_operator_trivial_model():
    m = trivial_model([("x", 0), ("y", 1)])
    t = m.table
    u = ascent_operator(m)
    assert u.components[t.symbol("x")] == GradedPoly.from_symbol(t.symbol("c(0:D_x)"))
    assert u.components[t.symbol("y")] == GradedPoly.from_symbol(t.symbol("c(0:D_y)"))


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
    for sym, comp in u.sorted_components():
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


def test_supported_correction_shape_accepted():
    # a stage-1 generator may carry a term bilinear in the field antifields
    b = ModelBuilder("h-term", 1)
    b.add_field("x", parity=0)
    b.set_lagrangian(GradedPoly.zero())
    t = b.table
    sx = t.symbol("sbar(x)")
    b.add_stage([("D", 0, False, {(): GradedPoly.from_symbol(sx)})])
    b.add_stage([("E", 0, False, {(): GradedPoly.from_symbol(t.symbol("cbar(0)")) +
                                      GradedPoly.from_raw(
        [(1, (sx, t.symbol("sbar(x)", (), (0,))))])})])
    m = b.build()
    assert m.max_stage == 1


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
            ghost = m.family_ghost(fam)
            anti = m.family_antifield(fam)
            for ct, _ in fam.sorted_members():
                pairing = pairing + \
                    GradedPoly.from_symbol(t.symbol(ghost, ct)) * \
                    GradedPoly.from_symbol(t.symbol(anti, ct))
        lhs = apply_prolonged(d, pairing)
        rhs = extended_lagrangian(m).coefficient - m.lagrangian.coefficient
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
        assert verify_noether_identity(m, fam)
    assert verify_stage_identity(m, m.family(1))
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
    for sym, comp in u.sorted_components():
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
