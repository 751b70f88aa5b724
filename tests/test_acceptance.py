"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (rational arithmetic, polynomial identity); the only
numeric tolerances are the stated wall-clock budgets.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from gaugelab import (
    GradedPoly,
    TruncationWindow,
    VerticalDerivation,
    apply_prolonged,
    ascent_operator,
    bf_model,
    build_stage_differential,
    check_ascent_nilpotency,
    check_nilpotency,
    epsilon,
    eta,
    euler_lagrange,
    extended_lagrangian,
    first_variation_residual,
    free_scalar_model,
    homology_dimension,
    identity_defect,
    identity_witness,
    is_dH_exact,
    kt_homology,
    load_model,
    multi_total_derivative,
    regularity_probe,
    render_model,
    total_derivative,
    trivial_model,
    verify_variational_supersymmetry,
    zoo_model,
)
from gaugelab.cli import run_command
from support import (
    boundary_rows,
    dense_rank_oracle,
    jet_pool,
    random_family,
    random_poly,
    rebuild_with_mutation,
    two_field_model,
)


def report(name: str, ok: bool, extra: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, name


def scaled_equal(computed: GradedPoly, expected: GradedPoly):
    """computed == c * expected for one nonzero rational c; returns c or None."""
    if computed.is_zero() or expected.is_zero():
        return None
    fs, ce = expected.terms[0]
    cc = dict(computed.terms).get(fs)
    if cc is None:
        return None
    c = cc / ce
    if c == 0 or computed != expected.scale(c):
        return None
    return c


def tuple_antifield(table, name, comps, deriv):
    sign, sym = table.jet(name, comps, deriv)
    if sym is None:
        return GradedPoly.zero()
    return GradedPoly.from_symbol(sym, sign)


def test_criterion_01_bf_euler_lagrange():
    """Componentwise second-order variational output matches the epsilon-curl
    form up to one overall rational constant per field family."""
    ok = True
    details = []
    for n in (2, 3, 4):
        t0 = time.monotonic()
        m = bf_model(n)
        t = m.table
        el = m.euler_lagrange_map()

        expected_a = GradedPoly.zero()
        for tup in product(range(n), repeat=n):
            e = epsilon(tup)
            if e == 0:
                continue
            mu, rest = tup[0], tup[1:]
            expected_a = expected_a + total_derivative(
                tuple_antifield(t, "B", rest, ()), mu).scale(e)
        ca = scaled_equal(el[t.symbol("A")], expected_a)

        cb = None
        consistent = True
        for comps in t.component_tuples(t.decl("B")):
            expected = GradedPoly.zero()
            for mu in range(n):
                e = epsilon((mu,) + comps)
                if e == 0:
                    continue
                expected = expected + GradedPoly.from_symbol(
                    t.symbol("A", (), (mu,)), -e)
            c = scaled_equal(el[t.symbol("B", comps)], expected)
            if c is None:
                consistent = False
                break
            if cb is None:
                cb = c
            elif cb != c:
                consistent = False
                break
        elapsed = time.monotonic() - t0
        good = ca is not None and consistent and cb is not None and elapsed < 1.0
        details.append(f"n={n}: c_A={ca}, c_B={cb}, {elapsed:.2f}s")
        ok = ok and good
    report("C1 topological-model Euler-Lagrange", ok, "; ".join(details))


def test_criterion_02_identities_and_mutations():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        m = bf_model(n)
        for k in range(m.max_stage + 1):
            ok = ok and identity_witness(m, m.family(k)) is None
    # mutation fixtures must fail with a nonzero witness
    m = bf_model(3)

    def flip(p):
        fs, c = p.terms[0]
        return p - GradedPoly(((fs, 2 * c),))

    def drop(p):
        fs, c = p.terms[0]
        return p - GradedPoly(((fs, c),))

    for stage, comps, fn in ((0, (0,), flip), (0, (1,), drop), (1, (), flip)):
        bad = rebuild_with_mutation(m, stage, "D", comps, fn)
        defect = identity_defect(bad, bad.family(stage), comps)
        ok = ok and not defect.is_zero()
        ok = ok and identity_witness(bad, bad.family(stage)) is not None
    elapsed = time.monotonic() - t0
    report("C2 Noether and stage identities", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def mutation_cases(m, count=10):
    """At least ``count`` rebuilt models with one mutated generator member."""
    out = []
    for fam in m.families:
        for comps, member in fam.sorted_members():
            if member.is_zero():
                continue
            terms = member.terms
            for i in range(len(terms)):
                fs, c = terms[i]
                one = GradedPoly(((fs, c),))
                out.append((fam.stage, fam.name, comps,
                            lambda p, one=one: p - one.scale(2)))   # sign flip
                out.append((fam.stage, fam.name, comps,
                            lambda p, one=one: p - one))            # dropped term
                for lam in range(m.n):
                    out.append((fam.stage, fam.name, comps,
                                lambda p, one=one, lam=lam:
                                p + total_derivative(one, lam)))    # extra term
            out.append((fam.stage, fam.name, comps, lambda p: p.scale(2)))
            out.append((fam.stage, fam.name, comps, lambda p: p.scale(-3)))
    models = []
    for stage, name, comps, fn in out[:max(count, len(out))]:
        models.append(rebuild_with_mutation(m, stage, name, comps, fn))
    return models


def test_criterion_03_nilpotency_equivalence():
    ok = True
    details = []
    for m in (bf_model(2), bf_model(3), bf_model(4),
              trivial_model([("x", 0), ("y", 1)], n=2)):
        ok = ok and check_nilpotency(build_stage_differential(m)).ok
        cases = mutation_cases(m)
        ok = ok and len(cases) >= 10
        agree = 0
        for bad in cases:
            nil = check_nilpotency(build_stage_differential(bad)).ok
            idents = all(identity_defect(bad, fam, ct).is_zero()
                         for fam in bad.families
                         for ct, _ in fam.sorted_members())
            if nil == idents:
                agree += 1
        details.append(f"{m.name}: {agree}/{len(cases)} agree")
        ok = ok and agree == len(cases)
    report("C3 Koszul-Tate nilpotency equivalence", ok, "; ".join(details))


def test_criterion_04_extended_lagrangian_closure():
    ok = True
    for m in (bf_model(2), bf_model(3), bf_model(4),
              trivial_model([("x", 0), ("y", 1)], n=2)):
        d = build_stage_differential(m)
        closure = apply_prolonged(d, extended_lagrangian(m))
        ok = ok and closure.is_zero()
    report("C4 extended-Lagrangian closure", ok)


def expected_descent_components(m):
    """Independent expansion of the descent pattern on stored components:
    minus the alternating divergence of the next ghost family."""
    t = m.table
    fams = {fam.stage: fam for fam in m.families}
    expect = {}
    for stage in range(m.max_stage + 1):
        ghost = fams[stage].ghost
        target = t.decl("B") if stage == 0 else fams[stage - 1].ghost
        for comps in t.component_tuples(target):
            acc = GradedPoly.zero()
            for pos, mu in enumerate(comps):
                rest = comps[:pos] + comps[pos + 1:]
                acc = acc + GradedPoly.from_symbol(
                    t.symbol(ghost, rest, (mu,)), -1 if pos % 2 == 0 else 1)
            expect[t.symbol(target, comps)] = acc
    return expect


def test_criterion_05_ascent_operator():
    ok = True
    for n in (2, 3, 4):
        m = bf_model(n)
        u = ascent_operator(m)
        ok = ok and u.components == expected_descent_components(m)
        ok = ok and verify_variational_supersymmetry(m, u)
        ok = ok and check_ascent_nilpotency(u).ok
    report("C5 ascent operator and gauge supersymmetry", ok)


def test_criterion_06_eta_involution():
    t0 = time.monotonic()
    m = two_field_model()
    pool = jet_pool(m.table, ("s", "psi", "sbar(s)", "sbar(psi)"), 3)
    rng = random.Random(20240817)
    failures = 0
    for _ in range(200):
        fam = random_family(rng, pool, 3, 4, max_terms=3, max_degree=3)
        if eta(eta(fam)) != fam:
            failures += 1
    elapsed = time.monotonic() - t0
    report("C6 integration-by-parts involution", failures == 0 and elapsed < 10.0,
           f"200 families, {elapsed:.2f}s")


def test_criterion_07_first_variational_formula():
    m = two_field_model()
    t = m.table
    pool = jet_pool(t, ("s", "psi", "sbar(s)", "sbar(psi)"), 2)
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        L = random_poly(rng, pool, max_terms=3)
        par = rng.randint(0, 1)
        comps = {}
        for nm in ("s", "psi"):
            z = t.symbol(nm)
            comps[z] = random_poly(rng, pool, max_terms=2, parity=(par + z.parity) % 2)
        v = VerticalDerivation(comps, parity=par, side="left")
        ok = ok and is_dH_exact(first_variation_residual(L, v))
    for _ in range(100):
        xi = random_poly(rng, pool, max_terms=3)
        lam = rng.randint(0, 1)
        el = euler_lagrange(t, total_derivative(xi, lam))
        ok = ok and all(e.is_zero() for e in el.values())
    report("C7 first variational formula", ok)


def test_criterion_08_window_homology():
    t0 = time.monotonic()
    m = bf_model(2)
    t = m.table
    delta = build_stage_differential(m, -1)
    w = TruncationWindow(1, 1, 1)
    rep = homology_dimension(m, w, -1, -1)
    ok = rep.dim_homology == 1
    expected = (GradedPoly.from_symbol(t.symbol("sbar(B)", (0,), (0,))) +
                GradedPoly.from_symbol(t.symbol("sbar(B)", (1,), (1,))))
    ok = ok and rep.representatives[0] == expected
    ok = ok and all(f.var.name != "sbar(A)"
                    for r in rep.representatives
                    for fs, _ in r.terms for f in fs)

    # independent dense-elimination oracle for the dimensions
    from gaugelab import boundary_matrix
    bm_out = boundary_matrix(delta, m, w, max_stage=-1)
    oracle_cycles = len(bm_out.source) - dense_rank_oracle(boundary_rows(bm_out))
    w_in = TruncationWindow(1, 1, 2)
    bm_in = boundary_matrix(delta, m, w_in, max_stage=-1)
    oracle_boundary_rank = dense_rank_oracle(boundary_rows(bm_in))
    ok = ok and oracle_cycles == rep.dim_cycles == 1
    ok = ok and oracle_boundary_rank == rep.rank_in_window == 0

    s = free_scalar_model(2)
    rep2 = kt_homology(s, w, max_stage=-1)
    ok = ok and rep2.dim_homology == 0
    sdelta = build_stage_differential(s, -1)
    bm_s = boundary_matrix(sdelta, s, w, max_stage=-1)
    ok = ok and len(bm_s.source) - dense_rank_oracle(boundary_rows(bm_s)) == 0

    elapsed = time.monotonic() - t0
    report("C8 window homology with dense oracle", ok and elapsed < 30.0,
           f"{elapsed:.2f}s")


def test_criterion_09_regularity_probe():
    m = bf_model(3)
    r = regularity_probe(m, 0, max_jet_order=1, max_poly_degree=2)
    ok = r.holds and r.window_relative and r.dim_cycles == r.rank_boundaries
    report("C9 homology regularity probe", ok,
           f"cycles={r.dim_cycles}, boundaries={r.rank_boundaries}, window-relative")


def test_criterion_10_round_trip_and_determinism(tmp_path):
    ok = True
    for spec in ("bf:2", "bf:3", "bf:4", "trivial", "scalar:2"):
        m = zoo_model(spec)
        parsed, diags = load_model(render_model(m), name=spec)
        ok = ok and not diags and parsed == m
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    ok = ok and run_command(["check", "--zoo", "bf:3", "--report", str(r1)]) == 0
    ok = ok and run_command(["check", "--zoo", "bf:3", "--report", str(r2)]) == 0
    ok = ok and r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    ok = ok and all(c["status"] == "pass" for c in payload["checks"])
    report("C10 round-trip and report determinism", ok)
