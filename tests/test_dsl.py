"""Model-file parsing, index expansion, diagnostics, and round-trips."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import (
    GradedPoly,
    load_model,
    parse_or_raise,
    render_model,
    total_derivative,
    zoo_model,
)
from support import rescaled_tower

BF2_TEXT = """\
# two-dimensional topological model
dim 2
field A
field B[1]
L = 1/2*A*eps[mu,nu]*d[mu](B[nu])
stage 0: D[] = d[mu](sbar(B)[mu])
"""


def codes(diags):
    return [d.code for d in diags]


def test_parse_bf2_with_letters_matches_zoo():
    m, diags = load_model(BF2_TEXT, name="bf:2")
    assert diags == []
    assert m == zoo_model("bf:2")


def test_eps_expansion_two_terms():
    text = "dim 2\nfield A\nfield B[1]\nL = eps[mu,nu]*d[mu](B[nu])\n"
    m, diags = load_model(text)
    assert not diags
    t = m.table
    expect = (GradedPoly.from_symbol(t.symbol("B", (1,), (0,))) -
              GradedPoly.from_symbol(t.symbol("B", (0,), (1,))))
    assert m.lagrangian.coefficient == expect


def test_eps_repeated_letter_is_zero():
    text = "dim 2\nfield A\nL = A*eps[mu,mu]\n"
    m, diags = load_model(text)
    assert not diags
    assert m.lagrangian.coefficient.is_zero()


def test_delta_contraction():
    text = "dim 2\nfield v[1]\nL = delta[a,b]*v[a]*v[b]\n"
    m, diags = load_model(text)
    assert not diags
    t = m.table
    expect = GradedPoly.zero()
    for i in range(2):
        expect = expect + GradedPoly.from_raw([(1, (t.symbol("v", (i,)),) * 2)])
    assert m.lagrangian.coefficient == expect


def test_index_used_three_times_is_rejected():
    text = "dim 2\nfield v[1]\nfield w[1]\nL = v[a]*v[a]*w[a]\n"
    m, diags = load_model(text)
    assert m is None
    assert "E-IDX-ARITY" in codes(diags)
    d = [d for d in diags if d.code == "E-IDX-ARITY"][0]
    assert d.line == 4 and d.col > 0


def test_empty_file_diagnostic():
    m, diags = load_model("")
    assert m is None
    assert codes(diags) == ["E-EMPTY"]
    m, diags = load_model("# only a comment\n\n")
    assert codes(diags) == ["E-EMPTY"]


def test_duplicate_declaration_diagnostic():
    text = "dim 2\nfield A\nfield A\nL = A\n"
    m, diags = load_model(text)
    assert m is None
    assert "E-DUP-DECL" in codes(diags)


def test_free_index_in_lagrangian_rejected():
    text = "dim 2\nfield v[1]\nL = v[a]\n"
    m, diags = load_model(text)
    assert m is None
    assert "E-FREE-IDX" in codes(diags)


def test_sum_with_mismatched_free_indices_rejected():
    text = "dim 2\nfield v[1]\nfield w[1]\nL = v[a]*(v[a] + w[b])\n"
    m, diags = load_model(text)
    assert m is None
    assert "E-FREE-SUM" in codes(diags)


def test_unknown_variable_diagnostic():
    text = "dim 1\nfield A\nL = A*Q\n"
    m, diags = load_model(text)
    assert m is None
    assert "E-UNKNOWN-VAR" in codes(diags)


def test_index_out_of_range_diagnostic():
    text = "dim 2\nfield v[1]\nL = v[3]*v[3]\n"
    m, diags = load_model(text)
    assert m is None
    assert "E-IDX-RANGE" in codes(diags)


def test_syntax_error_position():
    text = "dim 2\nfield A\nL = A +\n"
    m, diags = load_model(text)
    assert m is None
    bad = [d for d in diags if d.code == "E-SYNTAX"]
    assert bad and bad[0].line == 3


def test_stage_family_with_concrete_members():
    text = ("dim 2\nfield A\nfield B[1]\n"
            "L = 1/2*A*eps[mu,nu]*d[mu](B[nu])\n"
            "stage 0: D[] = d[0](sbar(B)[0]) + d[1](sbar(B)[1])\n")
    m, diags = load_model(text, name="bf:2")
    assert not diags
    assert m == zoo_model("bf:2")


def test_semicolon_separated_families():
    text = ("dim 1\nfield x\nfield y\nL = 0\n"
            "stage 0: P[] = sbar(x); Q[] = sbar(y)\n")
    m, diags = load_model(text)
    assert not diags
    assert len(m.families_at(0)) == 2


def test_power_notation():
    text = "dim 1\nfield s\nL = 1/2*d[0](s)^2\n"
    m, diags = load_model(text)
    assert not diags
    t = m.table
    s0 = t.symbol("s", (), (0,))
    assert m.lagrangian.coefficient == GradedPoly.from_raw(
        [(Fraction(1, 2), (s0, s0))])


def test_round_trip_all_zoo_models():
    for spec in ("bf:2", "bf:3", "bf:4", "trivial", "scalar:2", "scalar:3"):
        m = zoo_model(spec)
        text = render_model(m)
        m2 = parse_or_raise(text, name=spec)
        assert m2 == m
        # rendering is a fixed point
        assert render_model(m2) == text


nonzero_rationals = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), nonzero_rationals, st.lists(nonzero_rationals, min_size=n - 1,
                                            max_size=n - 1))))
def test_round_trip_random_generator_towers(tower):
    n, lq, stage_qs = tower
    m = rescaled_tower(n, lq, stage_qs)
    text = render_model(m)
    m2, diags = load_model(text, name=m.name)
    assert diags == []
    assert m2 == m
    assert render_model(m2) == text


def test_cbar_reference_in_higher_stage():
    m = zoo_model("bf:3")
    text = render_model(m)
    assert "cbar(0)" in text
    m2 = parse_or_raise(text)
    assert m2.family(1).member(()) == m.family(1).member(())


def test_odd_field_round_trip():
    text = "dim 1\nodd-field psi\nL = psi*d[0](psi)\n"
    m, diags = load_model(text)
    assert not diags
    assert m.table.decl("psi").parity == 1
    t = m.table
    assert m.lagrangian.coefficient == GradedPoly.from_raw(
        [(1, (t.symbol("psi"), t.symbol("psi", (), (0,))))])
    # odd square under the total derivative collapses to zero
    assert total_derivative(GradedPoly.from_raw(
        [(Fraction(1, 2), (t.symbol("psi"), t.symbol("psi")))]), 0).is_zero()
