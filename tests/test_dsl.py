"""Model-file parsing, index expansion, diagnostics, and round-trips."""

import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab import (
    GradedPoly,
    ModelBuilder,
    load_model,
    parse_model,
    parse_or_raise,
    render_model,
    total_derivative,
    zoo_model,
)
from gaugelab import dsl
from gaugelab.algebra import _term_parity
from support import ONSHELL_GLM, ROTOR_GLM, OracleError, oracle_expand, rescaled_tower

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
    assert m.lagrangian == expect


def test_eps_repeated_letter_is_zero():
    text = "dim 2\nfield A\nL = A*eps[mu,mu]\n"
    m, diags = load_model(text)
    assert not diags
    assert m.lagrangian.is_zero()


def test_delta_contraction():
    text = "dim 2\nfield v[1]\nL = delta[a,b]*v[a]*v[b]\n"
    m, diags = load_model(text)
    assert not diags
    t = m.table
    expect = GradedPoly.zero()
    for i in range(2):
        expect = expect + GradedPoly.from_raw([(1, (t.symbol("v", (i,)),) * 2)])
    assert m.lagrangian == expect


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
    assert m.lagrangian == GradedPoly.from_raw(
        [(Fraction(1, 2), (s0, s0))])


def test_letter_families_match_zoo():
    text = ("dim 3\nfield A\nfield B[2 antisym]\n"
            "L = 1/6*A*eps[m,n,r]*d[m](B[n,r])\n"
            "stage 0: D[a] = -d[b](sbar(B)[a,b])\n"
            "stage 1: D[] = d[a](cbar(0)[a])\n")
    m, diags = load_model(text, name="bf:3")
    assert diags == []
    assert m == zoo_model("bf:3")


def test_minus_between_names_is_subtraction():
    def lagrangian(expr):
        m, diags = load_model(f"dim 1\nfield A\nfield B\nL = {expr}\n")
        assert diags == []
        return m.lagrangian

    assert lagrangian("2*A-3*B") == lagrangian("2*A - 3*B")
    assert lagrangian("A-B") == lagrangian("A - B")
    assert lagrangian("A-B").terms[1][1] == -1


def raw_terms(header, expr):
    """The expander's raw terms of expr, before canonicalisation."""
    doc, diags = parse_model(header + "L = 0\n")
    assert diags == []
    b = ModelBuilder("raw", doc.dim)
    for name, parity, arity, antisym, _ in doc.decls:
        b.add_field(name, parity=parity, arity=arity, antisym=antisym)
    parser = dsl._ExprParser(dsl._tokenize_line(expr, 1), 1)
    return dsl._Expander(b.table, doc.dim).eval(parser.expr(), {})


def test_large_power_is_one_term():
    m, diags = load_model("dim 1\nfield A\nodd-field psi\nL = 2*A^3000\n")
    assert diags == []
    ((fs, c),) = m.lagrangian.terms
    assert len(fs) == 3000 and len(set(fs)) == 1 and c == 2
    assert len(raw_terms("dim 1\nfield A\n", "A^3000")) == 1
    m, diags = load_model("dim 1\nfield A\nodd-field psi\nL = A*psi^2 + (A*psi)^3\n")
    assert diags == [] and m.lagrangian.is_zero()


def test_power_of_sum_has_binomial_coefficients():
    header = "dim 1\nfield A\nfield B\n"
    m, diags = load_model(header + "L = (A+B)^12\n")
    assert diags == []
    t = m.table
    A, B = t.symbol("A"), t.symbol("B")
    assert m.lagrangian == GradedPoly.from_raw(
        [(comb(12, k), (A,) * k + (B,) * (12 - k)) for k in range(13)])
    assert len(raw_terms(header, "(A+B)^12")) == 13
    assert len(raw_terms(header, "(A+B)*(A+B)*(A-B)")) == 4


def test_nesting_within_the_limit_loads():
    depth = dsl._MAX_NESTING
    m, diags = load_model("dim 1\nfield A\nL = " + "(" * depth + "A" + ")" * depth + "\n")
    assert diags == [] and m.lagrangian == GradedPoly.from_symbol(m.table.symbol("A"))
    text = "dim 1\nfield A\nL = A*" + "d[0](" * depth + "A" + ")" * depth + "\n"
    m, diags = load_model(text)
    assert diags == []
    t = m.table
    assert m.lagrangian == GradedPoly.from_raw(
        [(1, (t.symbol("A"), t.symbol("A", (), (0,) * depth)))])


def test_round_trip_all_zoo_models():
    for spec in ("bf:2", "bf:3", "bf:4", "trivial", "scalar:2", "scalar:3"):
        m = zoo_model(spec)
        text = render_model(m)
        m2 = parse_or_raise(text, name=spec)
        assert m2 == m
        # rendering is a fixed point
        assert render_model(m2) == text


nonzero_rationals = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60))


# (n, Lagrangian factor, stage factors) of a rescaled bf:n tower
towers = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), nonzero_rationals, st.lists(nonzero_rationals, min_size=n - 1,
                                            max_size=n - 1)))


@settings(max_examples=25, deadline=None)
@given(towers)
def test_round_trip_random_generator_towers(tower):
    n, lq, stage_qs = tower
    m = rescaled_tower(n, lq, stage_qs)
    text = render_model(m)
    m2, diags = load_model(text, name=m.name)
    assert diags == []
    assert m2 == m
    assert render_model(m2) == text


# the tokens of a model file with every index list split into its brackets,
# commas and integers
_PIECE = re.compile(r"odd-field|[A-Za-z_]\w*|\d+|\S")
_PADS = ("", "", "", " ", "\t", " \t ")


def respaced(text, rng):
    """text with random ASCII spaces and tabs before, between and after its
    tokens, inside index lists too; tokens the text separates stay apart."""
    lines = []
    for line in text.splitlines():
        out, end = [], 0
        for mo in _PIECE.finditer(line):
            pad = rng.choice(_PADS)
            out.append((pad or (" " if mo.start() > end else "")) + mo[0])
            end = mo.end()
        lines.append("".join(out) + rng.choice(_PADS))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 6).map(lambda n: zoo_model(f"bf:{n}")),
                 towers.map(lambda tower: rescaled_tower(*tower))),
       st.randoms(use_true_random=False))
def test_spaces_between_tokens_load_the_same_model(m, rng):
    # a lexed index list such as [0,1] and one split by spaces, [ 0, 1], are
    # two paths through the tokenizer and the parser
    text = render_model(m)
    spaced = respaced(text, rng)
    m2, diags = load_model(spaced, name=m.name)
    assert diags == [], spaced
    assert m2 == m


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
    assert m.lagrangian == GradedPoly.from_raw(
        [(1, (t.symbol("psi"), t.symbol("psi", (), (0,))))])
    # odd square under the total derivative collapses to zero
    assert total_derivative(GradedPoly.from_raw(
        [(Fraction(1, 2), (t.symbol("psi"), t.symbol("psi")))]), 0).is_zero()


# Malformed model files and the exact diagnostics they produce.  Every code
# the README lists appears at least once.
H = "dim 2\nfield s\nodd-field psi\nfield v[1]\nfield w[2 antisym]\n"
GOLDEN_DIAGNOSTICS = [
    (H + 'L = s $ v[0]\n', ["6:7: E-SYNTAX: unexpected character '$'"]),
    (H + 'L = s +\n', ["6:8: E-SYNTAX: unexpected token 'end of line'"]),
    (H + 'L = s*\n', ["6:7: E-SYNTAX: unexpected token 'end of line'"]),
    (H + 'L =\n', ["6:4: E-SYNTAX: unexpected token 'end of line'"]),
    # a bare L is reported on its own line, after the L
    (H + 'L\n', ["6:2: E-SYNTAX: expected '=', found 'end of line'"]),
    (H + 'L = (s\n', ["6:7: E-SYNTAX: expected ')', found 'end of line'"]),
    (H + 'L = s)\n', ['6:6: E-SYNTAX: trailing tokens after the Lagrangian']),
    (H + 'L = s v[0]\n', ['6:7: E-SYNTAX: trailing tokens after the Lagrangian']),
    (H + 'L = s^x + v[0]\n', ['6:9: E-SYNTAX: exponent must be a nonnegative integer']),
    (H + 'L = s^\n', ['6:7: E-SYNTAX: exponent must be a nonnegative integer']),
    (H + 'L = s^-1\n', ['6:8: E-SYNTAX: exponent must be a nonnegative integer']),
    (H + 'L = v[+]\n', ["6:7: E-SYNTAX: expected an index, found '+'"]),
    (H + 'L = d[0,1](s)\n', ['6:5: E-SYNTAX: d[] takes exactly one index']),
    (H + 'L = d[0]()\n', ["6:10: E-SYNTAX: unexpected token ')'"]),
    (H + 'L = d[0] s\n', ["6:10: E-SYNTAX: expected '(', found 's'"]),
    (H + 'L = delta[0]\n', ['6:5: E-SYNTAX: delta[] takes exactly two indices']),
    (H + 'L = sbar(1)\n', ['6:11: E-SYNTAX: sbar(...) needs a field name']),
    (H + 'L = cbar(x)\n', ['6:11: E-SYNTAX: cbar(...) needs a stage number']),
    (H + 'L = cbar(0:1)\n', ['6:13: E-SYNTAX: cbar(K:FAMILY) needs a family name']),
    (H + 'L = s\nL = v[0]\n', ['7:1: E-DUP-DECL: Lagrangian already declared']),
    ('dim x\nfield s\nL = s\n', ['1:1: E-SYNTAX: usage: dim N']),
    ('dim 2\ndim 3\nfield s\nL = s\n', ['2:1: E-DUP-DECL: dimension already declared']),
    ('dim 2\nfield\nL = 0\n', ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    ('dim 2\nfield s[x]\nL = 0\n', ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    ('dim 2\nfield s[2 sym]\nL = 0\n', ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    ('dim 2\nfield s\nfield s\nL = s\n', ["3:7: E-DUP-DECL: field 's' already declared"]),
    (H + 'frobnicate 3\nL = s\n', ["6:1: E-SYNTAX: unknown statement 'frobnicate'"]),
    (H + 'L = s\nstage x\n', ['7:1: E-SYNTAX: usage: stage K: NAME[idx,...] = expr ; ...']),
    # a stage line with no definition is no stage, even after stage 0
    (H + 'L = s\nstage 0:\n', ['7:1: E-SYNTAX: usage: stage K: NAME[idx,...] = expr ; ...']),
    (H + 'L = s\nstage 0: ;\n', ['7:1: E-SYNTAX: usage: stage K: NAME[idx,...] = expr ; ...']),
    (H + 'L = s\nstage 5:\n', ['7:1: E-SYNTAX: usage: stage K: NAME[idx,...] = expr ; ...']),
    (H + 'L = s\nstage 0: D[] = sbar(s)\nstage 2:\n',
     ['8:1: E-SYNTAX: usage: stage K: NAME[idx,...] = expr ; ...']),
    (H + 'L = s\nstage 0: D[] = sbar(s) ;\n', []),
    (H + 'L = s\nstage 0: 1[] = sbar(s)\n', ['7:11: E-SYNTAX: a generator definition starts with a family name']),
    (H + 'L = s\nstage 0: D = sbar(s)\n', ["7:12: E-SYNTAX: expected '[', found '='"]),
    (H + 'L = s\nstage 0: D[] sbar(s)\n', ["7:14: E-SYNTAX: expected '=', found 'sbar'"]),
    (H + 'L = s\nstage 0: P[] = ; Q[] = sbar(s)\n', ["7:15: E-SYNTAX: unexpected token 'end of line'"]),
    (H + 'L = s\nstage 0: D[] = sbar(s) s\n', ['7:24: E-SYNTAX: trailing tokens after a generator definition']),
    (H + 'L = s +\nstage 0: D[] = $\nfield q[\n',
     ["6:8: E-SYNTAX: unexpected token 'end of line'", "7:16: E-SYNTAX: unexpected character '$'", '8:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    (H + 'L = 1/s\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    (H + 'L = s/0\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    (H + 'L = s/(1-1)\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    (H + 'L = s/v[0]*$\n', ["6:12: E-SYNTAX: unexpected character '$'"]),
    (H + 'L = s/d[0](s)\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    ('', ['1:1: E-EMPTY: the model file has no statements']),
    ('# only a comment\n\n', ['1:1: E-EMPTY: the model file has no statements']),
    ('field s\nL = s\n', ["1:1: E-DIM-MISSING: missing 'dim N' statement"]),
    ('dim 2\nfield s\n', ["1:1: E-L-MISSING: missing 'L = ...' statement"]),
    (H + 'L = v[a]*v[a]*v[a]\n', ["6:5: E-IDX-ARITY: index letter 'a' appears more than twice"]),
    (H + 'L = v[a]*(v[a] + w[a,b])\n', ['6:11: E-FREE-SUM: summands carry different free indices']),
    (H + 'L = v[a]\n', ["6:1: E-FREE-IDX: the Lagrangian has free indices ['a']"]),
    (H + 'L = v[a]^3\n', ["6:10: E-IDX-ARITY: index letter 'a' appears more than twice"]),
    (H + 'L = s + d[a](v[b])\n', ['6:5: E-FREE-SUM: summands carry different free indices']),
    (H + 'L = s\nstage 0: D[a] = sbar(v)[b]\n', ["7:10: E-FREE-IDX: free indices ['b'] do not match the family indices ['a']"]),
    (H + 'L = s\nstage 0: D[0] = sbar(v)[a]\n', ["7:10: E-FREE-IDX: member definition has free indices ['a']"]),
    (H + 'L = s\nstage 0: D[a,0] = sbar(w)[a,0]\n', ['7:10: E-SYNTAX: family indices must be all letters or all integers']),
    (H + 'L = s\nstage 0: D[a,a] = sbar(w)[a,a]\n', ['7:10: E-IDX-ARITY: family indices must be distinct letters']),
    (H + 'L = s\nstage 0: D[1,0] = sbar(w)[0,1]\n', ['7:10: E-SYNTAX: concrete family indices must be strictly increasing']),
    (H + 'L = s\nstage 0: D[7] = sbar(v)[0]\n', ['7:10: E-IDX-RANGE: index 7 out of range for dim 2']),
    (H + 'L = s\nstage 0: D[0,2] = sbar(w)[0,1]\n', ['7:10: E-IDX-RANGE: index 2 out of range for dim 2']),
    (H + 'L = s\nstage 0: D[0] = sbar(v)[0]; D[0,1] = sbar(w)[0,1]\n', ["7:29: E-IDX-ARITY: family 'D' redefined with a different arity"]),
    (H + 'L = s*Q\n', ["6:7: E-UNKNOWN-VAR: unknown variable 'Q'"]),
    (H + 'L = sbar(Q)\n', ["6:5: E-UNKNOWN-VAR: unknown variable 'sbar(Q)'"]),
    (H + 'L = cbar(3)\n', ["6:5: E-UNKNOWN-VAR: unknown variable 'cbar(3)'"]),
    (H + 'L = v[2]*v[2]\n', ['6:5: E-IDX-RANGE: index 2 out of range for dim 2']),
    (H + 'L = d[5](s)\n', ['6:5: E-IDX-RANGE: index 5 out of range for dim 2']),
    (H + 'L = v[0,1]\n', ['6:5: E-IDX-RANGE: v expects 1 component indices, got 2']),
    (H + 'L = eps[0,5]\n', ['6:5: E-IDX-RANGE: index 5 out of range for dim 2']),
    (H + 'L = eps[0]\n', ['6:5: E-EPS-ARITY: eps takes 2 indices here']),
    (H + 'L = eps[a,a]*Q\n', ["6:14: E-UNKNOWN-VAR: unknown variable 'Q'"]),
    (H + 'L = s\nstage 1: D[] = sbar(s)\n', ['1:1: E-STAGE-ORDER: stages must be 0,1,... without gaps, got [1]']),
    (H + 'L = s\nstage 0: D[] = s\n', ['7:10: E-SHAPE: generator D (stage 0) has a term of antifield number 0, expected 1']),
    (H + 'L = s\nstage 0: D[] = sbar(s) + sbar(psi)\n', ['7:10: E-SHAPE: generator D() has mixed parity']),
    # a builder error points at the definition of the offending member
    ('dim 1\nfield s\nL = s\nstage 0: D[] = sbar(s)\nstage 1: E[] = cbar(0)*cbar(0)\n',
     ['5:10: E-SHAPE: generator E (stage 1) has a term of antifield number 4, expected 2']),
    (H + 'L = s\nstage 0: D[0] = sbar(v)[0]; D[1] = sbar(psi)\n',
     ['7:29: E-SHAPE: family D has members of mixed parity']),
    # names have no hyphen, and the input is ASCII
    (H + 'L = 2*s-3*psi\n', ['6:1: E-SHAPE: the Lagrangian has an odd term']),
    ('dim 1\nfield my-field\nL = my-field\n',
     ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    ('dim 1\nfield A\nL = \u0663*A\n', ["3:5: E-SYNTAX: unexpected character '\u0663'"]),
    ('dim 1\nfield A\nL = A\xa0+ A\n', ["3:6: E-SYNTAX: unexpected character '\\xa0'"]),
    # nesting deeper than the parser allows
    ('dim 1\nfield A\nL = ' + '(' * 3000 + 'A' + ')' * 3000 + '\n',
     ['3:205: E-SYNTAX: expression nested too deeply']),
    ('dim 1\nfield A\nL = ' + 'd[0](' * 3000 + 'A' + ')' * 3000 + '\n',
     ['3:1009: E-SYNTAX: expression nested too deeply']),
    ('dim 1\nfield A\nL = 1\nstage 0: D[] = ' + 'd[0](' * 300 + 'sbar(A)' + ')' * 300 + '\n',
     ['4:1020: E-SYNTAX: expression nested too deeply']),
    # within the parser's limit, but too deep to elaborate: each level nests
    # a sum, a product and a power
    ('dim 1\nfield A\nL = ' + '(' * 200 + 'A' + ')^1*A+A' * 200 + '\n',
     ['3:1: E-SYNTAX: expression nested too deeply']),
    (H + 'L = Q/0\n', ["6:5: E-UNKNOWN-VAR: unknown variable 'Q'"]),
    (H + 'L = 2/0*Q\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    (H + 'L = -s/2/0\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    (H + 'L = s^2^3\n', ['6:8: E-SYNTAX: trailing tokens after the Lagrangian']),
    (H + 'L = 2^3/s\n', ['6:5: E-SYNTAX: division only by nonzero rational constants']),
    (H + 'L = s*(v[0]/(eps[0,1] - eps[1,0] - delta[0,1]*2 + d[0](s)))\n', ['6:8: E-SYNTAX: division only by nonzero rational constants']),
    # ASCII whitespace at the end of a line, or alone on a line, is skipped
    (H + 'L = s  \t\n', []),
    (H + '  \t\nL = s \n  \n', []),
    # a base dimension below 1
    ('dim 0\nfield s\nL = s\n', ['1:1: E-SYNTAX: dim N needs N >= 1']),
    # one diagnostic per ';'-separated definition of a stage line
    (H + 'L = s\nstage 0: P[] = ) ; Q[] = sbar(s) s ; R[] = sbar(s)\n',
     ["7:16: E-SYNTAX: unexpected token ')'",
      '7:34: E-SYNTAX: trailing tokens after a generator definition']),
    # every family of a failing stage is checked, and no later stage is
    (H + 'L = s\nstage 0: P[a] = sbar(v)[b]; Q[] = sbar(Z)\nstage 1: E[] = cbar(0:P)\n',
     ["7:10: E-FREE-IDX: free indices ['b'] do not match the family indices ['a']",
      "7:35: E-UNKNOWN-VAR: unknown variable 'sbar(Z)'"]),
    (H + 'L = s\nstage 0: P[a] = sbar(v)[b]\nstage 0: Q[0] = sbar(v)[a]\n',
     ["7:10: E-FREE-IDX: free indices ['b'] do not match the family indices ['a']",
      "8:10: E-FREE-IDX: member definition has free indices ['a']"]),
    # a line rejected by the tokenizer is no statement
    ('$\n', ["1:1: E-SYNTAX: unexpected character '$'",
             '1:1: E-EMPTY: the model file has no statements']),
    # token boundaries: a message names the '[' of an index list at its column
    (H + 'L = [0]\n', ["6:5: E-SYNTAX: unexpected token '['"]),
    (H + 'L = d[0][1]\n', ["6:9: E-SYNTAX: expected '(', found '['"]),
    (H + 'L = v[[0]]\n', ["6:7: E-SYNTAX: expected an index, found '['"]),
    (H + 'L = s\nstage 0: D[] [0] = sbar(s)\n', ["7:14: E-SYNTAX: expected '=', found '['"]),
    (H + '[0]\n', ["6:1: E-SYNTAX: unknown statement '['"]),
    (H + 'L = v[0,]\n', ["6:9: E-SYNTAX: expected an index, found ']'"]),
    (H + 'L = v[,0]\n', ["6:7: E-SYNTAX: expected an index, found ','"]),
    (H + 'L = v[0\n', ["6:8: E-SYNTAX: expected ']', found 'end of line'"]),
    (H + 'L = v[0]]\n', ['6:9: E-SYNTAX: trailing tokens after the Lagrangian']),
    (H + 'L = v[\n', ["6:7: E-SYNTAX: expected an index, found ''"]),
    (H + 'L = v[0,\n', ["6:9: E-SYNTAX: expected an index, found ''"]),
    # a rule that takes an index list where it needs one token rejects at
    # the list's second character
    (H + 'L = s^[0]\n', ['6:8: E-SYNTAX: exponent must be a nonnegative integer']),
    (H + 'L = sbar([0])\n', ['6:11: E-SYNTAX: sbar(...) needs a field name']),
    (H + 'L = cbar([])\n', ['6:11: E-SYNTAX: cbar(...) needs a stage number']),
    (H + 'L = s\nstage 0: [] = sbar(s)\n', ['7:11: E-SYNTAX: a generator definition starts with a family name']),
    (H + 'L = v[0][1]\n', ['6:9: E-SYNTAX: trailing tokens after the Lagrangian']),
    (H + 'L = s[0]\n', ['6:5: E-IDX-RANGE: s expects 0 component indices, got 1']),
    (H + 'L = s\nstage 0: D[0,1 = sbar(w)[0,1]\n', ["7:16: E-SYNTAX: expected ']', found '='"]),
    ('dim [2]\nfield s\nL = s\n', ['1:1: E-SYNTAX: usage: dim N']),
    ('dim 2\nfield v[]\nL = 0\n', ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    ('dim 2\nfield v[1,2]\nL = 0\n', ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    ('dim 2\nfield v[1] antisym\nL = 0\n', ['2:1: E-SYNTAX: usage: field NAME [ARITY [antisym]]']),
    # a tab is one column
    (H + '\tL = v[0]*v[1] $\n', ["6:16: E-SYNTAX: unexpected character '$'"]),
    # spaces inside an index list, leading zeros and a comment's characters
    ('dim 2\nfield v[ 1 ]\nL = v[0]*v[1]\n', []),
    (H + 'L = v[ 0]*w[0 ,1 ]\n', []),
    (H + 'L = v[00]\n', []),
    (H + 'L = s # café\n', []),
]


@pytest.mark.parametrize("text, expected", GOLDEN_DIAGNOSTICS,
                         ids=[text.splitlines()[-1][:40] if text.strip() else repr(text)
                              for text, _ in GOLDEN_DIAGNOSTICS])
def test_golden_diagnostics(text, expected):
    m, diags = load_model(text)
    assert [str(d) for d in diags] == expected
    assert (m is None) == bool(expected)


def documented_codes():
    """The diagnostic codes the README lists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme[readme.index("Parse errors carry"):]
    block = block[:block.index("\n\n")]
    return set(re.findall(r"`(E-[A-Z-]+)`", block))


def test_golden_diagnostics_cover_every_documented_code():
    documented = documented_codes()
    seen = {d.split(": ")[1] for _, expected in GOLDEN_DIAGNOSTICS for d in expected}
    assert documented and documented <= seen


# Valid model files, and snippets that mutations insert into them
MUTATED_MODELS = [render_model(zoo_model(spec)) for spec in ("bf:2", "bf:3", "trivial",
                                                             "scalar:2")]
MUTATED_MODELS += [BF2_TEXT, ONSHELL_GLM, ROTOR_GLM]
SNIPPETS = ("(", ")", "[", "]", ",", ";", ":", "=", "+", "-", "*", "/", "^", "0", "1", "2",
            "a", "b", "x", " ", "\n", "#", "$", "d[0](", "d[a](", "[a]", "[a,b]", "*A",
            "*sbar(A)", "sbar(", "cbar(0)", "cbar(0:D)", "eps[", "delta[", "stage 1: ",
            "field ", "odd-field ", "L = ", "dim ")


def mutated_model(rng):
    """A model file with one to three short snippets inserted, deleted or
    copied; no dim, exponent or first index above 3, so no input is slow."""
    while True:
        text = rng.choice(MUTATED_MODELS)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + rng.choice(SNIPPETS) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + rng.randint(1, 4):]
            else:
                j = rng.randrange(len(text))
                text = text[:i] + text[j:j + rng.randint(1, 8)] + text[i:]
        if all(int(k) <= 3 for k in re.findall(r"(?:dim|\^|\[)\s*(\d+)", text)):
            return text


def test_mutated_models_load_or_give_documented_diagnostics():
    rng = random.Random(19)
    documented = documented_codes()
    for _ in range(2000):
        text = mutated_model(rng)
        m, diags = load_model(text)
        assert (m is None) == bool(diags), text
        assert {d.code for d in diags} <= documented, (text, diags)
        if m is not None:
            assert load_model(render_model(m)) == (m, []), text


# Random expressions over the fields of H, as tuple trees that render to
# model-file text (the node forms are listed in support.py).  Every letter
# of a subexpression is free in it or summed within it, so the trees are
# well formed; divisions are by constants, zero now and then.
VECTORS = ("v", "chi", "sbar(v)", "sbar(chi)")
SCALARS = ("s", "psi", "sbar(s)", "sbar(psi)")
HF = H + "odd-field chi[1]\n"


@st.composite
def expressions(draw, free=(), depth=3, fresh="abcdefg"):
    free = tuple(free)
    letter = fresh[0]
    kinds = ["leaf"]
    if depth > 0:
        kinds += ["add", "mul", "neg", "d"] + (["pow"] if not free else [])
        if len(free) < 2:
            kinds.append("sum")
    kind = draw(st.sampled_from(kinds))
    sub = lambda f, **kw: expressions(f, depth - 1, fresh[1:], **kw)
    lit = st.integers(0, 1)
    if kind == "leaf":
        if not free:
            return draw(st.one_of(
                st.tuples(st.just("num"), st.integers(0, 4)),
                st.tuples(st.just("ref"), st.sampled_from(SCALARS), st.just(())),
                st.tuples(st.just("ref"), st.sampled_from(VECTORS), st.tuples(lit)),
                st.tuples(st.just("ref"), st.sampled_from(("w", "sbar(w)")),
                          st.tuples(lit, lit)),
                st.tuples(st.just("eps"), st.tuples(lit, lit)),
                st.tuples(st.just("delta"), lit, lit)))
        if len(free) == 1:
            a = free[0]
            return draw(st.one_of(
                st.tuples(st.just("ref"), st.sampled_from(VECTORS), st.just((a,))),
                st.tuples(st.just("ref"), st.just("w"),
                          st.sampled_from(((a, 0), (1, a)))),
                st.tuples(st.just("delta"), st.just(a), lit)))
        pair = draw(st.permutations(free))
        return draw(st.sampled_from((("ref", "w", tuple(pair)), ("eps", tuple(pair)),
                                     ("delta",) + tuple(pair))))
    if kind == "add":
        n = draw(st.integers(2, 3))
        return ("add", tuple((draw(st.sampled_from((1, -1))), draw(sub(free)))
                             for _ in range(n)))
    if kind == "neg":
        return ("neg", draw(sub(free)))
    if kind == "d":
        if free and draw(st.booleans()):
            return ("d", free[0], draw(sub(free[1:])))
        return ("d", draw(lit), draw(sub(free)))
    if kind == "sum":
        # a letter summed over a product, or over d[letter](...)
        if draw(st.booleans()):
            return ("d", letter, draw(sub(free + (letter,))))
        return ("mul", (draw(sub(free + (letter,))), draw(sub((letter,)))))
    if kind == "pow":
        if draw(st.booleans()):
            return ("pow", draw(sub((letter,))), 2)
        return ("pow", draw(sub(())), draw(st.integers(0, 3)))
    # a product: the free letters go to one factor, constants and divisions
    # by constants around it
    factors = [draw(sub(free))]
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(st.integers(0, 4))
        if choice == 0:
            factors.append(("div", draw(st.sampled_from(
                (("num", 3), ("num", 0), ("neg", ("num", 2)), ("eps", (1, 0)),
                 ("add", ((1, ("num", 1)), (1, ("num", 1)))))))))
        elif choice == 1:
            factors.append(("num", draw(st.integers(0, 3))))
        else:
            factors.append(draw(sub(())))
    return ("mul", tuple(factors))


def render(node, tight=False):
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind in ("ref", "eps"):
        name = node[1] if kind == "ref" else "eps"
        idxs = node[-1]
        return name + ("[" + ",".join(map(str, idxs)) + "]" if idxs else "")
    if kind == "delta":
        return f"delta[{node[1]},{node[2]}]"
    if kind == "d":
        return f"d[{node[1]}]({render(node[2], tight)})"
    if kind == "add":
        plus, minus = ("+", "-") if tight else (" + ", " - ")
        out = ""
        for i, (sign, sub) in enumerate(node[1]):
            text = render(sub, tight)
            if sub[0] == "add":
                text = f"({text})"
            out += ("-" if sign < 0 else "") + text if i == 0 else (
                (plus if sign > 0 else minus) + text)
        return out
    if kind == "neg":
        return "-" + _factor(node[1], tight)
    if kind == "pow":
        base = node[1]
        text = render(base, tight)
        if base[0] not in ("num", "ref", "eps", "delta", "d"):
            text = f"({text})"
        return f"{text}^{node[2]}"
    return "".join(("/" + _factor(f[1], tight)) if f[0] == "div"
                   else ("*" if i else "") + _factor(f, tight)
                   for i, f in enumerate(node[1]))


def _factor(node, tight):
    text = render(node, tight)
    return f"({text})" if node[0] in ("add", "mul") else text


@settings(max_examples=150, deadline=None)
@given(expressions(), st.booleans())
def test_expansion_matches_the_polynomial_oracle(tree, tight):
    text = HF + "L = " + render(tree, tight) + "\n"
    m, diags = load_model(text)
    b = ModelBuilder("oracle", 2)
    for name, parity, arity in (("s", 0, 0), ("psi", 1, 0), ("v", 0, 1), ("w", 0, 2),
                                ("chi", 1, 1)):
        b.add_field(name, parity=parity, arity=arity, antisym=arity == 2)
    try:
        want = oracle_expand(b.table, tree)
    except OracleError as e:
        assert m is None and [d.code for d in diags] == [e.code], (text, diags)
        return
    if any(_term_parity(fs) for fs, _ in want.terms):
        # an odd Lagrangian is rejected at its statement; its expansion
        # still matches, read from the parser and the expander
        assert m is None and [d.code for d in diags] == ["E-SHAPE"], (text, diags)
        doc, _ = parse_model(text)
        lexpr, (line, col), letters = doc.lagrangian
        assert (diags[0].line, diags[0].col) == (line, col)
        ex = dsl._Expander(b.table, 2)
        if letters:
            ex.frees(lexpr)
        assert GradedPoly.from_raw(ex.eval(lexpr, {})) == want, text
        return
    assert diags == [], text
    assert m.lagrangian == want, text
