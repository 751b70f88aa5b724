"""The integer span and column kernel against a Fraction reference: equal
pivot keys and ranks, and exactly equal remainders and kernel vectors."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.linalg import LinearSpan, _kernel, kernel_of_columns
from support import FractionSpan, fraction_kernel

# tall numerators and denominators, small ones, and plain ints
TALL = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20))
SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
VALUES = st.one_of(TALL, SMALL, st.integers(-3, 3))


@st.composite
def sparse_vectors(draw, keys=range(-2, 7)):
    """Sparse rational vectors over a few keys, with zero entries, and with
    scaled copies and sums of earlier vectors mixed in."""
    vectors = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "fresh", "scaled", "sum"]))
        if kind == "fresh" or not vectors:
            vec = draw(st.dictionaries(st.sampled_from(keys), VALUES, max_size=6))
        elif kind == "scaled":
            f = draw(VALUES.filter(bool))
            vec = {k: f * c for k, c in draw(st.sampled_from(vectors)).items()}
        else:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            f = draw(VALUES)
            vec = {k: a.get(k, 0) + f * b.get(k, 0) for k in {*a, *b}}
        vectors.append(vec)
    return vectors


@settings(max_examples=150, deadline=None)
@given(sparse_vectors(), st.lists(st.booleans(), min_size=12, max_size=12))
def test_integer_span_matches_fraction_span(vectors, adds):
    span, ref = LinearSpan(), FractionSpan()
    for vec, add in zip(vectors, adds):
        if add:
            assert span.add(vec) == ref.add(vec)
        else:
            assert span.reduce(vec) == ref.reduce(vec)
        assert list(span.pivots) == list(ref.pivots)
        assert span.rank == len(ref.pivots)
    for vec in vectors:
        assert span.reduce(vec) == ref.reduce(vec)
        assert all(type(c) is Fraction for c in span.reduce(vec).values())


@settings(max_examples=150, deadline=None)
@given(sparse_vectors(keys=range(6)))
def test_integer_kernel_matches_fraction_kernel(columns):
    kernel = kernel_of_columns(columns)
    assert kernel == fraction_kernel(columns)
    # the int form: vec / scale, scale the entry at the vector's last column
    pairs = _kernel(columns)
    assert [{j: Fraction(c, s) for j, c in vec.items()} for vec, s in pairs] == kernel
    for vec, s in pairs:
        assert all(type(c) is int and c for c in vec.values()) and vec[max(vec)] == s
    for x in kernel:
        assert not any(sum(c * columns[j].get(r, 0) for j, c in x.items()) for r in range(6))
