"""Exact rational linear algebra for the homology windows.

A triangular span of sparse Fraction vectors (membership, ranks,
remainders) and a column kernel that reduces through such a span.  The
homology rank is a sparse row-side elimination through the span, used only
to cross-check the column kernel by rank-nullity.  The dense fraction-free
rank is no longer called by the package; it stays because the benchmark's
tracer wraps it by name.  No tolerances exist anywhere: every pivot decision
is an exact zero test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping

from .algebra import _fraction


def _subtract(vec: dict, f: Fraction, piv: Mapping) -> None:
    """vec -= f * piv in place, dropping entries that cancel to zero.

    f and the entries of piv are nonzero, so a first insert is never zero.
    """
    g = -f
    for k, c in piv.items():
        prev = vec.get(k)
        if prev is None:
            vec[k] = g * c
            continue
        nv = prev + g * c
        if nv == 0:
            del vec[k]
        else:
            vec[k] = nv


class LinearSpan:
    """Triangular basis of sparse vectors keyed by orderable coordinates."""

    def __init__(self):
        self._pivots: dict = {}   # pivot key -> reduced vector (dict key->Fraction)

    @property
    def pivots(self) -> Mapping:
        """Read-only view: pivot key -> stored reduced vector."""
        return MappingProxyType(self._pivots)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: Mapping) -> dict:
        """Remainder of vec against the current basis, reduced only until its
        leading key has no pivot: the entries below depend on the stored basis,
        so remainders depend on the order of ``add`` calls."""
        out = {k: _fraction(c) for k, c in vec.items() if c != 0}
        while out:
            k = max(out)
            piv = self._pivots.get(k)
            if piv is None:
                return out
            _subtract(out, out[k] / piv[k], piv)
        return out

    def add(self, vec: Mapping) -> dict:
        """Insert a vector; return the remainder stored at its leading key, or
        an empty dict when vec was already in the span."""
        rem = self.reduce(vec)
        if rem:
            self._pivots[max(rem)] = rem
        return rem


def kernel_of_columns(columns: Iterable[Mapping]) -> list[dict[int, Fraction]]:
    """Nullspace combinations of a list of sparse column vectors whose row
    keys are non-negative ints.

    Returns vectors over column indices: x with sum_j x[j] * col_j = 0.
    Column j is reduced through a span with its combination tagged at key
    ~j, below every row key: a remainder led by a row key is a new pivot, and
    one led by a tag is the kernel vector {~i: c}.
    """
    span = LinearSpan()
    kernel: list[dict[int, Fraction]] = []
    for j, col in enumerate(columns):
        rem = span.reduce({**col, ~j: 1})
        k = max(rem)
        if k >= 0:
            span._pivots[k] = rem
        else:
            kernel.append({~i: c for i, c in rem.items()})
    return kernel


def rank_fraction_free(rows: list[list]) -> int:
    """Rank by Bareiss fraction-free elimination on an integer copy."""
    if not rows:
        return 0
    m = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        m.append([int(x * den) for x in fr])
    nrows = len(m)
    ncols = len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nrows):
            if all(x == 0 for x in m[r][c:]):
                continue
            for cc in range(c + 1, ncols):
                m[r][cc] = (m[r][cc] * m[rank][c] - m[r][c] * m[rank][cc]) // prev
            m[r][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank
