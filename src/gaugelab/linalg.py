"""Exact rational linear algebra for the homology windows.

A triangular span of sparse Fraction vectors (membership, ranks, canonical
remainders) and a column kernel.  The homology rank is a sparse row-side
elimination through the span, used only to cross-check the column kernel by
rank-nullity.  The dense fraction-free rank is no longer called by the
package; it stays because the benchmark's tracer wraps it by name.  No
tolerances exist anywhere: every pivot decision is an exact zero test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

_F0 = Fraction(0)


class LinearSpan:
    """Triangular basis of sparse vectors keyed by orderable coordinates."""

    def __init__(self):
        self._pivots: dict = {}   # pivot key -> reduced vector (dict key->Fraction)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: Mapping) -> dict:
        """Remainder of vec against the current triangular basis."""
        out = {k: Fraction(c) for k, c in vec.items() if c != 0}
        while out:
            k = max(out)
            piv = self._pivots.get(k)
            if piv is None:
                return out
            f = out[k] / piv[k]
            for kk, cc in piv.items():
                nv = out.get(kk, _F0) - f * cc
                if nv == 0:
                    out.pop(kk, None)
                else:
                    out[kk] = nv
        return out

    def add(self, vec: Mapping) -> bool:
        """Insert a vector; True when it enlarged the span."""
        rem = self.reduce(vec)
        if not rem:
            return False
        self._pivots[max(rem)] = rem
        return True


def kernel_of_columns(columns: Iterable[Mapping]) -> list[dict[int, Fraction]]:
    """Nullspace combinations of a list of sparse column vectors.

    Returns vectors over column indices: x with sum_j x[j] * col_j = 0.
    """
    pivots: dict = {}          # pivot key -> (vector, combination)
    kernel: list[dict[int, Fraction]] = []
    for j, col in enumerate(columns):
        vec = {k: Fraction(c) for k, c in col.items() if c != 0}
        combo = {j: Fraction(1)}
        while vec:
            k = max(vec)
            piv = pivots.get(k)
            if piv is None:
                pivots[k] = (vec, combo)
                break
            pvec, pcombo = piv
            f = vec[k] / pvec[k]
            for kk, cc in pvec.items():
                nv = vec.get(kk, _F0) - f * cc
                if nv == 0:
                    vec.pop(kk, None)
                else:
                    vec[kk] = nv
            for kk, cc in pcombo.items():
                nv = combo.get(kk, _F0) - f * cc
                if nv == 0:
                    combo.pop(kk, None)
                else:
                    combo[kk] = nv
        else:
            kernel.append(combo)
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
