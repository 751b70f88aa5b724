"""Exact ``int`` linear algebra for homology windows and on-shell reduction.

A triangular span of sparse vectors and a column kernel that reduces through
such a span.  The span clears denominators once on entry (``_cleared``),
stores primitive ``int`` pivots (entries with gcd 1) and eliminates
fraction-free, so no ``Fraction`` is built per entry or step.  Scaling a
pivot does not change a remainder, so ``reduce``/``add`` return the exact
rational remainder of Gaussian elimination in the same key order; the
package's callers take the private ``(int vector, scale)`` form.  The homology
rank is a sparse row-side elimination through a span, used to cross-check the
column kernel by rank-nullity.  No tolerances exist anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping

from .algebra import _cleared


class LinearSpan:
    """Triangular basis of sparse vectors keyed by orderable coordinates."""

    def __init__(self):
        self._pivots: dict = {}   # pivot key -> primitive int vector (dict key->int)

    @property
    def pivots(self) -> Mapping:
        """Read-only view: pivot key -> stored primitive int vector."""
        return MappingProxyType(self._pivots)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: Mapping) -> dict:
        """Remainder of vec against the current basis, reduced only until its
        leading key has no pivot: the entries below depend on the stored basis,
        so remainders depend on the order of ``add`` calls.  The remainder is
        exact, and equal to that of Gaussian elimination over the rationals
        with the same pivots, since scaling a pivot does not change it."""
        out, scale = self._reduce(vec)
        return {k: Fraction(c, scale) for k, c in out.items()}

    def add(self, vec: Mapping) -> dict:
        """Insert a vector; return its exact remainder, whose primitive multiple
        is stored at its leading key, or an empty dict when vec was already in
        the span."""
        out, scale = self._add(vec)
        return {k: Fraction(c, scale) for k, c in out.items()}

    def _reduce(self, vec: Mapping) -> tuple[dict, int]:
        """(out, scale) with remainder out / scale, out an int vector.  Removing
        key k with pivot p takes out to (p[k]/g)*out - (out[k]/g)*p, g the gcd
        of p[k] and out[k]."""
        nums, scale = _cleared(vec.items())
        out = dict(nums)
        pivots = self._pivots
        while out:
            k = max(out)
            piv = pivots.get(k)
            if piv is None:
                break
            a, f = piv[k], out[k]
            if f % a:
                g = gcd(a, f)
                a //= g
                f //= g
                scale *= a
                for key in out:
                    out[key] *= a
            else:
                f //= a
            for key, c in piv.items():
                nv = out.get(key, 0) - f * c
                if nv:
                    out[key] = nv
                else:
                    del out[key]
        return out, scale

    def _add(self, vec: Mapping) -> tuple[dict, int]:
        out, scale = self._reduce(vec)
        if out:
            self._store(out)
        return out, scale

    def _store(self, out: dict) -> None:
        """Store the primitive part of a nonzero int vector at its leading key."""
        g = gcd(*out.values())
        self._pivots[max(out)] = {k: c // g for k, c in out.items()} if g != 1 else out


def kernel_of_columns(columns: Iterable[Mapping]) -> list[dict[int, int | Fraction]]:
    """Nullspace of sparse columns whose row keys are non-negative ints: x
    over column indices with sum_j x[j] * col_j = 0, and x[j] = 1 at its
    last column j.  A view of ``_kernel``: exact entries, ints when the scale
    is 1 or -1."""
    return [{j: c * s if s * s == 1 else Fraction(c, s) for j, c in vec.items()}
            for vec, s in _kernel(columns)]


def _kernel(columns: Iterable[Mapping]) -> list[tuple[dict[int, int], int]]:
    """(vec, scale) per kernel vector vec / scale of ``kernel_of_columns``,
    vec an int vector.  Column j is reduced through a span with its
    combination tagged at key ~j, below every row key: a remainder led by a
    row key is a new pivot, one led by a tag is a kernel vector.  No pivot
    holds ~j, so the remainder's entry there is its scale."""
    span = LinearSpan()
    kernel = []
    for j, col in enumerate(columns):
        rem, s = span._reduce({**col, ~j: 1})
        if max(rem) >= 0:
            span._store(rem)
        else:
            kernel.append(({~i: c for i, c in rem.items()}, s))
    return kernel


def rank_fraction_free(rows: list[list]) -> int:
    """Rank of a dense matrix by fraction-free elimination of its rows.  The
    package does not call it; the benchmark's tracer wraps it by name."""
    span = LinearSpan()
    for row in rows:
        span._add(dict(enumerate(row)))
    return span.rank
