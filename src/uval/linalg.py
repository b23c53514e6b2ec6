"""Exact linear algebra on integer matrices.

Every matrix of the exact core is an integer matrix times one power of
pi over one denominator, and callers pass the integers alone; a Tasaki
matrix at level n is (floor(n/2)+1) square, 17x17 at n = 32.
:func:`inverse`, :func:`leading_minors` and :func:`fraction_matrix_rank`
run the single fraction-free elimination :func:`_bareiss` (Bareiss,
Math. Comp. 22, 1968) on integer rows: forward for leading minors and
rank, and Gauss-Jordan on [A | I] for the inverse, whose right block
ends as det * A^-1, at a cost polynomial in the size and with no
Fraction in the loop.  :func:`inverse` has one caller, the Tasaki
oracle; production reads closed inverses (checked by T M = I).
:func:`leading_minors` serves TasakiMatrix.leading_minor_dets, and
:func:`fraction_matrix_rank` a check in :mod:`uval.checks`.
:mod:`uval.kinematic` imports this module only inside the oracle and
the leading minors, so its closed paths never run it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = ["inverse", "leading_minors", "fraction_matrix_rank"]


def _bareiss(a: list[list[int]], ncols: int, jordan: bool = False) -> tuple[int, list[int]]:
    """Fraction-free elimination of the integer rows a, in place.

    Pivots are taken column by column from the first ncols columns; a
    column with no nonzero entry at or below the current row is skipped.
    Each pivot eliminates the rows below it, and with ``jordan`` the rows
    above it as well.  Every division is exact.

    Returns (swaps, pivots): the number of row exchanges and the pivot of
    each step, so len(pivots) is the rank of the first ncols columns.  For
    a square matrix of full rank the determinant is (-1)^swaps times the
    last pivot, and with no exchange pivot j is the leading (j+1)x(j+1)
    minor.  Jordan elimination of [A | I] with A of full rank leaves the
    last pivot times A^-1 in the right block.
    """
    nrows = len(a)
    swaps, prev, pivots = 0, 1, []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if a[r][c] == 0:
            s = next((s for s in range(r + 1, nrows) if a[s][c]), None)
            if s is None:
                continue
            a[r], a[s] = a[s], a[r]
            swaps += 1
        p = a[r][c]
        pivots.append(p)
        row_r = a[r]
        width = len(row_r)
        for i in range(nrows) if jordan else range(r + 1, nrows):
            if i == r:
                continue
            row_i, f = a[i], a[i][c]
            for j in range(c + 1, width):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
    return swaps, pivots


def _check_square(ints: Sequence[Sequence[int]]) -> None:
    if any(len(row) != len(ints) for row in ints):
        raise ValueError("matrix is not square")


def inverse(den: int, ints: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """The inverse of the square matrix ints / den as (d, rows): entry
    (i, j) is rows[i][j] / d, with d > 0 and no common factor of d and
    all entries.

    Jordan elimination of [ints | I].  A singular matrix raises
    ZeroDivisionError and a non-square one ValueError.
    """
    _check_square(ints)
    size = len(ints)
    a = [[*row, *(int(i == j) for j in range(size))] for i, row in enumerate(ints)]
    _, pivots = _bareiss(a, size, jordan=True)
    if len(pivots) < size:
        raise ZeroDivisionError("matrix is singular")
    d = pivots[-1] if pivots else 1
    rows = [[x * den for x in row[size:]] for row in a]
    g = gcd(d, *(x for row in rows for x in row))
    g = g if d > 0 else -g
    return d // g, [[x // g for x in row] for row in rows]


def leading_minors(ints: Sequence[Sequence[int]]) -> list[int]:
    """All leading principal minors of a square integer matrix.

    One Bareiss pass gives them as its pivots when it needs no row
    exchange (always so for a positive definite matrix); otherwise, when
    some leading minor is zero, each minor is eliminated on its own.
    A non-square matrix raises ValueError.
    """
    _check_square(ints)
    size = len(ints)
    swaps, pivots = _bareiss([list(row) for row in ints], size)
    if not swaps and len(pivots) == size:
        return pivots
    minors = []
    for j in range(1, size + 1):
        swaps, pivots = _bareiss([list(row[:j]) for row in ints[:j]], j)
        minors.append((-1) ** swaps * pivots[-1] if len(pivots) == j else 0)
    return minors


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction-free forward elimination of the rows times
    the lcm of their denominators (int entries are accepted as well)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return len(_bareiss(ints, len(ints[0]) if ints else 0)[1])
