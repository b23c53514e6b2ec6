"""Exact linear algebra helpers over Fraction and Scalar matrices.

The matrices in this package are small (a Tasaki matrix at level n is
(floor(n/2)+1) square, 17x17 at n = 32).  Every routine clears its input
to one integer matrix over a common denominator and runs the single
fraction-free elimination :func:`_bareiss` (Bareiss, Math. Comp. 22,
1968) on it: forward for determinants, leading minors and rank, and
Gauss-Jordan on [A | I] for the inverse, whose right block ends as
det * A^-1.  Its cost is polynomial in the size and no Fraction enters
the loop.  Scalar matrices arising from the duality pairing always carry
a single common power of pi; :func:`pi_block` factors it out as
(pi exponent, common denominator, integer rows).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .scalar import Scalar

__all__ = [
    "invert_fraction_matrix",
    "invert_scalar_matrix",
    "scalar_matrix_det",
    "scalar_leading_minors",
    "fraction_matrix_rank",
    "pi_block",
]


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


def _clear(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(den, ints) with rows[i][j] = ints[i][j] / den, den the lcm of all
    denominators; int entries are accepted as well."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def pi_block(rows: Sequence[Sequence[Scalar]]) -> tuple[int, int, list[list[int]]]:
    """A Scalar matrix with one pi power as (m, den, ints): entry (i, j) is
    ints[i][j] * pi^m / den, den the lcm of the rational denominators.

    A zero matrix has m = 0.  An entry with several pi powers, or entries
    with different ones, raise ValueError.
    """
    exps = {s.monomial()[0] for row in rows for s in row if s}
    if len(exps) > 1:
        raise ValueError(f"mixed pi powers in matrix: {sorted(exps)}")
    (m,) = exps or {0}
    return (m, *_clear([[s.coefficient(m) for s in row] for row in rows]))


def _check_square(rows: Sequence[Sequence]) -> None:
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")


def _inverse(den: int, ints: list[list[int]]) -> list[list[Fraction]]:
    """The inverse of ints / den, by Jordan elimination of [ints | I]."""
    size = len(ints)
    a = [row + [int(i == j) for j in range(size)] for i, row in enumerate(ints)]
    _, pivots = _bareiss(a, size, jordan=True)
    if len(pivots) < size:
        raise ZeroDivisionError("matrix is singular")
    d = pivots[-1] if pivots else 1
    return [[Fraction(x * den, d) for x in row[size:]] for row in a]


def invert_fraction_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by fraction-free Gauss-Jordan elimination."""
    _check_square(rows)
    return _inverse(*_clear(rows))


def invert_scalar_matrix(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Exact inverse of a Scalar matrix whose entries share one pi power.

    Writes the matrix as pi^m * R with R rational and returns pi^-m * R^-1.
    Entries with several pi powers never occur for the pairing matrices this
    is used on; they are rejected as an internal-consistency failure.
    """
    _check_square(rows)
    m, den, ints = pi_block(rows)
    return [[Scalar.of(x, -m) for x in row] for row in _inverse(den, ints)]


def scalar_matrix_det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a Scalar matrix whose entries share one pi power.

    Writes the matrix as pi^m * R with R rational and returns
    pi^{size*m} det R, with det R from Bareiss elimination.  Entries with
    several pi powers are rejected, as in :func:`invert_scalar_matrix`.
    """
    _check_square(rows)
    m, den, ints = pi_block(rows)
    size = len(ints)
    if not size:
        return Scalar.one()
    swaps, pivots = _bareiss(ints, size)
    if len(pivots) < size:
        return Scalar.zero()
    return Scalar.of(Fraction((-1) ** swaps * pivots[-1], den**size), size * m)


def scalar_leading_minors(rows: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """All leading principal minors of a Scalar matrix with one pi power.

    One Bareiss pass gives them as its pivots when no leading minor is
    zero (always so for a positive definite matrix); otherwise each minor
    is computed on its own with row exchanges.
    """
    _check_square(rows)
    m, den, ints = pi_block(rows)
    swaps, pivots = _bareiss(ints, len(ints))
    if swaps or len(pivots) < len(ints):
        return [scalar_matrix_det([row[: j + 1] for row in rows[: j + 1]]) for j in range(len(rows))]
    return [Scalar.of(Fraction(p, den ** (j + 1)), (j + 1) * m) for j, p in enumerate(pivots)]


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction-free forward elimination."""
    _, ints = _clear(rows)
    return len(_bareiss(ints, len(ints[0]) if ints else 0)[1])
