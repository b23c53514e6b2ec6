"""Exact linear algebra helpers over Fraction and Scalar matrices.

The matrices in this package are small (a Tasaki matrix at level n is
(floor(n/2)+1) square, 17x17 at n = 32).  Inversion is Gauss-Jordan
elimination over Fraction; determinants use fraction-free Bareiss
elimination over the integers, so their cost is polynomial in the size.
Scalar matrices arising from the duality pairing always carry a single
common power of pi; inversion and determinants factor that power out and
work on the rational part.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .scalar import Scalar

__all__ = [
    "invert_fraction_matrix",
    "invert_scalar_matrix",
    "scalar_matrix_det",
    "scalar_leading_minors",
    "fraction_matrix_rank",
]


def invert_fraction_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination with partial pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def _common_pi_power(rows: Sequence[Sequence[Scalar]]) -> int:
    exps = set()
    for row in rows:
        for s in row:
            if not s.is_zero:
                exps.add(s.monomial()[0])
    if len(exps) > 1:
        raise ValueError(f"mixed pi powers in matrix: {sorted(exps)}")
    return exps.pop() if exps else 0


def invert_scalar_matrix(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Exact inverse of a Scalar matrix whose entries share one pi power.

    Writes the matrix as pi^m * R with R rational and returns pi^-m * R^-1.
    Entries with several pi powers never occur for the pairing matrices this
    is used on; they are rejected as an internal-consistency failure.
    """
    m = _common_pi_power(rows)
    rational = [[s.coefficient(m) for s in row] for row in rows]
    inv = invert_fraction_matrix(rational)
    return [[Scalar.of(x, -m) for x in row] for row in inv]


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators: (integer rows, row scales)."""
    ints, scales = [], []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return ints, scales


def _bareiss(a: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968) of
    a square integer matrix, in place.

    Returns (swaps, pivots): the number of row exchanges and the pivot of
    each step.  The determinant is (-1)^swaps times the last pivot; a
    singular matrix ends with a zero pivot.  With no exchange, pivot j is
    the leading (j+1)x(j+1) minor.
    """
    size = len(a)
    swaps, prev, pivots = 0, 1, []
    for k in range(size):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, size) if a[r][k]), None)
            if r is None:
                return swaps, pivots + [0]
            a[k], a[r] = a[r], a[k]
            swaps += 1
        p = a[k][k]
        pivots.append(p)
        row_k = a[k]
        for i in range(k + 1, size):
            row_i, f = a[i], a[i][k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * p - f * row_k[j]) // prev
        prev = p
    return swaps, pivots


def _rational_part(rows: Sequence[Sequence[Scalar]]) -> tuple[int, list[list[int]], list[int]]:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    m = _common_pi_power(rows)
    ints, scales = _integer_rows([[s.coefficient(m) for s in row] for row in rows])
    return m, ints, scales


def scalar_matrix_det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a Scalar matrix whose entries share one pi power.

    Writes the matrix as pi^m * R with R rational and returns
    pi^{size*m} det R, with det R from Bareiss elimination.  Entries with
    several pi powers are rejected, as in :func:`invert_scalar_matrix`.
    """
    m, ints, scales = _rational_part(rows)
    if not ints:
        return Scalar.one()
    swaps, pivots = _bareiss(ints)
    return Scalar.of(Fraction((-1) ** swaps * pivots[-1], prod(scales)), len(ints) * m)


def scalar_leading_minors(rows: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """All leading principal minors of a Scalar matrix with one pi power.

    One Bareiss pass gives them as its pivots when no leading minor is
    zero (always so for a positive definite matrix); otherwise each minor
    is computed on its own with row exchanges.
    """
    m, ints, scales = _rational_part(rows)
    swaps, pivots = _bareiss(ints)
    if swaps or 0 in pivots:
        return [scalar_matrix_det([row[: j + 1] for row in rows[: j + 1]]) for j in range(len(rows))]
    out, den = [], 1
    for j, (p, d) in enumerate(zip(pivots, scales)):
        den *= d
        out.append(Scalar.of(Fraction(p, den), (j + 1) * m))
    return out


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by forward elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        p = a[row][col]
        for r in range(row + 1, len(a)):
            if a[r][col]:
                f = a[r][col] / p
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        rank += 1
        row += 1
        if row == len(a):
            break
    return rank
