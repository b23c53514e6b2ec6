"""Exact determinants: Bareiss elimination against the Leibniz sum."""

import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from uval.kinematic import tasaki_matrix_closed
from uval.linalg import scalar_leading_minors, scalar_matrix_det
from uval.scalar import Scalar


def _leibniz(rows):
    """The determinant as the signed sum over all permutations."""
    total = Scalar.zero()
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = Scalar.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term if inversions % 2 == 0 else total - term
    return total


def _rand_matrix(rng, size, pi_exp, zero_share=0.3):
    return [
        [
            Scalar.zero()
            if rng.random() < zero_share
            else Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 7)), pi_exp)
            for _ in range(size)
        ]
        for _ in range(size)
    ]


def test_det_matches_leibniz():
    rng = random.Random(31)
    for size in range(0, 6):
        for pi_exp in (-1, 0, 2):
            for _ in range(12):
                rows = _rand_matrix(rng, size, pi_exp)
                assert scalar_matrix_det(rows) == _leibniz(rows), rows


def test_det_of_singular_matrices():
    rng = random.Random(32)
    for size in range(2, 6):
        rows = _rand_matrix(rng, size, 1)
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        assert scalar_matrix_det(rows).is_zero
    assert scalar_matrix_det([[Scalar.zero()] * 3 for _ in range(3)]).is_zero


def test_leading_minors_match_leibniz():
    rng = random.Random(33)
    for size in range(1, 6):
        for pi_exp in (-1, 0, 1):
            for zero_share in (0.0, 0.5):
                rows = _rand_matrix(rng, size, pi_exp, zero_share)
                want = [_leibniz([row[: j + 1] for row in rows[: j + 1]]) for j in range(size)]
                assert scalar_leading_minors(rows) == want, rows


def test_leading_minors_with_zero_minor():
    # the first leading minor is zero, so the single pass does not apply
    rows = [[Scalar.of(a) for a in row] for row in ([0, 1, 2], [1, 0, 3], [2, 3, 1])]
    want = [_leibniz([row[: j + 1] for row in rows[: j + 1]]) for j in range(3)]
    assert scalar_leading_minors(rows) == want


def test_tasaki_leading_minors_match_leibniz():
    for n in range(1, 9):
        for k in range(n + 1):
            t = tasaki_matrix_closed(n, k)
            rows = [list(r) for r in t.entries]
            want = [_leibniz([row[: j + 1] for row in rows[: j + 1]]) for j in range(t.size)]
            assert t.leading_minor_dets() == want, (n, k)


def test_tasaki_leading_minors_are_fast():
    t = tasaki_matrix_closed(18, 16)
    start = time.perf_counter()
    minors = t.leading_minor_dets()
    assert time.perf_counter() - start < 0.5
    # the single pass agrees with one determinant per minor (the fallback)
    rows = t.entries
    assert minors == [
        scalar_matrix_det([row[: j + 1] for row in rows[: j + 1]]) for j in range(t.size)
    ]
    assert len(minors) == 9 and all(m.sign() > 0 for m in minors)


def test_mixed_pi_powers_rejected():
    rows = [[Scalar.one(), Scalar.pi()], [Scalar.pi(), Scalar.one()]]
    with pytest.raises(ValueError):
        scalar_matrix_det(rows)
    with pytest.raises(ValueError):
        scalar_matrix_det([[Scalar.one(), Scalar.one()]])
