"""Exact linear algebra on integer matrices: Bareiss leading minors
against the Leibniz sum, and the inverse and rank from the same
elimination."""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from uval.kinematic import tasaki_matrix_closed
from uval.linalg import fraction_matrix_rank, inverse, leading_minors
from uval.scalar import Scalar
from uval.sl2 import _primitive_basis_inverse, primitive_general
from uval.valuation import dim_val, q_range


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


def _over_den(rows):
    """A rational (int or Fraction) matrix as (den, ints) with rows = ints / den."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[int(x * den) for x in row] for row in rows]


def _minors(a, pi_exp):
    """The leading minors of the matrix a * pi^pi_exp, a rational, through
    the integer leading_minors."""
    den, ints = _over_den(a)
    return [Scalar.from_parts({j * pi_exp: x}, den**j) for j, x in enumerate(leading_minors(ints), 1)]


def _det(a, pi_exp):
    return _minors(a, pi_exp)[-1] if a else Scalar.one()


def _scalar_rows(a, pi_exp):
    return [[Scalar.of(x, pi_exp) for x in row] for row in a]


def _rand_matrix(rng, size, zero_share=0.3):
    return [
        [
            0 if rng.random() < zero_share else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(size)
        ]
        for _ in range(size)
    ]


def _assert_canonical(d, rows):
    assert d > 0 and gcd(d, *(x for row in rows for x in row)) == 1, (d, rows)


def test_det_matches_leibniz():
    rng = random.Random(31)
    for size in range(0, 6):
        for pi_exp in (-1, 0, 2):
            for _ in range(12):
                a = _rand_matrix(rng, size)
                assert _det(a, pi_exp) == _leibniz(_scalar_rows(a, pi_exp)), a


def test_det_of_singular_matrices():
    rng = random.Random(32)
    for size in range(2, 6):
        a = _rand_matrix(rng, size)
        a[-1] = [x + y for x, y in zip(a[0], a[1])]
        assert _det(a, 1).is_zero
    assert _det([[0] * 3 for _ in range(3)], 0).is_zero
    assert leading_minors([[0] * 3 for _ in range(3)]) == [0, 0, 0]


def test_leading_minors_match_leibniz():
    rng = random.Random(33)
    for size in range(1, 6):
        for pi_exp in (-1, 0, 1):
            for zero_share in (0.0, 0.5):
                a = _rand_matrix(rng, size, zero_share)
                rows = _scalar_rows(a, pi_exp)
                want = [_leibniz([row[: j + 1] for row in rows[: j + 1]]) for j in range(size)]
                assert _minors(a, pi_exp) == want, a


def test_leading_minors_with_zero_minor():
    # the first leading minor is zero, so the single pass does not apply
    ints = [[0, 1, 2], [1, 0, 3], [2, 3, 1]]
    rows = _scalar_rows(ints, 0)
    want = [_leibniz([row[: j + 1] for row in rows[: j + 1]]) for j in range(3)]
    assert _minors(ints, 0) == want
    assert leading_minors(ints) == [0, -1, 11]
    assert ints == [[0, 1, 2], [1, 0, 3], [2, 3, 1]]  # the input is not changed


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
    assert minors == _minors([[Fraction(x, t.den) for x in row] for row in t.rows], t.e)
    # the single pass agrees with one elimination per minor (the fallback)
    assert leading_minors(t.rows) == [
        leading_minors([row[:j] for row in t.rows[:j]])[-1] for j in range(1, t.size + 1)
    ]
    assert len(minors) == 9 and all(m.sign() > 0 for m in minors)


def test_non_square_rejected():
    for ints in ([[1, 1]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            leading_minors(ints)
        with pytest.raises(ValueError):
            inverse(1, ints)


def _invertible(rng, size, entry):
    """A random invertible matrix with zeros whose top-left entry is 0, so
    elimination has to exchange rows at its first step."""
    while True:
        rows = [[entry(rng) if rng.random() < 0.6 else 0 for _ in range(size)] for _ in range(size)]
        rows[0][0] = 0
        if not _leibniz([[Scalar.of(x) for x in row] for row in rows]).is_zero:
            return rows


def test_fraction_inverse_is_exact():
    rng = random.Random(34)
    for size in range(2, 7):
        for _ in range(10):
            a = _invertible(rng, size, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7)))
            d, inv = inverse(*_over_den(a))
            _assert_canonical(d, inv)
            for i in range(size):
                for j in range(size):
                    assert sum(a[i][t] * inv[t][j] for t in range(size)) == int(i == j) * d, a


def test_scalar_inverse_is_exact():
    rng = random.Random(35)
    for size in range(2, 7):
        for pi_exp in (-2, 0, 1):
            a = _invertible(rng, size, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7)))
            rows = _scalar_rows(a, pi_exp)
            d, inv_ints = inverse(*_over_den(a))
            _assert_canonical(d, inv_ints)
            inv = [[Scalar.from_parts({-pi_exp: x}, d) for x in row] for row in inv_ints]
            for i in range(size):
                for j in range(size):
                    total = Scalar.zero()
                    for t in range(size):
                        total = total + rows[i][t] * inv[t][j]
                    assert total == (Scalar.one() if i == j else Scalar.zero()), rows
    assert inverse(1, []) == (1, []) == inverse(7, [])


def test_singular_inverse_raises():
    rng = random.Random(36)
    for size in range(1, 7):
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(size)] for _ in range(size)]
        # the last row is a multiple of the first (the zero row when size is 1)
        a[-1] = [x * (size - 1) for x in a[0]]
        with pytest.raises(ZeroDivisionError):
            inverse(*_over_den(a))


def _eliminated_primitive_basis_inverse(n, k):
    """The inverse of the pi_{k,r} columns by elimination: linalg.inverse of
    their integer mu coordinates over the window, each row r scaled back by
    the denominator of pi_{k,r}, and the whole reduced to lowest terms."""
    cols = [(v._den, v._parts[k][0]) for v in (primitive_general(n, k, r) for r in range(dim_val(n, k)))]
    d, rows = inverse(1, [list(col) for col in zip(*(b for _, b in cols))])
    rows = [[dr * x for x in row] for (dr, _), row in zip(cols, rows)]
    g = gcd(d, *(x for row in rows for x in row))
    return d // g, tuple(tuple(x // g for x in row) for row in rows)


def test_primitive_basis_inverse_is_inverse():
    # the cached inverse times the mu coordinates of the pi_{k,r} is the identity
    for n in range(1, 11):
        for k in range(2 * n + 1):
            den, inv = _primitive_basis_inverse(n, k)
            _assert_canonical(den, inv)
            qs = q_range(n, k)
            cols = [
                [primitive_general(n, k, r).coefficient(k, q).as_fraction() for q in qs]
                for r in range(len(qs))
            ]
            for r, row in enumerate(inv):
                for s, col in enumerate(cols):
                    assert sum(x * c for x, c in zip(row, col)) == den * (r == s), (n, k, r, s)
    # the closed formula gives exactly what elimination gives
    for n in range(1, 17):
        for k in range(2 * n + 1):
            assert _primitive_basis_inverse(n, k) == _eliminated_primitive_basis_inverse(n, k), (n, k)


def test_rank_of_products_of_known_rank():
    rng = random.Random(37)

    def full_rank(rows, cols, r, tall):
        """A random integer rows x cols matrix of rank r: an r x r identity
        in r random rows (tall) or columns (wide), random entries elsewhere."""
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        picked = rng.sample(range(rows if tall else cols), r)
        for t, p in enumerate(picked):
            for u in range(r):
                if tall:
                    m[p][u] = int(t == u)
                else:
                    m[u][p] = int(t == u)
        return m

    for _ in range(60):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.3:
            m = n
        r = rng.randint(0, min(n, m))
        b, c = full_rank(n, r, r, True), full_rank(r, m, r, False)
        prod_rows = [[Fraction(sum(b[i][t] * c[t][j] for t in range(r)), i + 1) for j in range(m)] for i in range(n)]
        assert fraction_matrix_rank(prod_rows) == r, (n, m, r, prod_rows)
    assert fraction_matrix_rank([]) == 0


# TasakiMatrix.pretty() for every 0 <= k <= n <= 8, as printed when the
# record held Scalar entries only and its text was rebuilt from them.
PRETTY = {
    (1, 0): '1 * [[1]]',
    (1, 1): '2/π * [[1]]',
    (2, 0): '1 * [[1]]',
    (2, 1): '4/(3π) * [[1]]',
    (2, 2): '1/8 * [[3,-1],[-1,3]]',
    (3, 0): '1 * [[1]]',
    (3, 1): '16/(15π) * [[1]]',
    (3, 2): '1/24 * [[5,-1],[-1,5]]',
    (3, 3): '2/(27π) * [[9,-3],[-3,5]]',
    (4, 0): '1 * [[1]]',
    (4, 1): '32/(35π) * [[1]]',
    (4, 2): '1/48 * [[7,-1],[-1,7]]',
    (4, 3): '1/(45π) * [[15,-3],[-3,7]]',
    (4, 4): '1/384 * [[45,-15,9],[-15,19,-15],[9,-15,45]]',
    (5, 0): '1 * [[1]]',
    (5, 1): '256/(315π) * [[1]]',
    (5, 2): '1/80 * [[9,-1],[-1,9]]',
    (5, 3): '16/(525π) * [[7,-1],[-1,3]]',
    (5, 4): '1/640 * [[35,-7,3],[-7,11,-7],[3,-7,35]]',
    (5, 5): '1/(375π) * [[75,-25,15],[-25,27,-21],[15,-21,35]]',
    (6, 0): '1 * [[1]]',
    (6, 1): '512/(693π) * [[1]]',
    (6, 2): '1/120 * [[11,-1],[-1,11]]',
    (6, 3): '16/(2835π) * [[27,-3],[-3,11]]',
    (6, 4): '1/1920 * [[63,-9,3],[-9,17,-9],[3,-9,63]]',
    (6, 5): '4/(7875π) * [[175,-35,15],[-35,43,-27],[15,-27,63]]',
    (6, 6): '1/46080 * [[1575,-525,315,-225],[-525,511,-393,315],[315,-393,511,-525],[-225,315,-525,1575]]',
    (7, 0): '1 * [[1]]',
    (7, 1): '2048/(3003π) * [[1]]',
    (7, 2): '1/168 * [[13,-1],[-1,13]]',
    (7, 3): '256/(72765π) * [[33,-3],[-3,13]]',
    (7, 4): '1/13440 * [[297,-33,9],[-33,73,-33],[9,-33,297]]',
    (7, 5): '16/(33075π) * [[105,-15,5],[-15,21,-11],[5,-11,33]]',
    (7, 6): '1/107520 * [[1575,-315,135,-75],[-315,327,-203,135],[135,-203,327,-315],[-75,135,-315,1575]]',
    (7, 7): '2/(385875π) * [[11025,-3675,2205,-1575],[-3675,3325,-2535,2025],[2205,-2535,2889,-2835],[-1575,2025,-2835,4725]]',
    (8, 0): '1 * [[1]]',
    (8, 1): '4096/(6435π) * [[1]]',
    (8, 2): '1/224 * [[15,-1],[-1,15]]',
    (8, 3): '64/(9009π) * [[13,-1],[-1,5]]',
    (8, 4): '1/8960 * [[143,-13,3],[-13,33,-13],[3,-13,143]]',
    (8, 5): '8/(121275π) * [[495,-55,15],[-55,87,-39],[15,-39,143]]',
    (8, 6): '1/143360 * [[1155,-165,55,-25],[-165,187,-97,55],[55,-97,187,-165],[-25,55,-165,1155]]',
    (8, 7): '1/(154350π) * [[3675,-735,315,-175],[-735,675,-415,275],[315,-415,539,-495],[-175,275,-495,1155]]',
    (8, 8): '1/1146880 * [[11025,-3675,2205,-1575,1225],[-3675,3150,-2385,1900,-1575],[2205,-2385,2509,-2385,2205],[-1575,1900,-2385,3150,-3675],[1225,-1575,2205,-3675,11025]]',
}


def test_tasaki_pretty_unchanged():
    for (n, k), text in PRETTY.items():
        assert tasaki_matrix_closed(n, k).pretty() == text, (n, k)
