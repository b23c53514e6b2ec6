"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every identity is checked by exact Scalar equality; tolerances appear only
in the Monte-Carlo criterion (4 standard errors at 10^6 samples) and the
numeric Klain evaluation (1e-9).  Criteria 1, 2 and 11 carry runtime
budgets which are asserted, not just observed.
"""

import random
import time
from fractions import Fraction

from uval.checks import check_bezout, check_klain_delta_numeric
from uval.cones import (
    first_variation,
    in_cone,
    is_monotone,
    is_positive,
)
from uval.kinematic import (
    additive_kinematic,
    cpn_normalize,
    kinematic,
    pairing_pd,
    primitive_pairing_closed,
    principal_kinematic,
    tasaki_matrix_closed,
    tasaki_matrix_oracle,
)
from uval.linalg import fraction_matrix_rank
from uval.poly import GradedPoly, f_closed, f_recursive
from uval.scalar import Scalar, double_factorial, factorial
from uval.sl2 import apply_H, apply_L, apply_Lambda, primitive_general
from uval.valuation import (
    Valuation,
    fourier,
    from_monomial,
    mu,
    q_range,
    tau,
)


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_printed_tasaki_matrices():
    t0 = time.perf_counter()
    for n in range(2, 9):
        t = tasaki_matrix_closed(n, 2)
        pref = Scalar.of(Fraction(1, 4 * n * (n - 1)))
        grid = [[2 * n - 1, -1], [-1, 2 * n - 1]]
        for i in range(2):
            for j in range(2):
                assert t[i, j] == pref * grid[i][j], (n, 2, i, j)
    for n in range(3, 9):
        t = tasaki_matrix_closed(n, 3)
        pref = Scalar.of(
            Fraction(2 ** (n - 2) * factorial(n - 3), n * double_factorial(2 * n - 3)),
            -1,
        )
        grid = [[Fraction(2 * n - 3), Fraction(-1)], [Fraction(-1), Fraction(2 * n - 1, 3)]]
        for i in range(2):
            for j in range(2):
                assert t[i, j] == pref * grid[i][j], (n, 3, i, j)
    for n in range(4, 9):
        t = tasaki_matrix_closed(n, 4)
        pref = Scalar.of(Fraction(factorial(n - 4), 16 * factorial(n)))
        grid = [
            [3 * (2 * n - 5) * (2 * n - 3), -3 * (2 * n - 3), 9],
            [-3 * (2 * n - 3), 2 * n * n - 4 * n + 3, -3 * (2 * n - 3)],
            [9, -3 * (2 * n - 3), 3 * (2 * n - 5) * (2 * n - 3)],
        ]
        for i in range(3):
            for j in range(3):
                assert t[i, j] == pref * grid[i][j], (n, 4, i, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 exceeded 1 s: {elapsed:.2f}s"
    _report(1, f"T^n_2, T^n_3, T^n_4 match their closed forms for n <= 8 ({elapsed:.2f}s)")


def test_criterion_02_closed_equals_oracle():
    t0 = time.perf_counter()
    pairs = 0
    for n in range(1, 7):
        for k in range(0, n + 1):
            assert (
                tasaki_matrix_closed(n, k).entries == tasaki_matrix_oracle(n, k).entries
            ), (n, k)
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 2 exceeded 30 s: {elapsed:.2f}s"
    _report(2, f"sum route == Gram-inverse route for {pairs} matrices, n <= 6 ({elapsed:.2f}s)")


def test_criterion_03_relations():
    for k in range(1, 17):
        assert f_recursive(k) == f_closed(k), k
    for n in range(1, 7):
        for shift in (1, 2):
            f = f_closed(n + shift)
            bound = 2 * n - (n + shift)
            for a in range(bound + 1):
                for b in range((bound - a) // 2 + 1):
                    assert from_monomial(n, GradedPoly.monomial(a, b) * f).is_zero, (
                        n,
                        shift,
                        a,
                        b,
                    )
    _report(3, "f_k routes agree (k <= 16) and (f_{n+1}, f_{n+2}) dies in the quotient, n <= 6")


def test_criterion_04_sl2_suite():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            for q in q_range(n, k):
                v = mu(n, k, q)
                assert apply_L(apply_Lambda(v)) - apply_Lambda(apply_L(v)) == apply_H(v)
                assert apply_H(apply_L(v)) - apply_L(apply_H(v)) == apply_L(v) * 2
                assert apply_H(apply_Lambda(v)) - apply_Lambda(apply_H(v)) == apply_Lambda(v) * (-2)
    for n in range(1, 7):
        for k in range(0, n + 1):
            qs = list(q_range(n, k))
            target = list(q_range(n, 2 * n - k))
            cols = []
            for q in qs:
                w = mu(n, k, q)
                for _ in range(2 * n - 2 * k):
                    w = apply_L(w)
                cols.append([w.coefficient(2 * n - k, t).as_fraction() for t in target])
            matrix = [[cols[c][r] for c in range(len(cols))] for r in range(len(target))]
            assert fraction_matrix_rank(matrix) == len(qs) == len(target), (n, k)
    for n in range(1, 7):
        for r in range(0, n // 2 + 1):
            for k in range(2 * r, 2 * n - 2 * r + 1):
                pk = primitive_general(n, k, r)
                want = primitive_general(n, 2 * n - k, r) * Fraction(
                    factorial(k - 2 * r), factorial(2 * n - 2 * r - k)
                )
                assert fourier(pk) == want, (n, k, r)
    _report(4, "sl(2) commutators, hard Lefschetz bijectivity and the magic formula hold, n <= 6")


def test_criterion_05_primitive_pairing():
    for n in range(1, 6):
        for k in range(0, 2 * n + 1):
            top = min(k, 2 * n - k) // 2
            for r in range(top + 1):
                pk = primitive_general(n, k, r)
                assert primitive_pairing_closed(n, k, r) == pairing_pd(pk, fourier(pk)), (n, k, r)
                for s in range(top + 1):
                    if s != r:
                        assert pairing_pd(
                            pk, primitive_general(n, 2 * n - k, s)
                        ).is_zero, (n, k, r, s)
    _report(5, "closed primitive pairing equals the product route and off-diagonal pairings vanish, n <= 5")


def test_criterion_06_palindrome_and_positivity():
    for n in range(1, 9):
        for k in range(0, n + 1, 2):
            t = tasaki_matrix_closed(n, k)
            l = k // 2
            for i in range(l + 1):
                for j in range(l + 1):
                    assert t[i, j] == t[l - i, l - j], (n, k, i, j)
    for n in range(1, 7):
        for k in range(0, n + 1):
            for minor in tasaki_matrix_closed(n, k).leading_minor_dets():
                assert minor.sign() > 0, (n, k)
    _report(6, "palindrome symmetry (even k <= n <= 8) and positive leading minors (n <= 6)")


def test_criterion_07_planar_blaschke():
    pk = principal_kinematic(1)
    assert pk.bidegrees() == [(0, 2), (1, 1), (2, 0)]
    assert pk.block(0, 2) == ((Scalar.one(),),)
    assert pk.block(2, 0) == ((Scalar.one(),),)
    assert pk.block(1, 1) == ((Scalar.of(2) / Scalar.pi(1),),)
    _report(7, "k(chi) at n = 1 is chi@vol + vol@chi + (2/pi) mu_1@mu_1 exactly")


def test_criterion_08_worked_examples():
    grid = [[30, -6], [-3, 7], [0, 0]]
    # the paper's length matrix carries the CP^4 probability factor 4!/pi^4,
    # so it is the CP^n-normalised block of the kinematic tensor
    block = cpn_normalize(kinematic(4, tau(4, 1, 0))).block(4, 5)
    for i in range(3):
        for j in range(2):
            assert block[i][j] == Scalar.of(Fraction(grid[i][j], 5), -4), (i, j)
    block34 = additive_kinematic(4, tau(4, 7, 0)).block(3, 4)
    for i in range(2):
        for j in range(3):
            assert block34[i][j] == Scalar.of(Fraction(grid[j][i], 120)), (i, j)
    _report(8, "length kinematic block (1/(5 pi^4))[[30,-6],[-3,7],[0,0]] and additive (1/120){30,-6,-3,7}")


def test_criterion_09_bezout():
    check_bezout("full")
    _report(9, "Bezout contraction returns exactly 1 for (2,1,1), (3,1,2), (3,2,1), (4,1,3), (4,2,2)")


def test_criterion_10_cones():
    for n in range(2, 7):
        v = mu(n, n, 0)
        assert is_positive(v).member and not is_monotone(v).member, n
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            assert is_monotone(tau(n, k, 0)).member, (n, k)
    rng = random.Random(2024)
    samples = 10_000
    checked = 0
    for n in range(1, 5):
        for k in range(0, 2 * n + 1):
            qs = list(q_range(n, k))
            for _ in range(samples):
                v = Valuation(n, {(k, q): rng.randint(-4, 4) for q in qs})
                in_cp = in_cone(v, "CP")
                in_m = in_cone(v, "M")
                in_p = in_cone(v, "P")
                assert (not in_cp) or in_m, (n, k)
                assert (not in_m) or in_p, (n, k)
                if k >= 1:
                    via_delta = (
                        first_variation(n, v).all_nonnegative()
                        and v.coefficient(0, 0).sign() >= 0
                    )
                    assert in_m == via_delta, (n, k)
                checked += 1
    _report(10, f"cone chain CP <= M <= P and delta-sign test on {checked} random vectors, n <= 4")


def test_criterion_11_monte_carlo():
    from uval.grassmann import Frame, mc_crofton

    t0 = time.perf_counter()
    e_c = Frame.model(2, 2, 1)
    e_l = Frame.model(2, 2, 0)
    cases = [
        ("complex", e_c, e_c.complement(), 1001, "1/2"),
        ("lagrangian", e_l, e_l.complement(), 1002, "3/8"),
        ("mixed", e_c, e_l.complement(), 1003, "1/4"),
    ]
    sigmas = []
    for name, e, f, seed, want in cases:
        r = mc_crofton(2, 2, e, f, 1_000_000, seed=seed, threads=4)
        assert str(r.prediction_exact) == want, name
        assert r.sigma < 4, (name, r.sigma)
        sigmas.append(f"{name} {r.sigma:.2f}")
        if name == "complex":
            # the analytic Haar moment: E|g_21|^2 = 1/2
            assert r.prediction_exact == Scalar.of(Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 11 exceeded 60 s: {elapsed:.1f}s"
    _report(11, f"3 x 10^6 Monte-Carlo samples within 4 stderr ({'; '.join(sigmas)}; {elapsed:.1f}s)")


def test_criterion_12_klain_delta_numeric():
    check_klain_delta_numeric("full")
    _report(12, "Klain delta relations hold numerically to 1e-9 for all model planes, k <= n <= 4")
