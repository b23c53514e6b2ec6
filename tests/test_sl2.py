"""The sl(2) operators, primitive basis and Lefschetz decomposition."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest

import uval.linalg

from uval.checks import (
    check_L_is_multiplication,
    check_hard_lefschetz,
    check_iterated_commutators,
    check_lambda_normalization,
    check_lefschetz_decomposition,
    check_primitive_elements,
    check_sl2_commutators,
)
from uval.scalar import Scalar, factorial
from uval.sl2 import (
    Sl2Operator,
    _primitive_basis_inverse,
    _primitive_tau_coeffs,
    apply_H,
    apply_L,
    apply_Lambda,
    lefschetz_decompose,
    primitive,
    primitive_general,
    reconstruct,
)
from uval.valuation import (
    Valuation,
    chi,
    mu,
    q_range,
    tau,
    vol,
)


def test_L_examples():
    assert apply_L(tau(3, 2, 0)) == tau(3, 3, 0) * 3
    # on the mu basis: L mu_{k,q} = 2(q+1) mu_{k+1,q+1} + (k-2q+1) mu_{k+1,q},
    # with the out-of-range mu_{3,2} dropped at n = 3
    assert apply_L(mu(3, 2, 1)) == mu(3, 3, 1)
    assert apply_L(mu(4, 3, 1)) == mu(4, 4, 2) * 4 + mu(4, 4, 1) * 2
    assert apply_L(vol(2)).is_zero


def test_Lambda_examples():
    assert apply_Lambda(mu(2, 2, 1)) == mu(2, 1, 0)
    for n in (2, 3, 5):
        assert apply_Lambda(tau(n, 2, 1)) == tau(n, 1, 0)
    assert apply_Lambda(chi(3)).is_zero


def test_H_examples():
    assert apply_H(chi(3)) == chi(3) * (-6)
    assert apply_H(mu(3, 3, 1)).is_zero
    assert apply_H(vol(3)) == vol(3) * 6


def test_operator_dispatch():
    v = tau(2, 2, 0)
    assert Sl2Operator("L").apply(v) == apply_L(v)
    assert Sl2Operator("Lambda").apply(v) == apply_Lambda(v)
    assert Sl2Operator("H").apply(v) == apply_H(v)
    with pytest.raises(ValueError):
        Sl2Operator("X")


def test_commutators_on_basis():
    check_sl2_commutators("full")


def test_iterated_commutators():
    check_iterated_commutators("full")


def test_hard_lefschetz_bijective():
    check_hard_lefschetz("full")


def test_primitive_base_cases():
    for n in range(1, 7):
        assert primitive(n, 0) == chi(n)
        if n >= 2:
            assert primitive(n, 1) == tau(n, 2, 1) - tau(n, 2, 0) * Fraction(
                1, 2 * n - 1
            )
    with pytest.raises(ValueError):
        primitive(3, 2)  # 2r > n


def test_primitive_general_two_routes():
    # primitivity, L^(k-2r) pi_{2r} against the closed pi_{k,r}, and the
    # magic formula, for n <= 6
    check_primitive_elements("full")
    with pytest.raises(ValueError):
        primitive_general(3, 6, 1)  # k > 2n - 2r


def test_pi_k0_is_scaled_intrinsic_volume():
    for n in (2, 4):
        for k in range(0, 2 * n + 1):
            assert primitive_general(n, k, 0) == tau(n, k, 0) * factorial(k)


def test_lambda_matches_derivative_normalization():
    check_lambda_normalization("full")


def test_L_is_renormalized_multiplication():
    check_L_is_multiplication("full")


def test_lefschetz_decompose_examples():
    # tau_{2,1} at n = 2 splits as pi_{2,1} + (1/6) pi_{2,0}
    parts = lefschetz_decompose(tau(2, 2, 1))
    assert parts == [
        (2, 0, Scalar.of(Fraction(1, 6))),
        (2, 1, Scalar.one()),
    ]
    assert reconstruct(2, parts) == tau(2, 2, 1)
    assert lefschetz_decompose(Valuation.zero(3)) == []
    for n in (2, 3):
        for k in range(0, 2 * n + 1):
            for r in range(0, min(k, 2 * n - k) // 2 + 1):
                assert lefschetz_decompose(primitive_general(n, k, r)) == [
                    (k, r, Scalar.one())
                ]


def test_lefschetz_decompose_random_roundtrip():
    check_lefschetz_decomposition("full")
    # every degree on both sides of the middle, coefficients with pi^-1,
    # pi^0 and pi^1 terms and odd-over-even Fractions
    rng = random.Random(61)

    def coefficient():
        return Scalar({e: Fraction(2 * rng.randint(-9, 8) + 1, 2 * rng.randint(1, 7)) for e in (-1, 0, 1)})

    for n in range(6, 13):
        v = Valuation(n, {(k, q): coefficient() for k in range(2 * n + 1) for q in q_range(n, k)})
        assert reconstruct(n, lefschetz_decompose(v)) == v, n


def test_lefschetz_decompose_runs_no_elimination(monkeypatch):
    # the primitive-basis inverse is written down, so a cold decomposition
    # never reaches the elimination routine of uval.linalg
    def refuse(*args, **kwargs):
        raise AssertionError("lefschetz_decompose eliminated")

    monkeypatch.setattr(uval.linalg, "_bareiss", refuse)
    _primitive_basis_inverse.cache_clear()
    _primitive_tau_coeffs.cache_clear()
    for n in range(1, 9):
        v = Valuation(n, {(k, q): q + 1 for k in range(2 * n + 1) for q in q_range(n, k)})
        parts = lefschetz_decompose(v)
        assert {k for k, _, _ in parts} == set(range(2 * n + 1)), n
        assert reconstruct(n, parts) == v, n


def test_lefschetz_decompose_n48_within_10s():
    # a cold decomposition of every degree at n = 48, in a fresh interpreter
    script = (
        "from uval.sl2 import lefschetz_decompose; from uval.valspec import parse_valspec; "
        "print(len(lefschetz_decompose(parse_valspec('(chi+t)^96', 48))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
