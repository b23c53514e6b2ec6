"""The valuation algebra: bases, quotient map, product, involutions, Klain."""

import json
import random
from fractions import Fraction

import pytest

from uval.checks import (
    _iota_reference,
    check_anisotropic_ideal,
    check_fourier_and_iota,
    check_fourier_restriction_map,
    check_ideal_vanishing,
    check_kazarnovskii_normalization,
    check_monomial_roundtrip,
    check_multiplication_by_u,
    check_product_algebra,
    check_tasaki_product_formula,
)
from uval.poly import GradedPoly, change_vars, f_closed
from uval.scalar import Scalar
from uval.valuation import (
    Valuation,
    chi,
    dim_val,
    fourier,
    from_monomial,
    iota,
    klain,
    mu,
    multiply,
    q_range,
    tau,
    to_monomial,
    vol,
)


def _rand_valuation(rng, n, max_terms=4):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, 2 * n)
        q = rng.choice(list(q_range(n, k)))
        coeffs[(k, q)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Valuation(n, coeffs)


# ----------------------------------------------------------------------
# constructors

def test_mu_unit_and_volume():
    assert mu(2, 0, 0) == chi(2)
    assert mu(2, 4, 2) == vol(2)


def test_mu_rejects_out_of_range():
    with pytest.raises(ValueError):
        mu(1, 2, 0)  # q >= k - n = 1 required at n = 1
    with pytest.raises(ValueError):
        mu(2, 3, 2)  # q <= floor(k/2)
    with pytest.raises(ValueError):
        mu(2, 5, 2)  # k <= 2n


def test_tau_examples():
    assert tau(2, 2, 0) == mu(2, 2, 0) + mu(2, 2, 1)
    assert tau(1, 2, 0) == mu(1, 2, 1)  # truncation at n = 1
    assert tau(2, 4, 1) == mu(2, 4, 2) * 2  # only i = 2 survives, C(2,1) = 2


def test_dim_val():
    assert dim_val(2, 2) == 2
    assert dim_val(4, 0) == 1
    assert dim_val(3, 3) == 2


def test_q_range_cache_keeps_argument_types_apart():
    # q_range is cached: a float degree must fail as it does in a fresh
    # process, not read the entry of the equal int degree
    assert q_range(3, 2) == range(0, 2) and q_range(3, 5) == range(2, 3)
    for k in (2.0, 5.0):
        with pytest.raises(TypeError):
            q_range(3, k)
        with pytest.raises(TypeError):
            Valuation(3, {(k, 2): 1})


# ----------------------------------------------------------------------
# quotient map and canonical representative

def test_from_monomial_t():
    expected = tau(3, 1, 0) * (Scalar.of(2) / Scalar.pi(1))
    assert from_monomial(3, GradedPoly.t()) == expected


def test_from_monomial_u():
    for n in (1, 2, 4):
        assert from_monomial(n, GradedPoly.u()) == mu(n, 2, 1) * (
            Scalar.of(2) / Scalar.pi(1)
        )


def test_from_monomial_kills_f2_at_n1():
    assert from_monomial(1, f_closed(2)).is_zero


def test_to_monomial_examples():
    assert to_monomial(mu(2, 2, 1)) == GradedPoly.monomial(0, 1, Scalar.of(Fraction(1, 2), 1))
    assert to_monomial(mu(2, 1, 0)) == GradedPoly.monomial(1, 0, Scalar.of(Fraction(1, 2), 1))
    # mu_{2,0} = pi t^2 - 2 pi s in the (s, t) chart
    st = change_vars(to_monomial(mu(3, 2, 0)), "st")
    assert st == GradedPoly(
        {(2, 0): Scalar.pi(1), (0, 1): Scalar.of(-2, 1)}, "st"
    )


def test_monomial_roundtrip_random():
    check_monomial_roundtrip("full")


def test_ideal_vanishes():
    check_ideal_vanishing("full")


# ----------------------------------------------------------------------
# product

def test_product_unit():
    rng = random.Random(5)
    for n in (1, 3):
        v = _rand_valuation(rng, n)
        assert multiply(chi(n), v) == v


def test_product_tau1_squared():
    for n in (1, 2, 3, 4):
        assert multiply(tau(n, 1, 0), tau(n, 1, 0)) == tau(n, 2, 0) * Scalar.of(
            Fraction(1, 2), 1
        )


def test_product_tau20_squared_at_n2():
    assert multiply(tau(2, 2, 0), tau(2, 2, 0)) == mu(2, 4, 2) * 3


def test_product_commutative_associative():
    check_product_algebra("full")


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(chi(2), chi(3))


def test_tasaki_product_formula():
    check_tasaki_product_formula("full")


def test_anisotropic_ideal():
    check_anisotropic_ideal("full")


def test_kazarnovskii_normalization():
    check_kazarnovskii_normalization("full")


def test_multiplication_by_u_exact():
    check_multiplication_by_u("full")


# ----------------------------------------------------------------------
# involutions

def test_fourier_examples():
    assert fourier(mu(2, 0, 0)) == mu(2, 4, 2)
    assert fourier(mu(2, 2, 1)) == mu(2, 2, 1)
    rng = random.Random(8)
    for n in range(1, 6):
        v = _rand_valuation(rng, n)
        assert fourier(fourier(v)) == v


def test_iota_examples():
    assert iota(tau(2, 2, 0)) == tau(2, 2, 1)
    for n in range(1, 5):
        assert iota(vol(n)) == vol(n)
        assert iota(mu(n, 2 * n, n) * Scalar.pi(3)) == mu(n, 2 * n, n) * Scalar.pi(3)
    for n in (4, 5):
        f4_img = from_monomial(n, f_closed(4))
        assert iota(f4_img) == f4_img


def test_iota_on_the_store_equals_the_monomial_swap():
    """iota reverses the global Tasaki coordinates on the store; the
    monomial swap pushed through the quotient map is the reference."""
    rng = random.Random(11)
    for n in range(1, 9):
        evens = [(k, q) for k in range(0, 2 * n + 1, 2) for q in q_range(n, k)]
        for _ in range(12):
            v = Valuation(n, {
                kq: Scalar({e: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for e in rng.sample((-1, 0, 1, 3), 2)})
                for kq in rng.sample(evens, min(len(evens), rng.randint(1, 5)))
            })
            assert iota(v) == _iota_reference(v)


def test_iota_rejects_odd_degree():
    with pytest.raises(ValueError):
        iota(mu(2, 1, 0))


def test_iota_commutes_with_fourier():
    check_fourier_and_iota("full")


def test_fourier_is_restriction_on_tasaki():
    check_fourier_restriction_map("full")


# ----------------------------------------------------------------------
# Klain functions

def test_klain_delta_relation():
    kp = klain(mu(2, 2, 1), 2)
    assert list(kp.sigma_coeffs) == [Scalar.zero(), Scalar.one()]


def test_klain_tau_is_sigma_basis():
    for n in range(1, 5):
        for k in range(0, n + 1):
            for q in range(0, k // 2 + 1):
                kp = klain(tau(n, k, q), k)
                expected = [
                    Scalar.one() if j == q else Scalar.zero()
                    for j in range(k // 2 + 1)
                ]
                assert list(kp.sigma_coeffs) == expected


def test_klain_mu41():
    kp = klain(mu(4, 4, 1), 4)
    assert list(kp.sigma_coeffs) == [Scalar.zero(), Scalar.one(), Scalar.of(-2)]


def test_klain_rejects_high_degree():
    with pytest.raises(ValueError, match="fourier"):
        klain(mu(2, 3, 1), 3)


# ----------------------------------------------------------------------
# serialization

def test_json_roundtrip():
    rng = random.Random(10)
    for n in (1, 2, 4):
        v = _rand_valuation(rng, n)
        data = v.to_json()
        assert set(data) == {"n", "components"}
        assert Valuation.from_json(data) == v


def test_from_json_rejects_non_integral_indices():
    # n and q are read as integers, never truncated; the component keys
    # and the num/den fields stay decimal strings, as to_json writes them
    data = json.loads(json.dumps(mu(2, 2, 1).to_json()))
    assert Valuation.from_json(data) == mu(2, 2, 1)
    for bad in ({**data, "n": 2.5}, {**data, "components": {"2": [{**data["components"]["2"][0], "q": 1.5}]}}):
        with pytest.raises(TypeError):
            Valuation.from_json(bad)


def test_str_rendering():
    assert str(mu(2, 2, 0) + mu(2, 2, 1)) == "mu[2,0] + mu[2,1]"
    assert str(mu(2, 2, 0) - mu(2, 2, 1)) == "mu[2,0] - mu[2,1]"
    assert str(Valuation.zero(2)) == "0"
