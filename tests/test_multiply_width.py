"""multiply on wide operands against the quotient-map route.

multiply runs the product formula once per degree pair and pi exponent of
one factor, adding into one integer vector per product exponent.  These
inputs stress that bookkeeping: pi exponents spread over -6..6 with gaps,
so the product exponents are sparse, and numerators reach 10^60 over mixed
denominators; zero operands and operands with a single exponent occur.
The quotient-map route from_monomial(n, to_monomial(a) * to_monomial(b))
is the reference, and pairing_pd must equal the volume coefficient of the
product.  The examples add seeded operands over every degree with pi^-1,
pi^0 and pi^1 terms and odd-over-even coefficients, operands with five
contiguous pi powers per coefficient, and (chi+t)^8 at n = 6, whose one pi
power per degree differs from degree to degree.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.kinematic import pairing_pd  # noqa: E402
from uval.scalar import Scalar  # noqa: E402
from uval.valspec import parse_valspec  # noqa: E402
from uval.valuation import (  # noqa: E402
    Valuation,
    from_monomial,
    multiply,
    q_range,
    to_monomial,
)

BIG = 10**60
DENOMINATORS = (1, 2, 3, 7, 12, 2**70, 10**20 + 39)


@st.composite
def _operand(draw, n):
    """A valuation at level n: zero, with one pi exponent, or with two or
    three exponents spread over -6..6."""
    shape = draw(st.sampled_from(("zero", "single", "spread")))
    if shape == "zero":
        return Valuation.zero(n)
    if shape == "single":
        exps = [draw(st.integers(-6, 6))]
    else:
        exps = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=3, unique=True))
    coeffs = {}
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(0, 2 * n))
        q = draw(st.sampled_from(q_range(n, k)))
        coeffs[(k, q)] = Scalar({
            e: Fraction(draw(st.integers(-BIG, BIG)), draw(st.sampled_from(DENOMINATORS))) for e in exps
        })
    return Valuation(n, coeffs)


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(_operand(n)), draw(_operand(n))


_GAPPED = Valuation(5, {
    (4, 1): Scalar({-6: Fraction(-BIG, 7), 0: Fraction(BIG - 1, 12), 5: 3}),
    (6, 2): Scalar({-6: 1, 5: Fraction(-BIG, 2**70)}),
    (1, 0): Scalar({0: Fraction(BIG, 3)}),
})


def _seeded_pair(n):
    """Two seeded valuations at level n over every degree, each coefficient
    with pi^-1, pi^0 and pi^1 terms of the form odd / 2^j, j >= 1."""
    rng = random.Random(f"pairing:{n}")

    def operand():
        return Valuation(n, {
            (k, q): Scalar({e: Fraction(2 * rng.randint(-50, 49) + 1, 2 ** rng.randint(1, 9)) for e in (-1, 0, 1)})
            for k in range(2 * n + 1) for q in q_range(n, k)
        })

    return operand(), operand()


def _five_powers_pair(n):
    """Two seeded valuations at level n, each coefficient with the five
    contiguous pi powers pi^-2..pi^2."""
    rng = random.Random(f"five powers:{n}")

    def operand():
        return Valuation(n, {
            (k, q): Scalar({e: Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for e in range(-2, 3)})
            for k in range(2 * n + 1) for q in q_range(n, k)
        })

    return operand(), operand()


_CHI_T_8 = parse_valspec("(chi+t)^8", 6)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_pairs())
@example(_seeded_pair(1))
@example(_seeded_pair(2))
@example(_seeded_pair(3))
@example(_seeded_pair(4))
@example(_seeded_pair(5))
@example(_seeded_pair(6))
@example((_GAPPED, _GAPPED))
@example((_GAPPED, Valuation(5, {(3, 1): Scalar({6: -BIG})})))
@example((Valuation.zero(5), _GAPPED))
@example(_five_powers_pair(4))
@example((_CHI_T_8, _CHI_T_8))
def test_multiply_survives_wide_operands(pair):
    a, b = pair
    n = a.n
    prod = multiply(a, b)
    assert prod == from_monomial(n, to_monomial(a) * to_monomial(b))
    assert pairing_pd(a, b) == prod.coefficient(2 * n, n)
