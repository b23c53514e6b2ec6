"""multiply against the quotient-map route on random valuations.

multiply is built from the Tasaki product formula; the quotient map
from_monomial(n, to_monomial(a) * to_monomial(b)) is the independent route
it is checked against here.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.scalar import Scalar  # noqa: E402
from uval.valuation import (  # noqa: E402
    Valuation,
    from_monomial,
    multiply,
    q_range,
    to_monomial,
)


@st.composite
def _mixed_pi_valuations(draw):
    """A pair of valuations at one n in 1..8 whose coefficients have pi^-1,
    pi^0 and pi^1 terms with non-integer Fraction values."""
    n = draw(st.integers(1, 8))

    def coefficient():
        # odd over even is never an integer
        return Fraction(2 * draw(st.integers(-10, 9)) + 1, 2 * draw(st.integers(1, 6)))

    def valuation():
        coeffs = {}
        for _ in range(draw(st.integers(1, 6))):
            k = draw(st.integers(0, 2 * n))
            q = draw(st.sampled_from(q_range(n, k)))
            coeffs[(k, q)] = Scalar({e: coefficient() for e in (-1, 0, 1)})
        return Valuation(n, coeffs)

    return valuation(), valuation()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_mixed_pi_valuations())
def test_multiply_equals_quotient_route(pair):
    a, b = pair
    prod = multiply(a, b)
    assert prod == from_monomial(a.n, to_monomial(a) * to_monomial(b))
    for _, c in prod.items():
        assert isinstance(c, Scalar) and not c.is_zero
        assert all(isinstance(f, Fraction) and f for _, f in c.items())
