"""The text uval prints for a valuation parses back to it: for every
valuation v at level n, parse_valspec(str(v), n) == v.  Coefficients are
Laurent polynomials in pi, so the printed forms 3π, -π^2, 3π^2/4 and
3/(4π^2) all occur."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.scalar import Scalar  # noqa: E402
from uval.valspec import parse_valspec  # noqa: E402
from uval.valuation import Valuation, q_range  # noqa: E402

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
scalars = st.dictionaries(st.integers(-3, 3), fractions, max_size=3).map(Scalar)


def _valuations(n: int):
    keys = [(k, q) for k in range(2 * n + 1) for q in q_range(n, k)]
    return st.dictionaries(st.sampled_from(keys), scalars, max_size=8).map(lambda c: Valuation(n, c))


valuations = st.integers(1, 6).flatmap(_valuations)


@settings(derandomize=True, max_examples=150, deadline=1000)
@given(valuations)
def test_printed_valuation_parses_back(v):
    assert parse_valspec(str(v), v.n) == v
