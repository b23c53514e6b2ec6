"""Property tests of the sparse-accumulate helper behind Scalar, GradedPoly
and Valuation arithmetic: ring axioms, exact cancellation, and no stored
zero coefficient."""

from collections import defaultdict
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.poly import GradedPoly  # noqa: E402
from uval.scalar import Scalar, accumulate  # noqa: E402
from uval.valuation import Valuation, q_range  # noqa: E402

N = 2
MU_KEYS = [(k, q) for k in range(2 * N + 1) for q in q_range(N, k)]

# few exponents and small values, so that sums cancel often
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.dictionaries(st.integers(-2, 2), fractions, max_size=3).map(Scalar)
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), scalars, max_size=3).map(GradedPoly)
valuations = st.dictionaries(st.sampled_from(MU_KEYS), scalars, max_size=4).map(lambda c: Valuation(N, c))

derandomized = settings(derandomize=True, max_examples=100, deadline=None)


def _no_zero_stored(x) -> bool:
    if isinstance(x, Scalar):
        return _canonical_scalar(x)
    if isinstance(x, Valuation):
        return _canonical_store(x)
    return all(c and _no_zero_stored(c) for c in x._coeffs.values())


def _canonical_scalar(s: Scalar) -> bool:
    """The store's canonical form (den, parts): integer parts, none zero,
    over den >= 1 with no common factor of den and the parts, so zero is
    stored as ({}, 1)."""
    parts = s._parts.values()
    return (all(type(x) is int and x for x in parts) and type(s._den) is int
            and s._den >= 1 and gcd(s._den, *parts) == 1)


def _canonical_store(v: Valuation) -> bool:
    """The store's canonical form: no empty degree, no all-zero vector, one
    entry per q of q_range, and the least denominator (no common factor
    with all numerators)."""
    numerators = []
    for k, by_e in v._parts.items():
        if not by_e:
            return False
        for a in by_e.values():
            if len(a) != len(q_range(v.n, k)) or not any(a):
                return False
            numerators += a
    return v._den >= 1 and gcd(v._den, *numerators) == 1


@derandomized
@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    zero, one = Scalar.zero(), Scalar.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero
    assert (a - a).is_zero and (a - b) + b == a
    assert a - b == a + (-b)
    for x in (a, a + b, a - b, a * b, a * (b + c), a - a, -a, a * 3, a * Fraction(-2, 3), a * 0,
              a / -4, a / Fraction(-3, 2), a / Scalar.of(Fraction(-2, 3), 1), a**2, b**3):
        assert _no_zero_stored(x)
    for d in (b, c):
        if d.is_monomial:
            assert _no_zero_stored(a / d) and _no_zero_stored(d**-2) and (a / d) * d == a


@derandomized
@given(scalars, polys, valuations)
def test_negation_cancels_exactly(s, p, v):
    for x in (s, p, v):
        total = x + (-x)
        assert total.is_zero and _no_zero_stored(total)
        assert (x - x).is_zero


@derandomized
@given(polys, polys, valuations, valuations)
def test_sums_and_products_store_no_zero(p, r, v, w):
    for x in (p + r, p - r, p * r, v + w, v - w):
        assert _no_zero_stored(x)
    assert p * r == r * p and (p + r) - r == p and (v + w) - w == v


@derandomized
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), max_size=20))
def test_accumulate_matches_a_plain_sum(pairs):
    want = defaultdict(int)
    for key, value in pairs:
        want[key] += value
    got = accumulate({}, pairs)
    assert got == {k: v for k, v in want.items() if v}
    assert all(got.values())
