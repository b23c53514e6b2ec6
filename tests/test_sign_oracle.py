"""sign() against interval evaluation over a much narrower enclosure of pi.

sign() decides in integer arithmetic over a fixed ladder of enclosures, the
last one narrower than 10^-48.  The reference here evaluates the scalar
term by term in Fraction interval arithmetic over an enclosure narrower
than 10^-100; wherever sign() decides, the two must agree.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.scalar import Scalar, UndecidableSignError, pi_bounds, sign  # noqa: E402

PI_LO, PI_HI = pi_bounds(Fraction(1, 10**100))


def _convergents(x: Fraction, count: int) -> list[tuple[int, int]]:
    """The first convergents p/q of the continued fraction of x."""
    out = []
    h0, h1, k0, k1 = 0, 1, 1, 0
    for _ in range(count):
        a = math.floor(x)
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append((h1, k1))
        x = 1 / (x - a)
    return out


# Up to depth 45 (q with 26 digits); the 10^-100 enclosure fixes these
# convergents of pi exactly.
CONVERGENTS = _convergents(PI_LO, 46)


def _reference_sign(s: Scalar):
    lo = hi = Fraction(0)
    for e, c in s.items():
        b_lo, b_hi = (PI_LO**e, PI_HI**e) if e >= 0 else (PI_HI**e, PI_LO**e)
        if c >= 0:
            lo, hi = lo + c * b_lo, hi + c * b_hi
        else:
            lo, hi = lo + c * b_hi, hi + c * b_lo
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


@st.composite
def _scalars(draw):
    """Random multi-term scalars, or c pi^s (p - q pi) for a convergent p/q
    of pi, possibly times a further random scalar."""

    def fraction():
        return Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 40)))

    def random_scalar(terms):
        return Scalar({draw(st.integers(-3, 3)): fraction() for _ in range(terms)})

    if draw(st.booleans()):
        return random_scalar(draw(st.integers(2, 5)))
    p, q = CONVERGENTS[draw(st.integers(0, len(CONVERGENTS) - 1))]
    s = Scalar({0: p, 1: -q}) * Scalar.of(fraction() or 1, draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        s = s * random_scalar(draw(st.integers(1, 2)))
    return s


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_scalars())
def test_sign_matches_narrow_enclosure(s):
    want = _reference_sign(s) if not s.is_zero else 0
    assume(want is not None)
    try:
        got = sign(s)
    except UndecidableSignError:
        return
    assert got == want


def test_reference_reaches_undecidable_depth():
    assert PI_HI - PI_LO < Fraction(1, 10**100)
    assert len(str(CONVERGENTS[44][1])) == 25
