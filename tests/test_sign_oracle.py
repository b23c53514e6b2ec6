"""sign() against interval evaluation over a much narrower enclosure of pi.

sign() decides in integer arithmetic over a fixed ladder of enclosures, the
last one narrower than 10^-48.  The reference here evaluates the scalar
term by term in Fraction interval arithmetic over an enclosure narrower
than 10^-100; wherever sign() decides, the two must agree.  A fixed table
of near-cancelling scalars also pins where the ladder decides at all.
"""

from fractions import Fraction

import pytest
from pi_convergents import CONVERGENTS

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.scalar import Scalar, UndecidableSignError, pi_bounds, sign  # noqa: E402

PI_LO, PI_HI = pi_bounds(Fraction(1, 10**100))


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
    assert len(CONVERGENTS) == 46 and len(str(CONVERGENTS[44][1])) == 25
    # each p/q is within 1/q^2 of pi, as a convergent of pi is
    for p, q in CONVERGENTS:
        assert abs(Fraction(p, q) - PI_LO) < Fraction(1, q * q)


# The convergent scalars whose sign the ladder leaves undecided, as
# (depth, m) for (p - q pi) (1 + pi)^m.
UNDECIDED = {(44, m) for m in range(4)} | {(depth, m) for depth in (42, 43) for m in (1, 2, 3)}


def test_ladder_decides_exactly_where_it_did():
    # a faster ladder must decide each of these as the reference does and
    # raise on the same ones, not merely agree where it decides
    raised = set()
    for depth, (p, q) in enumerate(CONVERGENTS[:45]):
        for m in range(4):
            s = Scalar({0: p, 1: -q}) * Scalar({0: 1, 1: 1}) ** m
            try:
                got = sign(s)
            except UndecidableSignError:
                raised.add((depth, m))
                continue
            assert got == _reference_sign(s), (depth, m)
    assert raised == UNDECIDED
