"""kinematic against the per-basis reference route on random valuations.

kinematic sums cached integer blocks, one pi shift per degree pair;
checks._kinematic_reference multiplies by each canonical basis element and
applies the inverse Gram matrix in Scalar arithmetic.  Both must agree
exactly, and k(m) must be linear in m.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.checks import _kinematic_reference  # noqa: E402
from uval.kinematic import kinematic  # noqa: E402
from uval.scalar import Scalar  # noqa: E402
from uval.valuation import Valuation, q_range  # noqa: E402


@st.composite
def _mixed_pi_valuations(draw):
    """A pair of valuations at one n in 1..7 whose coefficients have pi^-1,
    pi^0 and pi^1 terms with non-integer Fraction values; either may be 0."""
    n = draw(st.integers(1, 7))

    def coefficient():
        # odd over even is never an integer
        return Fraction(2 * draw(st.integers(-10, 9)) + 1, 2 * draw(st.integers(1, 6)))

    def valuation():
        coeffs = {}
        for _ in range(draw(st.integers(0, 4))):
            k = draw(st.integers(0, 2 * n))
            q = draw(st.sampled_from(q_range(n, k)))
            exps = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=3, unique=True))
            coeffs[(k, q)] = Scalar({e: coefficient() for e in exps})
        return Valuation(n, coeffs)

    return valuation(), valuation()


def _block_sum(x, y):
    """Entrywise sum of two block dicts, all-zero blocks dropped."""
    out = {}
    for ab in set(x) | set(y):
        if ab in x and ab in y:
            block = tuple(
                tuple(s + t for s, t in zip(rx, ry)) for rx, ry in zip(x[ab], y[ab])
            )
        else:
            block = x.get(ab, y.get(ab))
        if any(s for row in block for s in row):
            out[ab] = block
    return out


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_mixed_pi_valuations())
def test_kinematic_equals_reference_and_is_linear(pair):
    a, b = pair
    n = a.n
    ka, kb = kinematic(n, a), kinematic(n, b)
    assert ka == _kinematic_reference(n, a)
    assert kinematic(n, a + b).blocks == _block_sum(ka.blocks, kb.blocks)
    for tensor in (ka, kb):
        for block in tensor.blocks.values():
            for row in block:
                for s in row:
                    assert isinstance(s, Scalar)
                    assert all(isinstance(f, Fraction) and f for _, f in s.items())
