"""The kernel from reduced integers to Fractions and Scalars, and the one
formatter that writes Scalar text from integers.

Scalar.from_parts and scalar._scalars reduce each integer by its gcd with
the denominator and build the Fraction without Fraction.__new__, so these
check that every result is a genuine Fraction equal to Fraction(x, den),
with the same hash, repr and pickle round trip.  _parts_text is checked
against a rendering of the Fraction terms written independently here.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.scalar import Scalar, _fraction, _parts_text, _scalars  # noqa: E402

derandomized = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def _parts(draw):
    """(parts, den): integer parts over den > 0 with negative numerators,
    numerators sharing a factor with den, and zero entries."""
    common = draw(st.integers(1, 60))
    den = common * draw(st.integers(1, 10**12))
    numerator = st.one_of(
        st.just(0),
        st.integers(-(10**40), 10**40),
        st.integers(-1000, 1000).map(lambda x: x * common),
    )
    parts = draw(st.dictionaries(st.integers(-6, 6), numerator, max_size=5))
    return parts, den


def _reference_text(terms: dict[int, Fraction]) -> str:
    """The text of sum_e c_e pi^e, terms ascending in e, without _parts_text."""
    out = []
    for e, c in sorted(terms.items()):
        p, q = abs(c.numerator), c.denominator
        if e == 0:
            body = f"{p}" if q == 1 else f"{p}/{q}"
        else:
            pi = "π" if abs(e) == 1 else f"π^{abs(e)}"
            if e > 0:
                body = (pi if p == 1 else f"{p}{pi}") + ("" if q == 1 else f"/{q}")
            else:
                body = f"{p}/{pi}" if q == 1 else f"{p}/({q}{pi})"
        sign = "-" if c < 0 else ""
        out.append(sign + body if not out else (" - " if c < 0 else " + ") + body)
    return "".join(out) or "0"


def _want(parts, den):
    return {e: Fraction(x, den) for e, x in parts.items() if x}


@derandomized
@given(_parts())
def test_from_parts_builds_genuine_fractions(case):
    parts, den = case
    s = Scalar.from_parts(parts, den)
    want = Scalar(_want(parts, den))
    assert dict(s.items()) == _want(parts, den)
    assert s == want and hash(s) == hash(want) and repr(s) == repr(want)
    for e, c in s.items():
        assert type(c) is Fraction and type(s.coefficient(e)) is Fraction
        assert hash(c) == hash(Fraction(parts[e], den)) and repr(c) == repr(Fraction(parts[e], den))
    if s.is_monomial:
        assert type(s.monomial()[1]) is Fraction
    back = pickle.loads(pickle.dumps(s))
    assert back == s and hash(back) == hash(s) and repr(back) == repr(s)
    assert all(type(c) is Fraction for _, c in back.items())


@derandomized
@given(_parts())
def test_parts_text_is_the_scalar_text(case):
    parts, den = case
    assert _parts_text(parts, den) == str(Scalar.from_parts(parts, den)) == _reference_text(_want(parts, den))


@st.composite
def _vectors(draw):
    """(vectors, den, size): integer vectors of one length per pi exponent."""
    parts, den = draw(_parts())
    size = draw(st.integers(0, 6))
    entry = st.sampled_from([0, *parts.values()]) | st.integers(-(10**30), 10**30)
    vectors = draw(st.dictionaries(st.integers(-6, 6), st.lists(entry, min_size=size, max_size=size), max_size=4))
    return vectors, den, size


@derandomized
@given(_vectors())
def test_scalars_match_from_parts(case):
    """_scalars(vectors, den, size) reads entry i of every vector."""
    vectors, den, size = case
    got = _scalars(vectors, den, size)
    assert got == [Scalar.from_parts({e: v[i] for e, v in vectors.items()}, den) for i in range(size)]
    assert all(type(c) is Fraction for s in got for _, c in s.items())


@derandomized
@given(st.integers(-(10**50), 10**50), st.integers(1, 10**30))
def test_fraction_kernel_on_coprime_pairs(p, q):
    want = Fraction(p, q)
    p, q = want.numerator, want.denominator
    f = _fraction(p, q)
    assert type(f) is Fraction and f == want
    assert (f.numerator, f.denominator) == (p, q)
    assert hash(f) == hash(want) and repr(f) == repr(want) and str(f) == str(want)
    assert pickle.loads(pickle.dumps(f)) == want
    assert f + 1 == want + 1 and f * want == want * want


def test_kernel_falls_back_to_fraction_when_its_check_fails():
    """A coprime builder that disagrees with Fraction(p, q) is replaced by
    Fraction itself when uval.scalar is imported."""
    code = (
        "import fractions\n"
        "fractions.Fraction._from_coprime_ints = classmethod(lambda cls, p, q: fractions.Fraction(p + 1, q))\n"
        "from uval.scalar import Scalar, _fraction\n"
        "assert _fraction is fractions.Fraction\n"
        "assert str(Scalar.from_parts({0: 6, 1: -3}, 4)) == '3/2 - 3π/4'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})
