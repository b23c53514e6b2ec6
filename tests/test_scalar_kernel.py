"""The integer store of a Scalar against Fraction references.

A Scalar keeps integer parts over one denominator, reduced by one helper,
and builds Fractions only when a coefficient is read.  These check that
Scalar.from_parts and scalar._scalars give the store that the Fraction
terms give, that every coefficient read is a genuine Fraction equal to
Fraction(x, den), with the same hash, repr and pickle round trip, and that
_parts_text and to_json, written from the integers, match renderings of
the Fraction terms written independently here.
"""

import pickle
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.scalar import Scalar, _parts_text, _scalars  # noqa: E402

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
    common = lcm(*(c.denominator for c in _want(parts, den).values()))
    assert s.to_parts() == ({e: x * common // den for e, x in parts.items() if x}, common)
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
@given(_parts())
def test_to_json_is_the_fraction_rendering(case):
    parts, den = case
    want = [{"pi": e, "num": str(c.numerator), "den": str(c.denominator)}
            for e, c in sorted(_want(parts, den).items())]
    s = Scalar.from_parts(parts, den)
    assert s.to_json() == want
    assert Scalar.from_json(want) == s
