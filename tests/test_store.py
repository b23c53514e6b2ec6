"""Property tests of the integer store behind Valuation: every route to a
value gives the same canonical store, equality and hash; items() round-trips
through the constructor; and a failure verdict's witness, decided and built
from the store, equals the witness computed in Scalar arithmetic."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uval.cones import is_crofton_positive, is_monotone, is_positive  # noqa: E402
from uval.kinematic import pairing_fourier  # noqa: E402
from uval.scalar import Scalar  # noqa: E402
from uval.valuation import Valuation, chi, fourier, mu, multiply, q_range, tau  # noqa: E402

N = 3
MU_KEYS = [(k, q) for k in range(2 * N + 1) for q in q_range(N, k)]

small = st.integers(-4, 4)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars = st.dictionaries(st.integers(-2, 2), fractions, max_size=3).map(Scalar)
int_coeffs = st.dictionaries(st.sampled_from(MU_KEYS), small, max_size=6)
valuations = st.dictionaries(st.sampled_from(MU_KEYS), scalars, max_size=6).map(lambda c: Valuation(N, c))

# derandomized, and each example must finish within a second once the
# caches below are warm
derandomized = settings(derandomize=True, max_examples=100, deadline=1000)

_FULL = Valuation(N, {kq: 1 for kq in MU_KEYS})
multiply(_FULL, _FULL)
for _k in range(2 * N + 1):
    is_crofton_positive(_FULL.component(_k))


def _store(v: Valuation):
    return v.n, v._den, v._parts


def _same(values, want: Valuation) -> None:
    for v in values:
        assert _store(v) == _store(want)
        assert v == want and hash(v) == hash(want)


@derandomized
@given(int_coeffs, valuations)
def test_every_route_from_ints_gives_one_store(coeffs, b):
    v = Valuation(N, coeffs)
    assert v._den == 1
    _same([
        Valuation(N, {kq: Scalar.of(x) for kq, x in coeffs.items()}),
        Valuation(N, {kq: Fraction(x) for kq, x in coeffs.items()}),
        Valuation.from_json(v.to_json()),
        multiply(chi(N), v),
        multiply(v, chi(N)),
        v + b - b,
    ], v)


@derandomized
@given(valuations, valuations, fractions.filter(bool))
def test_every_route_from_scalars_gives_one_store(v, b, f):
    pi = Scalar.pi(1)
    _same([
        Valuation(N, dict(v.items())),
        Valuation.from_json(v.to_json()),
        multiply(chi(N), v),
        v + b - b,
        -(-v),
        v * f / f,
        v * pi / pi,
        fourier(fourier(v)),
        sum((v.component(k) for k in v.degrees()), Valuation.zero(N)),
    ], v)


@derandomized
@given(valuations)
def test_items_round_trip(v):
    items = v.items()
    assert [kq for kq, _ in items] == sorted(kq for kq, _ in items)
    assert all(not c.is_zero for _, c in items)
    assert Valuation(N, dict(items)).items() == items
    for k, q in MU_KEYS:
        assert v.coefficient(k, q) == dict(items).get((k, q), Scalar.zero())
    assert v.is_zero == (not items) and v.degrees() == sorted({k for (k, _), _ in items})


# ----------------------------------------------------------------------
# witnesses from the store against witnesses computed in Scalar arithmetic

def _scalar_positive(v: Valuation):
    for (k, q), c in v.items():
        if c.sign() < 0:
            return {"kind": "negative_mu_coefficient", "k": k, "q": q, "coefficient": str(c)}
    return None


def _scalar_crofton(v: Valuation):
    for k in v.degrees():
        part = v.component(k)
        for q in q_range(v.n, k):
            b = pairing_fourier(part, mu(v.n, k, q))
            if b.sign() < 0:
                return {"kind": "negative_nu_coordinate", "k": k, "q": q, "coordinate": str(b)}
    return None


def _scalar_monotone(v: Valuation):
    n = v.n
    c0 = v.coefficient(0, 0)
    if c0.sign() < 0:
        return {"kind": "negative_point_value", "value": str(c0)}
    for k in v.degrees():
        if k == 0:
            continue
        a = [v.coefficient(k, q) for q in range(k // 2 + 1)]
        for q in range(max(0, k - n), (k - 1) // 2 + 1):
            w = k - 2 * q - 1
            slack = a[q] * (w + 1) - (a[q + 1] * w if w else Scalar.zero())
            if slack.sign() < 0:
                return {"kind": "inequality", "family": 1, "k": k, "q": q, "slack": str(slack)}
        for q in range(max(0, k - n - 1), (k - 2) // 2 + 1):
            m = n + q - k
            slack = a[q + 1] * Fraction(2 * m + 3, 2) - a[q] * (m + 1)
            if slack.sign() < 0:
                return {"kind": "inequality", "family": 2, "k": k, "q": q, "slack": str(slack)}
    return None


PREDICATES = [
    (is_positive, _scalar_positive),
    (is_crofton_positive, _scalar_crofton),
    (is_monotone, _scalar_monotone),
]


def _check_witness(v: Valuation) -> None:
    for predicate, reference in PREDICATES:
        verdict = predicate(v)
        want = reference(v)
        assert verdict.member == (want is None), (predicate.__name__, v)
        assert verdict.to_json() == {"member": want is None, "witness": want}
        assert verdict.witness == want


def test_witness_on_the_cone_test_examples():
    examples = [tau(2, 2, 0) - tau(2, 2, 1) * 2, mu(2, 2, 0), mu(3, 3, 0) * 12 + mu(3, 3, 1) * 17]
    examples += [mu(n, n, 0) for n in range(2, 7)]
    examples += [chi(2) * -1 + mu(2, 2, 1), mu(3, 3, 1) * Scalar({0: 1, 1: -1})]
    for v in examples:
        _check_witness(v)


def _homogeneous(n: int, k: int):
    entry = st.builds(lambda a, b: Scalar({0: a, 1: b}), small, st.integers(-2, 2))
    return st.lists(entry, min_size=len(q_range(n, k)), max_size=len(q_range(n, k))).map(
        lambda cs: Valuation(n, dict(zip(((k, q) for q in q_range(n, k)), cs)))
    )


@derandomized
@given(st.sampled_from([(n, k) for n in (1, 2, 3) for k in range(2 * n + 1)]).flatmap(
    lambda nk: _homogeneous(*nk)
))
def test_witness_on_random_vectors(v):
    _check_witness(v)
