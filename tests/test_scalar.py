"""Exact scalar arithmetic: Laurent polynomials in pi over Q."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from pi_convergents import CONVERGENTS

from uval.checks import check_scalar_ring_axioms, check_scalar_serialization
from uval.scalar import (
    Scalar,
    UndecidableSignError,
    double_factorial,
    omega,
    pi_bounds,
    sign,
)


def test_like_term_addition():
    half_pi = Scalar.of(Fraction(1, 2), 1)
    assert half_pi + half_pi == Scalar.pi(1)


def test_exponent_addition():
    assert Scalar.of(2) * Scalar.of(Fraction(3, 4), -1) == Scalar.of(Fraction(3, 2), -1)


def test_cancellation():
    a = Scalar.pi(1) + Scalar.one()
    assert a - Scalar.one() == Scalar.pi(1)
    assert (a - a).is_zero


def test_omega_even():
    assert omega(2) == Scalar.pi(1)
    assert omega(4) == Scalar.of(Fraction(1, 2), 2)


def test_omega_zero():
    assert omega(0) == Scalar.one()


def test_omega_odd_against_recursion():
    # independent oracle: omega_k = (2 pi / k) omega_{k-2}, seeded by the
    # directly known omega_0 = 1, omega_1 = 2
    assert omega(1) == Scalar.of(2)
    assert omega(3) == Scalar.of(Fraction(4, 3), 1)
    expected = {0: Scalar.one(), 1: Scalar.of(2)}
    for k in range(2, 31):
        expected[k] = Scalar.of(2, 1) / Fraction(k) * expected[k - 2]
        assert omega(k) == expected[k], k


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    # direct-product oracle
    prod = 1
    for m in range(7, 0, -2):
        prod *= m
    assert double_factorial(7) == prod == 105
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_ring_axioms_random():
    check_scalar_ring_axioms("full")


def test_serialization_roundtrip():
    check_scalar_serialization("full")


def test_hash_agrees_with_eq_on_rationals():
    # a rational scalar equals its int or Fraction, so sets and dicts find it
    for value in (0, 3, -7, 10**30 + 1, Fraction(3, 4), Fraction(-5, 2), Fraction(6, 3)):
        s = Scalar.of(value)
        assert s == value and hash(s) == hash(value), value
        assert s in {value} and value in {s}
    assert Scalar.zero() in {0} and Scalar.one() in {1} and Scalar.zero() == Fraction(0)
    # a scalar with a pi term equals no rational
    for s in (Scalar.pi(), Scalar.of(3, -1), Scalar.of(3) + Scalar.pi()):
        assert s != 3 and s not in {3, Fraction(3)}


def test_from_parts_rejects_a_non_positive_denominator():
    # the store keeps den > 0, so 1/-2 is never stored as written
    assert Scalar.from_parts({0: 1}, 2) == Scalar.of(Fraction(1, 2))
    for den in (0, -2):
        with pytest.raises(ValueError, match=f"den = {den}"):
            Scalar.from_parts({0: 1}, den)


def test_from_json_rejects_a_non_integral_pi_exponent():
    entry = {"pi": 1, "num": "1", "den": "2"}
    assert Scalar.from_json([entry]) == Scalar.of(Fraction(1, 2), 1)
    for pi in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            Scalar.from_json([{**entry, "pi": pi}])


def test_from_json_rejects_a_non_integral_coefficient():
    # num and den are decimal strings in to_json's output; any other type
    # is read through operator.index, so 1.5 is never 1 and 2.9 never 2
    assert Scalar.from_json([{"pi": 0, "num": 3, "den": 2}]) == Scalar.of(Fraction(3, 2), 0)
    for num, den in ((1.5, "1"), ("3", 2.9), (3.0, "2"), ("3", 2.0)):
        with pytest.raises(TypeError):
            Scalar.from_json([{"pi": 0, "num": num, "den": den}])


def test_non_integral_pi_exponents_raise():
    # an exponent is read through operator.index, so 2.9 is never 2
    from uval.valuation import Valuation

    for build in (lambda: Scalar({2.9: 3}), lambda: Scalar({Fraction(3, 2): 1}), lambda: Scalar({"1": 1}),
                  lambda: Scalar.of(1, 1.5), lambda: Scalar.pi(1.5), lambda: Scalar.pi(2.0),
                  lambda: Valuation(2, {(1, 0): Scalar({1.5: 1})})):
        with pytest.raises(TypeError):
            build()
    assert Scalar({True: 2, 3: 1}) == Scalar.of(2, 1) + Scalar.pi(3)
    assert Scalar.of(Fraction(1, 2), False) == Scalar.of(Fraction(1, 2))
    np = pytest.importorskip("numpy")
    for e in (np.int64(-2), np.int8(3), np.uint16(5)):
        assert Scalar.of(7, e) == Scalar.of(7, int(e)) and Scalar.pi(e) == Scalar.pi(int(e))
        assert Scalar({e: 1}).items() == [(int(e), 1)] and type(Scalar({e: 1}).items()[0][0]) is int


def test_division_by_monomial():
    s = Scalar.pi(2) + Scalar.of(3)
    d = Scalar.of(Fraction(1, 2), 1)
    assert (s / d) * d == s


def test_division_rejections():
    s = Scalar.one()
    with pytest.raises(ValueError, match="not a monomial scalar"):
        s / (Scalar.one() + Scalar.pi(1))
    with pytest.raises(ValueError, match="not a monomial scalar"):
        (Scalar.one() + Scalar.pi(1)) ** -1


def test_division_by_zero_scalar():
    # a zero Scalar divisor fails as the int 0 does, whatever the dividend
    from uval.valuation import chi

    for divide in (lambda: Scalar.pi(1) / 0, lambda: Scalar.pi(1) / Scalar.zero(),
                   lambda: Scalar.zero() / Scalar.zero(), lambda: Scalar.zero() ** -1,
                   lambda: chi(2) / Scalar.zero(), lambda: chi(2) / 0):
        with pytest.raises(ZeroDivisionError, match="^division of Scalar by zero$"):
            divide()
    assert Scalar.zero() ** 0 == Scalar.one()


def test_sign_monomials():
    assert sign(Scalar.zero()) == 0
    assert sign(Scalar.of(-3, 5)) == -1
    assert sign(Scalar.of(Fraction(1, 7), -2)) == 1


def test_sign_multiterm():
    assert sign(Scalar.pi(1) - Scalar.of(3)) == 1
    assert sign(Scalar.pi(1) - Scalar.of(Fraction(22, 7))) == -1
    assert sign(Scalar.pi(2) - Scalar.of(Fraction(227, 23))) == 1  # pi^2 > 9.869
    assert sign(Scalar.pi(-1) - Scalar.of(Fraction(113, 355))) == 1


def test_sign_undecidable_raises():
    # (113 pi - 355)^8 is about 6.6e-37; its integer coefficients reach 7e20,
    # far more than the last enclosure of pi can resolve
    base = Scalar.of(113, 1) - Scalar.of(355)
    with pytest.raises(UndecidableSignError):
        sign(base**8)


def _near_pi(depth):
    """p - q*pi for the depth-th convergent p/q of pi."""
    p, q = CONVERGENTS[depth]
    return Scalar({0: p, 1: -q})


def test_sign_budget_ignores_refined_pi():
    edge = _near_pi(44)
    assert len(str(edge.coefficient(1).numerator)) == 26  # "-" and 25 digits
    with pytest.raises(UndecidableSignError):
        sign(edge)
    pi_bounds(Fraction(1, 10**80))
    with pytest.raises(UndecidableSignError):
        sign(edge)
    with pytest.raises(UndecidableSignError):
        sign(edge * Scalar.pi(-3))


def test_undecidable_message_names_the_scalar():
    from uval.cones import is_positive
    from uval.scalar import int_sign
    from uval.valuation import Valuation

    edge = _near_pi(44) / 7
    parts, den = edge.to_parts()
    assert den == 7
    want = f"sign of {edge} undecided on the last enclosure of pi (width < 1e-48)"
    for decide in (
        lambda: sign(edge),
        lambda: int_sign(parts, den),
        lambda: is_positive(Valuation(1, {(1, 0): edge})),
    ):
        with pytest.raises(UndecidableSignError) as info:
            decide()
        assert str(info.value) == want



def test_int_sign_builds_only_the_power_rows_of_its_terms():
    # pi^20000 - 3 spans 20001 powers of pi in two terms; rung 0 decides
    # it from the two power rows of those terms
    from uval.scalar import _power_row, int_sign

    _power_row.cache_clear()
    assert int_sign({0: -3, 20000: 1}) == 1
    assert _power_row.cache_info().currsize == 2

_FRESH_PROCESS = """
import json, sys
from fractions import Fraction
import uval
from uval import scalar
from uval.scalar import Scalar, UndecidableSignError, pi_bounds, sign

def verdict(s):
    try:
        return sign(s)
    except UndecidableSignError:
        return "undecidable"

out = {"rungs_at_import": scalar._rung.cache_info().currsize, "verdicts": []}
near = [Scalar({0: int(p), 1: -int(q)}) for p, q in json.loads(sys.argv[1])]
if sys.argv[2] == "sign_first":
    out["verdicts"].append([verdict(s) for s in near])
    # the ladder is the chain of enclosures a fresh pi_bounds passes through;
    # rung 0 is the starting enclosure, which pi_bounds(1) returns as it is
    out["ladder_is_chain"] = all(
        (Fraction(lo, den), Fraction(hi, den)) == pi_bounds(width or Fraction(1))
        for (lo, hi, den), width in zip(map(scalar._rung, range(5)), scalar._LADDER_WIDTHS)
    )
pi_bounds(Fraction(1, 10**80))
out["verdicts"].append([verdict(s) for s in near])
print(json.dumps(out))
"""


def test_sign_history_independent_in_fresh_processes():
    near = [_near_pi(41), _near_pi(44)]
    argv = json.dumps([[str(s.coefficient(0)), str(-s.coefficient(1))] for s in near])
    runs = {}
    for order in ("sign_first", "refine_first"):
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS, argv, order],
            capture_output=True, text=True, timeout=60, check=True,
        )
        runs[order] = json.loads(proc.stdout)
        assert runs[order]["rungs_at_import"] == 0
    assert runs["sign_first"]["ladder_is_chain"]
    # depth 41 is odd, so p/q > pi
    want = [1, "undecidable"]
    assert runs["sign_first"]["verdicts"] == [want, want]
    assert runs["refine_first"]["verdicts"] == [want]
    assert sign(near[0]) == 1


def test_pi_bounds_and_to_float_ignore_history():
    rng = random.Random(18)
    scalars = [Scalar({e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in (-1, 0, 2)})
               for _ in range(50)]

    def observe():
        return pi_bounds(Fraction(1, 10**30)), [s.to_float(digits=12) for s in scalars]

    before = observe()
    pi_bounds(Fraction(1, 10**100))
    assert observe() == before
    # not narrowed by any earlier call in this process either (the sign
    # oracle module asks for 10^-100 when it is collected)
    lo, hi = before[0]
    assert Fraction(1, 10**40) < hi - lo < Fraction(1, 10**30)


def test_pi_bounds_width():
    lo, hi = pi_bounds(Fraction(1, 10**40))
    assert hi - lo < Fraction(1, 10**40)
    assert Fraction(333, 106) < lo < hi < Fraction(355, 113)


def test_pow():
    s = Scalar.of(Fraction(2, 3), 1)
    assert s**3 == Scalar.of(Fraction(8, 27), 3)
    assert s**-2 == Scalar.of(Fraction(9, 4), -2)
    assert (Scalar.one() + Scalar.pi(1)) ** 2 == Scalar.one() + Scalar.of(2, 1) + Scalar.pi(2)


def test_pretty_forms():
    assert str(Scalar.of(Fraction(3, 8), -1)) == "3/(8π)"
    assert str(Scalar.of(Fraction(1, 8))) == "1/8"
    assert str(Scalar.of(Fraction(2, 3), 2)) == "2π^2/3"
    assert str(Scalar.zero()) == "0"
    assert str(Scalar.of(-1) + Scalar.of(Fraction(1, 2), 1)) == "-1 + π/2"


def test_to_float():
    import math

    s = Scalar.of(Fraction(1, 2), 1) + Scalar.of(3)
    assert abs(s.to_float() - (math.pi / 2 + 3)) < 1e-12
    assert abs(s.to_float(digits=30) - (math.pi / 2 + 3)) < 1e-12
