"""Graded polynomials in (t, u) / (s, t) and the relation polynomials f_k."""

from fractions import Fraction

import pytest

from uval.checks import check_change_vars_roundtrip, check_relation_polynomials
from uval.poly import GradedPoly, change_vars, f_closed, f_recursive
from uval.scalar import Scalar


def test_monomial_products():
    t = GradedPoly.t()
    u = GradedPoly.u()
    assert t * t == GradedPoly.monomial(2, 0)
    assert (t * t) * u == GradedPoly.monomial(2, 1)


def test_s_squared_expansion():
    # s = (u + t^2)/4, so s^2 = (u^2 + 2 t^2 u + t^4)/16, expanded by hand
    s = GradedPoly.s_in_tu()
    expected = GradedPoly(
        {
            (0, 2): Fraction(1, 16),
            (2, 1): Fraction(2, 16),
            (4, 0): Fraction(1, 16),
        }
    )
    assert s * s == expected


def test_change_vars_examples():
    u = GradedPoly.u()
    assert change_vars(u, "st") == GradedPoly({(0, 1): 4, (2, 0): -1}, "st")
    s = GradedPoly.s()
    assert change_vars(s, "tu") == GradedPoly.s_in_tu()
    f2_st = GradedPoly({(0, 1): 1, (2, 0): Fraction(-1, 2)}, "st")
    assert change_vars(f2_st, "tu") == GradedPoly(
        {(0, 1): Fraction(1, 4), (2, 0): Fraction(-1, 4)}
    )


def test_change_vars_roundtrip_random():
    check_change_vars_roundtrip("full")


def test_f_seeds():
    assert f_recursive(1) == GradedPoly.t()
    f2 = f_recursive(2)
    assert f2 == GradedPoly({(0, 1): Fraction(1, 4), (2, 0): Fraction(-1, 4)})
    # f_3 = -s t + t^3/3 in the (s, t) chart
    f3_st = GradedPoly({(1, 1): -1, (3, 0): Fraction(1, 3)}, "st")
    assert f_recursive(3) == change_vars(f3_st, "tu")


def test_f_closed_values():
    assert f_closed(1) == GradedPoly.t()
    assert f_closed(2) == GradedPoly({(2, 0): Fraction(-1, 4), (0, 1): Fraction(1, 4)})
    # evaluate the binomial sum by hand at k = 4
    assert f_closed(4) == GradedPoly(
        {
            (4, 0): Fraction(-1, 32),
            (2, 1): Fraction(6, 32),
            (0, 2): Fraction(-1, 32),
        }
    )


def test_f_routes_agree():
    # recursion against the closed sum, the degree and the leading
    # coefficient in the (s, t) chart, for k <= 16
    check_relation_polynomials("full")


def test_grading():
    p = f_closed(5)
    assert p.degrees() == [5]
    mixed = p + GradedPoly.t()
    assert mixed.degrees() == [1, 5]
    assert mixed.graded_part(5) == p
    assert mixed.graded_part(1) == GradedPoly.t()
    assert mixed.graded_part(2).is_zero


def test_chart_mismatch_rejected():
    with pytest.raises(ValueError):
        GradedPoly.t("tu") + GradedPoly.t("st")
    with pytest.raises(ValueError):
        GradedPoly.t("tu") * GradedPoly.s()


def test_from_json_rejects_non_integral_degrees():
    for chart, key in (("tu", "u"), ("st", "s")):
        entry = {"t": 1, key: 2, "coeff": Scalar.of(3).to_json()}
        assert GradedPoly.from_json([entry], chart) == GradedPoly.monomial(1, 2, Scalar.of(3), chart)
        for bad in ({**entry, "t": 1.5}, {**entry, key: 2.0}):
            with pytest.raises(TypeError):
                GradedPoly.from_json([bad], chart)


def test_json_roundtrip_and_order():
    p = f_closed(4) + GradedPoly.monomial(1, 0, Scalar.of(Fraction(2, 7), -1))
    data = p.to_json()
    keys = [(d["t"] + 2 * d["u"], d["u"]) for d in data]
    assert keys == sorted(keys)
    assert GradedPoly.from_json(data) == p
