"""The exact value types: copy, deepcopy and pickle round trips, and the
record protocol (construction, ==, hash, repr, immutability) of the small
immutable records."""

import copy
import pickle
from fractions import Fraction

import pytest

from uval.cones import ConeVerdict, CurvExpr, first_variation, is_monotone, is_positive
from uval.kinematic import KinematicTensor, TasakiMatrix, cpn_normalize, principal_kinematic, tasaki_matrix_closed
from uval.poly import GradedPoly, change_vars
from uval.scalar import Scalar
from uval.sl2 import Sl2Operator
from uval.valspec import _Token
from uval.valuation import KlainPolynomial, Valuation, chi, klain, mu


def _values():
    v = Valuation(3, {(2, 1): Scalar({1: 3, -2: Fraction(3, 4)}), (0, 0): -1})
    p = GradedPoly({(1, 1): Scalar.pi(2), (0, 0): Fraction(1, 3)})
    return [
        Scalar.zero(), Scalar({1: 3, -2: Fraction(3, 4)}),
        GradedPoly.zero(), p, change_vars(p, "st"),
        Valuation.zero(2), v,
        klain(v, 2), Sl2Operator("Lambda"), tasaki_matrix_closed(3, 2),
        principal_kinematic(2), cpn_normalize(principal_kinematic(2)),
        is_positive(chi(2)), is_monotone(mu(2, 2, 0)),
        first_variation(3, v), _Token("num", "3", 0),
    ]


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_value_types_round_trip(how):
    rebuild = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    }[how]
    for value in _values():
        again = rebuild(value)
        assert type(again) is type(value) and again == value, value
        assert repr(again) == repr(value)


def test_record_repr_is_a_constructor_call():
    # TasakiMatrix derives its Scalar entries from the integer block, so its
    # repr names the constructor's fields alone and evaluates back to it
    t = tasaki_matrix_closed(2, 2)
    assert repr(t) == "TasakiMatrix(n=2, k=2, e=0, den=8, rows=((3, -1), (-1, 3)))"
    assert eval(repr(t), {"TasakiMatrix": TasakiMatrix}) == t


def test_records_keep_the_frozen_dataclass_protocol():
    m = Valuation(1, {(0, 0): 1})
    blocks = {(0, 2): ((Scalar.one(),),)}
    t = KinematicTensor(1, m, blocks)
    assert t == KinematicTensor(n=1, mu=m, blocks=blocks, kind="kinematic", cpn_normalized=False)
    assert repr(t) == f"KinematicTensor(n=1, mu={m!r}, blocks={blocks!r}, kind='kinematic', cpn_normalized=False)"
    rows = ((3, -1), (-1, 3))
    t8 = TasakiMatrix(2, 2, 0, 8, rows)
    assert t8 == TasakiMatrix(n=2, k=2, e=0, den=8, rows=rows) == tasaki_matrix_closed(2, 2)
    assert hash(t8) == hash((2, 2, 0, 8, rows))
    assert t8 != (2, 2, 0, 8, rows)
    assert t8 not in {TasakiMatrix(2, 2, 1, 8, rows), TasakiMatrix(2, 2, 0, 4, rows), TasakiMatrix(3, 2, 0, 8, rows)}
    assert t8[0, 1] == Scalar.of(Fraction(-1, 8))
    assert Sl2Operator("H") == Sl2Operator(kind="H") != Sl2Operator("L")
    assert KlainPolynomial(2, (Scalar.one(), Scalar.zero())).degree == 2
    for record, field in ((t, "kind"), (Sl2Operator("H"), "kind"), (ConeVerdict(True), "member")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    for build, message in (
        (lambda: ConeVerdict(True, {}), "a member verdict carries no witness"),
        (lambda: ConeVerdict(False), "a failure verdict requires a witness"),
        (lambda: CurvExpr(2, {("B", 2, 1): Scalar.one()}), "needs k > 2q"),
        (lambda: CurvExpr(2, {("Gamma", 3, 0): Scalar.one()}), "needs n > k - q"),
        (lambda: CurvExpr(2, {("C", 0, 0): Scalar.one()}), "unknown curvature symbol"),
        (lambda: Sl2Operator("X"), "unknown sl2 operator"),
        (lambda: KlainPolynomial(2, ()), "wrong length"),
    ):
        with pytest.raises(ValueError, match=message):
            build()
