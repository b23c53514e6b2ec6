"""Positive / monotone / Crofton-positive cones, first variation, norms."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from pi_convergents import CONVERGENTS

import uval.scalar

from uval.checks import (
    check_cone_chain,
    check_cone_strictness_witnesses,
    check_first_variation_consistency,
    check_norms,
)
from uval.cones import (
    CurvExpr,
    first_variation,
    in_cone,
    is_crofton_positive,
    is_monotone,
    is_positive,
    norm_inf,
    norm_one,
    nu,
    nu_coeffs,
)
from uval.kinematic import pairing_fourier
from uval.scalar import Scalar, UndecidableSignError, factorial, omega
from uval.valuation import Valuation, chi, mu, q_range, tau


def test_positive_examples():
    assert is_positive(mu(3, 3, 1)).member
    for n in range(2, 7):
        assert is_positive(mu(n, n, 0)).member  # the pseudo-volume
    v = tau(2, 2, 0) - tau(2, 2, 1) * 2  # = mu_{2,0} - mu_{2,1}
    verdict = is_positive(v)
    assert not verdict.member
    assert verdict.witness["k"] == 2 and verdict.witness["q"] == 1


def test_nu_dual_basis():
    # nu is read from the inverse Tasaki Gram matrix; the direct pairing
    # checks every (k, p, q)
    for n in range(1, 9):
        for k in range(2 * n + 1):
            qs = list(q_range(n, k))
            for p in qs:
                v = nu(n, k, p)
                for q in qs:
                    want = Scalar.one() if q == p else Scalar.zero()
                    assert pairing_fourier(v, mu(n, k, q)) == want, (n, k, p, q)
                coords = nu_coeffs(v, k)
                assert coords == [Scalar.one() if q == p else Scalar.zero() for q in qs]


def test_nu_coeffs_is_gram_row():
    assert nu_coeffs(mu(2, 2, 0), 2) == [Scalar.of(4), Scalar.of(-2)]
    assert nu_coeffs(mu(2, 2, 1), 2) == [Scalar.of(-2), Scalar.of(3)]
    # nu_coeffs(mu_{k,p}) is row p of the Gram block derived from the Tasaki
    # Gram matrix; the direct pairing checks every entry
    for n in range(1, 9):
        for k in range(2 * n + 1):
            qs = q_range(n, k)
            for p in qs:
                row = nu_coeffs(mu(n, k, p), k)
                for q in qs:
                    assert row[q - qs.start] == pairing_fourier(mu(n, k, p), mu(n, k, q)), (n, k, p, q)


def test_out_of_range_degree_is_refused():
    for call in (lambda: nu(2, 5, 0), lambda: nu_coeffs(Valuation.zero(2), 5)):
        with pytest.raises(ValueError, match="^degree 5 out of range for n=2$"):
            call()


def test_nu_coeffs_zero_and_nonhomogeneous():
    assert nu_coeffs(Valuation.zero(2), 2) == [Scalar.zero(), Scalar.zero()]
    with pytest.raises(ValueError):
        nu_coeffs(chi(2) + mu(2, 2, 1), 2)


def test_crofton_examples():
    for n, k in [(2, 2), (3, 3)]:
        for p in q_range(n, k):
            assert is_crofton_positive(nu(n, k, p)).member
    assert is_crofton_positive(chi(2)).member
    verdict = is_crofton_positive(mu(2, 2, 0))
    assert not verdict.member
    assert verdict.witness["kind"] == "negative_nu_coordinate"


def test_monotone_examples():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            assert is_monotone(tau(n, k, 0)).member, (n, k)
    for n in range(2, 7):
        verdict = is_monotone(mu(n, n, 0))
        assert not verdict.member, n
    assert is_monotone(chi(4)).member
    assert not is_monotone(chi(4) * (-1)).member


def test_monotone_witness_contents():
    verdict = is_monotone(mu(2, 2, 0))
    assert verdict.witness["kind"] == "inequality"
    assert verdict.witness["family"] == 2


def test_cone_chain_random():
    check_cone_chain("full")


# ----------------------------------------------------------------------
# pinned outputs

def _pinned_vectors():
    """A seeded set at n <= 6, every degree: integer entries, plus entries
    that are fractions, a + b pi (with a pi^-1 or pi^2 term at times) or
    s (p - q pi) pi^t for a convergent p/q of pi, the deepest ones more
    often; about a third of the vectors have a second degree."""
    rng = random.Random(19)

    def entry(kind):
        if kind == "int":
            return rng.randint(-4, 4)
        if kind == "frac":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if kind == "mixed":
            return Scalar({0: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           1: rng.choice((-2, -1, 1, 2)), rng.choice((-1, 2)): rng.randint(-1, 1)})
        p, q = CONVERGENTS[rng.choice((rng.randint(0, 44), rng.randint(40, 44)))]
        s = rng.choice((-2, -1, 1, 2))
        return Scalar({0: s * p, 1: -s * q}) * Scalar.pi(rng.randint(-1, 1))

    for n in range(1, 7):
        for k in range(2 * n + 1):
            for kind in ("int", "frac", "mixed", "near"):
                for _ in range(4):
                    coeffs = {(k, q): entry("int") for q in q_range(n, k)}
                    if kind != "int":
                        for q in q_range(n, k):
                            if rng.random() < 0.5:
                                coeffs[(k, q)] = entry(kind)
                    if rng.random() < 0.3:
                        j = rng.randint(0, 2 * n)
                        for q in q_range(n, j):
                            coeffs.setdefault((j, q), entry(rng.choice(("int", kind))))
                    yield n, Valuation(n, coeffs)


def _outcome(call):
    try:
        return call()
    except UndecidableSignError as exc:
        return exc


def _digests():
    """Per output family, the first 16 hex digits of the SHA-256 of its
    lines over _pinned_vectors(); every UndecidableSignError message goes to
    "undecidable", named by its family.  in_cone must give each verdict's
    .member, or raise the same error."""
    families = ("P", "CP", "M", "nu_coeffs", "first_variation", "delta_sign", "undecidable")
    hashes = {f: hashlib.sha256() for f in families}

    def record(family, call, text):
        result = _outcome(call)
        if isinstance(result, UndecidableSignError):
            hashes["undecidable"].update(f"{family}:{result}\n".encode())
        else:
            hashes[family].update(f"{text(result)}\n".encode())
        return result

    for n, v in _pinned_vectors():
        for family, test in (("P", is_positive), ("CP", is_crofton_positive), ("M", is_monotone)):
            verdict = record(family, lambda: test(v), lambda r: json.dumps(r.to_json()))
            member = _outcome(lambda: in_cone(v, family))
            if isinstance(verdict, UndecidableSignError):
                assert str(member) == str(verdict), (family, n, v)
            else:
                assert member == verdict.member, (family, n, v)
        for k in v.degrees():
            record("nu_coeffs", lambda: nu_coeffs(v.component(k), k), lambda r: ";".join(map(str, r)))
        record("first_variation", lambda: first_variation(n, v).items(), repr)
        record("delta_sign", lambda: first_variation(n, v).all_nonnegative(), repr)
    return {f: h.hexdigest()[:16] for f, h in hashes.items()}


# computed from the same vectors by the predicates before they shared one
# kernel per cone
PINNED_DIGESTS = {
    "P": "dbee56567bd823e3",
    "CP": "31c113c16bd77496",
    "M": "b03a5ccf9ed8fb11",
    "nu_coeffs": "5732653521b08c05",
    "first_variation": "74eb4e7ef1564950",
    "delta_sign": "f6d7132eae5aced6",
    "undecidable": "e5cf23ae52daddda",
}


def test_cone_outputs_pinned():
    got = _digests()
    for family, want in PINNED_DIGESTS.items():
        assert got[family] == want, f"{family} outputs differ from the pinned ones"


def test_in_cone_refuses_unknown_cone():
    with pytest.raises(ValueError, match="unknown cone 'C'"):
        in_cone(chi(2), "C")


def test_warm_cone_tests_build_no_scalar(monkeypatch):
    # the kernels decide in int and write witnesses from the integers; once
    # the Gram blocks and the ladder are warm, no Scalar is built
    vectors = [v for _, v in _pinned_vectors()]
    tests = [is_positive, is_crofton_positive, is_monotone] + [
        lambda v, cone=cone: in_cone(v, cone) for cone in ("P", "CP", "M")]

    def run():
        out = []
        for v in vectors:
            for test in tests:
                try:
                    out.append(test(v))
                except UndecidableSignError as exc:
                    out.append(str(exc))
        return out

    warm = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a Scalar was built")

    monkeypatch.setattr(uval.scalar, "_set_parts", refuse)  # every Scalar built sets its parts here
    assert run() == warm


def test_strictness_witnesses():
    check_cone_strictness_witnesses("full")


# ----------------------------------------------------------------------
# first variation

def _c_const(n, k, q):
    return Scalar.of(
        Fraction(1, factorial(q) * factorial(n - k + q) * factorial(k - 2 * q))
    ) / omega(2 * n - k)


def test_delta_kills_exactly_chi():
    assert first_variation(3, chi(3)).is_zero
    for n in (2, 3):
        for k in range(1, 2 * n + 1):
            for q in q_range(n, k):
                assert not first_variation(n, mu(n, k, q)).is_zero, (n, k, q)


def test_delta_gamma_coefficient_formula():
    # coefficient of Gamma_{k-1,q} in delta mu_{k,q} is
    # 2 c_{n,k,q} / c_{n,k-1,q} * (k-2q)^2
    for n in (2, 3, 4):
        for k in range(1, 2 * n + 1):
            for q in q_range(n, k):
                if k - 2 * q == 0 or k - 1 < 2 * q:
                    continue
                fv = first_variation(n, mu(n, k, q))
                want = (
                    Scalar.of(2)
                    * _c_const(n, k, q)
                    / _c_const(n, k - 1, q)
                    * (k - 2 * q) ** 2
                )
                assert fv.coefficient("Gamma", k - 1, q) == want, (n, k, q)


def test_delta_sign_matches_inequality():
    # sign of the Gamma_{k-1,q} coefficient of delta(sum a_q mu_{k,q})
    # equals the sign of (k-2q) a_q - (k-2q-1) a_{q+1}
    rng = random.Random(15)
    for n in (2, 3):
        for k in range(1, 2 * n + 1):
            qs = list(q_range(n, k))
            for _ in range(60):
                a = {q: rng.randint(-4, 4) for q in qs}
                v = Valuation(n, {(k, q): a[q] for q in qs})
                fv = first_variation(n, v)
                for q in range(max(0, k - n), (k - 1) // 2 + 1):
                    coeff = fv.coefficient("Gamma", k - 1, q)
                    ref = (k - 2 * q) * a.get(q, 0) - (k - 2 * q - 1) * a.get(q + 1, 0)
                    ref_sign = (ref > 0) - (ref < 0)
                    assert coeff.sign() == ref_sign, (n, k, q, a)


def test_delta_lowers_degree_and_is_linear():
    v = mu(3, 2, 0) * 3 + mu(3, 5, 2) * Scalar.pi(1)
    fv = first_variation(3, v)
    assert {k for (_, k, _) in fv.terms} <= {1, 4}
    a, b = mu(3, 2, 0), mu(3, 5, 2)
    combined = first_variation(3, a + b)
    merged = dict(first_variation(3, a).terms)
    for key, c in first_variation(3, b).terms.items():
        merged[key] = merged.get(key, Scalar.zero()) + c
    assert combined.terms == {k: v for k, v in merged.items() if not v.is_zero}


def test_monotone_iff_delta_nonnegative():
    check_first_variation_consistency("full")


def test_curv_expr_index_conditions():
    with pytest.raises(ValueError):
        CurvExpr(3, {("B", 2, 1): Scalar.one()})  # needs k > 2q
    with pytest.raises(ValueError):
        CurvExpr(2, {("Gamma", 3, 1): Scalar.one()})  # needs n > k - q


# ----------------------------------------------------------------------
# norms

def test_norm_examples():
    assert norm_inf(mu(3, 3, 1)) == Scalar.one()
    assert norm_one(nu(3, 3, 1)) == Scalar.one()
    v = mu(2, 2, 0) * Fraction(-3, 2) + mu(2, 2, 1)
    assert norm_inf(v) == Scalar.of(Fraction(3, 2))


def test_norm_duality_bound():
    check_norms("full")


@pytest.mark.parametrize("n", (1, 3))
def test_norm_one_undecidable_names_the_nu_coordinate(n):
    # v = (p - q pi) mu_{1,0} for the depth-44 convergent p/q of pi
    p, q = CONVERGENTS[44]
    v = mu(n, 1, 0) * Scalar({0: p, 1: -q})
    b = nu_coeffs(v, 1)[0]
    with pytest.raises(UndecidableSignError) as info:
        norm_one(v)
    assert str(info.value) == f"sign of {b} undecided on the last enclosure of pi (width < 1e-48)"


def test_norms_require_homogeneous():
    with pytest.raises(ValueError):
        norm_inf(chi(2) + mu(2, 2, 1))
    with pytest.raises(ValueError):
        norm_one(chi(2) + mu(2, 2, 1))
