"""Pinned outputs of the kinematic tensors, the Lefschetz decomposition
and the Crofton-dual basis, as SHA-256 prefixes per family: kinematic and
additive_kinematic on seeded mixed-pi valuations, chi and zero at n <= 8
and on (chi+t)^(2n) for n <= 16, lefschetz_decompose at n <= 10, and
every nu(n, k, p) with nu_coeffs and norm_one at n <= 8."""

import hashlib
import json
import random
from fractions import Fraction

from uval.cones import norm_one, nu, nu_coeffs
from uval.kinematic import additive_kinematic, kinematic
from uval.scalar import Scalar, UndecidableSignError
from uval.sl2 import lefschetz_decompose
from uval.valspec import parse_valspec
from uval.valuation import Valuation, chi, q_range


def _coefficient(rng):
    """An integer, a + b pi, or two or three pi exponents in -3..3, over
    small denominators."""
    shape = rng.randrange(3)
    if shape == 0:
        return rng.randint(-9, 9)
    exps = (0, 1) if shape == 1 else rng.sample(range(-3, 4), rng.randint(2, 3))
    return Scalar({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in exps})


def _valuations(rng, top, count):
    """count seeded valuations per n = 1..top, each with two to six
    coefficients at random (k, q)."""
    for n in range(1, top + 1):
        for _ in range(count):
            coeffs = {}
            for _ in range(rng.randint(2, 6)):
                k = rng.randint(0, 2 * n)
                coeffs[(k, rng.choice(q_range(n, k)))] = _coefficient(rng)
            yield n, Valuation(n, coeffs)


def _text(x) -> str:
    return json.dumps(x.to_json(), sort_keys=True)


def _digests():
    """Per output family, the first 16 hex digits of the SHA-256 of its
    lines."""
    hashes = {}

    def record(family, line):
        hashes.setdefault(family, hashlib.sha256()).update(f"{line}\n".encode())

    rng = random.Random(24)
    inputs = [*_valuations(rng, 8, 12)]
    inputs += [(n, v) for n in range(1, 9) for v in (chi(n), Valuation.zero(n))]
    for n, v in inputs:
        record("kinematic_mixed", _text(kinematic(n, v)))
        record("additive_mixed", _text(additive_kinematic(n, v)))
    for n in range(1, 17):
        v = parse_valspec(f"(chi+t)^{2 * n}", n)
        record("kinematic_chi_t", _text(kinematic(n, v)))
        record("additive_chi_t", _text(additive_kinematic(n, v)))
    for n, v in _valuations(rng, 10, 6):
        dense = Valuation(n, {(k, q): Scalar({k % 3 - 1: q + 1}) for k in range(2 * n + 1) for q in q_range(n, k)})
        for w in (v, dense):
            record("lefschetz", json.dumps([(k, r, c.to_json()) for k, r, c in lefschetz_decompose(w)]))
    for n in range(1, 9):
        for k in range(2 * n + 1):
            for p in q_range(n, k):
                record("nu", _text(nu(n, k, p)))
            for _ in range(3):
                v = Valuation(n, {(k, q): _coefficient(rng) for q in q_range(n, k)})
                record("nu_coeffs", ";".join(map(str, nu_coeffs(v, k))))
                try:
                    record("norm_one", str(norm_one(v)))
                except UndecidableSignError as exc:
                    record("norm_one", f"undecidable: {exc}")
    return {f: h.hexdigest()[:16] for f, h in hashes.items()}


# computed from the same inputs while kinematic summed cached per-q blocks
# into a dict and built the Scalars in a second pass
PINNED_DIGESTS = {
    "kinematic_mixed": "5031dd8c0ca36070",
    "additive_mixed": "d8378b34adddaaeb",
    "kinematic_chi_t": "b8f769ee2821f242",
    "additive_chi_t": "e2f233c4b817ec66",
    "lefschetz": "4379b8b0081125af",
    "nu": "26c543792eb35c89",
    "nu_coeffs": "85ae1a61ef18402e",
    "norm_one": "d6ed70d37798ebe2",
}


def test_kinematic_outputs_pinned():
    got = _digests()
    assert set(got) == set(PINNED_DIGESTS)
    for family, want in PINNED_DIGESTS.items():
        assert got[family] == want, f"{family} outputs differ from the pinned ones"
