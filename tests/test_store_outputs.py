"""Pinned outputs of the readers of the Valuation store, as SHA-256
prefixes per family: fourier, iota of the even part, tau_coords of every
degree, items and coefficient (q outside the range too), the sl(2)
operators, first_variation, norm_inf and the three cone verdicts of every
degree on seeded mixed-pi valuations at n <= 10; every tau and
primitive_general at n <= 10; and the cached primitive-basis inverses at
n <= 32."""

import hashlib
import json
import random
from fractions import Fraction

from uval.cones import first_variation, is_crofton_positive, is_monotone, is_positive, norm_inf
from uval.scalar import Scalar, UndecidableSignError
from uval.sl2 import _primitive_basis_inverse, apply_H, apply_L, apply_Lambda, primitive_general
from uval.valuation import Valuation, fourier, iota, q_range, tau, tau_coords


def _coefficient(rng):
    """An integer, a + b pi, or two or three pi exponents in -3..3, over
    small denominators."""
    shape = rng.randrange(3)
    if shape == 0:
        return rng.randint(-9, 9)
    exps = (0, 1) if shape == 1 else rng.sample(range(-3, 4), rng.randint(2, 3))
    return Scalar({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in exps})


def _valuations(rng):
    """Per n = 1..10, eight seeded valuations with two to six coefficients
    at random (k, q), and one with every coefficient set, so that each
    position of every degree's q_range is read."""
    for n in range(1, 11):
        for _ in range(8):
            coeffs = {}
            for _ in range(rng.randint(2, 6)):
                k = rng.randint(0, 2 * n)
                coeffs[(k, rng.choice(q_range(n, k)))] = _coefficient(rng)
            yield Valuation(n, coeffs)
        yield Valuation(n, {(k, q): _coefficient(rng) for k in range(2 * n + 1) for q in q_range(n, k)})


def _text(x) -> str:
    return json.dumps(x.to_json(), sort_keys=True)


CONES = (("positive", is_positive), ("crofton", is_crofton_positive), ("monotone", is_monotone))


def _digests():
    """Per output family, the first 16 hex digits of the SHA-256 of its
    lines.  A line whose call raises records the error instead, so a
    broken reader shows as its own family."""
    hashes = {}

    def record(family, call):
        try:
            line = call()
        except UndecidableSignError as exc:
            line = f"undecidable: {exc}"
        except Exception as exc:
            line = f"raised {type(exc).__name__}: {exc}"
        hashes.setdefault(family, hashlib.sha256()).update(f"{line}\n".encode())

    for v in _valuations(random.Random(25)):
        n = v.n
        even = sum((v.component(k) for k in v.degrees() if k % 2 == 0), Valuation.zero(n))
        record("fourier", lambda: _text(fourier(v)))
        record("iota", lambda: _text(iota(even)))
        record("items", lambda: repr([(kq, str(c)) for kq, c in v.items()]))
        record("apply_L", lambda: _text(apply_L(v)))
        record("apply_Lambda", lambda: _text(apply_Lambda(v)))
        record("apply_H", lambda: _text(apply_H(v)))
        record("first_variation", lambda: str(first_variation(n, v)))
        for k in range(-1, 2 * n + 2):
            record("coefficient", lambda: ";".join(str(v.coefficient(k, q)) for q in range(-1, k // 2 + 2)))
        for k in range(2 * n + 1):
            part = v.component(k)
            record("tau_coords", lambda: ";".join(map(str, tau_coords(v, k))))
            record("norm_inf", lambda: str(norm_inf(part)))
            for cone, test in CONES:
                record(f"cone_{cone}", lambda: json.dumps(test(part).to_json(), sort_keys=True))
        for cone, test in CONES:
            record(f"cone_{cone}", lambda: json.dumps(test(v).to_json(), sort_keys=True))
    for n in range(1, 11):
        for k in range(2 * n + 1):
            for q in range(k // 2 + 1):
                record("tau", lambda: _text(tau(n, k, q)))
            for r in range(min(k, 2 * n - k) // 2 + 1):
                record("primitive_general", lambda: _text(primitive_general(n, k, r)))
    digests = {f: h.hexdigest()[:16] for f, h in hashes.items()}
    inverses = hashlib.sha256()  # the one family whose lines carry no newline
    for n in range(1, 33):
        for k in range(2 * n + 1):
            inverses.update(repr((n, k, _primitive_basis_inverse(n, k))).encode())
    digests["primitive_basis_inverse"] = inverses.hexdigest()[:16]
    return digests


# computed from the same inputs while each stored vector held floor(k/2)+1
# numerators, zero below q_range
PINNED_DIGESTS = {
    "fourier": "4a6d9dcfc6a4c7d5",
    "iota": "5c0ab3f1a70b7a59",
    "items": "a7d3c319509b36c3",
    "apply_L": "c4d99a5a72ba6b3f",
    "apply_Lambda": "71561cce21309a7c",
    "apply_H": "f0535c1d63576c83",
    "first_variation": "0b707d0a5297aadb",
    "coefficient": "b77c6f4ecc25ac4d",
    "tau_coords": "b98690fc868c9385",
    "norm_inf": "85466e81466e716e",
    "cone_positive": "944edbdf0b65f6e3",
    "cone_crofton": "855ad1f3632f8421",
    "cone_monotone": "e08bc15e411e7378",
    "tau": "954dddedddb159d8",
    "primitive_general": "04e1757874e97642",
    "primitive_basis_inverse": "4c066a495cd70022",
}


def test_store_outputs_pinned():
    got = _digests()
    assert set(got) == set(PINNED_DIGESTS)
    differ = [family for family, want in PINNED_DIGESTS.items() if got[family] != want]
    assert not differ, f"{', '.join(differ)} outputs differ from the pinned ones"
