"""Pinned outputs of the product: multiply, pairing_pd, the basis products
and the Tasaki Gram matrices, as SHA-256 prefixes per family."""

import hashlib
import json
import random
from fractions import Fraction

from uval.kinematic import _tasaki_gram, pairing_pd
from uval.scalar import Scalar
from uval.valspec import parse_valspec
from uval.valuation import Valuation, _basis_products, multiply, q_range


def _coefficient(rng, shape):
    """One coefficient: an integer, a + b pi over small denominators, two
    or three pi exponents with gaps over -6..6 and numerators up to 10^30,
    or three to five contiguous pi exponents."""
    if shape == "int":
        return rng.randint(-9, 9)
    if shape == "a_plus_b_pi":
        return Scalar({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in (0, 1)})
    if shape == "gapped":
        exps = rng.sample(range(-6, 7), rng.randint(2, 3))
        return Scalar({e: Fraction(rng.randint(-10**30, 10**30), rng.choice((1, 3, 2**40))) for e in exps})
    e0 = rng.randint(-3, 1)
    return Scalar({e0 + t: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for t in range(rng.randint(3, 5))})


SHAPES = ("int", "a_plus_b_pi", "gapped", "many_exponents")


def _operand_pairs():
    """Seeded (shape, a, b) at n <= 10: each operand has two to six
    coefficients at random (k, q), every coefficient of the given shape."""
    rng = random.Random(20)

    def operand(n, shape):
        coeffs = {}
        for _ in range(rng.randint(2, 6)):
            k = rng.randint(0, 2 * n)
            coeffs[(k, rng.choice(q_range(n, k)))] = _coefficient(rng, shape)
        return Valuation(n, coeffs)

    for n in range(1, 11):
        for shape in SHAPES:
            for _ in range(3):
                yield shape, operand(n, shape), operand(n, shape)


def _text(v: Valuation) -> str:
    return json.dumps(v.to_json(), sort_keys=True)


def _digests():
    """Per output family, the first 16 hex digits of the SHA-256 of its
    lines."""
    hashes = {}

    def record(family, line):
        hashes.setdefault(family, hashlib.sha256()).update(f"{line}\n".encode())

    for shape, a, b in _operand_pairs():
        record(f"multiply_{shape}", _text(multiply(a, b)))
        record("pairing_pd", json.dumps(pairing_pd(a, b).to_json()))
    v = parse_valspec("chi+t", 32)
    for _ in range(8):  # (chi+t)^(2^j), j = 0..7
        record("chi_t_chain", _text(v))
        v = multiply(v, v)
    rng = random.Random(20)
    for n in range(1, 7):
        for c in range(2 * n + 1):
            vectors = [[int(i == q) for i in range(c // 2 + 1)] for q in q_range(n, c)]
            vectors.append([rng.randint(-9, 9) if i in q_range(n, c) else 0 for i in range(c // 2 + 1)])
            for k in range(2 * n - c + 1):
                for a in vectors:
                    # a lists every q; _basis_products reads the q_range window
                    record("basis_products", repr((n, c, k, a, _basis_products(n, c, a[max(0, c - n):], k))))
    for n in range(1, 17):
        for k in range(n + 1):
            record("tasaki_gram", repr((n, k, _tasaki_gram(n, k))))
    return {f: h.hexdigest()[:16] for f, h in hashes.items()}


# computed from the same inputs by multiply when it packed the pi exponents
# of each coordinate as the digits of one int
PINNED_DIGESTS = {
    "multiply_int": "ed4f8913d35fe630",
    "multiply_a_plus_b_pi": "f1459a8b84a66b4e",
    "multiply_gapped": "6542f86e12793dc8",
    "multiply_many_exponents": "d59ecbbf500875a0",
    "pairing_pd": "f80c9ad97e25a04e",
    "chi_t_chain": "512d5cfe3c655ba5",
    "basis_products": "0754bfa8bfeb086f",
    "tasaki_gram": "1cb43d442b88b9d2",
}


def test_product_outputs_pinned():
    got = _digests()
    assert set(got) == set(PINNED_DIGESTS)
    for family, want in PINNED_DIGESTS.items():
        assert got[family] == want, f"{family} outputs differ from the pinned ones"
