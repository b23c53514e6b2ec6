"""The sl(2,R)-structure on the unitary valuation algebra.

The raising operator L, lowering operator Lambda and grading operator H
act on mu coordinates by

    L  mu_{k,q} = 2(q+1) mu_{k+1,q+1} + (k-2q+1) mu_{k+1,q}
    La mu_{k,q} = 2(n-k+q+1) mu_{k-1,q} + (k-2q+1) mu_{k-1,q-1}
    H  = (2k - 2n) on the degree-k component,

with out-of-range targets understood as zero.  All three run in int on
the integer vectors of the valuation's store (see :mod:`uval.valuation`).
L is implemented directly on coordinates rather than as multiplication
by mu_1, which avoids a circular dependency on the product; the
multiplicative description survives as a cross-check invariant in the
test suite.

Primitive elements pi_{k,r} (kernel of Lambda, one per admissible (k, r))
are built from their closed Tasaki expansion, normalised so that the
tau_{2r,r} coefficient of pi_{2r,r} is 1; pi_{k,r} = L^{k-2r} pi_{2r,r}.
That expansion has one source, _primitive_tau_coeffs, which the closed
Tasaki route of :mod:`uval.kinematic` reads as well; restricted to level
n it gives the integer mu coordinates of pi_{k,r}.
The Lefschetz decomposition applies a cached integer inverse per degree
to the store, one Scalar per output coefficient.  The inverse is closed,
not eliminated: at kk = min(k, 2n-k), tau_{kk,i} = sum_{r<=i}
(2n-2r-2i-1)!! / (2^{i-r} (i-r)! (kk-2i)! (2n-4r-1)!!) pi_{kk,r}, and
above the middle degree F keeps the mu window and sends pi_{kk,r} to
(kk-2r)!/(k-2r)! pi_{k,r} (the magic formula).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from operator import mul

from .scalar import Scalar, _Record, _reduced, _scalars, double_factorial, factorial
from .valuation import Valuation, _combine, _lift, _restrict, q_range

__all__ = [
    "apply_L",
    "apply_Lambda",
    "apply_H",
    "Sl2Operator",
    "primitive",
    "primitive_general",
    "lefschetz_decompose",
    "reconstruct",
]


def _apply(v: Valuation, shift: int, image) -> Valuation:
    """The operator mu_{k,q} -> sum of w * mu_{k+shift,t} over the (t, w)
    of image(k, q), targets outside q_range dropped, applied in int to
    every vector of v's store.  Each target degree has one source degree."""
    n, parts = v.n, {}
    for k, by_e in v._parts.items():
        m = k + shift
        if 0 <= m <= 2 * n:
            sources, targets = q_range(n, k), q_range(n, m)
            steps = [(q - sources.start, t - targets.start, w)
                     for q in sources for t, w in image(k, q) if w and t in targets]
            out = parts[m] = {}
            for e, a in by_e.items():
                b = out[e] = [0] * len(targets)
                for i, j, w in steps:
                    b[j] += w * a[i]
    return _combine(n, v._den, [(1, 0, parts)])


def apply_L(v: Valuation) -> Valuation:
    """The degree-raising operator; kills the top-degree component."""
    return _apply(v, 1, lambda k, q: ((q + 1, 2 * (q + 1)), (q, k - 2 * q + 1)))


def apply_Lambda(v: Valuation) -> Valuation:
    """The degree-lowering operator; kills the Euler characteristic."""
    n = v.n
    return _apply(v, -1, lambda k, q: ((q, 2 * (n - k + q + 1)), (q - 1, k - 2 * q + 1)))


def apply_H(v: Valuation) -> Valuation:
    """The grading operator: eigenvalue 2k - 2n on the degree-k component."""
    return _apply(v, 0, lambda k, q: ((q, 2 * k - 2 * v.n),))


class Sl2Operator(_Record):
    """One of the three sl(2) generators, dispatchable by name."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):  # "L" | "Lambda" | "H"
        if kind not in ("L", "Lambda", "H"):
            raise ValueError(f"unknown sl2 operator {kind!r}")
        object.__setattr__(self, "kind", kind)

    def apply(self, v: Valuation) -> Valuation:
        return {"L": apply_L, "Lambda": apply_Lambda, "H": apply_H}[self.kind](v)


# ----------------------------------------------------------------------
# primitive elements

@lru_cache(maxsize=None)
def _primitive_tau_coeffs(n: int, k: int, r: int) -> tuple[int, tuple[int, ...]]:
    """The closed tau-expansion of pi_{k,r} as (d, a): the coefficient of
    tau_{k,i} is a[i]/d for i <= r and 0 for i > r, where a[i]/d is
    (-1)^{r+i} (2n-4r+1)!! (k-2i)! (2r-2i-1)!! / ((2r-2i)! (2n-2r-2i+1)!!).
    The caller checks the range."""
    lead = (-1) ** r * double_factorial(2 * n - 4 * r + 1)
    coeffs = [
        Fraction(
            lead * (-1) ** i * factorial(k - 2 * i) * double_factorial(2 * r - 2 * i - 1),
            factorial(2 * r - 2 * i) * double_factorial(2 * n - 2 * r - 2 * i + 1),
        )
        for i in range(r + 1)
    ]
    d = lcm(*(c.denominator for c in coeffs))
    return d, tuple(c.numerator * (d // c.denominator) for c in coeffs)


def primitive(n: int, r: int) -> Valuation:
    """The primitive element pi_{2r,r} = primitive_general(n, 2r, r),
    0 <= 2r <= n; it spans the kernel of Lambda in degree 2r and its
    leading tau_{2r,r} coefficient is 1."""
    if r < 0 or 2 * r > n:
        raise ValueError(f"primitive element needs 0 <= 2r <= n, got r={r}, n={n}")
    return primitive_general(n, 2 * r, r)


def primitive_general(n: int, k: int, r: int) -> Valuation:
    """pi_{k,r} = L^{k-2r} pi_{2r,r} via its closed Tasaki expansion.

    Admissible range 2r <= k <= 2n - 2r.  The operator-iteration route is
    equivalent and kept as a test invariant.
    """
    if not (0 <= 2 * r <= k <= 2 * n - 2 * r):
        raise ValueError(f"primitive element needs 2r <= k <= 2n-2r, got (n,k,r)=({n},{k},{r})")
    d, a = _primitive_tau_coeffs(n, k, r)
    return _combine(n, d, [(1, 0, {k: {0: tuple(_restrict(n, k, a))}})])


@lru_cache(maxsize=None)
def _primitive_basis_inverse(n: int, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The inverse of the mu coordinates of pi_{k,r}, r = 0..p, on the
    window q_range(n, k), as (den, rows): entry (r, j) is rows[r][j]/den,
    den > 0 coprime to the entries.  Row r at kk = min(k, 2n-k) composes
    tau_{kk,i} = sum_{r<=i} x_{r,i} pi_{kk,r}, x_{r,i} = (2n-2r-2i-1)!! /
    (2^{i-r} (i-r)! (kk-2i)! (2n-4r-1)!!), with the lift _lift(kk); for
    k > n, F keeps the window and scales row r by (kk-2r)!/(k-2r)!.
    """
    kk = min(k, 2 * n - k)
    p = kk // 2
    odd = list(accumulate(range(1, 2 * n, 2), mul, initial=1))  # odd[m] = (2m-1)!!
    top = 2**p * factorial(p) * factorial(kk) * odd[n]  # top x_{r,i} is an integer
    shrink = [factorial(k - 2 * r) // factorial(kk - 2 * r) for r in range(p + 1)]  # all 1 for k <= n
    scale = lcm(*shrink)
    rows = []
    for r in range(p + 1):
        x = [0] * (p + 1)  # x[i] = top x_{r,i}
        for i in range(r, p + 1):
            below = 2 ** (i - r) * factorial(i - r) * factorial(kk - 2 * i) * odd[n - 2 * r]
            x[i] = top // below * odd[n - r - i]
        rows.append([scale // shrink[r] * sum(w * x[i] for i, w in terms) for terms in _lift(kk)])
    return _reduced(top * scale, rows)


def lefschetz_decompose(v: Valuation) -> list[tuple[int, int, Scalar]]:
    """Expansion of v in the primitive basis: [(k, r, coefficient), ...].

    The pi_{k,r} with 0 <= r <= min(k, 2n-k)/2 form a basis of each graded
    piece.  The cached integer inverse of each degree is applied in int to
    every pi exponent's vector of v's store, and one Scalar is built per
    nonzero coefficient.  Reconstruction (sum of c * pi_{k,r}) is exact.
    """
    n = v.n
    out: list[tuple[int, int, Scalar]] = []
    for k in v.degrees():
        den, inv = _primitive_basis_inverse(n, k)
        coords = {e: [sum(map(mul, row, a)) for row in inv] for e, a in v._parts[k].items()}
        out += [(k, r, c) for r, c in enumerate(_scalars(coords, den * v._den, len(inv))) if c]
    return out


def reconstruct(n: int, parts: list[tuple[int, int, Scalar]]) -> Valuation:
    """Inverse of :func:`lefschetz_decompose`."""
    out = Valuation.zero(n)
    for k, r, c in parts:
        out = out + primitive_general(n, k, r) * c
    return out
