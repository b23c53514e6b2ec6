"""The sl(2,R)-structure on the unitary valuation algebra.

The raising operator L, lowering operator Lambda and grading operator H
act on mu coordinates by

    L  mu_{k,q} = 2(q+1) mu_{k+1,q+1} + (k-2q+1) mu_{k+1,q}
    La mu_{k,q} = 2(n-k+q+1) mu_{k-1,q} + (k-2q+1) mu_{k-1,q-1}
    H  = (2k - 2n) on the degree-k component,

with out-of-range targets understood as zero.  L is implemented directly
on coordinates rather than as multiplication by mu_1, which avoids a
circular dependency on the product; the multiplicative description
survives as a cross-check invariant in the test suite.

Primitive elements pi_{k,r} (kernel of Lambda, one per admissible (k, r))
are built from their closed Tasaki expansion, normalised so that the
tau_{2r,r} coefficient of pi_{2r,r} is 1; pi_{k,r} = L^{k-2r} pi_{2r,r}.
That expansion has one source, _primitive_tau_coeffs, which the closed
Tasaki route of :mod:`uval.kinematic` reads as well.
The Lefschetz decomposition expands each graded piece in this basis with
a cached integer inverse over one denominator, applied to the integer
vectors of the valuation's store (see :mod:`uval.valuation`); one Scalar
is built per output coefficient.  L, Lambda and H read and build
coefficients as Scalars: they sit on no hot path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .linalg import _clear, invert_fraction_matrix
from .scalar import Scalar, _Record, accumulate, double_factorial, factorial
from .valuation import Valuation, dim_val, q_range, tau

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


def _collect(n: int, terms) -> Valuation:
    """The sum of the ((k, q), c) terms c * mu_{k,q}, out-of-range (k, q) dropped."""
    return Valuation(n, accumulate({}, (
        ((k, q), c) for (k, q), c in terms if 0 <= k <= 2 * n and q in q_range(n, k)
    )))


def apply_L(v: Valuation) -> Valuation:
    """The degree-raising operator; kills the top-degree component."""

    def terms():
        for (k, q), c in v.items():
            yield (k + 1, q + 1), c * 2 * (q + 1)
            yield (k + 1, q), c * (k - 2 * q + 1)

    return _collect(v.n, terms())


def apply_Lambda(v: Valuation) -> Valuation:
    """The degree-lowering operator; kills the Euler characteristic."""
    n = v.n

    def terms():
        for (k, q), c in v.items():
            yield (k - 1, q), c * 2 * (n - k + q + 1)
            yield (k - 1, q - 1), c * (k - 2 * q + 1)

    return _collect(n, terms())


def apply_H(v: Valuation) -> Valuation:
    """The grading operator: eigenvalue 2k - 2n on the degree-k component."""
    n = v.n
    out = {
        (k, q): c * (2 * k - 2 * n)
        for (k, q), c in v.items()
        if k != n
    }
    return Valuation(n, out)


class Sl2Operator(_Record):
    """One of the three sl(2) generators, dispatchable by name."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):  # "L" | "Lambda" | "H"
        if kind not in ("L", "Lambda", "H"):
            raise ValueError(f"unknown sl2 operator {kind!r}")
        object.__setattr__(self, "kind", kind)

    def apply(self, v: Valuation) -> Valuation:
        if self.kind == "L":
            return apply_L(v)
        if self.kind == "Lambda":
            return apply_Lambda(v)
        return apply_H(v)


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
    out = Valuation.zero(n)
    for i, x in enumerate(a):
        out = out + tau(n, k, i) * Fraction(x, d)
    return out


@lru_cache(maxsize=None)
def _primitive_basis_inverse(n: int, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Inverse of the matrix whose columns are the mu coordinates of
    pi_{k,r}, r = 0..p, as (den, rows): entry (r, i) is rows[r][i] / den.
    The coordinates are rational numbers, so no pi enters."""
    qs = list(q_range(n, k))
    cols = []
    for r in range(dim_val(n, k)):
        p = primitive_general(n, k, r)
        cols.append([p.coefficient(k, q).as_fraction() for q in qs])
    matrix = [[cols[r][i] for r in range(len(cols))] for i in range(len(qs))]
    den, rows = _clear(invert_fraction_matrix(matrix))
    return den, tuple(map(tuple, rows))


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
        q0 = max(0, k - n)
        parts = {e: a[q0:] for e, a in v._parts[k].items()}
        for r, row in enumerate(inv):
            c = Scalar.from_parts({e: sum(map(mul, row, a)) for e, a in parts.items()}, den * v._den)
            if c:
                out.append((k, r, c))
    return out


def reconstruct(n: int, parts: list[tuple[int, int, Scalar]]) -> Valuation:
    """Inverse of :func:`lefschetz_decompose`."""
    out = Valuation.zero(n)
    for k, r, c in parts:
        out = out + primitive_general(n, k, r) * c
    return out
