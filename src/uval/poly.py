"""Polynomials in the global generators of the unitary valuation algebra.

The algebra of global unitary-invariant valuations is a polynomial algebra
in two generators: the degree-1 element t and the degree-2 element s, or
equivalently t and u := 4s - t^2.  A :class:`GradedPoly` is a sparse
polynomial in one of these two charts ("tu" or "st"), graded by deg t = 1
and deg u = deg s = 2.  The (t, u) chart is canonical internally because
the Tasaki valuations correspond to single monomials there.

The relation polynomials f_k (the generators of the kernel of the
restriction to C^n are f_{n+1}, f_{n+2}) are provided by two independent
routes: a three-term recursion seeded by f_1 = t, f_2 = s - t^2/2, and a
closed binomial sum in the (t, u) chart.  Their agreement is one of the
test-suite anchors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Iterable, Mapping

from .scalar import RationalLike, Scalar, accumulate, binomial

__all__ = ["GradedPoly", "change_vars", "f_recursive", "f_closed"]

_CHARTS = ("tu", "st")


class GradedPoly:
    """Sparse polynomial {(t_exp, other_exp): Scalar} in a fixed chart.

    In chart "tu" the key (a, b) is the monomial t^a u^b; in chart "st" it
    is t^a s^b.  Both charts grade the monomial by a + 2b.  Zero
    coefficients are never stored; the zero polynomial is the empty map.
    """

    __slots__ = ("chart", "_coeffs")

    def __init__(
        self,
        coeffs: Mapping[tuple[int, int], Scalar | RationalLike] | None = None,
        chart: str = "tu",
    ):
        if chart not in _CHARTS:
            raise ValueError(f"unknown chart {chart!r}")
        clean: dict[tuple[int, int], Scalar] = {}
        if coeffs:
            for (a, b), c in coeffs.items():
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in monomial ({a}, {b})")
                if not isinstance(c, Scalar):
                    c = Scalar.of(c)
                if not c.is_zero:
                    clean[(int(a), int(b))] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GradedPoly is immutable")

    def __reduce__(self):
        return _raw, (self._coeffs, self.chart)

    # ------------------------------------------------------------------
    @staticmethod
    def zero(chart: str = "tu") -> "GradedPoly":
        return GradedPoly({}, chart)

    @staticmethod
    def monomial(a: int, b: int, coeff: Scalar | RationalLike = 1, chart: str = "tu") -> "GradedPoly":
        return GradedPoly({(a, b): coeff}, chart)

    @staticmethod
    def t(chart: str = "tu") -> "GradedPoly":
        return GradedPoly.monomial(1, 0, 1, chart)

    @staticmethod
    def u() -> "GradedPoly":
        return GradedPoly.monomial(0, 1, 1, "tu")

    @staticmethod
    def s() -> "GradedPoly":
        return GradedPoly.monomial(0, 1, 1, "st")

    @staticmethod
    def s_in_tu() -> "GradedPoly":
        """s expressed in the (t, u) chart: (u + t^2)/4."""
        q = Fraction(1, 4)
        return GradedPoly({(0, 1): q, (2, 0): q}, "tu")

    # ------------------------------------------------------------------
    def items(self) -> list[tuple[tuple[int, int], Scalar]]:
        """Monomials sorted by (degree, other_exp); deterministic order."""
        return sorted(self._coeffs.items(), key=lambda kv: (kv[0][0] + 2 * kv[0][1], kv[0][1]))

    def coefficient(self, a: int, b: int) -> Scalar:
        return self._coeffs.get((a, b), Scalar.zero())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._coeffs:
            return -1
        return max(a + 2 * b for a, b in self._coeffs)

    def graded_part(self, k: int) -> "GradedPoly":
        return GradedPoly(
            {m: c for m, c in self._coeffs.items() if m[0] + 2 * m[1] == k}, self.chart
        )

    def degrees(self) -> list[int]:
        return sorted({a + 2 * b for a, b in self._coeffs})

    # ------------------------------------------------------------------
    def _check_chart(self, other: "GradedPoly") -> None:
        if self.chart != other.chart:
            raise ValueError(f"chart mismatch: {self.chart} vs {other.chart}")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_chart(other)
        return _raw(accumulate(dict(self._coeffs), other._coeffs.items()), self.chart)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __neg__(self) -> "GradedPoly":
        return _raw({m: -c for m, c in self._coeffs.items()}, self.chart)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            if not isinstance(other, Scalar):
                other = Scalar.of(other)
            if other.is_zero:
                return GradedPoly.zero(self.chart)
            return _raw({m: c * other for m, c in self._coeffs.items()}, self.chart)
        if isinstance(other, GradedPoly):
            self._check_chart(other)
            pairs = other._coeffs.items()
            return _raw(accumulate({}, (
                ((a1 + a2, b1 + b2), c1 * c2)
                for (a1, b1), c1 in self._coeffs.items()
                for (a2, b2), c2 in pairs
            )), self.chart)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GradedPoly":
        if k < 0:
            raise ValueError("negative power of a GradedPoly")
        out = GradedPoly.monomial(0, 0, 1, self.chart)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.chart == other.chart and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.chart, tuple(self.items())))

    # ------------------------------------------------------------------
    def to_json(self) -> list[dict]:
        key = "u" if self.chart == "tu" else "s"
        return [
            {"t": a, key: b, "coeff": c.to_json()} for (a, b), c in self.items()
        ]

    @staticmethod
    def from_json(data: Iterable[Mapping], chart: str = "tu") -> "GradedPoly":
        key = "u" if chart == "tu" else "s"
        return GradedPoly(accumulate({}, (
            ((index(entry["t"]), index(entry[key])), Scalar.from_json(entry["coeff"])) for entry in data
        )), chart)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        var = "u" if self.chart == "tu" else "s"
        parts = []
        for (a, b), c in self.items():
            names = []
            if a:
                names.append("t" if a == 1 else f"t^{a}")
            if b:
                names.append(var if b == 1 else f"{var}^{b}")
            mono = "*".join(names) if names else "1"
            parts.append(f"({c})*{mono}" if names else f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GradedPoly[{self.chart}]({self})"


def _raw(coeffs: dict[tuple[int, int], Scalar], chart: str) -> GradedPoly:
    p = GradedPoly.__new__(GradedPoly)
    object.__setattr__(p, "chart", chart)
    object.__setattr__(p, "_coeffs", coeffs)
    return p


def change_vars(p: GradedPoly, to: str) -> GradedPoly:
    """Rewrite p in the other chart via u = 4s - t^2, s = (u + t^2)/4.

    The substitution is exact and the two directions are mutually inverse.
    """
    if to not in _CHARTS:
        raise ValueError(f"unknown chart {to!r}")
    if p.chart == to:
        return p

    def terms():
        # expand (4s - t^2)^b resp. ((u + t^2)/4)^b
        for (a, b), c in p.items():
            for j in range(b + 1):
                if to == "st":
                    # u^b = sum_j C(b,j) 4^j s^j (-1)^{b-j} t^{2(b-j)}
                    coeff = c * Fraction(binomial(b, j) * 4**j * (-1) ** (b - j))
                else:
                    # s^b = 4^{-b} sum_j C(b,j) u^j t^{2(b-j)}
                    coeff = c * Fraction(binomial(b, j), 4**b)
                yield (a + 2 * (b - j), j), coeff

    return GradedPoly(accumulate({}, terms()), to)


@lru_cache(maxsize=None)
def _f_recursive_st(k: int) -> GradedPoly:
    if k == 1:
        return GradedPoly.t("st")
    if k == 2:
        return GradedPoly({(0, 1): 1, (2, 0): Fraction(-1, 2)}, "st")
    # k s f_k + (k+1) t f_{k+1} + (k+2) f_{k+2} = 0, rearranged for f_{k+2}
    m = k - 2
    fk = _f_recursive_st(m) * GradedPoly.s() * Fraction(m)
    fk1 = _f_recursive_st(m + 1) * GradedPoly.t("st") * Fraction(m + 1)
    return (fk + fk1) * Fraction(-1, k)


def f_recursive(k: int) -> GradedPoly:
    """f_k from the three-term recursion, returned in the (t, u) chart."""
    if k < 1:
        raise ValueError("f_k defined for k >= 1")
    return change_vars(_f_recursive_st(k), "tu")


@lru_cache(maxsize=None)
def f_closed(k: int) -> GradedPoly:
    """f_k from the closed binomial sum, in the (t, u) chart.

    f_k = 1/(k (-2)^{k-1}) * sum_q (-1)^q C(k, 2q) t^{k-2q} u^q.
    """
    if k < 1:
        raise ValueError("f_k defined for k >= 1")
    pref = Fraction(1, k * (-2) ** (k - 1))
    coeffs = {}
    for q in range(k // 2 + 1):
        coeffs[(k - 2 * q, q)] = pref * (-1) ** q * binomial(k, 2 * q)
    return GradedPoly(coeffs, "tu")
