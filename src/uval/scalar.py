"""Exact arithmetic for the coefficient field Q[pi, pi^-1].

Every constant in the hermitian integral geometry of C^n is a rational
multiple of an integer power of pi, and sums of such terms appear as soon
as valuations of mixed degree are combined.  A :class:`Scalar` is therefore
a Laurent polynomial in pi with Fraction coefficients, stored sparsely as
a map {pi-exponent: coefficient}.  pi is treated as a formal transcendental:
no floating point enters any algebraic computation.  Every Scalar built from
the integers of a store goes through one kernel from reduced integers to
Fractions, and its text comes from one formatter; every cached integer
table of the exact core is put in canonical form by one helper.  The
only numeric exits are :meth:`Scalar.to_float` (for display and the
Monte-Carlo module) and :func:`sign`, which decides signs exactly in
integer arithmetic over a fixed ladder of rational enclosures of pi.

The module also houses the small combinatorial constants used throughout:
ball volumes omega_k, odd double factorials, binomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "Scalar",
    "UndecidableSignError",
    "omega",
    "double_factorial",
    "binomial",
    "factorial",
    "pi_bounds",
    "sign",
]


class UndecidableSignError(ArithmeticError):
    """Raised when the sign of a Scalar is still undecided on the last of
    the fixed enclosures of pi that :func:`sign` uses (width below 10^-48)."""


class Scalar:
    """A Laurent polynomial sum_e c_e * pi^e with c_e in Q, c_e != 0.

    Instances are immutable; all operations return fresh objects.  The zero
    scalar is the empty term map.  Equality is exact, term by term, and a
    rational scalar equals, and hashes as, its int or Fraction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _raw, (self._terms,)

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def of(value: RationalLike, pi_exp: int = 0) -> "Scalar":
        """The scalar value * pi^pi_exp."""
        return Scalar({pi_exp: Fraction(value)})

    @staticmethod
    def pi(exp: int = 1) -> "Scalar":
        return Scalar({exp: Fraction(1)})

    @staticmethod
    def from_parts(parts: Mapping[int, int], den: int = 1) -> "Scalar":
        """The scalar sum_e parts[e] * pi^e / den of integer parts, den > 0."""
        return _raw({e: _fraction(x // g, den // g) for e, x in parts.items() if x and (g := gcd(x, den))})

    def to_parts(self) -> tuple[dict[int, int], int]:
        """(parts, den) with den the least common denominator: the inverse
        of from_parts."""
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        return {e: c.numerator * (den // c.denominator) for e, c in self._terms.items()}, den

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms as (exponent, coefficient), ascending in the exponent."""
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        """True iff the scalar has exactly one term c * pi^e."""
        return len(self._terms) == 1

    def monomial(self) -> tuple[int, Fraction]:
        """The (exponent, coefficient) of a one-term scalar."""
        if len(self._terms) != 1:
            raise ValueError(f"not a monomial scalar: {self}")
        return next(iter(self._terms.items()))

    def coefficient(self, pi_exp: int) -> Fraction:
        return self._terms.get(pi_exp, Fraction(0))

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; requires a pure pi^0 scalar."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {0}:
            raise ValueError(f"not a rational scalar: {self}")
        return self._terms[0]

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return _raw(accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Scalar":
        return _raw({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(other, Scalar):
            pairs = other._terms.items()
            return _raw(accumulate({}, (
                (e1 + e2, c1 * c2) for e1, c1 in self._terms.items() for e2, c2 in pairs
            )))
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            q = Fraction(other)
            return _raw({e: c * q for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        """Exact division; the divisor must be a nonzero monomial scalar."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of Scalar by zero")
            q = Fraction(other)
            return _raw({e: c / q for e, c in self._terms.items()})
        if isinstance(other, Scalar):
            if other.is_zero:
                raise ZeroDivisionError("division of Scalar by zero")
            e0, c0 = other.monomial()  # raises on multi-term
            return _raw({e - e0: c / c0 for e, c in self._terms.items()})
        return NotImplemented

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            raise TypeError("Scalar exponent must be an integer")
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("division of Scalar by zero")
            e0, c0 = self.monomial()
            return Scalar({k * e0: c0**k})
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Scalar.of(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(tuple(self.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # numeric exits

    def to_float(self, digits: int | None = None) -> float:
        """Approximate float value, for display and numeric checks only.

        With ``digits`` given, pi is replaced by the midpoint of a rational
        enclosure of width 10^-digits before converting; otherwise the
        hardware pi is used.
        """
        if digits is None:
            return float(sum(float(c) * math.pi**e for e, c in self._terms.items()))
        lo, hi = pi_bounds(Fraction(1, 10**digits))
        mid = (lo + hi) / 2
        return float(sum(c * mid**e for e, c in self._terms.items()))

    def sign(self) -> int:
        return sign(self)

    def __abs__(self) -> "Scalar":
        return self if sign(self) >= 0 else -self

    # ------------------------------------------------------------------
    # serialization and printing

    def to_json(self) -> list[dict]:
        return [
            {"pi": e, "num": str(c.numerator), "den": str(c.denominator)}
            for e, c in self.items()
        ]

    @staticmethod
    def from_json(data: Iterable[Mapping]) -> "Scalar":
        return _raw(accumulate({}, (
            (int(entry["pi"]), Fraction(int(entry["num"]), int(entry["den"]))) for entry in data
        )))

    def __str__(self) -> str:
        return _parts_text(*self.to_parts())

    def __repr__(self) -> str:
        return f"Scalar({self})"


def accumulate(out: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, value) of items into out, in place, and return out.

    A new key stores its value, a known key adds to the stored one, and a
    key whose value or sum is zero is dropped, so out never holds a zero.
    Values need only + and truth (Fraction, int, Scalar).
    """
    get = out.get
    for key, value in items:
        old = get(key)
        if old is not None:
            value = old + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


class _Record:
    """Base of the small immutable records (ConeVerdict, TasakiMatrix, ...):
    a subclass lists its fields in __slots__ and sets each in __init__ with
    object.__setattr__.  This gives == (same class only), hash and repr over
    the fields in order, refuses assignment, and copies through __init__.
    A subclass with a slot derived from the others (TasakiMatrix.entries)
    lists it last and overrides _fields with the constructor's arguments,
    which repr then names alone."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def _raw(terms: dict[int, Fraction]) -> Scalar:
    s = Scalar.__new__(Scalar)
    object.__setattr__(s, "_terms", terms)
    return s


# The kernel behind every Scalar built from integers: the Fraction p/q of
# coprime p and q > 0 without the type checks and the gcd of Fraction(p, q).
_fraction = getattr(Fraction, "_from_coprime_ints", None)  # 3.12 and later
if _fraction is None:
    def _fraction(p: int, q: int, _new=object.__new__) -> Fraction:
        f = _new(Fraction)
        f._numerator, f._denominator = p, q
        return f
try:  # checked against Fraction(p, q), with Fraction as the fallback
    for _p, _q in ((0, 1), (-3, 4), (7, 1), (10**30 + 1, 3)):
        _f = _fraction(_p, _q)
        if type(_f) is not Fraction or (_f.numerator, _f.denominator, hash(_f)) != (_p, _q, hash(Fraction(_p, _q))):
            raise TypeError("the coprime kernel disagrees with Fraction")
except (AttributeError, TypeError):  # pragma: no cover - a Fraction without these internals
    _fraction = Fraction


def _scalars(vectors: Mapping[int, Sequence[int]], den: int, size: int) -> list[Scalar]:
    """[Scalar.from_parts({e: v[i] for e, v in vectors.items()}, den) for i
    in range(size)], with one term dict per Scalar."""
    items = tuple(vectors.items())
    out = []
    for i in range(size):
        terms = {}
        for e, v in items:
            if x := v[i]:
                g = gcd(x, den)
                terms[e] = _fraction(x // g, den // g)
        out.append(_raw(terms) if terms else _ZERO)
    return out


def _reduced(den: int, rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The integer block rows / den, den > 0, in canonical form (den, rows):
    the common factor of den and the entries divided out.  Every cached
    exact table is born over one positive denominator and reduced here; an
    all-zero block ends over 1."""
    g = gcd(den, *(x for row in rows for x in row))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


def _parts_text(parts: Mapping[int, int], den: int) -> str:
    """str(Scalar.from_parts(parts, den)), written from the integers: terms
    ascending in the pi exponent e, each (p/q) * pi^e with p, q > 0 coprime
    as p/q, pi^m*p/q or p/(q*pi^m)."""
    out = []
    for e, x in sorted(parts.items()):
        if x:
            g = gcd(x, den)
            p, q, pi = abs(x) // g, den // g, "π" if abs(e) == 1 else f"π^{abs(e)}"
            if e == 0:
                body = str(p) if q == 1 else f"{p}/{q}"
            elif e > 0:
                body = (pi if p == 1 else f"{p}{pi}") + ("" if q == 1 else f"/{q}")
            else:
                body = f"{p}/{pi}" if q == 1 else f"{p}/({q}{pi})"
            out.append((" - " if x < 0 else " + ") + body if out else ("-" if x < 0 else "") + body)
    return "".join(out) or "0"


_ZERO = Scalar()
_ONE = Scalar({0: 1})


# ----------------------------------------------------------------------
# rational enclosures of pi and exact signs

# Classical convergents 333/106 < pi < 355/113, and the number of arctan
# series terms Machin's formula starts refining from.
_PI_START = (Fraction(333, 106), Fraction(355, 113), 2)


def _arctan_inv_bounds(x: int, m: int) -> tuple[Fraction, Fraction]:
    """Bounds for arctan(1/x) from m and m+1 terms of the alternating series."""
    s = Fraction(0)
    lo = hi = s
    for j in range(m + 1):
        term = Fraction((-1) ** j, (2 * j + 1) * x ** (2 * j + 1))
        s += term
        if j == m - 1:
            lo = s
        if j == m:
            hi = s
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def _refine(
    state: tuple[Fraction, Fraction, int], eps: Fraction
) -> tuple[Fraction, Fraction, int]:
    """Narrow the enclosure (lo, hi, terms) with Machin's formula
    pi = 16*arctan(1/5) - 4*arctan(1/239) until hi - lo < eps."""
    lo, hi, terms = state
    while hi - lo >= eps:
        terms += 2
        lo5, hi5 = _arctan_inv_bounds(5, terms)
        lo239, hi239 = _arctan_inv_bounds(239, terms)
        lo = max(lo, 16 * lo5 - 4 * hi239)
        hi = min(hi, 16 * hi5 - 4 * lo239)
    return lo, hi, terms


def pi_bounds(eps: Fraction) -> tuple[Fraction, Fraction]:
    """A rational enclosure (lo, hi) of pi with hi - lo < eps.

    Uses Machin's formula, whose alternating partial sums bracket the true
    values.  Every call refines from the same classical start, so the
    result depends on eps alone, never on earlier calls.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi, _ = _refine(_PI_START, eps)
    return lo, hi


# The fixed budget of sign(): rung 0 is the classical enclosure above and
# rung i >= 1 the Machin enclosure narrower than _LADDER_WIDTHS[i].  The
# Machin brackets are nested, so refining the start directly to a width
# lands where refining it step by step to 10^-6, 10^-12, 10^-24 and 10^-48
# does.
_LADDER_WIDTHS = (None, *(Fraction(1, 10**d) for d in (6, 12, 24, 48)))


@lru_cache(maxsize=None)
def _rung(i: int) -> tuple[int, int, int]:
    """Rung i of the ladder as integers (lo_num, hi_num, den), built on first use."""
    lo, hi, _ = _PI_START if i == 0 else _refine(_PI_START, _LADDER_WIDTHS[i])
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


@lru_cache(maxsize=256)
def _power_row(i: int, j: int, k: int) -> tuple[int, int]:
    """(lo^j r^k, hi^j r^k) on rung i = (lo, hi, r), built on first use.
    Only the rows of the terms present are built and the cache is bounded,
    so a scalar with a large exponent spread costs its terms' powers alone."""
    lo, hi, r = _rung(i)
    scale = r**k
    return lo**j * scale, hi**j * scale


def int_sign(parts: Mapping[int, int], den: int = 1) -> int:
    """The exact sign (-1, 0, 1) of sum_e parts[e] * pi^e / den, integer
    parts[e] and den > 0.

    Nonzero parts of one sign decide it at once.  Otherwise, without its
    lowest pi power, the value is an integer polynomial P(pi) of degree d,
    bounded on each rung of the ladder in turn by multiply-adds over the
    rung's power rows of its terms (_power_row, cached on first use); den
    only names the value.  Still straddling zero on the last rung raises
    UndecidableSignError naming the scalar.
    """
    if len(parts) < 2:
        c = sum(parts.values())
        return (c > 0) - (c < 0)
    values = parts.values()
    if 0 in values:
        parts = {e: c for e, c in parts.items() if c}
        values = parts.values()
        if len(parts) < 2:
            c = sum(values)
            return (c > 0) - (c < 0)
    # pi^e > 0, so terms of one sign decide it, as rung 0 would
    if min(values) > 0:
        return 1
    if max(values) < 0:
        return -1
    e0 = min(parts)
    d = max(parts) - e0
    for i in range(len(_LADDER_WIDTHS)):
        # r^d * P(x) for x in [lo/r, hi/r]: each term c x^j is
        # increasing in x for c > 0 and decreasing for c < 0
        low = high = 0
        for e, c in parts.items():
            j = e - e0
            at_lo, at_hi = _power_row(i, j, d - j)
            if c > 0:
                low += c * at_lo
                high += c * at_hi
            else:
                low += c * at_hi
                high += c * at_lo
        if low > 0:
            return 1
        if high < 0:
            return -1
    raise UndecidableSignError(
        f"sign of {_parts_text(parts, den)} undecided "
        "on the last enclosure of pi (width < 1e-48)"
    )


def sign(s: Scalar) -> int:
    """The exact sign (-1, 0, 1) of a Scalar evaluated at the real pi.

    Multi-term scalars are cleared to integers and decided by
    :func:`int_sign` over a fixed ladder of five enclosures of pi; one still
    straddling zero on the last (width below 10^-48) raises
    UndecidableSignError rather than guessing.  The ladder is the whole
    budget, so the verdict never depends on what ran earlier in the process.
    """
    terms = s._terms
    if not terms:
        return 0
    if len(terms) == 1:
        (c,) = terms.values()
        return 1 if c.numerator > 0 else -1
    return int_sign(*s.to_parts())


# ----------------------------------------------------------------------
# combinatorial constants

factorial = math.factorial
binomial = math.comb


def double_factorial(m: int) -> int:
    """m!! = m (m-2) (m-4) ... with the convention (-1)!! = 1.

    Only m >= -1 is admitted; odd arguments are the ones that occur in the
    kinematic coefficients.
    """
    if m < -1:
        raise ValueError(f"double factorial undefined for m={m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@lru_cache(maxsize=None)
def omega(k: int) -> Scalar:
    """Volume of the k-dimensional euclidean unit ball, as an exact Scalar.

    omega_{2l} = pi^l / l! and omega_{2l+1} = 2^{l+1} pi^l / (2l+1)!!,
    the latter obtained from the Gamma function at half-integers.
    """
    if k < 0:
        raise ValueError(f"omega({k}) undefined")
    l, r = divmod(k, 2)
    if r == 0:
        return Scalar.of(Fraction(1, factorial(l)), l)
    return Scalar.of(Fraction(2 ** (l + 1), double_factorial(2 * l + 1)), l)
