"""Exact arithmetic for the coefficient field Q[pi, pi^-1].

Every constant in the hermitian integral geometry of C^n is a rational
multiple of an integer power of pi, and sums of such terms appear as soon
as valuations of mixed degree are combined.  A :class:`Scalar` is therefore
a Laurent polynomial in pi with rational coefficients, stored in the one
number format of the package: integer parts {pi-exponent: numerator} over
one positive denominator, with no common factor of the two.  pi is treated
as a formal transcendental: no floating point enters any algebraic
computation.  The ring operations work on the integers and end in one
reducer, so equal values have equal stores; a coefficient becomes a
Fraction only when it is read, and text and JSON are written from the
integers by one formatter.  Every cached integer table of the exact core
is put in canonical form by one helper.  The only numeric exits are
:meth:`Scalar.to_float` (for display and the Monte-Carlo module) and
:func:`sign`, which decides signs exactly in integer arithmetic over a
fixed ladder of rational enclosures of pi.

The module also houses the small combinatorial constants used throughout:
ball volumes omega_k, odd double factorials, binomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index
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

    Stored as integer parts {e: x != 0} over a denominator den > 0, c_e =
    x / den, with gcd(den, *parts) == 1; zero is ({}, 1).  Instances are
    immutable; all operations return fresh objects.  Equality is exact, on
    the store, and a rational scalar equals, and hashes as, its int or
    Fraction.  Exponents are integers: anything else raises TypeError.
    """

    __slots__ = ("_parts", "_den")

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        terms = [(index(e), c if isinstance(c, (int, Fraction)) else Fraction(c))
                 for e, c in terms.items()] if terms else []
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(c.denominator for _, c in terms))
        _set_parts(self, {e: c.numerator * (den // c.denominator) for e, c in terms if c})
        _set_den(self, den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return _canonical, (dict(self._parts), self._den)

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
        return Scalar({pi_exp: value})

    @staticmethod
    def pi(exp: int = 1) -> "Scalar":
        return Scalar({exp: 1})

    @staticmethod
    def from_parts(parts: Mapping[int, int], den: int = 1) -> "Scalar":
        """The scalar sum_e parts[e] * pi^e / den of integer parts, den > 0."""
        if den <= 0:
            raise ValueError(f"from_parts needs den > 0, got den = {den}")
        return _canonical({e: x for e, x in parts.items() if x}, den)

    def to_parts(self) -> tuple[dict[int, int], int]:
        """(parts, den), a copy of the store: den is the least common
        denominator.  The inverse of from_parts."""
        return dict(self._parts), self._den

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> list[tuple[int, Fraction]]:
        """Terms as (exponent, coefficient), ascending in the exponent."""
        den = self._den
        return [(e, Fraction(x, den)) for e, x in sorted(self._parts.items())]

    @property
    def is_zero(self) -> bool:
        return not self._parts

    @property
    def is_monomial(self) -> bool:
        """True iff the scalar has exactly one term c * pi^e."""
        return len(self._parts) == 1

    def monomial(self) -> tuple[int, Fraction]:
        """The (exponent, coefficient) of a one-term scalar."""
        if len(self._parts) != 1:
            raise ValueError(f"not a monomial scalar: {self}")
        ((e, x),) = self._parts.items()
        return e, Fraction(x, self._den)

    def coefficient(self, pi_exp: int) -> Fraction:
        return Fraction(self._parts.get(pi_exp, 0), self._den)

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; requires a pure pi^0 scalar."""
        if self._parts.keys() - {0}:
            raise ValueError(f"not a rational scalar: {self}")
        return self.coefficient(0)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return _canonical(accumulate(
            {e: x * a for e, x in self._parts.items()}, ((e, x * b) for e, x in other._parts.items())
        ), den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Scalar":
        return _canonical({e: -x for e, x in self._parts.items()}, self._den)

    def __mul__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        pairs = other._parts.items()
        return _canonical(accumulate({}, (
            (e1 + e2, x1 * x2) for e1, x1 in self._parts.items() for e2, x2 in pairs
        )), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Scalar", RationalLike]) -> "Scalar":
        """Exact division, as the multiplication by the inverse of the
        divisor, which must be a nonzero rational or monomial scalar."""
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of Scalar by zero")
        e0, c0 = other.monomial() if isinstance(other, Scalar) else (0, Fraction(other))  # raises on multi-term
        q = 1 / c0
        return _canonical({e - e0: x * q.numerator for e, x in self._parts.items()}, self._den * q.denominator)

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            raise TypeError("Scalar exponent must be an integer")
        if k < 0:
            return (_ONE / self) ** -k
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
            return self._den == other._den and self._parts == other._parts
        if isinstance(other, (int, Fraction)):
            return self == Scalar.of(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._parts.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash((self._den, *sorted(self._parts.items())))

    def __bool__(self) -> bool:
        return bool(self._parts)

    # ------------------------------------------------------------------
    # numeric exits

    def to_float(self, digits: int | None = None) -> float:
        """Approximate float value, for display and numeric checks only.

        With ``digits`` given, pi is replaced by the midpoint of a rational
        enclosure of width 10^-digits before converting; otherwise the
        hardware pi is used.
        """
        if digits is None:
            return float(sum(x / self._den * math.pi**e for e, x in self._parts.items()))
        lo, hi = pi_bounds(Fraction(1, 10**digits))
        mid = (lo + hi) / 2
        return float(sum(x * mid**e for e, x in self._parts.items()) / self._den)

    def sign(self) -> int:
        return sign(self)

    def __abs__(self) -> "Scalar":
        return self if sign(self) >= 0 else -self

    # ------------------------------------------------------------------
    # serialization and printing

    def to_json(self) -> list[dict]:
        den = self._den
        return [{"pi": e, "num": str(x // g), "den": str(den // g)}
                for e, x in sorted(self._parts.items()) for g in (gcd(x, den),)]

    @staticmethod
    def from_json(data: Iterable[Mapping]) -> "Scalar":
        return Scalar(accumulate({}, (
            (index(entry["pi"]), Fraction(int(entry["num"]), int(entry["den"]))) for entry in data
        )))

    def __str__(self) -> str:
        return _parts_text(self._parts, self._den)

    def __repr__(self) -> str:
        return f"Scalar({self})"


_set_parts = Scalar._parts.__set__
_set_den = Scalar._den.__set__


def _canonical(parts: dict[int, int], den: int) -> Scalar:
    """The Scalar sum_e parts[e] * pi^e / den of nonzero integer parts over
    den > 0, the one reducer of the ring operations: it divides the common
    factor of den and the parts out of the dict, in place, and keeps it."""
    if not parts:
        return _ZERO
    g = gcd(den, *parts.values())
    if g > 1:
        den //= g
        for e, x in parts.items():
            parts[e] = x // g
    s = Scalar.__new__(Scalar)
    _set_parts(s, parts)
    _set_den(s, den)
    return s


def accumulate(out: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, value) of items into out, in place, and return out.

    A new key stores its value, a known key adds to the stored one, and a
    key whose value or sum is zero is dropped, so out never holds a zero.
    Values need only + and truth (int, Fraction, Scalar).
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


def _scalars(vectors: Mapping[int, Sequence[int]], den: int, size: int) -> list[Scalar]:
    """[Scalar.from_parts({e: v[i] for e, v in vectors.items()}, den) for i
    in range(size)], in one flat loop: a zero entry is the shared _ZERO and
    the others set the two slots directly.  The readers of every store
    and table run it per entry, where a call into _canonical per entry
    measured about x1.7 slower."""
    items = tuple(vectors.items())
    new = Scalar.__new__
    out = []
    for i in range(size):
        parts = {}
        g = den
        for e, v in items:
            if x := v[i]:
                parts[e] = x
                g = gcd(g, x)
        if not parts:
            out.append(_ZERO)
            continue
        if g > 1:
            for e, x in parts.items():
                parts[e] = x // g
        s = new(Scalar)
        _set_parts(s, parts)
        _set_den(s, den // g)
        out.append(s)
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

    The integer store goes to :func:`int_sign`, which decides a multi-term
    scalar over a fixed ladder of five enclosures of pi; one still
    straddling zero on the last (width below 10^-48) raises
    UndecidableSignError rather than guessing.  The ladder is the whole
    budget, so the verdict never depends on what ran earlier in the process.
    """
    return int_sign(s._parts, s._den)


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
