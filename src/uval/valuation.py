"""Unitary-invariant valuations on C^n in the hermitian intrinsic volume basis.

A :class:`Valuation` stores an element of the finite-dimensional graded
algebra of continuous, translation- and U(n)-invariant convex valuations.
The internal coordinates are the hermitian intrinsic volumes mu_{k,q},
indexed by degree 0 <= k <= 2n and q in q_range(n, k), max(0, k-n) <= q
<= floor(k/2); these form a genuine basis in every degree and the Fourier
transform permutes them, keeping each one's position in its q_range.  The
Tasaki valuations tau_{k,i} (whose Klain functions are the elementary
symmetric polynomials of the squared cosines of the multiple Kaehler
angle), the global monomials in (t, u), and the primitive elements are
views computed from the mu coordinates.

Every coefficient is a rational combination of powers of pi, so a
Valuation stores integers only: one least common denominator and, per
degree k and pi exponent e, the vector of numerators indexed by position
in q_range(n, k), so the Fourier transform relabels degrees.  The store is
canonical (no all-zero vector, no common factor of the denominator and all
numerators), so equal values have equal stores.
Arithmetic, the product, the Fourier transform and the readers in
:mod:`uval.cones`, :mod:`uval.sl2` and :mod:`uval.kinematic` work on it
in int.  A Scalar keeps the same format, integer parts over one
denominator, so crossing between the two copies integers: a Valuation
built from Scalars reads each one's parts and denominator, and a Scalar
is built only when a coefficient is read (items(), coefficient(), str,
to_json and the Scalar-valued results, through scalar._scalars or
Scalar.from_parts).

Locality is concentrated in the restriction of global Tasaki valuations
to level n, which drops the mu terms that vanish locally, so the quotient
by the relation ideal (f_{n+1}, f_{n+2}) needs no polynomial reduction.
:func:`from_monomial` applies it to a global polynomial in (t, u), and the
Alesker product :func:`multiply` to the Tasaki product formula run on the
stored integer vectors, one per degree and pi exponent; the quotient-map
route from_monomial(n, to_monomial(a) * to_monomial(b)), in Scalar and
GradedPoly arithmetic, is its independent cross-check.  The kinematic
blocks and the Tasaki Gram matrix run the same formula loop
(_basis_products).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, Mapping, Sequence

from .scalar import RationalLike, Scalar, _Record, _scalars, binomial, factorial, omega

__all__ = [
    "Valuation",
    "KlainPolynomial",
    "dim_val",
    "q_range",
    "mu",
    "tau",
    "chi",
    "vol",
    "from_monomial",
    "to_monomial",
    "multiply",
    "fourier",
    "iota",
    "klain",
    "tau_coords",
]

_ONE = Scalar.one()


@lru_cache(maxsize=None, typed=True)  # typed: a float or bool never reads an int's entry
def q_range(n: int, k: int) -> range:
    """Valid mu indices q at degree k in C^n: max(0, k-n) <= q <= floor(k/2)."""
    if n < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    return range(max(0, k - n), k // 2 + 1)


def dim_val(n: int, k: int) -> int:
    """dim of the degree-k graded piece: min(floor(k/2), floor((2n-k)/2)) + 1."""
    return len(q_range(n, k))


# The store: {k: {e: (a_0, ..., a_{d-1})}}, d = dim_val(n, k), the mu_{k,q}
# coefficient being sum_e a_i pi^e / den at i = q - q_range(n, k).start.
Parts = dict[int, dict[int, tuple[int, ...]]]


class Valuation:
    """An element of the valuation algebra at level n, in mu coordinates.

    Stored as integer numerators over one least common denominator, per
    degree and pi exponent (see the module docstring); coefficients are
    built as Scalars on read.  Instances are immutable values; all
    operations are pure.
    """

    __slots__ = ("n", "_den", "_parts")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, int], Scalar | RationalLike] | None = None):
        if n < 1:
            raise ValueError("ambient complex dimension must be >= 1")
        terms = []  # (k, position in q_range, e, numerator, denominator)
        if coeffs:
            for (k, q), c in coeffs.items():
                qs = q_range(n, k)  # names a bad degree
                if q not in qs:
                    raise ValueError(f"mu index (k={k}, q={q}) out of range at n={n}")
                i = q - qs.start
                if isinstance(c, int):
                    if c:
                        terms.append((k, i, 0, c, 1))
                    continue
                if not isinstance(c, Scalar):
                    c = Scalar.of(c)
                terms += [(k, i, e, x, c._den) for e, x in c._parts.items()]
        # the lcm of canonical denominators leaves no common factor
        den = lcm(*[t[4] for t in terms])
        parts: dict[int, dict[int, list[int]]] = {}
        for k, i, e, num, d in terms:
            by_e = parts.get(k) or parts.setdefault(k, {})
            a = by_e.get(e) or by_e.setdefault(e, [0] * dim_val(n, k))
            a[i] = num * (den // d)
        _init(self, n, den, {k: {e: tuple(a) for e, a in by_e.items()} for k, by_e in parts.items()})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Valuation is immutable")

    def __reduce__(self):
        return _raw, (self.n, self._den, self._parts)

    # ------------------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Valuation":
        return Valuation(n)

    def items(self) -> list[tuple[tuple[int, int], Scalar]]:
        """The nonzero coefficients, sorted by (k, q)."""
        out = []
        for k in self.degrees():
            qs = q_range(self.n, k)
            out += [((k, q), c) for q, c in zip(qs, _scalars(self._parts[k], self._den, len(qs))) if c]
        return out

    def coefficient(self, k: int, q: int) -> Scalar:
        by_e = self._parts.get(k)
        if not by_e or q not in (qs := q_range(self.n, k)):
            return Scalar.zero()
        return Scalar.from_parts({e: a[q - qs.start] for e, a in by_e.items()}, self._den)

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def degrees(self) -> list[int]:
        return sorted(self._parts)

    def component(self, k: int) -> "Valuation":
        return _combine(self.n, self._den, [(1, 0, {k: self._parts.get(k, {})})])

    def homogeneous_degree(self) -> int | None:
        """The degree if homogeneous (zero counts as every degree), else None."""
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) == 1:
            return ds[0]
        return None

    # ------------------------------------------------------------------
    def _check_n(self, other: "Valuation") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Valuation") -> "Valuation":
        if not isinstance(other, Valuation):
            return NotImplemented
        self._check_n(other)
        den = lcm(self._den, other._den)
        return _combine(self.n, den, [
            (den // self._den, 0, self._parts), (den // other._den, 0, other._parts),
        ])

    def __sub__(self, other: "Valuation") -> "Valuation":
        return self + (-other)

    def __neg__(self) -> "Valuation":
        parts = {k: {e: tuple(-x for x in a) for e, a in by_e.items()} for k, by_e in self._parts.items()}
        return _raw(self.n, self._den, parts)

    def __mul__(self, other):
        """Scalar rescaling; use :func:`multiply` for the Alesker product."""
        if isinstance(other, (Scalar, int, Fraction)):
            if not isinstance(other, Scalar):
                other = Scalar.of(other)
            parts, d = other.to_parts()
            return _combine(self.n, self._den * d, [(x, e, self._parts) for e, x in parts.items()])
        if isinstance(other, Valuation):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational or monomial Scalar."""
        if isinstance(other, (Scalar, int, Fraction)):
            return self * (_ONE / other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._parts == other._parts

    def __hash__(self) -> int:
        parts = sorted((k, tuple(sorted(by_e.items()))) for k, by_e in self._parts.items())
        return hash((self.n, self._den, tuple(parts)))

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        components: dict[str, list] = {}
        for (k, q), c in self.items():
            components.setdefault(str(k), []).append({"q": q, "coeff": c.to_json()})
        return {"n": self.n, "components": components}

    @staticmethod
    def from_json(data: Mapping) -> "Valuation":
        n = index(data["n"])
        coeffs: dict[tuple[int, int], Scalar] = {}
        for k_str, entries in data.get("components", {}).items():
            for entry in entries:
                coeffs[(int(k_str), index(entry["q"]))] = Scalar.from_json(entry["coeff"])
        return Valuation(n, coeffs)

    def __str__(self) -> str:
        return _format_combo([(c, f"mu[{k},{q}]") for (k, q), c in self.items()])

    def __repr__(self) -> str:
        return f"Valuation(n={self.n}, {self})"


def _format_combo(terms: list[tuple[Scalar, str]]) -> str:
    """Deterministic rendering of sum coeff * atom with unit elision."""
    parts = []
    for c, atom in terms:
        if c.is_zero:
            continue
        if c == _ONE:
            text = atom
        elif c == -_ONE:
            text = f"-{atom}"
        else:
            text = f"({c})*{atom}"
        parts.append(text)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _init(v: Valuation, n: int, den: int, parts: Parts) -> None:
    object.__setattr__(v, "n", n)
    object.__setattr__(v, "_den", den)
    object.__setattr__(v, "_parts", parts)


def _raw(n: int, den: int, parts: Parts) -> Valuation:
    """A Valuation from a store already in canonical form."""
    v = Valuation.__new__(Valuation)
    _init(v, n, den, parts)
    return v


def _combine(n: int, den: int, terms: Iterable[tuple[int, int, Mapping]]) -> Valuation:
    """The Valuation sum f * pi^s * parts / den over the (f, s, parts) of
    terms, den > 0, brought to canonical form: all-zero vectors dropped and
    the common factor of den and the numerators divided out."""
    acc: dict[int, dict[int, list[int]]] = {}
    for f, s, parts in terms:
        for k, by_e in parts.items():
            out = acc.setdefault(k, {})
            for e, a in by_e.items():
                old = out.get(e + s)
                out[e + s] = [f * x for x in a] if old is None else [u + f * x for u, x in zip(old, a)]
    g, kept = den, {}
    for k, by_e in acc.items():
        by_e = {e: a for e, a in by_e.items() if any(a)}
        if by_e:
            kept[k] = by_e
            for a in by_e.values():
                g = gcd(g, *a)
    g = g if kept else den
    return _raw(n, den // g, {
        k: {e: tuple(x // g for x in a) for e, a in by_e.items()} for k, by_e in kept.items()
    })


# ----------------------------------------------------------------------
# canonical basis constructors

def mu(n: int, k: int, q: int) -> Valuation:
    """The hermitian intrinsic volume mu_{k,q}; rejects out-of-range indices.

    mu_{0,0} is the Euler characteristic and mu_{2n,n} the volume.  Inside
    formulas an out-of-range mu is zero, but as a constructor request it is
    an error.
    """
    if q not in (qs := q_range(n, k)):
        raise ValueError(f"mu index (k={k}, q={q}) out of range at n={n}")
    return _raw(n, 1, {k: {0: tuple(int(i == q) for i in qs)}})


def tau(n: int, k: int, q: int) -> Valuation:
    """The Tasaki valuation tau_{k,q} = sum_i C(i,q) mu_{k,i} at level n.

    Indices require 0 <= q <= floor(k/2) and k <= 2n; mu terms with
    i < k - n vanish locally and are dropped (so e.g. tau_{2,0} = mu_{2,1}
    at n = 1).
    """
    if n < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    if not 0 <= q <= k // 2:
        raise ValueError(f"tau index (k={k}, q={q}) out of range")
    return _raw(n, 1, {k: {0: tuple(_restrict(n, k, [int(i == q) for i in range(k // 2 + 1)]))}})


def chi(n: int) -> Valuation:
    """The Euler characteristic, the unit of the algebra."""
    return mu(n, 0, 0)


def vol(n: int) -> Valuation:
    """The Lebesgue volume of C^n, the top-degree basis element mu_{2n,n}."""
    return mu(n, 2 * n, n)


# ----------------------------------------------------------------------
# the quotient map and its canonical section

@lru_cache(maxsize=None)
def _mu_monomial(k: int, q: int) -> GradedPoly:
    """Global representative of mu_{k,q} = sum_i (-1)^{i+q} C(i,q) tau_{k,i},
    with tau_{k,i} = pi^k/(omega_k (k-2i)!(2i)!) t^{k-2i} u^i."""
    from .poly import GradedPoly

    c = Scalar.pi(k) / omega(k)
    return GradedPoly({(k - 2 * i, i): c * Fraction(x, factorial(k - 2 * i) * factorial(2 * i))
                       for i, x in _lift(k)[q]})


@lru_cache(maxsize=None)
def _monomial_image(n: int, a: int, b: int) -> Valuation:
    """Image of the monomial t^a u^b under the quotient map at level n."""
    k = a + 2 * b
    if k > 2 * n:
        return Valuation.zero(n)
    factor = omega(k) * Fraction(factorial(a) * factorial(2 * b)) / Scalar.pi(k)
    return tau(n, k, b) * factor


def from_monomial(n: int, p: GradedPoly) -> Valuation:
    """The quotient map Q[t, u] -> Val at level n (also accepts the (s, t) chart).

    Each monomial t^{k-2q} u^q maps to omega_k (k-2q)!(2q)!/pi^k times the
    local Tasaki valuation tau_{k,q}; graded pieces of degree above 2n map
    to zero.
    """
    from .poly import change_vars

    p = change_vars(p, "tu")
    out = Valuation.zero(n)
    for (a, b), c in p.items():
        img = _monomial_image(n, a, b)
        if not img.is_zero:
            out = out + img * c
    return out


def to_monomial(v: Valuation) -> GradedPoly:
    """The canonical global polynomial representative of v, in the (t, u) chart.

    mu_{k,q} lifts to sum_i (-1)^{i+q} C(i,q) pi^k/(omega_k (k-2i)!(2i)!)
    t^{k-2i} u^i; from_monomial inverts this lift exactly.
    """
    from .poly import GradedPoly

    out = GradedPoly.zero()
    for (k, q), c in v.items():
        out = out + _mu_monomial(k, q) * c
    return out


# ----------------------------------------------------------------------
# the Alesker product from the Tasaki product formula
#
# For the global Tasaki valuations
#   tau_{k,i} tau_{l,j} = omega_{k+l}/(omega_k omega_l)
#                         * C(k+l-2s, k-2i) C(2s, 2i) tau_{k+l,s},  s = i + j,
# so every structure constant is an integer times one pi monomial fixed by
# the two degrees.  The tables below are keyed by degrees (and n for the
# restriction) and never grow with the operands.

@lru_cache(maxsize=None)
def _lift(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry q lists (i, (-1)^{i+q} C(i,q)) for q <= i <= k/2: the global
    lift mu_{k,q} = sum_i (-1)^{i+q} C(i,q) tau_{k,i}."""
    return tuple(
        tuple((i, (-1) ** (i + q) * binomial(i, q)) for i in range(q, k // 2 + 1))
        for q in range(k // 2 + 1)
    )


@lru_cache(maxsize=None)
def _degree_pair(k: int, l: int) -> tuple[int, int, tuple[tuple[tuple[int, int, int], ...], ...]]:
    """The degree pair (k, l) as (e, f, weights): omega_{k+l}/(omega_k
    omega_l) = f pi^e / _shift_denominator(k + l); weights[i] lists (j, s,
    C(k+l-2s, k-2i) C(2s, 2i)) over j <= l/2, s = i + j, the integer part of
    tau_{k,i} tau_{l,j}."""
    e, c = _omega_ratio(k, l)
    weights = tuple(tuple((j, i + j, binomial(k + l - 2 * (i + j), k - 2 * i) * binomial(2 * (i + j), 2 * i))
                          for j in range(l // 2 + 1)) for i in range(k // 2 + 1))
    return e, int(c * _shift_denominator(k + l)), weights


def _omega_ratio(k: int, l: int) -> tuple[int, Fraction]:
    """omega_{k+l}/(omega_k omega_l) as (pi exponent, rational coefficient)."""
    return (omega(k + l) / (omega(k) * omega(l))).monomial()


@lru_cache(maxsize=None)
def _shift_denominator(m: int) -> int:
    """A common denominator of omega_m/(omega_k omega_{m-k}) over 0 <= k <= m."""
    return lcm(*(_omega_ratio(k, m - k)[1].denominator for k in range(m + 1)))


@lru_cache(maxsize=None)
def _restriction(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The rows (C(r,0), ..., C(r,r)) over r in q_range(n, m): the mu_{m,r}
    coordinate of the restriction tau_{m,s} = sum_r C(r,s) mu_{m,r} at level n."""
    return tuple(tuple(binomial(r, s) for s in range(r + 1)) for r in q_range(n, m))


def _restrict(n: int, m: int, alpha: Sequence[int]) -> list[int]:
    """The level-n mu_{m,r} coordinates, r over q_range(n, m), of global Tasaki coordinates."""
    return [sum(map(mul, row, alpha)) for row in _restriction(n, m)]


@lru_cache(maxsize=None)
def _fold_rows(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The rows j < dim_val(n, m) of the matrix C(m - n, s - j), m > n."""
    return tuple((0,) * j + tuple(binomial(m - n, t) for t in range(m - n + 1)) for j in range(dim_val(n, m)))


def _fold(n: int, m: int, z: list[int]) -> list[int]:
    """The coordinates in canonical_basis(n, m) of the level-n restriction
    of the global Tasaki coordinates z: z itself for m <= n, where the
    tau_{m,j} are the basis, else y_j = sum_s C(m - n, s - j) z_s."""
    return z if m <= n else [sum(map(mul, row, z)) for row in _fold_rows(n, m)]


def _lift_vector(n: int, k: int, a: Sequence[int]) -> list[int]:
    """The global lift of the degree-k mu-coordinates a, indexed by position
    in q_range(n, k): its global Tasaki coordinates [alpha_0..alpha_{k//2}]."""
    alpha = [0] * (k // 2 + 1)
    lift = _lift(k)
    for q, v in enumerate(a, q_range(n, k).start):
        if v:
            for i, w in lift[q]:
                alpha[i] += w * v
    return alpha


def _tau_product(f: int, weights, x: Sequence[int], targets) -> None:
    """The product formula of one degree pair: for each (z, y) of targets,
    adds f * weight * x_i * y_j into z[s], s = i + j, over the (j, s,
    weight) rows of _degree_pair(k, l), x and y the global Tasaki
    coordinates of the degree-k and degree-l factors."""
    for xi, row in zip(x, weights):
        if xi:
            xi *= f
            for z, y in targets:
                for j, s, wt in row:
                    if yj := y[j]:
                        z[s] += wt * xi * yj


def multiply(a: Valuation, b: Valuation) -> Valuation:
    """The Alesker product, from the Tasaki product formula.

    Each integer vector of either store is lifted once to global Tasaki
    coordinates.  Per degree pair (k, l), k + l <= 2n, and pi exponent of
    a, the product formula runs once over the exponent vectors of b, each
    adding into the vector of its product exponent, which the degrees
    shift by the pi power of omega_{k+l}/(omega_k omega_l).  Each vector is
    restricted to level n, and the store is written over one gcd.
    Commutative, graded, unit chi; the quotient-map route
    from_monomial(n, to_monomial(a) * to_monomial(b)) is its cross-check.
    """
    if a.n != b.n:
        raise ValueError(f"ambient dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    xa, yb = ({k: [(e, _lift_vector(n, k, x)) for e, x in by_e.items()] for k, by_e in v._parts.items()} for v in (a, b))
    acc: dict[int, dict[int, list[int]]] = {}  # {m: {e: global Tasaki coordinates}}
    for k, xs in xa.items():
        for l, ys in yb.items():
            m = k + l
            if m > 2 * n:
                continue
            e, f, weights = _degree_pair(k, l)
            out = acc.setdefault(m, {})
            for ea, x in xs:
                targets = []
                for eb, y in ys:
                    z = out.get(ea + eb + e)
                    if z is None:
                        z = out[ea + eb + e] = [0] * (m // 2 + 1)
                    targets.append((z, y))
                _tau_product(f, weights, x, targets)
    shift_den = lcm(*map(_shift_denominator, acc))
    g = den = a._den * b._den * shift_den
    vecs = []
    for m, out in acc.items():
        rows, by_e = _restriction(n, m), {}
        for e in sorted(out):
            if any(r := [sum(map(mul, row, out[e])) for row in rows]):
                by_e[e] = r
        if by_e:
            scale = shift_den // _shift_denominator(m)
            vecs.append((m, scale, by_e))
            g = gcd(g, *(scale * gcd(*r) for r in by_e.values()))
    return _raw(n, den // g, {
        m: {e: tuple([x * scale // g for x in r]) for e, r in by_e.items()} for m, scale, by_e in vecs
    })


@lru_cache(maxsize=None)
def _basis_lift(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The global Tasaki coordinates of canonical_basis(n, k)."""
    return tuple(tuple(_lift_vector(n, k, v._parts[k][0])) for v in canonical_basis(n, k))


def _basis_products(n: int, c: int, a: Sequence[int], k: int) -> tuple[int, int, list[list[int]]]:
    """The products of the degree-c element with integer mu-coordinates a
    (indexed by position in q_range(n, c), no pi) and canonical_basis(n, k),
    c + k <= 2n, as (e, den, rows): row i holds the canonical degree-(c+k)
    coordinates of a phi_i, entry j being rows[i][j] * pi^e / den.  phi_i
    is the outer factor of the product formula, which skips its zero
    coordinates (all but one of tau_{k,i}), and _fold writes each product
    in the canonical basis."""
    e, f, weights = _degree_pair(k, c)
    x, m, rows = _lift_vector(n, c, a), c + k, []
    for y in _basis_lift(n, k):
        z = [0] * (m // 2 + 1)
        _tau_product(f, weights, y, [(z, x)])
        rows.append(_fold(n, m, z))
    return e, _shift_denominator(m), rows


# ----------------------------------------------------------------------
# involutions

def fourier(v: Valuation) -> Valuation:
    """The Alesker-Fourier transform: the index permutation
    mu_{k,q} -> mu_{2n-k, n-k+q}.  An involution that reverses degree.

    It keeps each basis element's position in q_range, so it relabels the
    degrees of the store; stores are never mutated, so the vectors are
    shared."""
    n = v.n
    return _raw(n, v._den, {2 * n - k: by_e for k, by_e in v._parts.items()})


def iota(v: Valuation) -> Valuation:
    """The degree-preserving algebra involution tau_{2l,q} -> tau_{2l,l-q}.

    Defined on valuations of even degree only.  It reverses the global
    Tasaki coordinates of each vector of the store and restricts them to
    level n; the monomial swap t^a u^b -> t^{2b} u^{a/2} pushed through the
    quotient map is the route uval.checks compares it with.
    """
    if any(k % 2 for k in v._parts):
        raise ValueError("iota is defined on even-degree valuations only")
    parts = {
        k: {e: _restrict(v.n, k, _lift_vector(v.n, k, a)[::-1]) for e, a in by_e.items()}
        for k, by_e in v._parts.items()
    }
    return _combine(v.n, v._den, [(1, 0, parts)])


# ----------------------------------------------------------------------
# Tasaki coordinates and Klain functions

def tau_coords(v: Valuation, k: int) -> list[Scalar]:
    """Coordinates of the degree-k component in the canonical degree-k basis.

    For k <= n this is the Tasaki basis tau_{k,j}; for k > n it is the
    Fourier-transformed basis F(tau_{2n-k,j}).  Both are read off the
    global lift of the component by _fold.
    """
    n = v.n
    if not 0 <= k <= 2 * n:
        raise ValueError(f"degree {k} out of range for n={n}")
    coords = {e: _fold(n, k, _lift_vector(n, k, a)) for e, a in v._parts.get(k, {}).items()}
    return _scalars(coords, v._den, dim_val(n, k))


def canonical_basis(n: int, k: int) -> list[Valuation]:
    """The canonical degree-k basis that tau_coords reads: tau_{k,i} for
    k <= n, F(tau_{2n-k,i}) above the middle degree."""
    return [tau(n, k, i) if k <= n else fourier(tau(n, 2 * n - k, i)) for i in range(dim_val(n, k))]


class KlainPolynomial(_Record):
    """The Klain function of a degree-k invariant valuation, written as
    sum_q sigma_coeffs[q] * sigma_q(cos^2 theta_1, ..., cos^2 theta_p) in the
    multiple Kaehler angle of the argument plane (p = floor(k/2))."""

    __slots__ = ("degree", "sigma_coeffs")

    def __init__(self, degree: int, sigma_coeffs: tuple[Scalar, ...]):
        if len(sigma_coeffs) != degree // 2 + 1:
            raise ValueError("sigma coefficient vector has wrong length")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "sigma_coeffs", sigma_coeffs)

    def evaluate(self, cos2: Sequence[float]) -> float:
        """Numeric value at a plane with the given squared angle cosines."""
        if len(cos2) != self.degree // 2:
            raise ValueError("wrong number of angle cosines")
        es = elementary_symmetric(cos2)
        return sum(c.to_float() * e for c, e in zip(self.sigma_coeffs, es))


def elementary_symmetric(xs: Sequence) -> list:
    """All elementary symmetric polynomials e_0..e_len(xs) of floats or Fractions."""
    es = [1] + [0] * len(xs)
    for x in xs:
        for j in range(len(xs), 0, -1):
            es[j] += x * es[j - 1]
    return es


def klain(v: Valuation, k: int) -> KlainPolynomial:
    """The Klain function of the degree-k component, k <= n.

    For degrees above the middle the Klain function factors through the
    orthogonal complement; call klain(fourier(v), 2n - k) instead, which is
    what the error message directs to.
    """
    if k > v.n:
        raise ValueError(
            f"klain is computed for degree <= n = {v.n}; for degree {k} use "
            f"klain(fourier(v), {2 * v.n - k}) per the complement convention"
        )
    return KlainPolynomial(k, tuple(tau_coords(v, k)))
