"""Positivity, monotonicity and Crofton-positivity of invariant valuations.

Three nested cones are tested here.  The positive cone P is spanned by the
hermitian intrinsic volumes, so membership is a sign condition on mu
coordinates.  The Crofton-positive cone CP is dual to P under the
symmetric pairing; its coordinates are taken in the dual basis nu_{k,p}
(the unit-mass invariant Crofton measures concentrated on one orbit), so
membership asks that all pairings <v, mu_{k,q}> be nonnegative.  The
monotone cone M sits strictly between them and is cut out, degree by
degree, by the two families of linear inequalities

    (k-2q) a_q       >= (k-2q-1) a_{q+1}
    (n+q-k+1) a_q    <= (n+q-k+3/2) a_{q+1},

together with a nonnegative value on points (the chi coefficient).

The first-variation map delta sends a valuation to a formal combination
of the hermitian curvature-measure symbols B_{k,q} and Gamma_{k,q}; only
the signs of its coefficients matter for monotonicity, and the sign
pattern reproduces the inequalities above.  The symbols are never
evaluated on convex bodies.

All sign decisions are exact.  Everything runs on the store of a
Valuation, its integer numerators per degree and pi exponent over one
denominator: each Gram block comes from the integer Tasaki Gram matrix M
of uval.kinematic, each nu_{k,p} from the closed M^{-1} certified there,
and delta is a cached integer table.  uval.kinematic is imported by the
two functions that read it, so P, M and delta never load it.  Like every
table of uval.kinematic, a Gram block is one integer block (e, den, rows)
in the canonical form of scalar._reduced; the delta table has the same
shape with sparse rows.  Each cone has one kernel on the store that
returns its first failure.  A degree stored with one pi exponent is
decided there by integer comparisons; every other sign goes to
scalar.int_sign.  is_positive, is_crofton_positive and is_monotone
write the witness of a failure, in_cone only reports membership.
Scalars are built only for results: nu_coeffs and the coefficients of a
CurvExpr; a failure's witness text is written from its integers by
scalar._parts_text, as str(Scalar) is.  The norms are plain Scalar code
over the mu coefficients and nu_coeffs: abs and - of a Scalar are integer
work on its store, and an undecided sign names the coefficient itself.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Mapping, Optional

from .scalar import Scalar, _Record, _parts_text, _reduced, binomial, int_sign, omega, sign
from .valuation import Valuation, _combine, _lift, _restrict, q_range

__all__ = [
    "ConeVerdict",
    "CurvExpr",
    "nu",
    "nu_coeffs",
    "is_positive",
    "is_monotone",
    "is_crofton_positive",
    "in_cone",
    "first_variation",
    "norm_inf",
    "norm_one",
]


class ConeVerdict(_Record):
    """Outcome of a cone membership test; carries a witness on failure."""

    __slots__ = ("member", "witness")

    def __init__(self, member: bool, witness: Optional[dict] = None):
        if member and witness is not None:
            raise ValueError("a member verdict carries no witness")
        if not member and witness is None:
            raise ValueError("a failure verdict requires a witness")
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.member

    def to_json(self) -> dict:
        return {"member": self.member, "witness": self.witness}


_MEMBER = ConeVerdict(True)


# ----------------------------------------------------------------------
# dual basis and Crofton positivity

@lru_cache(maxsize=None)
def _gram_block(n: int, k: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """G_pq = <mu_{k,p}, mu_{k,q}> as (e, den, rows), G_pq = rows[p][q]
    * pi^e / den and den coprime to the entries.  F is an isometry of the
    pairing mapping mu_{2n-k,q} to mu_{k,q+k-n}, so a degree above n reuses
    2n - k; below it G = L M L^T, M = _tasaki_gram(n, k) and L the lift
    mu_{k,p} = sum_i (-1)^{i+p} C(i,p) tau_{k,i}.  G is symmetric."""
    q_range(n, k)  # an out-of-range degree fails here
    if k > n:
        return _gram_block(n, 2 * n - k)
    from .kinematic import _tasaki_gram

    e, den, m = _tasaki_gram(n, k)
    lift = _lift(k)
    gram = [[sum(u * v * m[i][j] for i, u in a for j, v in b) for b in lift] for a in lift]
    return e, *_reduced(den, gram)


def nu(n: int, k: int, p: int) -> Valuation:
    """The Crofton-dual basis element nu_{k,p}: <nu_{k,p}, mu_{l,q}> = delta.

    Geometrically the valuation of the unit-mass invariant Crofton measure
    on the orbit of planes of type (k, p).  At kk = min(k, 2n-k) its tau
    coordinates are T (C(p-q0, s))_s, T = _tasaki_inverse(n, kk) the
    certified closed Gram inverse, q0 = max(0, k-n); restricted to level n
    they are its mu coordinates, by position in the window, which F keeps.
    """
    qs = q_range(n, k)
    if p not in qs:
        raise ValueError(f"nu index (k={k}, p={p}) out of range at n={n}")
    from .kinematic import _tasaki_inverse

    q0, kk = qs.start, min(k, 2 * n - k)
    e, den, rows = _tasaki_inverse(n, kk)
    y = [sum(binomial(p - q0, s) * x for s, x in enumerate(row)) for row in rows]
    return _combine(n, den, [(1, e, {k: {0: tuple(_restrict(n, kk, y))}})])


def _nu_parts(n: int, k: int, parts: Mapping[int, tuple[int, ...]]) -> list[dict[int, int]]:
    """The nu coordinates b_q = sum_p a_p G_pq of the degree-k part {e: a}
    of a store over den, a indexed by position in q_range(n, k), q
    ascending, each as parts {e: x} of the value sum_e x pi^e / (den *
    _gram_block(n, k)[1]).  G is symmetric, so row q of the block is its
    column q."""
    shift, _, rows = _gram_block(n, k)
    out: list[dict[int, int]] = [{} for _ in rows]
    for e, a in parts.items():
        for b, row in zip(out, rows):
            b[e + shift] = sum(map(mul, row, a))
    return out


def nu_coeffs(v: Valuation, k: int) -> list[Scalar]:
    """Coordinates of a degree-k homogeneous valuation in the nu basis.

    b_q = <v, mu_{k,q}>, computed through the cached Gram block (equal to
    the direct pairing by bilinearity).
    """
    if v.degrees() not in ([], [k]):
        raise ValueError("nu_coeffs requires a homogeneous valuation of the stated degree")
    den = v._den * _gram_block(v.n, k)[1]
    return [Scalar.from_parts(b, den) for b in _nu_parts(v.n, k, v._parts.get(k, {}))]


# ----------------------------------------------------------------------
# the three cones
#
# One kernel per cone reads the store (n, den, parts) of a Valuation and
# returns None for a member, or its first failure as (kind, k, q, parts,
# scale), the failing value being sum_e parts[e] pi^e / scale.  kind is the
# witness kind for P and CP; for M it is 0 (the value on points) or the
# family, 1 or 2, of the violated inequality.  A degree with one pi
# exponent is decided by integer comparisons alone; the others go through
# int_sign, whose den argument names the value in an UndecidableSignError.
# The predicates write the witness of a failure eagerly (_verdict); in_cone
# writes nothing.

def _positive_failure(n: int, den: int, store) -> Optional[tuple]:
    """The first negative mu coefficient, k and then q ascending."""
    for k in sorted(store):
        parts = store[k]
        if len(parts) == 1:
            ((e, a),) = parts.items()
            if min(a) < 0:
                i = next(i for i, x in enumerate(a) if x < 0)
                return "negative_mu_coefficient", k, q_range(n, k).start + i, {e: a[i]}, den
            continue
        for i, column in enumerate(zip(*parts.values())):
            if min(column) < 0:  # nonnegative numerators give a nonnegative coefficient
                c = dict(zip(parts, column))
                if int_sign(c, den) < 0:
                    return "negative_mu_coefficient", k, q_range(n, k).start + i, c, den
    return None


def _crofton_failure(n: int, den: int, store) -> Optional[tuple]:
    """The first negative nu coordinate, k and then q ascending."""
    for k in sorted(store):
        parts = store[k]
        shift, gden, rows = _gram_block(n, k)
        q0 = q_range(n, k).start
        if len(parts) == 1:
            ((e, a),) = parts.items()
            for q, row in enumerate(rows, q0):
                b = sum(map(mul, row, a))
                if b < 0:
                    return "negative_nu_coordinate", k, q, {e + shift: b}, den * gden
            continue
        for q, b in enumerate(_nu_parts(n, k, parts), q0):
            if int_sign(b) < 0:
                return "negative_nu_coordinate", k, q, b, den * gden
    return None


@lru_cache(maxsize=None)
def _monotone_rows(n: int, k: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """The inequalities of M at degree k >= 1 as (family, q, i, x, j, y),
    each asking a_i x - a_j y >= 0 of the mu coefficients, a indexed by
    position in q_range(n, k), family 1 and then family 2, q ascending;
    family 2 is taken times 2.  Indices outside the valid mu range enter
    with coefficient zero, so such a row names a_i in their place."""
    q0, rows = q_range(n, k).start, []
    for q in range(q0, (k - 1) // 2 + 1):
        # (k-2q) a_q - (k-2q-1) a_{q+1}; a_{q+1} is out of range only where
        # its factor is 0
        i, w = q - q0, k - 2 * q - 1
        rows.append((1, q, i, w + 1, i + 1 if w else i, w))
    for q in range(max(0, k - n - 1), (k - 2) // 2 + 1):
        # 2 * ((n+q-k+3/2) a_{q+1} - (n+q-k+1) a_q); a_q is below the
        # window only at q = k-n-1, where its factor is 0
        i, m = q + 1 - q0, n + q - k
        rows.append((2, q, i, 2 * m + 3, i - 1 if m + 1 else i, 2 * m + 2))
    return tuple(rows)


def _monotone_failure(n: int, den: int, store) -> Optional[tuple]:
    """A negative value on points, else the first violated inequality, k
    ascending; the slack of family f is over f * den."""
    parts = store.get(0, {})
    if len(parts) == 1:
        ((e, (c,)),) = parts.items()
        if c < 0:
            return 0, 0, 0, {e: c}, den
    elif parts:
        c0 = {e: a[0] for e, a in parts.items()}
        if int_sign(c0, den) < 0:
            return 0, 0, 0, c0, den
    for k in sorted(store):
        if k == 0:
            continue
        parts = store[k]
        if len(parts) == 1:
            ((e, a),) = parts.items()
            for f, q, i, x, j, y in _monotone_rows(n, k):
                slack = a[i] * x - a[j] * y
                if slack < 0:
                    return f, k, q, {e: slack}, f * den
            continue
        for f, q, i, x, j, y in _monotone_rows(n, k):
            slack = {e: a[i] * x - a[j] * y for e, a in parts.items()}
            if int_sign(slack) < 0:
                return f, k, q, slack, f * den
    return None


_KERNELS = {"P": _positive_failure, "CP": _crofton_failure, "M": _monotone_failure}


def _verdict(failure: Optional[tuple]) -> ConeVerdict:
    """The ConeVerdict of a kernel's result, its witness text written from
    the integers of the failure."""
    if failure is None:
        return _MEMBER
    kind, k, q, parts, scale = failure
    text = _parts_text(parts, scale)
    if kind == 0:
        return ConeVerdict(False, {"kind": "negative_point_value", "value": text})
    if kind in (1, 2):
        return ConeVerdict(False, {"kind": "inequality", "family": kind, "k": k, "q": q, "slack": text})
    field = "coefficient" if kind == "negative_mu_coefficient" else "coordinate"
    return ConeVerdict(False, {"kind": kind, "k": k, "q": q, field: text})


def in_cone(v: Valuation, cone: str) -> bool:
    """Membership of v in the cone "P", "CP" or "M": the .member of
    is_positive, is_crofton_positive or is_monotone, from the same kernel,
    with no witness built."""
    kernel = _KERNELS.get(cone)
    if kernel is None:
        raise ValueError(f"unknown cone {cone!r}: expected 'P', 'CP' or 'M'")
    return kernel(v.n, v._den, v._parts) is None


def is_positive(v: Valuation) -> ConeVerdict:
    """Membership in P: every mu coefficient nonnegative."""
    return _verdict(_positive_failure(v.n, v._den, v._parts))


def is_crofton_positive(v: Valuation) -> ConeVerdict:
    """Membership in CP: every nu coordinate of every degree nonnegative."""
    return _verdict(_crofton_failure(v.n, v._den, v._parts))


def is_monotone(v: Valuation) -> ConeVerdict:
    """Membership in the monotone cone M.

    The value on points (the chi coefficient) must be nonnegative, and
    every degree component must satisfy both inequality families; indices
    outside the valid mu range enter with coefficient zero, matching the
    local vanishing of the corresponding basis elements.
    """
    return _verdict(_monotone_failure(v.n, v._den, v._parts))


# ----------------------------------------------------------------------
# first variation

class CurvExpr(_Record):
    """A formal combination of curvature-measure symbols.

    terms maps ("B" | "Gamma", k, q) to a Scalar coefficient.  B_{k,q}
    requires k > 2q and Gamma_{k,q} requires n > k - q; both conditions
    are enforced at construction.  The symbols stay formal: only their
    coefficients are ever inspected.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[str, int, int], Scalar]):
        for sym, k, q in terms:
            if sym == "B":
                if not k > 2 * q:
                    raise ValueError(f"B_({k},{q}) needs k > 2q")
            elif sym == "Gamma":
                if not n > k - q:
                    raise ValueError(f"Gamma_({k},{q}) needs n > k - q")
            else:
                raise ValueError(f"unknown curvature symbol {sym!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, sym: str, k: int, q: int) -> Scalar:
        return self.terms.get((sym, k, q), Scalar.zero())

    def items(self):
        return sorted(self.terms.items())

    def all_nonnegative(self) -> bool:
        return all(c.sign() >= 0 for c in self.terms.values())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{sym}[{k},{q}]" for (sym, k, q), c in self.items())


@lru_cache(maxsize=None)
def _delta_table(n: int, k: int) -> tuple[int, int, tuple[tuple, ...]]:
    """delta(mu_{k,q}) as (e, den, rows), one row per q of q_range(n, k),
    listing (symbol key, x) for the coefficient x * pi^e / den.  Each
    coefficient of the four-term c_{n,k,q} expression is an integer times w =
    omega_{2n-k+1}/omega_{2n-k} = pi^e num/den: with m = n+q-k, those of
    Gamma_{k-1,q}, B_{k-1,q}, Gamma_{k-1,q-1}, B_{k-1,q-1} are 2(m+1)(k-2q),
    -2(m+1)(k-2q-1), -2(k+1-2q)m and (k+1-2q)(2m+1); zeros are dropped."""
    e1, w1 = omega(2 * n - k + 1).monomial()
    e0, w0 = omega(2 * n - k).monomial()
    w = w1 / w0
    rows = []
    for q in q_range(n, k):
        row, m = [], n + q - k
        if k - 1 >= 2 * q:
            row += [(("Gamma", k - 1, q), 2 * (m + 1) * (k - 2 * q)),
                    (("B", k - 1, q), -2 * (m + 1) * (k - 2 * q - 1))]
        if q >= 1:
            row += [(("Gamma", k - 1, q - 1), -2 * (k + 1 - 2 * q) * m),
                    (("B", k - 1, q - 1), (k + 1 - 2 * q) * (2 * m + 1))]
        rows.append(tuple((key, w.numerator * x) for key, x in row if x))
    return e1 - e0, w.denominator, tuple(rows)


def first_variation(n: int, v: Valuation) -> CurvExpr:
    """The first-variation curvature measure delta(v), as a CurvExpr.

    Linear extension of the four-term expression for delta(mu_{k,q}); the
    Euler characteristic spans the kernel.  Degree drops by exactly one.
    """
    if v.n != n:
        raise ValueError(f"ambient dimension mismatch: {v.n} vs {n}")
    terms = {}
    for k, by_e in v._parts.items():
        if k == 0:
            continue
        shift, den, rows = _delta_table(n, k)
        acc: dict[tuple[str, int, int], dict[int, int]] = {}
        for e, a in by_e.items():
            f = e + shift
            for x, row in zip(a, rows):
                if x:
                    for key, c in row:
                        t = acc.setdefault(key, {})
                        t[f] = t.get(f, 0) + c * x
        for key, t in acc.items():
            if any(t.values()):
                terms[key] = Scalar.from_parts(t, den * v._den)
    return CurvExpr(n, terms)


# ----------------------------------------------------------------------
# norms

def norm_inf(v: Valuation) -> Scalar:
    """max_q |a_q| over the mu coefficients of a homogeneous valuation."""
    k = _require_homogeneous(v)
    best = Scalar.zero()
    for q in q_range(v.n, k):
        c = abs(v.coefficient(k, q))
        if sign(c - best) > 0:
            best = c
    return best


def norm_one(v: Valuation) -> Scalar:
    """sum_q |b_q| over the nu coordinates of a homogeneous valuation."""
    return sum(map(abs, nu_coeffs(v, _require_homogeneous(v))), Scalar.zero())


def _require_homogeneous(v: Valuation) -> int:
    k = v.homogeneous_degree()
    if k is None:
        raise ValueError("norms are defined on homogeneous valuations only")
    return k
