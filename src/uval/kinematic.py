"""Poincare pairings, Tasaki matrices and the unitary kinematic formulas.

The kinematic operator at level n sends an invariant valuation m to the
tensor describing the motion-group average of m(A intersect gB); with
Haar measure normalised so that the translation mass of {g : g.o in S}
is vol(S).  Its blocks are computed from inverse pairing matrices: if
phi_i, psi_j run through bases of the degree-k piece and its complementary
piece and M_ij = (phi_i, psi_j) is the duality pairing, then the degree-k
contribution is sum K_ij (m phi_i) x psi_j with K = M^{-1}.

Every cached table here (the closed and certified Tasaki matrices, the
Gram matrix, the kinematic blocks) is one integer block (e, den, rows):
integers over one denominator times one power of pi fixed by the
degrees, in the canonical form of scalar._reduced.  The operator is
linear in m, and the tables of k(mu_{c,q}) are cached per (n, c, k) as
(e, den, one flat block per q), built once from the integer
tau-coordinates of mu_{c,q} phi_i and the integer inverse Gram block of
degree k.  Block (a, b) of k(m) comes from the one table with c = a + b
- 2n, k = 2n - b, so :func:`kinematic` writes it once: sum_q x_q W_q in
int per pi exponent of m's store, then one Scalar per entry.  Every
Scalar matrix of this module comes from _scalar_rows.  The per-basis
route in Scalar arithmetic is kept as the reference in :mod:`uval.checks`.

pairing_pd is the volume coefficient of the product.  The blocks and the
cached Tasaki Gram matrix M_ij = (tau_{k,i}, F(tau_{k,j})), the only
pairing matrix of the package (uval.cones derives its Gram blocks from
M), read their products of basis elements from valuation._basis_products.

The Tasaki matrices T^n_k = K = M^{-1} are closed: the sum T^n_k = sum_r
e_r e_r^T / (pi_{k,r}, F pi_{k,r}) over the primitive (Lefschetz) basis,
where the pairing is diagonal, e_r the tau-expansion of pi_{k,r} from
:mod:`uval.sl2`.  The kinematic and additive blocks, principal_kinematic
(block (k, 2n-k) is T^n_{min(k, 2n-k)}) and cones.nu read it, certified
per degree by T M = I in int against the pairings, a proof of T = M^{-1}.
Only tasaki_matrix_oracle eliminates M: the independent route of
check_tasaki_routes and of the reference kinematic in :mod:`uval.checks`.
Both routes give a TasakiMatrix the integer block (e, den, rows) they
compute.  :mod:`uval.linalg` is imported inside the oracle and
TasakiMatrix.leading_minor_dets alone, so the closed paths never run it.

Block convention: the leg of degree a is expressed in tau_{a, .} when
a <= n and in the Fourier-transformed basis F(tau_{2n-a, .}) otherwise,
so every matrix printed here pairs angle data of a submanifold with angle
data of the orthogonal complement of the other, as in the Crofton form of
the formulas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .scalar import Scalar, _Record, _reduced, _scalars, binomial, double_factorial, factorial, omega
from .sl2 import _primitive_tau_coeffs
from .valuation import (
    Valuation,
    canonical_basis,
    chi,
    dim_val,
    fourier,
    multiply,
    q_range,
)
from .valuation import _basis_products

__all__ = [
    "pairing_pd",
    "pairing_fourier",
    "TasakiMatrix",
    "tasaki_matrix_closed",
    "tasaki_matrix_oracle",
    "KinematicTensor",
    "principal_kinematic",
    "kinematic",
    "additive_kinematic",
    "cpn_normalize",
    "bezout_check",
    "primitive_pairing_closed",
    "basis_label",
    "canonical_basis",
]


def pairing_pd(a: Valuation, b: Valuation) -> Scalar:
    """Poincare duality pairing: the volume coefficient of the product."""
    return multiply(a, b).coefficient(2 * a.n, a.n)


def pairing_fourier(a: Valuation, b: Valuation) -> Scalar:
    """The symmetric pairing <a, b> = (a, fourier(b))."""
    return pairing_pd(a, fourier(b))


# ----------------------------------------------------------------------
# Tasaki matrices

class TasakiMatrix(_Record):
    """The (p+1)x(p+1) coefficient matrix of the degree-(k, 2n-k) Crofton
    formula over the bases tau_{k,i} and F(tau_{k,j}), as (e, den, rows):
    entry (i, j) is rows[i][j] * pi^e / den, with den > 0 and no common
    factor of den and the entries.  entries holds the same matrix as
    Scalars; ==, hash and pickling read (n, k, e, den, rows)."""

    __slots__ = ("n", "k", "e", "den", "rows", "entries")

    def __init__(self, n: int, k: int, e: int, den: int, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "entries", _scalar_rows({e: [x for row in rows for x in row]}, den, len(rows)))

    def _fields(self) -> tuple:
        return self.n, self.k, self.e, self.den, self.rows

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.entries[ij[0]][ij[1]]

    def leading_minor_dets(self) -> list[Scalar]:
        from .linalg import leading_minors

        return [Scalar.from_parts({j * self.e: x}, self.den**j) for j, x in enumerate(leading_minors(self.rows), 1)]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "matrix": [[s.to_json() for s in row] for row in self.entries],
        }

    def pretty(self) -> str:
        """Render as `common_factor * [[...], [...]]` with integer-leaning
        entries; the factor is the gcd of the entries (single pi power)."""
        g = gcd(*(x for row in self.rows for x in row)) or self.den
        body = "[" + ",".join(
            "[" + ",".join(str(Fraction(x, g)) for x in row) + "]" for row in self.rows
        ) + "]"
        return f"{Scalar.of(Fraction(g, self.den), self.e)} * {body}"


def _primitive_pairing(n: int, k: int, r: int) -> Fraction:
    """(pi_{k,r}, F(pi_{k,r})) without its pi power pi^n/(omega_k omega_{2n-k})."""
    return Fraction(
        8**r * binomial(n, 2 * r) * factorial(k - 2 * r) * factorial(2 * n - 4 * r)
        * double_factorial(2 * n - 4 * r + 1),
        factorial(n - r) * factorial(2 * n - 2 * r - k) * double_factorial(2 * n - 2 * r + 1),
    )


def _scalar_rows(blocks: dict[int, list[int]], den: int, width: int) -> tuple[tuple[Scalar, ...], ...]:
    """The Scalar matrix of the flat integer blocks {e: ints} over den, width
    columns: entry (i, j) is sum_e ints[i * width + j] * pi^e / den."""
    scalars = _scalars(blocks, den, len(next(iter(blocks.values()))))
    return tuple(tuple(scalars[r:r + width]) for r in range(0, len(scalars), width))


@lru_cache(maxsize=None)
def _tasaki_closed(n: int, k: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """T^n_k = sum_r e_r e_r^T / (pi_{k,r}, F(pi_{k,r})) over r = 0..k/2, e_r
    the closed tau-expansion of pi_{k,r}, as (e, den, rows) with no common
    factor of den and the entries.  The sum runs in int over one denominator
    with the single pi power of omega_k omega_{2n-k}/pi^n, and reads no
    product, pairing or elimination: the route independent of the oracle."""
    p = k // 2
    e, pref = (omega(k) * omega(2 * n - k) / Scalar.pi(n)).monomial()
    # e_r = a/d adds the weight pref / (pairing * d^2) = num/q times a a^T;
    # every term of entry (i, j) has the sign (-1)^{i+j}, so no entry is zero
    terms = []
    for r in range(p + 1):
        d, a = _primitive_tau_coeffs(n, k, r)
        pairing = _primitive_pairing(n, k, r)
        terms.append((pref.numerator * pairing.denominator, pref.denominator * pairing.numerator * d * d, a))
    den = lcm(*(q for _, q, _ in terms))
    sums = [[0] * (p + 1) for _ in range(p + 1)]
    for num, q, a in terms:
        for ai, row in zip(a, sums):
            x = num * (den // q) * ai
            for j, aj in enumerate(a):
                row[j] += x * aj
    return e, *_reduced(den, sums)


def tasaki_matrix_closed(n: int, k: int) -> TasakiMatrix:
    """T^n_k from the primitive basis (0 <= k <= n), the block of
    _tasaki_closed: the closed route, which reads no pairing."""
    if n < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if not 0 <= k <= n:
        raise ValueError("tasaki_matrix_closed needs 0 <= k <= n; use the Fourier symmetry above the middle degree")
    return TasakiMatrix(n, k, *_tasaki_closed(n, k))


@lru_cache(maxsize=None)
def _tasaki_gram(n: int, k: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """The pairing Gram matrix M_ij = (tau_{k,i}, F(tau_{k,j})), 0 <= k <= n,
    as (e, den, rows): entry (i, j) is rows[i][j] * pi^e / den, with no
    common factor of den and the entries, read from the product formula
    alone (the route independent of _tasaki_closed).  M is symmetric, and
    M_ji is the volume coordinate of F(tau_{k,i}) tau_{k,j}, F(tau_{k,i})
    being canonical_basis(n, 2n - k)[i]."""
    rows = []
    for psi in canonical_basis(n, 2 * n - k):
        e, den, products = _basis_products(n, 2 * n - k, psi._parts[2 * n - k][0], k)
        rows.append([z[0] for z in products])
    return e, *_reduced(den, rows)


@lru_cache(maxsize=None)
def _tasaki_inverse(n: int, k: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """The inverse of _tasaki_gram(n, k) as (e, den, rows), entry (i, j)
    being rows[i][j] * pi^e / den: _tasaki_closed(n, k), certified by T M = I
    in int (the pi powers cancel, the product is den * Gram den * I), a
    proof of T = M^-1 with no elimination.  A failure raises."""
    e, den, rows = _tasaki_closed(n, k)
    em, dm, m = _tasaki_gram(n, k)
    cols, one = list(zip(*m)), den * dm
    if e + em or any(sum(map(mul, row, col)) != one * (i == j)
                     for i, row in enumerate(rows) for j, col in enumerate(cols)):
        raise AssertionError(f"closed Tasaki matrix at n={n}, k={k} is not the inverse of the Gram matrix")
    return e, den, rows


@lru_cache(maxsize=None)
def tasaki_matrix_oracle(n: int, k: int) -> TasakiMatrix:
    """T^n_k as the exact inverse of M_ij = (tau_{k,i}, F(tau_{k,j})), the
    independent route and the package's one elimination of a Gram matrix.
    The row and then the column gcds are divided out first, M = D_r M' D_c,
    and put back in int by M^-1 = D_c^-1 M'^-1 D_r^-1, then reduced."""
    if n < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if not 0 <= k <= n:
        raise ValueError("tasaki_matrix_oracle needs 0 <= k <= n; use the Fourier symmetry above the middle degree")
    from .linalg import inverse

    e, den, rows = _tasaki_gram(n, k)
    r = [gcd(*row) for row in rows]
    rows = [[x // g for x in row] for row, g in zip(rows, r)]
    c = [gcd(*col) for col in zip(*rows)]
    d, inv = inverse(den, [[x // g for x, g in zip(row, c)] for row in rows])
    lr, lc = lcm(*r), lcm(*c)
    inv = [[x * (lc // ci) * (lr // rj) for x, rj in zip(row, r)] for row, ci in zip(inv, c)]
    return TasakiMatrix(n, k, -e, *_reduced(d * lc * lr, inv))


# ----------------------------------------------------------------------
# kinematic tensors

def basis_label(n: int, a: int) -> str:
    """The name of canonical_basis(n, a), the degree-a leg of a tensor block."""
    return f"tau[{a}]" if a <= n else f"F(tau[{2 * n - a}])"


class KinematicTensor(_Record):
    """A bigraded array of Scalars over pairs of canonical basis elements.

    blocks maps a bidegree (a, b) to a dim(a) x dim(b) matrix; the bases
    are determined by the block convention (see basis_label).  kind is
    "kinematic" (intersection) or "additive" (Minkowski sum); the
    cpn_normalized flag records whether the probability normalisation of
    complex projective space has been applied, which is never implicit.
    """

    __slots__ = ("n", "mu", "blocks", "kind", "cpn_normalized")

    def __init__(self, n: int, mu: Valuation, blocks: dict, kind: str = "kinematic",
                 cpn_normalized: bool = False):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cpn_normalized", cpn_normalized)

    def block(self, a: int, b: int) -> tuple[tuple[Scalar, ...], ...]:
        return self.blocks[(a, b)]

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted(self.blocks)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "cpn_normalized": self.cpn_normalized,
            "mu": self.mu.to_json(),
            "blocks": [
                {
                    "a": a,
                    "b": b,
                    "left_basis": basis_label(self.n, a),
                    "right_basis": basis_label(self.n, b),
                    "matrix": [[s.to_json() for s in row] for row in matrix],
                }
                for (a, b), matrix in sorted(self.blocks.items())
            ],
        }

    def pretty(self) -> str:
        lines = []
        for (a, b), matrix in sorted(self.blocks.items()):
            lines.append(
                f"bidegree ({a},{b})  rows {basis_label(self.n, a)}  cols {basis_label(self.n, b)}"
            )
            for row in matrix:
                lines.append("  [" + ", ".join(str(s) for s in row) + "]")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _kinematic_block(n: int, c: int, k: int) -> tuple[int, int, tuple[tuple[int, ...], ...]] | None:
    """Block (c+k, 2n-k) of the kinematic tensor of mu_{c,q} for every q in
    q_range(n, c), as (e, den, rows): rows holds one flat block W_q per q,
    entry (i, j) of the block of mu_{c,q} being W_q[i * dim + j] * pi^e / den
    with dim = dim_val(n, k).  None if the block is zero for every q.

    W_q[i * dim + j] = sum_l A_q[l][i] K[l][j], a plain int product of the
    integer tau-coordinates A_q[l] of mu_{c,q} phi_l, one row of
    _basis_products, and the integer inverse Gram block K of degree k from
    _tasaki_inverse.  Every product has the one pi exponent of
    omega_{c+k}/(omega_c omega_k) and the same denominator.
    """
    ek, dk, kmat = _tasaki_inverse(n, min(k, 2 * n - k))
    cols = list(zip(*kmat))
    rows = []
    for q in q_range(n, c):
        ea, da, a = _basis_products(n, c, [int(i == q) for i in q_range(n, c)], k)
        rows.append([sum(map(mul, row, col)) for row in zip(*a) for col in cols])
    den, rows = _reduced(da * dk, rows)
    return (ea + ek, den, rows) if any(map(any, rows)) else None


def kinematic(n: int, m: Valuation) -> KinematicTensor:
    """The kinematic tensor of m: sum over degrees k of
    K_ij (m phi_i) x psi_j with phi the canonical basis, psi its Fourier
    transform and K the inverse pairing matrix of the degree.

    m's store holds integer parts x per (degree c, pi exponent) over one
    denominator.  A block (a, b) comes from the single degree pair
    c = a + b - 2n, k = 2n - b, so it is written once: sum_q x_q W_q in int
    per pi exponent, with W_q the cached integer block of mu_{c,q} from
    _kinematic_block, then one Scalar per entry.  All-zero blocks are
    dropped.
    """
    if m.n != n:
        raise ValueError(f"ambient dimension mismatch: {m.n} vs {n}")
    blocks = {}
    for c, by_e in m._parts.items():
        for k in range(2 * n - c + 1):
            table = _kinematic_block(n, c, k)
            if table is None:
                continue
            shift, wden, rows = table
            sums = {}
            for e, x in by_e.items():
                z = None
                for xq, w in zip(x, rows):
                    if xq:
                        z = [xq * v for v in w] if z is None else [u + xq * v for u, v in zip(z, w)]
                if z is not None:
                    sums[e + shift] = z
            block = _scalar_rows(sums, m._den * wden, dim_val(n, 2 * n - k))
            if any(map(any, block)):
                blocks[(c + k, 2 * n - k)] = block
    return KinematicTensor(n=n, mu=m, blocks=blocks)


def principal_kinematic(n: int) -> KinematicTensor:
    """The principal kinematic tensor k(chi).

    Block (k, 2n-k) is T^n_{min(k, 2n-k)}, read from the certified closed
    Tasaki inverse: chi is the unit, so k(chi) has no other block, and a
    closed matrix that fails T M = I raises here.  check_principal_kinematic
    compares the tensor with kinematic(n, chi(n)) and with the oracle-based
    reference route.
    """
    if n < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    blocks = [TasakiMatrix(n, k, *_tasaki_inverse(n, k)).entries for k in range(n + 1)]
    return KinematicTensor(n, chi(n), {(k, 2 * n - k): blocks[min(k, 2 * n - k)] for k in range(2 * n + 1)})


def additive_kinematic(n: int, m: Valuation) -> KinematicTensor:
    """The additive (Minkowski sum) kinematic tensor of m.

    Computed as Fourier of the intersection tensor of fourier(m): each
    block (a, b) moves to (2n-a, 2n-b) with the same matrix, because the
    Fourier transform maps the canonical degree-a basis to the canonical
    degree-(2n-a) basis element by element.
    """
    base = kinematic(n, fourier(m))
    blocks = {
        (2 * n - a, 2 * n - b): matrix for (a, b), matrix in base.blocks.items()
    }
    return KinematicTensor(n=n, mu=m, blocks=blocks, kind="additive")


def cpn_normalize(t: KinematicTensor) -> KinematicTensor:
    """Rescale to the probability normalisation of CP^n: every block is
    multiplied by n!/pi^n.  Refuses to apply twice."""
    if t.cpn_normalized:
        raise ValueError("tensor is already CP^n-normalized")
    factor = Scalar.of(factorial(t.n)) / Scalar.pi(t.n)
    blocks = {
        ab: tuple(tuple(s * factor for s in row) for row in matrix)
        for ab, matrix in t.blocks.items()
    }
    return KinematicTensor(t.n, t.mu, blocks, t.kind, cpn_normalized=True)


def bezout_check(n: int, a: int, b: int) -> Scalar:
    """Contract the CP^n-normalised principal tensor against the Tasaki
    values of degree-1 algebraic subvarieties of complex dimensions a and
    b = n - a; the intersection count of such a pair is exactly 1.

    On a degree-1 variety V of complex dimension a, tau_{2a,q}(V) =
    C(a,q) pi^a/a!, and the Fourier-side values carry the complementary
    binomials.
    """
    if a < 1 or b < 1 or a + b != n:
        raise ValueError("bezout_check needs a, b >= 1 with a + b = n")
    tensor = cpn_normalize(principal_kinematic(n))
    block = tensor.block(2 * a, 2 * b)

    def leg_values(deg: int, cdim_self: int, cdim_other: int) -> list[Scalar]:
        # basis tau[deg] if deg <= n (values C(cdim_self, i) pi^a/a!),
        # else F(tau[2n-deg]) (values C(cdim_other, i) pi^{cdim_self}/cdim_self!)
        top = cdim_self if 2 * cdim_self <= n else cdim_other
        scale = Scalar.of(Fraction(1, factorial(cdim_self)), cdim_self)
        return [scale * binomial(top, i) for i in range(dim_val(n, deg))]

    left = leg_values(2 * a, a, b)
    right = leg_values(2 * b, b, a)
    total = Scalar.zero()
    for i, lv in enumerate(left):
        for j, rv in enumerate(right):
            total = total + block[i][j] * lv * rv
    return total


def primitive_pairing_closed(n: int, k: int, r: int) -> Scalar:
    """Closed form of the pairing (pi_{k,r}, F(pi_{k,r})):

    8^r pi^n/(omega_k omega_{2n-k}) C(n,2r) (k-2r)!(2n-4r)!/((n-r)!(2n-2r-k)!)
    * (2n-4r+1)!!/(2n-2r+1)!!.
    """
    if n < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if not (0 <= 2 * r <= min(k, 2 * n - k)):
        raise ValueError(f"(k,r)=({k},{r}) out of range at n={n}")
    return Scalar.pi(n) / (omega(k) * omega(2 * n - k)) * _primitive_pairing(n, k, r)
