"""The invariant suite behind `uval selftest`.

Each check is a named callable taking a level ("quick" or "full") and
raising AssertionError on the first violated invariant.  The quick level
shrinks dimension ranges and sample counts; the full level runs the
module invariants at their stated scale.  The acceptance-criteria tests
in the test suite run independently of this registry at their own scale.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cones import (
    CurvExpr,
    first_variation,
    in_cone,
    is_crofton_positive,
    is_monotone,
    is_positive,
    norm_inf,
    norm_one,
    nu,
    nu_coeffs,
)
from .kinematic import (
    KinematicTensor,
    additive_kinematic,
    bezout_check,
    canonical_basis,
    cpn_normalize,
    kinematic,
    pairing_fourier,
    pairing_pd,
    primitive_pairing_closed,
    principal_kinematic,
    tasaki_matrix_closed,
    tasaki_matrix_oracle,
)
from .linalg import fraction_matrix_rank
from .poly import GradedPoly, change_vars, f_closed, f_recursive
from .scalar import Scalar, accumulate, binomial, double_factorial, factorial, omega
from .sl2 import (
    apply_H,
    apply_L,
    apply_Lambda,
    lefschetz_decompose,
    primitive,
    primitive_general,
    reconstruct,
)
from .valuation import (
    Valuation,
    chi,
    dim_val,
    fourier,
    from_monomial,
    iota,
    klain,
    mu,
    multiply,
    q_range,
    tau,
    tau_coords,
    to_monomial,
    vol,
)

__all__ = ["CHECKS", "run_selftest"]


def _rand_scalar(rng: random.Random) -> Scalar:
    # up to three pi powers in -3..3, numerators and denominators up to 9
    terms = range(rng.randint(0, 3))
    return Scalar({rng.randint(-3, 3): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in terms})


def _rand_valuation(rng: random.Random, n: int, max_terms: int = 4) -> Valuation:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, 2 * n)
        q = rng.choice(list(q_range(n, k)))
        coeffs[(k, q)] = _rand_scalar(rng)
    return Valuation(n, coeffs)


def _rand_poly(rng: random.Random, max_deg: int = 12) -> GradedPoly:
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, (max_deg - a) // 2)
        coeffs[(a, b)] = _rand_scalar(rng)
    return GradedPoly(coeffs)


# ----------------------------------------------------------------------
# exact_scalar

def check_scalar_ring_axioms(level: str) -> None:
    rng = random.Random(101)
    for _ in range(300 if level == "full" else 50):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a - a == Scalar.zero()


def check_omega_recursion(level: str) -> None:
    two_pi = Scalar.of(2, 1)
    for k in range(2, 31):
        assert omega(k) == two_pi / Fraction(k) * omega(k - 2), k
    assert omega(0) == Scalar.one()
    assert omega(1) == Scalar.of(2)
    assert omega(2) == Scalar.pi(1)
    assert omega(3) == Scalar.of(Fraction(4, 3), 1)


def check_scalar_serialization(level: str) -> None:
    rng = random.Random(102)
    for _ in range(200 if level == "full" else 100):
        s = _rand_scalar(rng)
        data = s.to_json()
        assert data == sorted(data, key=lambda d: d["pi"])
        assert Scalar.from_json(data) == s


# ----------------------------------------------------------------------
# poly_algebra

def check_relation_polynomials(level: str) -> None:
    top = 16
    for k in range(1, top + 1):
        fk = f_recursive(k)
        assert fk == f_closed(k), k
        assert fk.degree() == k
        # in the (s, t) chart the t^k coefficient is (-1)^{k+1}/k, the
        # log(1 + s + t) series coefficient at s = 0
        fk_st = change_vars(fk, "st")
        assert fk_st.coefficient(k, 0) == Scalar.of(Fraction((-1) ** (k + 1), k)), k


def check_change_vars_roundtrip(level: str) -> None:
    rng = random.Random(103)
    for _ in range(100 if level == "full" else 20):
        p = _rand_poly(rng)
        assert change_vars(change_vars(p, "st"), "tu") == p
        q = change_vars(p, "st")
        assert change_vars(change_vars(q, "tu"), "st") == q


# ----------------------------------------------------------------------
# valuation_core

def check_ideal_vanishing(level: str) -> None:
    top_n = 6 if level == "full" else 3
    for n in range(1, top_n + 1):
        for shift in (1, 2):
            f = f_closed(n + shift)
            bound = 2 * n - (n + shift)
            for a in range(bound + 1):
                for b in range((bound - a) // 2 + 1):
                    m = GradedPoly.monomial(a, b)
                    assert from_monomial(n, m * f).is_zero, (n, shift, a, b)


def check_monomial_roundtrip(level: str) -> None:
    rng = random.Random(104)
    top_n = 6
    for n in range(1, top_n + 1):
        for _ in range(20 if level == "full" else 6):
            v = _rand_valuation(rng, n)
            assert from_monomial(n, to_monomial(v)) == v, n


def check_product_algebra(level: str) -> None:
    rng = random.Random(105)
    top_n = 4 if level == "full" else 2
    for n in range(1, top_n + 1):
        for _ in range(8 if level == "full" else 3):
            a, b, c = (_rand_valuation(rng, n, 2) for _ in range(3))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(chi(n), a) == a


def check_tasaki_product_formula(level: str) -> None:
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        for k in range(0, 2 * n + 1):
            for l in range(0, 2 * n + 1 - k):
                for p in range(k // 2 + 1):
                    for q in range(l // 2 + 1):
                        lhs = multiply(tau(n, k, p), tau(n, l, q))
                        coeff = (
                            omega(k + l)
                            / (omega(k) * omega(l))
                            * Fraction(
                                binomial(k + l - 2 * p - 2 * q, k - 2 * p)
                                * binomial(2 * p + 2 * q, 2 * p)
                            )
                        )
                        rhs = tau(n, k + l, p + q) * coeff
                        assert lhs == rhs, (n, k, l, p, q)
                        # multiply is built from this formula: the quotient
                        # map is the independent route
                        quotient = from_monomial(
                            n, to_monomial(tau(n, k, p)) * to_monomial(tau(n, l, q))
                        )
                        assert quotient == rhs, (n, k, l, p, q)


def check_fourier_and_iota(level: str) -> None:
    rng = random.Random(106)
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        for _ in range(10 if level == "full" else 4):
            v = _rand_valuation(rng, n)
            assert fourier(fourier(v)) == v
            even = sum(
                (v.component(k) for k in v.degrees() if k % 2 == 0),
                Valuation.zero(n),
            )
            assert iota(even) == _iota_reference(even)
            assert iota(iota(even)) == even
            assert iota(fourier(even)) == fourier(iota(even))
        # iota is trivial on the top degree
        assert iota(vol(n)) == vol(n)
        # iota multiplicativity on even elements
        a = tau(n, 2, rng.randint(0, 1)) if n >= 2 else tau(n, 2, 1)
        b = tau(n, 2, 1)
        assert iota(multiply(a, b)) == multiply(iota(a), iota(b))


def _iota_reference(v: Valuation) -> Valuation:
    """iota as the monomial swap t^a u^b -> t^{2b} u^{a/2}, through the quotient map."""
    swapped = {(2 * b, a // 2): c for (a, b), c in to_monomial(v).items()}
    return from_monomial(v.n, GradedPoly(swapped))


def check_fourier_restriction_map(level: str) -> None:
    # Fourier on even Tasaki valuations is substitution of ones into the
    # elementary symmetric polynomials: F(tau_{2(n-p),i}) has tau_{2p,j}
    # coordinates C((n-p)-p, i-j).
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        for p in range(0, n // 2 + 1):
            m = n - p
            for i in range(m + 1):
                coords = tau_coords(fourier(tau(n, 2 * m, i)), 2 * p)
                for j, c in enumerate(coords):
                    want = binomial(m - p, i - j) if 0 <= i - j <= m - p else 0
                    assert c == Scalar.of(want), (n, p, i, j)


def check_anisotropic_ideal(level: str) -> None:
    rng = random.Random(107)
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        u_val = from_monomial(n, GradedPoly.u())
        for _ in range(12 if level == "full" else 4):
            v = _rand_valuation(rng, n)
            prod = multiply(u_val, v)
            for k in range(0, n + 1):
                assert prod.coefficient(k, 0).is_zero, (n, k)


def check_kazarnovskii_normalization(level: str) -> None:
    for k in range(1, 11):
        n = 10
        lhs = to_monomial(mu(n, k, 0))
        pref = Scalar.of(Fraction((-1) ** (k + 1) * 2**k, 2 * factorial(k - 1)), k) / omega(k)
        rhs = f_closed(k) * pref
        assert lhs == rhs, k


def check_multiplication_by_u(level: str) -> None:
    # u * mu_{k,p} = 4(p+1)/(pi(k+2)) ((2p+1) mu_{k+2,p+1} - 2(p+2) mu_{k+2,p+2}),
    # exactly (not only modulo higher mu terms).
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        u_val = from_monomial(n, GradedPoly.u())
        for k in range(0, 2 * n - 1):
            for p in q_range(n, k):
                lhs = multiply(u_val, mu(n, k, p))
                pref = Scalar.of(Fraction(4 * (p + 1), k + 2), -1)
                rhs = Valuation.zero(n)
                if p + 1 in q_range(n, k + 2):
                    rhs = rhs + mu(n, k + 2, p + 1) * (2 * p + 1)
                if p + 2 in q_range(n, k + 2):
                    rhs = rhs - mu(n, k + 2, p + 2) * (2 * (p + 2))
                assert lhs == rhs * pref, (n, k, p)


# ----------------------------------------------------------------------
# lefschetz_sl2

def check_sl2_commutators(level: str) -> None:
    top_n = 6 if level == "full" else 3
    for n in range(1, top_n + 1):
        for k in range(0, 2 * n + 1):
            for q in q_range(n, k):
                v = mu(n, k, q)
                assert apply_L(apply_Lambda(v)) - apply_Lambda(apply_L(v)) == apply_H(v)
                assert apply_H(apply_L(v)) - apply_L(apply_H(v)) == apply_L(v) * 2
                assert apply_H(apply_Lambda(v)) - apply_Lambda(apply_H(v)) == apply_Lambda(v) * (-2)


def check_iterated_commutators(level: str) -> None:
    rng = random.Random(108)
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        for _ in range(6 if level == "full" else 2):
            v = _rand_valuation(rng, n)
            for i in range(1, 5):
                def l_pow(w, m):
                    for _ in range(m):
                        w = apply_L(w)
                    return w

                lhs = l_pow(apply_Lambda(v), i) - apply_Lambda(l_pow(v, i))
                rhs = l_pow(apply_H(v), i - 1) * i + l_pow(v, i - 1) * (i * (i - 1))
                assert lhs == rhs, (n, i)


def check_hard_lefschetz(level: str) -> None:
    top_n = 6 if level == "full" else 3
    for n in range(1, top_n + 1):
        for k in range(0, n + 1):
            qs = list(q_range(n, k))
            target_qs = list(q_range(n, 2 * n - k))
            cols = []
            for q in qs:
                w = mu(n, k, q)
                for _ in range(2 * n - 2 * k):
                    w = apply_L(w)
                cols.append([w.coefficient(2 * n - k, t).as_fraction() for t in target_qs])
            matrix = [[cols[c][r] for c in range(len(qs))] for r in range(len(target_qs))]
            assert fraction_matrix_rank(matrix) == len(qs) == len(target_qs), (n, k)


def check_primitive_elements(level: str) -> None:
    top_n = 6 if level == "full" else 3
    for n in range(1, top_n + 1):
        assert primitive(n, 0) == chi(n)
        for r in range(0, n // 2 + 1):
            p2r = primitive(n, r)
            assert apply_Lambda(p2r).is_zero, (n, r)
            assert tau_coords(p2r, 2 * r)[-1] == Scalar.one(), (n, r)
            for k in range(2 * r, 2 * n - 2 * r + 1):
                pk = primitive_general(n, k, r)
                it = p2r
                for _ in range(k - 2 * r):
                    it = apply_L(it)
                assert it == pk, (n, k, r)
                # magic formula
                want = primitive_general(n, 2 * n - k, r) * Fraction(
                    factorial(k - 2 * r), factorial(2 * n - 2 * r - k)
                )
                assert fourier(pk) == want, (n, k, r)


def check_lambda_normalization(level: str) -> None:
    for n in range(1, 7):
        assert apply_Lambda(tau(n, 1, 0)) == chi(n) * (2 * n), n


def check_L_is_multiplication(level: str) -> None:
    rng = random.Random(109)
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        mu1 = tau(n, 1, 0)
        for _ in range(8 if level == "full" else 3):
            v = _rand_valuation(rng, n)
            prod = multiply(mu1, v)
            scaled = Valuation.zero(n)
            for k in v.degrees():
                scaled = scaled + prod.component(k + 1) * (Scalar.of(2) * omega(k) / omega(k + 1))
            assert apply_L(v) == scaled, n


def check_lefschetz_decomposition(level: str) -> None:
    rng = random.Random(110)
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        for _ in range(8 if level == "full" else 3):
            v = _rand_valuation(rng, n)
            parts = lefschetz_decompose(v)
            assert reconstruct(n, parts) == v, n
        assert lefschetz_decompose(Valuation.zero(n)) == []
        for k in range(0, 2 * n + 1):
            for r in range(0, min(k, 2 * n - k) // 2 + 1):
                parts = lefschetz_decompose(primitive_general(n, k, r))
                assert parts == [(k, r, Scalar.one())], (n, k, r)


# ----------------------------------------------------------------------
# kinematic_engine

def check_tasaki_routes(level: str) -> None:
    top_n = 6 if level == "full" else 3
    for n in range(1, top_n + 1):
        for k in range(0, n + 1):
            closed = tasaki_matrix_closed(n, k)
            oracle = tasaki_matrix_oracle(n, k)
            assert closed.entries == oracle.entries, (n, k)


def check_tasaki_symmetries(level: str) -> None:
    top_n = 8 if level == "full" else 4
    for n in range(1, top_n + 1):
        for k in range(0, n + 1):
            t = tasaki_matrix_closed(n, k)
            p = t.size - 1
            for i in range(p + 1):
                for j in range(p + 1):
                    assert t[i, j] == t[j, i], (n, k, i, j)
                    if k % 2 == 0:
                        l = k // 2
                        assert t[i, j] == t[l - i, l - j], (n, k, i, j)
            # pi-power sanity: rational entries for even k, rational/pi for odd
            want_exp = 0 if k % 2 == 0 else -1
            for row in t.entries:
                for s in row:
                    assert s.is_zero or s.monomial()[0] == want_exp, (n, k)


def check_tasaki_positive_definite(level: str) -> None:
    top_n = 6 if level == "full" else 3
    for n in range(1, top_n + 1):
        for k in range(0, n + 1):
            for minor in tasaki_matrix_closed(n, k).leading_minor_dets():
                assert minor.sign() > 0, (n, k)


def check_printed_tasaki_matrices(level: str) -> None:
    for n in range(2, 9):
        t = tasaki_matrix_closed(n, 2)
        pref = Scalar.of(Fraction(1, 4 * n * (n - 1)))
        grid = [[2 * n - 1, -1], [-1, 2 * n - 1]]
        for i in range(2):
            for j in range(2):
                assert t[i, j] == pref * grid[i][j], (n, 2, i, j)
    for n in range(3, 9):
        t = tasaki_matrix_closed(n, 3)
        pref = Scalar.of(
            Fraction(2 ** (n - 2) * factorial(n - 3), n * double_factorial(2 * n - 3)), -1
        )
        grid = [[Fraction(2 * n - 3), Fraction(-1)], [Fraction(-1), Fraction(2 * n - 1, 3)]]
        for i in range(2):
            for j in range(2):
                assert t[i, j] == pref * grid[i][j], (n, 3, i, j)
    for n in range(4, 9):
        t = tasaki_matrix_closed(n, 4)
        pref = Scalar.of(Fraction(factorial(n - 4), 16 * factorial(n)))
        grid = [
            [3 * (2 * n - 5) * (2 * n - 3), -3 * (2 * n - 3), 9],
            [-3 * (2 * n - 3), 2 * n * n - 4 * n + 3, -3 * (2 * n - 3)],
            [9, -3 * (2 * n - 3), 3 * (2 * n - 5) * (2 * n - 3)],
        ]
        for i in range(3):
            for j in range(3):
                assert t[i, j] == pref * grid[i][j], (n, 4, i, j)


def check_principal_kinematic(level: str) -> None:
    """principal_kinematic against the assembly kinematic(n, chi(n)) and the
    oracle-based _kinematic_reference(n, chi(n)), which reads no closed matrix."""
    top_n = 4 if level == "full" else 2
    for n in range(1, top_n + 1):
        pk = principal_kinematic(n)
        assert pk == kinematic(n, chi(n)), n
        assert pk == _kinematic_reference(n, chi(n)), n
        assert pk.block(0, 2 * n) == ((Scalar.one(),),)
        assert pk.block(2 * n, 0) == ((Scalar.one(),),)
    pk1 = principal_kinematic(1)
    assert pk1.block(1, 1) == ((Scalar.of(2) / Scalar.pi(1),),)
    # run here rather than as a registry entry of its own, so that the
    # lines of the selftest report stay the same
    check_kinematic_reference_route(level)


def _kinematic_reference(n: int, m: Valuation) -> KinematicTensor:
    """k(m) basis element by basis element in Scalar arithmetic: one
    multiply and one tau_coords per canonical basis element phi_i, then
    K_ij times each coordinate.  The reference for the cached integer
    blocks behind kinematic."""
    if m.n != n:
        raise ValueError(f"ambient dimension mismatch: {m.n} vs {n}")
    acc: dict[tuple[int, int], list[list[Scalar]]] = {}
    for k in range(2 * n + 1):
        kmat = tasaki_matrix_oracle(n, min(k, 2 * n - k))
        basis = canonical_basis(n, k)
        b_deg = 2 * n - k
        for i, phi in enumerate(basis):
            prod = multiply(m, phi)
            if prod.is_zero:
                continue
            for a in prod.degrees():
                coords = tau_coords(prod, a)
                block = acc.setdefault(
                    (a, b_deg),
                    [[Scalar.zero()] * dim_val(n, b_deg) for _ in range(dim_val(n, a))],
                )
                for row, cval in enumerate(coords):
                    if cval.is_zero:
                        continue
                    for j in range(len(basis)):
                        kij = kmat[i, j]
                        if not kij.is_zero:
                            block[row][j] = block[row][j] + kij * cval
    blocks = {
        ab: tuple(tuple(row) for row in matrix)
        for ab, matrix in acc.items()
        if any(not s.is_zero for row in matrix for s in row)
    }
    return KinematicTensor(n=n, mu=m, blocks=blocks)


def check_kinematic_reference_route(level: str) -> None:
    """kinematic and additive_kinematic against _kinematic_reference on
    seeded valuations of mixed degree with pi^-1, pi^0 and pi^1 terms and
    non-integer Fractions, and on the zero valuation."""
    rng = random.Random(115)
    top_n = 8 if level == "full" else 5

    def coefficient() -> Scalar:
        # odd over even is never an integer
        return Scalar({
            e: Fraction(2 * rng.randint(-10, 9) + 1, 2 * rng.randint(1, 6))
            for e in rng.sample((-1, 0, 1), rng.randint(1, 3))
        })

    for n in range(1, top_n + 1):
        mixed = Valuation(n, {
            (k, rng.choice(q_range(n, k))): coefficient() for k in rng.sample(range(2 * n + 1), 3)
        })
        for m in (Valuation(n), mixed):
            assert kinematic(n, m) == _kinematic_reference(n, m), (n, m)
            base = _kinematic_reference(n, fourier(m))
            flipped = {(2 * n - a, 2 * n - b): matrix for (a, b), matrix in base.blocks.items()}
            assert additive_kinematic(n, m).blocks == flipped, (n, m)


def check_primitive_pairing(level: str) -> None:
    top_n = 5 if level == "full" else 3
    for n in range(1, top_n + 1):
        for k in range(0, 2 * n + 1):
            for r in range(0, min(k, 2 * n - k) // 2 + 1):
                closed = primitive_pairing_closed(n, k, r)
                pk = primitive_general(n, k, r)
                assert closed == pairing_pd(pk, fourier(pk)), (n, k, r)
                for s in range(0, min(k, 2 * n - k) // 2 + 1):
                    if s != r:
                        assert pairing_pd(pk, primitive_general(n, 2 * n - k, s)).is_zero


def check_bezout(level: str) -> None:
    for n, a, b in [(2, 1, 1), (3, 1, 2), (3, 2, 1), (4, 1, 3), (4, 2, 2)]:
        assert bezout_check(n, a, b) == Scalar.one(), (n, a, b)


def check_worked_examples(level: str) -> None:
    kt = kinematic(4, tau(4, 1, 0))
    block = cpn_normalize(kt).block(4, 5)
    grid = [[30, -6], [-3, 7], [0, 0]]
    for i in range(3):
        for j in range(2):
            assert block[i][j] == Scalar.of(Fraction(grid[i][j], 5), -4), (i, j)
    ak = additive_kinematic(4, tau(4, 7, 0))
    block34 = ak.block(3, 4)
    for i in range(2):
        for j in range(3):
            assert block34[i][j] == Scalar.of(Fraction(grid[j][i], 120)), (i, j)
    kv = kinematic(2, vol(2))
    assert set(kv.blocks) == {(4, 4)} and kv.block(4, 4) == ((Scalar.one(),),)


# ----------------------------------------------------------------------
# cone_analysis

def _component_samples(rng: random.Random, n: int, k: int, count: int):
    qs = list(q_range(n, k))
    for _ in range(count):
        yield Valuation(n, {(k, q): rng.randint(-4, 4) for q in qs})


def check_cone_chain(level: str) -> None:
    rng = random.Random(111)
    count = 1000 if level == "full" else 100
    for n in range(1, 5):
        for k in range(0, 2 * n + 1):
            qs = list(q_range(n, k))
            for v in _component_samples(rng, n, k, count):
                in_cp = in_cone(v, "CP")
                in_m = in_cone(v, "M")
                in_p = in_cone(v, "P")
                assert (not in_cp) or in_m, (n, k, v)
                assert (not in_m) or in_p, (n, k, v)
            # samples built inside CP: nonnegative nu combinations
            for _ in range(count // 10):
                v = Valuation.zero(n)
                for q in qs:
                    v = v + nu(n, k, q) * rng.randint(0, 3)
                assert in_cone(v, "CP")
                assert in_cone(v, "M") and in_cone(v, "P")


def check_cone_strictness_witnesses(level: str) -> None:
    # P \ M: the pseudo-volume mu_{n,0}
    for n in range(2, 7):
        v = mu(n, n, 0)
        assert is_positive(v).member and not is_monotone(v).member, n
    # M \ CP: exists for n >= 3; frozen witness at (3, 3) plus a search
    w = mu(3, 3, 0) * 12 + mu(3, 3, 1) * 17
    assert is_monotone(w).member and not is_crofton_positive(w).member
    found = {}
    for n in (3, 4):
        for k in range(1, 2 * n + 1):
            qs = list(q_range(n, k))
            if len(qs) < 2:
                continue
            for a0 in range(0, 25):
                v = Valuation(n, {(k, qs[0]): a0, (k, qs[1]): 24})
                if is_monotone(v).member and not is_crofton_positive(v).member:
                    found[n] = (k, a0)
                    break
            if n in found:
                break
        assert n in found, f"no monotone-not-Crofton witness found at n={n}"


def check_first_variation_consistency(level: str) -> None:
    rng = random.Random(112)
    count = 300 if level == "full" else 60
    for n in range(1, 5):
        for k in range(1, 2 * n + 1):
            for v in _component_samples(rng, n, k, count):
                fv = first_variation(n, v)
                for (_, kk, _), _c in fv.items():
                    assert kk == k - 1
                direct = is_monotone(v).member
                via_delta = fv.all_nonnegative() and v.coefficient(0, 0).sign() >= 0
                assert direct == via_delta, (n, k, v)
    # delta is linear and kills exactly chi
    assert first_variation(3, chi(3)).is_zero
    assert not first_variation(3, tau(3, 1, 0)).is_zero


def check_intrinsic_volumes_monotone(level: str) -> None:
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            assert is_monotone(tau(n, k, 0)).member, (n, k)


def _first_variation_reference(n: int, v: Valuation) -> CurvExpr:
    """delta(v) from the four-term expression for delta(mu_{k,q}), term by
    term in Scalar arithmetic: the reference for the cached table behind
    first_variation."""

    def c_const(k: int, q: int) -> Scalar:
        return Scalar.of(
            Fraction(1, factorial(q) * factorial(n - k + q) * factorial(k - 2 * q))
        ) / omega(2 * n - k)

    def terms():
        for (k, q), a in v.items():
            if k == 0:
                continue
            c2 = a * 2 * c_const(k, q)
            if k - 1 >= 2 * q:
                r_same = c2 / c_const(k - 1, q)
                yield ("Gamma", k - 1, q), r_same * (k - 2 * q) ** 2
                yield ("B", k - 1, q), r_same * (-(k - 2 * q) * (k - 2 * q - 1))
            if q >= 1:
                r_down = c2 / c_const(k - 1, q - 1)
                yield ("Gamma", k - 1, q - 1), r_down * (-(n + q - k) * q)
                yield ("B", k - 1, q - 1), r_down * Fraction(q * (2 * (n + q - k) + 1), 2)

    return CurvExpr(n, accumulate({}, terms()))


def check_norms(level: str) -> None:
    rng = random.Random(113)
    for n in range(1, 5):
        for k in range(0, 2 * n + 1):
            qs = list(q_range(n, k))
            for q in qs:
                assert norm_inf(mu(n, k, q)) == Scalar.one()
                assert norm_one(nu(n, k, q)) == Scalar.one()
            for _ in range(25 if level == "full" else 20):
                v = Valuation(n, {(k, q): rng.randint(-3, 3) for q in qs})
                w = Valuation(n, {(k, q): rng.randint(-3, 3) for q in qs})
                bound = norm_inf(v) * norm_one(w)
                assert (bound - pairing_fourier(v, w)).sign() >= 0, (n, k)

    # nu coordinates, norm_one and delta on coefficients with two pi powers
    # and non-integer Fractions, every degree: the integer Gram blocks with
    # their pi shift against the direct pairing, and the delta table
    # against the four-term expansion
    def fraction() -> Fraction:
        return Fraction(2 * rng.randint(-10, 9) + 1, 2 * rng.randint(1, 6))  # odd/even

    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            for exps in ((0, 1), (-1, 1)):
                v = Valuation(n, {(k, q): Scalar({e: fraction() for e in exps}) for q in q_range(n, k)})
                direct = [pairing_fourier(v, mu(n, k, q)) for q in q_range(n, k)]
                assert nu_coeffs(v, k) == direct, (n, k, exps)
                total = Scalar.zero()
                for b in direct:
                    total = total + abs(b)
                assert norm_one(v) == total, (n, k, exps)
                assert first_variation(n, v) == _first_variation_reference(n, v), (n, k, exps)


# ----------------------------------------------------------------------
# numeric_grassmann (imported lazily so the exact core stays numpy-free)

def check_angles_numeric(level: str) -> None:
    import numpy as np

    from .grassmann import Frame, complement_angles_check, kahler_angles, kahler_cos2

    rng = np.random.default_rng(114)
    for n, k in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 5)]:
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, k)))
        f = Frame(n, q)
        th = kahler_angles(f).thetas
        assert len(th) == k // 2
        if k <= n:
            assert complement_angles_check(f), (n, k)
    # model planes have the advertised 0 / pi/2 pattern
    for n in range(1, 5):
        for k in range(1, n + 1):
            for q in range(0, k // 2 + 1):
                c2 = kahler_cos2(Frame.model(n, k, q))
                assert c2 == [1.0] * q + [0.0] * (k // 2 - q), (n, k, q)


def _haar_g00_sq(count: int):
    """|g_00|^2 of count Haar unitaries on C^3 drawn from default_rng(7)."""
    import numpy as np

    from .grassmann import _haar_blocks

    m = np.empty(count)
    for s, g in _haar_blocks(3, count, np.random.default_rng(7)):
        m[s] = np.abs(g[:, 0, 0]) ** 2
    return m


def check_haar_unitary(level: str) -> None:
    import numpy as np

    from .grassmann import haar_unitary

    g1, g2 = haar_unitary(4, 99), haar_unitary(4, 99)
    assert np.array_equal(g1, g2)
    assert np.allclose(g1 @ g1.conj().T, np.eye(4), atol=1e-12)
    count = 100_000 if level == "full" else 20_000
    m = _haar_g00_sq(count)
    dev = abs(float(m.mean()) - 1 / 3) / (float(m.std(ddof=1)) / count**0.5)
    assert dev < 3, dev


def check_klain_delta_numeric(level: str) -> None:
    from .grassmann import Frame, kahler_cos2

    for n in range(1, 5):
        for k in range(1, n + 1):
            for q in q_range(n, k):
                kp = klain(mu(n, k, q), k)
                for qp in range(0, k // 2 + 1):
                    value = kp.evaluate(kahler_cos2(Frame.model(n, k, qp)))
                    assert abs(value - (1.0 if qp == q else 0.0)) < 1e-9, (n, k, q, qp)


def check_mc_crofton_desk(level: str) -> None:
    from .grassmann import Frame, mc_crofton

    samples = 200_000 if level == "full" else 50_000
    e_c = Frame.model(2, 2, 1)
    e_l = Frame.model(2, 2, 0)
    cases = [
        (e_c, e_c.complement(), 21, "1/2"),
        (e_l, e_l.complement(), 22, "3/8"),
        (e_c, e_l.complement(), 23, "1/4"),
    ]
    for e, f, seed, want in cases:
        r = mc_crofton(2, 2, e, f, samples, seed=seed, threads=2)
        assert str(r.prediction_exact) == want
        assert r.sigma < 4, (want, r.sigma)


# ----------------------------------------------------------------------
# cli_frontend

def check_valspec_roundtrip(level: str) -> None:
    from .valspec import parse_valspec

    for n in (1, 2, 3):
        atoms = ["chi", "vol", "t", "s", "u"]
        for k in range(0, 2 * n + 1):
            for q in q_range(n, k):
                atoms.append(f"mu[{k},{q}]")
            for q in range(0, k // 2 + 1):
                atoms.append(f"tau[{k},{q}]")
        for text in atoms:
            v = parse_valspec(text, n)
            assert Valuation.from_json(v.to_json()) == v, text
        assert parse_valspec("4*s - t^2", n) == parse_valspec("u", n)
        assert parse_valspec("F(tau[2,1])", n) == fourier(tau(n, 2, 1))
        assert parse_valspec("t^2", n) == multiply(
            parse_valspec("t", n), parse_valspec("t", n)
        )


def check_cli_determinism(level: str) -> None:
    import io
    from contextlib import redirect_stdout

    from .cli import main

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    for argv in (
        ["tasaki", "--n", "2", "--k", "2"],
        ["tasaki", "--n", "3", "--k", "3", "--oracle", "--json"],
        ["convert", "--n", "2", "--val", "mu[2,0]", "--to", "tau"],
        ["pkf", "--n", "2", "--json"],
        ["cone", "--n", "2", "--test", "monotone", "--val", "mu[2,0]", "--json"],
    ):
        c1, out1 = run(argv)
        c2, out2 = run(argv)
        assert c1 == c2 == 0 and out1 == out2, argv


CHECKS: list[tuple[str, object]] = [
    ("scalar.ring_axioms", check_scalar_ring_axioms),
    ("scalar.omega_recursion", check_omega_recursion),
    ("scalar.serialization", check_scalar_serialization),
    ("poly.relation_polynomials", check_relation_polynomials),
    ("poly.change_vars_roundtrip", check_change_vars_roundtrip),
    ("valuation.ideal_vanishing", check_ideal_vanishing),
    ("valuation.monomial_roundtrip", check_monomial_roundtrip),
    ("valuation.product_algebra", check_product_algebra),
    ("valuation.tasaki_product_formula", check_tasaki_product_formula),
    ("valuation.fourier_and_iota", check_fourier_and_iota),
    ("valuation.fourier_restriction_map", check_fourier_restriction_map),
    ("valuation.anisotropic_ideal", check_anisotropic_ideal),
    ("valuation.kazarnovskii_normalization", check_kazarnovskii_normalization),
    ("valuation.multiplication_by_u", check_multiplication_by_u),
    ("sl2.commutators", check_sl2_commutators),
    ("sl2.iterated_commutators", check_iterated_commutators),
    ("sl2.hard_lefschetz", check_hard_lefschetz),
    ("sl2.primitive_elements", check_primitive_elements),
    ("sl2.lambda_normalization", check_lambda_normalization),
    ("sl2.L_is_multiplication", check_L_is_multiplication),
    ("sl2.lefschetz_decomposition", check_lefschetz_decomposition),
    ("kinematic.tasaki_routes", check_tasaki_routes),
    ("kinematic.tasaki_symmetries", check_tasaki_symmetries),
    ("kinematic.tasaki_positive_definite", check_tasaki_positive_definite),
    ("kinematic.printed_matrices", check_printed_tasaki_matrices),
    ("kinematic.principal", check_principal_kinematic),
    ("kinematic.primitive_pairing", check_primitive_pairing),
    ("kinematic.bezout", check_bezout),
    ("kinematic.worked_examples", check_worked_examples),
    ("cones.chain", check_cone_chain),
    ("cones.strictness_witnesses", check_cone_strictness_witnesses),
    ("cones.first_variation_consistency", check_first_variation_consistency),
    ("cones.intrinsic_volumes_monotone", check_intrinsic_volumes_monotone),
    ("cones.norms", check_norms),
    ("grassmann.angles", check_angles_numeric),
    ("grassmann.haar", check_haar_unitary),
    ("grassmann.klain_delta", check_klain_delta_numeric),
    ("grassmann.mc_crofton", check_mc_crofton_desk),
    ("cli.valspec_roundtrip", check_valspec_roundtrip),
    ("cli.determinism", check_cli_determinism),
]


def run_selftest(level: str = "full") -> tuple[int, int]:
    """Run every check at the given level; returns (passed, failed).

    A check that needs numpy is reported as skipped, not failed, when
    numpy cannot be imported; the summary names the skipped count only
    when there is one.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown selftest level {level!r}")
    passed = failed = skipped = 0
    for name, fn in CHECKS:
        try:
            fn(level)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            skipped += 1
            print(f"skip {name}: numpy is not installed")
        else:
            passed += 1
            print(f"ok   {name}")
    skips = f", {skipped} skipped" if skipped else ""
    print(f"selftest: {passed} passed, {failed} failed{skips} (level={level})")
    return passed, failed
