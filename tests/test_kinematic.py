"""Pairings, Tasaki matrices and kinematic tensors."""

import importlib
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import uval.linalg
from uval.checks import (
    check_primitive_pairing,
    check_principal_kinematic,
    check_printed_tasaki_matrices,
    check_tasaki_positive_definite,
    check_tasaki_routes,
    check_tasaki_symmetries,
)
from uval.cones import _gram_block, is_crofton_positive, is_monotone, is_positive, nu
from uval.kinematic import (
    additive_kinematic,
    basis_label,
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
from uval.scalar import Scalar
from uval.sl2 import _primitive_tau_coeffs, primitive_general
from uval.valuation import (
    Valuation,
    _basis_lift,
    _basis_products,
    chi,
    fourier,
    mu,
    multiply,
    q_range,
    tau,
    tau_coords,
    vol,
)


def test_pairing_pd_examples():
    assert pairing_pd(chi(2), vol(2)) == Scalar.one()
    # the degree-1 generator t at n = 1: (t, t) = 2/pi
    t_val = tau(1, 1, 0) * (Scalar.of(2) / Scalar.pi(1))
    assert pairing_pd(t_val, t_val) == Scalar.of(2) / Scalar.pi(1)
    assert pairing_pd(tau(2, 2, 0), tau(2, 2, 0)) == Scalar.of(3)


def test_pairing_fourier_symmetric():
    assert pairing_fourier(chi(2), chi(2)) == Scalar.one()
    assert pairing_fourier(vol(2), vol(2)) == Scalar.one()
    assert pairing_fourier(chi(2), vol(2)).is_zero
    assert pairing_fourier(tau(2, 2, 0), tau(2, 2, 0)) == Scalar.of(3)
    for a in (mu(3, 2, 0), tau(3, 4, 1)):
        for b in (mu(3, 4, 1), tau(3, 2, 1)):
            assert pairing_fourier(a, b) == pairing_fourier(b, a)


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing_pd(chi(2), chi(3))


def test_basis_products_are_the_products():
    # the rows that the kinematic blocks and the Tasaki Gram read are the
    # canonical coordinates of mu_{c,q} phi_i, with no Valuation product built
    for n in range(1, 7):
        for c in range(2 * n + 1):
            for k in range(2 * n - c + 1):
                basis = canonical_basis(n, k)
                for q in q_range(n, c):
                    e, den, rows = _basis_products(n, c, [int(i == q) for i in q_range(n, c)], k)
                    assert len(rows) == len(basis), (n, c, k, q)
                    for row, phi in zip(rows, basis):
                        expected = tau_coords(multiply(mu(n, c, q), phi), c + k)
                        assert [Scalar.from_parts({e: x}, den) for x in row] == expected, (n, c, k, q)


# ----------------------------------------------------------------------
# Tasaki matrices

def test_gram_matrix_n2_k2():
    taus = [tau(2, 2, i) for i in range(2)]
    gram = [[pairing_pd(a, fourier(b)) for b in taus] for a in taus]
    assert gram == [[Scalar.of(3), Scalar.one()], [Scalar.one(), Scalar.of(3)]]


def test_oracle_examples():
    t = tasaki_matrix_oracle(2, 2)
    pref = Scalar.of(Fraction(1, 8))
    grid = [[3, -1], [-1, 3]]
    for i in range(2):
        for j in range(2):
            assert t[i, j] == pref * grid[i][j]
    assert tasaki_matrix_oracle(1, 0).entries == ((Scalar.one(),),)


def test_printed_tasaki_matrices():
    check_printed_tasaki_matrices("full")  # T^n_2, T^n_3 and T^n_4 for n <= 8


def test_closed_printed_n3():
    t = tasaki_matrix_closed(3, 3)
    pref = Scalar.of(Fraction(2, 9), -1)
    assert t[0, 0] == pref * 3
    assert t[0, 1] == pref * (-1)
    assert t[1, 1] == pref * Fraction(5, 3)


def test_closed_printed_n4():
    t = tasaki_matrix_closed(4, 4)
    pref = Scalar.of(Fraction(1, 384))
    grid = [[45, -15, 9], [-15, 19, -15], [9, -15, 45]]
    for i in range(3):
        for j in range(3):
            assert t[i, j] == pref * grid[i][j]


def test_routes_agree():
    check_tasaki_routes("full")  # n = 1..6
    for n in (12, 17):
        for k in range(0, n + 1):
            assert tasaki_matrix_closed(n, k).entries == tasaki_matrix_oracle(n, k).entries, (n, k)


def test_symmetry_palindrome_and_pi_powers():
    check_tasaki_symmetries("full")


def test_positive_definite_minors():
    check_tasaki_positive_definite("full")


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        tasaki_matrix_closed(2, 3)
    with pytest.raises(ValueError):
        tasaki_matrix_oracle(2, 3)


def test_oracle_eliminates_gcd_free_gram(monkeypatch):
    # the oracle divides the row and column gcds out of the Gram integers
    # before it eliminates, and puts them back with the same entries
    inverse, sizes = uval.linalg.inverse, []

    def checked(den, ints):
        assert all(gcd(*row) == 1 for row in ints), ints
        assert all(gcd(*col) == 1 for col in zip(*ints)), ints
        sizes.append(len(ints))
        return inverse(den, ints)

    monkeypatch.setattr(uval.linalg, "inverse", checked)
    tasaki_matrix_oracle.cache_clear()
    try:
        for n in range(1, 17):
            for k in range(n + 1):
                assert tasaki_matrix_oracle(n, k) == tasaki_matrix_closed(n, k), (n, k)
    finally:
        tasaki_matrix_oracle.cache_clear()
    assert len(sizes) == sum(n + 1 for n in range(1, 17))


def test_pretty():
    assert tasaki_matrix_closed(2, 2).pretty() == "1/8 * [[3,-1],[-1,3]]"


# ----------------------------------------------------------------------
# kinematic tensors

def test_principal_n1_classical():
    pk = principal_kinematic(1)
    assert pk.block(0, 2) == ((Scalar.one(),),)
    assert pk.block(2, 0) == ((Scalar.one(),),)
    assert pk.block(1, 1) == ((Scalar.of(2) / Scalar.pi(1),),)
    assert pk.bidegrees() == [(0, 2), (1, 1), (2, 0)]


def test_principal_routes_compared():
    # the middle block of k(chi), read from the closed inverse, against the oracle
    for n in range(1, 5):
        pk = principal_kinematic(n)
        assert pk.block(0, 2 * n) == ((Scalar.one(),),)
        mid = pk.block(n, n)
        want = tasaki_matrix_oracle(n, n)
        assert mid == want.entries


def test_principal_route_mismatch_raises(monkeypatch):
    # the registry check compares principal_kinematic with kinematic(n, chi(n)):
    # a wrong integer block of the assembly fails it at n = 1
    module = importlib.import_module("uval.kinematic")
    block = module._kinematic_block

    def perturbed(n, c, k):
        e, den, (w, *rest) = block(n, c, k)
        return e, den, ((w[0] + 1, *w[1:]), *rest)

    monkeypatch.setattr(module, "_kinematic_block", perturbed)
    with pytest.raises(AssertionError, match="^1$"):
        check_principal_kinematic("quick")


def test_principal_kinematic_runs_the_certificate(monkeypatch):
    # principal_kinematic reads the certified closed inverse, so a wrong
    # closed matrix fails T M = I on the way to k(chi)
    module = importlib.import_module("uval.kinematic")
    closed = module._tasaki_closed
    e, den, rows = closed(3, 2)
    wrong = (e, den, ((rows[0][0] + 1, *rows[0][1:]), *rows[1:]))
    monkeypatch.setattr(module, "_tasaki_closed", lambda n, k: wrong if (n, k) == (3, 2) else closed(n, k))
    module._tasaki_inverse.cache_clear()
    try:
        with pytest.raises(AssertionError, match="n=3, k=2"):
            principal_kinematic(3)
    finally:
        module._tasaki_inverse.cache_clear()


def test_kinematic_paths_run_no_elimination(monkeypatch):
    # the Tasaki inverse of the production paths is the closed matrix,
    # certified by T M = I, so cold caches never reach the elimination
    # routine of uval.linalg; only the oracle route eliminates
    def refuse(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(uval.linalg, "_bareiss", refuse)
    module = importlib.import_module("uval.kinematic")
    for f in (module._tasaki_closed, module._tasaki_gram, module._tasaki_inverse,
              module._kinematic_block, tasaki_matrix_oracle, _gram_block, _primitive_tau_coeffs, _basis_lift):
        f.cache_clear()
    for n in range(1, 9):
        m = Valuation(n, {(k, q): q + 1 for k in range(2 * n + 1) for q in q_range(n, k)})
        principal_kinematic(n)
        assert kinematic(n, m).blocks and additive_kinematic(n, m).blocks, n
        for k in range(2 * n + 1):
            for p in q_range(n, k):
                assert not nu(n, k, p).is_zero, (n, k, p)
        for test in (is_positive, is_monotone, is_crofton_positive):
            test(m)
    with pytest.raises(AssertionError, match="eliminated"):
        tasaki_matrix_oracle(8, 8)


def test_tasaki_inverse_certificate_rejects_wrong_matrix(monkeypatch):
    module = importlib.import_module("uval.kinematic")
    e, den, rows = module._tasaki_closed(3, 2)
    wrong = (e, den, ((rows[0][0] + 1, *rows[0][1:]), *rows[1:]))
    monkeypatch.setattr(module, "_tasaki_closed", lambda n, k: wrong)
    module._tasaki_inverse.cache_clear()
    try:
        with pytest.raises(AssertionError, match="n=3, k=2"):
            module._tasaki_inverse(3, 2)
    finally:
        module._tasaki_inverse.cache_clear()


def test_principal_kinematic_n48_within_2s():
    # cold principal_kinematic at n = 48 in a fresh interpreter: the blocks
    # read the certified closed inverse, where one elimination per degree
    # took 3-4 s
    script = "from uval.kinematic import principal_kinematic; print(len(principal_kinematic(48).blocks))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 97


def test_tasaki_matrix_oracle_n64_within_2s():
    # the cold oracle at (64, 64) in a fresh interpreter: the Gram matrix
    # from the product formula, then one gcd-free elimination
    script = "from uval.kinematic import tasaki_matrix_oracle; print(tasaki_matrix_oracle(64, 64).size)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 33


def test_kinematic_n16_within_2s():
    # cold kinematic of (chi+t)^32 at n = 16 in a fresh interpreter: every
    # block table of every degree pair is built from integer Tasaki vectors
    script = (
        "from uval.kinematic import kinematic; from uval.valspec import parse_valspec; "
        "print(len(kinematic(16, parse_valspec('(chi+t)^32', 16)).blocks))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 561


def test_kinematic_of_chi_is_principal():
    assert kinematic(2, chi(2)).blocks == principal_kinematic(2).blocks


def test_kinematic_of_volume():
    kv = kinematic(2, vol(2))
    assert set(kv.blocks) == {(4, 4)}
    assert kv.block(4, 4) == ((Scalar.one(),),)


def test_worked_length_block():
    kt = kinematic(4, tau(4, 1, 0))
    raw = kt.block(4, 5)
    expected = [[Fraction(1, 4), Fraction(-1, 20)], [Fraction(-1, 40), Fraction(7, 120)], [0, 0]]
    for i in range(3):
        for j in range(2):
            assert raw[i][j] == Scalar.of(expected[i][j])
    normalized = cpn_normalize(kt).block(4, 5)
    grid = [[30, -6], [-3, 7], [0, 0]]
    for i in range(3):
        for j in range(2):
            assert normalized[i][j] == Scalar.of(Fraction(grid[i][j], 5), -4)


def test_additive_minkowski_block():
    ak = additive_kinematic(4, tau(4, 7, 0))
    grid = [[30, -6], [-3, 7], [0, 0]]
    block34 = ak.block(3, 4)
    for i in range(2):
        for j in range(3):
            assert block34[i][j] == Scalar.of(Fraction(grid[j][i], 120))
    assert ak.kind == "additive"


def test_additive_of_volume_mirrors_principal():
    n = 2
    ak = additive_kinematic(n, vol(n))
    pk = principal_kinematic(n)
    for (a, b), matrix in pk.blocks.items():
        assert ak.block(2 * n - a, 2 * n - b) == matrix


def test_additive_leg_swap_symmetry():
    ak = additive_kinematic(3, vol(3))
    for (a, b), matrix in ak.blocks.items():
        mirror = ak.block(b, a)
        for i, row in enumerate(matrix):
            for j, s in enumerate(row):
                assert mirror[j][i] == s


def test_cpn_normalize():
    pk = principal_kinematic(1)
    normalized = cpn_normalize(pk)
    assert normalized.block(0, 2) == ((Scalar.one() / Scalar.pi(1),),)
    assert normalized.cpn_normalized
    with pytest.raises(ValueError):
        cpn_normalize(normalized)


def test_basis_labels():
    assert basis_label(4, 3) == "tau[3]"
    assert basis_label(4, 4) == "tau[4]"
    assert basis_label(4, 5) == "F(tau[3])"


def test_tensor_json_schema():
    data = kinematic(2, chi(2)).to_json()
    assert data["n"] == 2
    assert {"a", "b", "left_basis", "right_basis", "matrix"} <= set(data["blocks"][0])


# ----------------------------------------------------------------------
# Bezout and primitive pairings

def test_bezout():
    for n, a, b in [(2, 1, 1), (3, 1, 2), (4, 1, 3), (4, 2, 2)]:
        assert bezout_check(n, a, b) == Scalar.one(), (n, a, b)
    with pytest.raises(ValueError):
        bezout_check(3, 2, 2)


def test_primitive_pairing_closed_chi():
    # (chi, F chi) = (chi, vol) = 1, so the closed form collapses to 1
    for n in range(1, 6):
        assert primitive_pairing_closed(n, 0, 0) == Scalar.one()


def test_primitive_pairing_closed_n2():
    p21 = primitive_general(2, 2, 1)
    assert primitive_pairing_closed(2, 2, 1) == pairing_pd(p21, fourier(p21))
    p20 = primitive_general(2, 2, 0)
    assert primitive_pairing_closed(2, 2, 0) == pairing_pd(p20, fourier(p20))


def test_primitive_pairing_closed_all_small():
    check_primitive_pairing("full")


def test_primitive_pairing_positive():
    # positivity of the pkf coefficients: each pairing is a positive scalar
    for n in range(1, 6):
        for r in range(0, n // 2 + 1):
            assert primitive_pairing_closed(n, 2 * r, r).sign() > 0
