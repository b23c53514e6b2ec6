"""Numeric angles, Haar sampling and the Monte-Carlo Crofton check."""

import math
import threading

import numpy as np
import pytest

from uval.grassmann import (
    ANGLE_TOL,
    MAX_THREADS,
    Frame,
    complement_angles_check,
    crofton_prediction,
    haar_unitary,
    kahler_angles,
    kahler_cos2,
    mc_crofton,
)
from uval.scalar import Scalar
from uval.valuation import klain, mu, q_range


def _random_frame(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2 * n, k)))
    return Frame(n, q)


def _rotate(frame, g):
    v = frame.vectors
    z = v[0::2] + 1j * v[1::2]
    w = g @ z
    out = np.empty_like(v)
    out[0::2] = w.real
    out[1::2] = w.imag
    return Frame(frame.n, out)


def test_complex_line_angle():
    f = Frame.model(2, 2, 1)
    assert kahler_angles(f).thetas == (0.0,)


def test_lagrangian_angle():
    f = Frame.model(2, 2, 0)
    assert kahler_angles(f).thetas == (math.pi / 2,)


def test_model_frame_angles():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for q in range(0, k // 2 + 1):
                c2 = kahler_cos2(Frame.model(n, k, q))
                assert c2 == [1.0] * q + [0.0] * (k // 2 - q), (n, k, q)


def test_frame_rejects_non_orthonormal():
    bad = np.ones((4, 2))
    with pytest.raises(ValueError):
        Frame(2, bad)


def test_from_angles_matches_measurement():
    for n, k, thetas in [(4, 2, [0.3]), (4, 3, [0.7]), (4, 4, [0.2, 1.1]), (5, 5, [0.4, 0.9])]:
        f = Frame.from_angles(n, k, thetas)
        got = kahler_angles(f).thetas
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, sorted(thetas)))


def test_angles_above_middle_dimension():
    # a (2n-k)-plane has the angles of its complement, padded with zeros
    f = Frame.model(2, 3, 1)
    th = kahler_angles(f).thetas
    assert len(th) == 1 and abs(th[0]) < 1e-12
    g = _random_frame(3, 4, seed=2)
    th = kahler_angles(g).thetas
    inner = kahler_angles(g.complement()).thetas
    assert len(th) == 2
    assert abs(th[0]) < ANGLE_TOL and abs(th[1] - inner[0]) < ANGLE_TOL


def test_unitary_invariance_of_angles():
    g = haar_unitary(3, 31)
    for k in (2, 3):
        f = _random_frame(3, k, seed=40 + k)
        a = kahler_angles(f).thetas
        b = kahler_angles(_rotate(f, g)).thetas
        assert all(abs(x - y) < 1e-9 for x, y in zip(a, b))


def test_complement_angles():
    for n, k, seed in [(2, 1, 1), (2, 2, 2), (3, 2, 3), (3, 3, 4), (4, 3, 5)]:
        assert complement_angles_check(_random_frame(n, k, seed))
    # the named special cases: complements of complex / Lagrangian planes
    assert complement_angles_check(Frame.model(2, 2, 1))
    assert complement_angles_check(Frame.model(2, 2, 0))


def test_haar_unitary_properties():
    g = haar_unitary(4, 77)
    assert np.allclose(g @ g.conj().T, np.eye(4), atol=1e-12)
    assert np.array_equal(g, haar_unitary(4, 77))
    assert not np.array_equal(g, haar_unitary(4, 78))


def test_haar_first_entry_moment():
    from uval.grassmann import _haar_batch

    n, count = 3, 60_000
    g = _haar_batch(n, count, np.random.default_rng(9))
    m = np.abs(g[:, 0, 0]) ** 2
    stderr = float(m.std(ddof=1)) / math.sqrt(count)
    assert abs(float(m.mean()) - 1 / n) < 3 * stderr


@pytest.mark.parametrize("n", [3, 8])
def test_haar_blocks_keep_the_stream_of_one_whole_draw(n):
    """_haar_blocks holds one block of normals yet yields what one draw of
    every real part, then one of every imaginary part, gives, and leaves
    the caller's generator where that draw leaves it."""
    from uval.grassmann import MC_BLOCK, _haar_block, _haar_blocks

    for count in (1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5):
        rng, ref = np.random.default_rng(count), np.random.default_rng(count)
        want = _haar_block(ref.standard_normal((count, n, n)), ref.standard_normal((count, n, n)))
        got = np.empty_like(want)
        for s, g in _haar_blocks(n, count, rng):
            got[s] = g
        assert got.tobytes() == want.tobytes(), f"n = {n}, count = {count}"
        assert rng.bit_generator.state == ref.bit_generator.state, f"n = {n}, count = {count}"


def test_klain_delta_numeric():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for q in q_range(n, k):
                kp = klain(mu(n, k, q), k)
                for qp in range(0, k // 2 + 1):
                    value = kp.evaluate(kahler_cos2(Frame.model(n, k, qp)))
                    want = 1.0 if qp == q else 0.0
                    assert abs(value - want) < 1e-9, (n, k, q, qp)


def test_crofton_prediction_desk_values():
    e_c = Frame.model(2, 2, 1)
    e_l = Frame.model(2, 2, 0)
    assert crofton_prediction(2, 2, e_c, e_c.complement()) == Scalar.of(0.5)
    assert crofton_prediction(2, 2, e_l, e_l.complement()) == Scalar.of(0.375)
    assert crofton_prediction(2, 2, e_c, e_l.complement()) == Scalar.of(0.25)


def test_mc_crofton_desk_cases_small():
    e_c = Frame.model(2, 2, 1)
    e_l = Frame.model(2, 2, 0)
    cases = [
        (e_c, e_c.complement(), 51, 0.5),
        (e_l, e_l.complement(), 52, 0.375),
        (e_c, e_l.complement(), 53, 0.25),
    ]
    for e, f, seed, want in cases:
        r = mc_crofton(2, 2, e, f, 60_000, seed=seed, threads=2)
        assert r.prediction_float == want
        assert r.sigma < 4, (want, r.sigma, r.estimate)


@pytest.mark.parametrize(
    "n,k,theta,psi",
    [
        # three angle configurations for each of (2,2), (3,2), (3,3)
        (2, 2, 0.0, 0.0),
        (2, 2, math.pi / 2, math.pi / 2),
        (2, 2, 0.0, math.pi / 2),
        (3, 2, 0.0, 0.0),
        (3, 2, math.pi / 2, 0.6),
        (3, 2, 0.8, 1.1),
        (3, 3, 0.0, 0.0),
        (3, 3, math.pi / 2, 0.4),
        (3, 3, 0.7, 1.2),
    ],
)
def test_mc_crofton_grid(n, k, theta, psi):
    e = Frame.from_angles(n, k, [theta])
    f = Frame.from_angles(n, k, [psi]).complement()
    r = mc_crofton(n, k, e, f, 100_000, seed=1000 * n + 10 * k + int(theta * 7 + psi * 3), threads=2)
    assert r.sigma < 4, (n, k, theta, psi, r.sigma, r.estimate, r.prediction_float)


def test_mc_reproducible_and_thread_invariant_seeding():
    e = Frame.model(2, 2, 1)
    f = e.complement()
    r1 = mc_crofton(2, 2, e, f, 20_000, seed=5, threads=3)
    r2 = mc_crofton(2, 2, e, f, 20_000, seed=5, threads=3)
    assert r1.estimate == r2.estimate and r1.stderr == r2.stderr


def test_mc_thread_bound_refused_before_any_thread_starts():
    e = Frame.model(2, 2, 1)
    f = e.complement()
    before = threading.active_count()
    for threads, samples in ((10**12, 10**13), (MAX_THREADS + 1, 10**6), (101, 100), (0, 100), (-1, 100)):
        with pytest.raises(ValueError):
            mc_crofton(2, 2, e, f, samples, seed=1, threads=threads)
    assert threading.active_count() == before
    r = mc_crofton(2, 2, e, f, 4, seed=1, threads=4)  # one sample per worker
    assert r.samples == 4


def test_mc_result_json():
    e = Frame.model(2, 2, 1)
    r = mc_crofton(2, 2, e, e.complement(), 5_000, seed=6)
    data = r.to_json()
    assert set(data) == {
        "estimate",
        "stderr",
        "prediction_float",
        "prediction_exact",
        "sigma",
        "samples",
    }
    assert Scalar.from_json(data["prediction_exact"]) == r.prediction_exact


def test_mc_input_validation():
    e = Frame.model(3, 2, 1)
    with pytest.raises(ValueError):
        mc_crofton(3, 2, e, e, 1000, seed=1)  # F must have dimension 2n - k = 4
    with pytest.raises(ValueError):
        mc_crofton(2, 3, Frame.model(2, 3, 1), Frame.model(2, 1, 0), 1000, seed=1)  # k > n
