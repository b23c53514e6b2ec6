"""Pinned bits of the Monte-Carlo kernel: mc_crofton results, Haar
batches and the |g_00|^2 sample of the selftest's Haar check as SHA-256
prefixes per case, and the blocked Haar batch against the one-shot form
it replaced."""

import hashlib
import json
import math

import pytest

np = pytest.importorskip("numpy")

from uval.checks import _haar_g00_sq  # noqa: E402
from uval.grassmann import MC_BLOCK, Frame, _haar_batch, haar_unitary, mc_crofton  # noqa: E402


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _mc_case(n, k, angles, co_angles, samples, threads, seed=0):
    e = Frame.from_angles(n, k, angles)
    f = Frame.from_angles(n, k, co_angles).complement()
    r = mc_crofton(n, k, e, f, samples, seed=seed, threads=threads)
    return json.dumps(r.to_json(), sort_keys=True).encode()


# (n, k, angles, co-angles, samples, threads); seed 0, as the CLI default
MC_CASES = {
    "cli_jobs_shape": (4, 3, [0.3], [0.7], 100_003, 2),
    "n2_k1": (2, 1, [], [], 70_001, 3),
    "n8_k5": (8, 5, [0.3, 0.9], [0.7, 0.1], 40_000, 2),
    "one_sample_per_worker": (2, 2, [0.0], [math.pi / 2], 4, 4),
}

# computed from the same inputs when each worker ran its whole MC_CHUNK
# batch through one QR, one matmul and one determinant call
PINNED_DIGESTS = {
    "cli_jobs_shape": "4ae176eebab2cdbf",
    "n2_k1": "43edd6d0ec4423eb",
    "n8_k5": "880761bc2da1be4f",
    "one_sample_per_worker": "e4572999ea818bb6",
    "haar_batch": "43e6838265e4ce47",
    "haar_unitary": "1a4537a5d503c24a",
}
# |g_00|^2 over the 100 000 unitaries of check_haar_unitary("full"),
# computed when every imaginary part of the batch was drawn at once
HAAR_CHECK_DIGEST = "4fe924ce72b1abe8"
HAAR_CHECK_MEAN_STD = (0.3336357164728383, 0.23601543122523513)


def _digests():
    got = {name: _digest(_mc_case(*case)) for name, case in MC_CASES.items()}
    got["haar_batch"] = _digest(_haar_batch(3, 5000, np.random.default_rng(7)).tobytes())
    got["haar_unitary"] = _digest(haar_unitary(4, 99).tobytes())
    return got


def test_mc_outputs_pinned():
    got = _digests()
    differ = [name for name, want in PINNED_DIGESTS.items() if got[name] != want]
    assert not differ, f"{', '.join(differ)} differ from the pinned bits"


def test_haar_check_sample_pinned():
    m = _haar_g00_sq(100_000)
    assert _digest(m.tobytes()) == HAAR_CHECK_DIGEST
    assert (float(m.mean()), float(m.std(ddof=1))) == HAAR_CHECK_MEAN_STD


def _one_shot_haar(n, count, rng):
    """The unblocked Haar batch: every sample through one QR call."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


@pytest.mark.parametrize("n", [3, 8])
def test_blocked_haar_equals_one_shot(n):
    for count in (1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1):
        got = _haar_batch(n, count, np.random.default_rng(count))
        want = _one_shot_haar(n, count, np.random.default_rng(count))
        assert got.tobytes() == want.tobytes(), f"n = {n}, count = {count}"
