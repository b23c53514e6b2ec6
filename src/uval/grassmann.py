"""Numeric geometry on real subspaces of C^n and Monte-Carlo Crofton checks.

This is the floating-point grounding for the exact algebra: multiple
Kaehler angles of subspaces, Haar-random unitaries, and a Monte-Carlo
verification of the Crofton formula for flat discs.

C^n is identified with R^{2n} using interleaved coordinates
(x_1, y_1, ..., x_n, y_n); multiplication by sqrt(-1) is the block
rotation J(x, y) = (-y, x) in each pair.  The multiple Kaehler angle of a
k-dimensional subspace E (k <= n) is read off from the singular values of
the skew matrix A_ab = <J u_a, u_b> of an orthonormal frame: they come in
equal pairs cos(theta_i), plus a structural zero when k is odd.  For
k > n the angle vector is that of the orthogonal complement padded with
k - n zeros (note that this complement convention differs from Tasaki's
original one, which used Theta(E_perp) itself as the invariant).

The Monte-Carlo check exploits that for complementary flat unit-volume
pieces the translation-averaged intersection count against a fixed
rotation g is |det [E | gF]|, so the full kinematic integral is a pure
Haar-moment that can be estimated by sampling unitaries; the exact side
is the Tasaki matrix contracted with elementary symmetric polynomials of
the squared angle cosines.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .kinematic import tasaki_matrix_closed
from .scalar import Scalar
from .valuation import elementary_symmetric

__all__ = [
    "ORTHONORMAL_TOL",
    "ANGLE_TOL",
    "Frame",
    "AngleVector",
    "kahler_angles",
    "kahler_cos2",
    "haar_unitary",
    "complement_angles_check",
    "mc_crofton",
    "crofton_prediction",
    "MCResult",
]

# Fixed tolerances: Frame and AngleVector validation, and the angle
# comparison of complement_angles_check.
ORTHONORMAL_TOL = 1e-12
ANGLE_TOL = 1e-9
# Most worker threads mc_crofton starts.  A fixed constant, not the CPU
# count, so the output of a fixed (seed, threads) is the same on every host.
MAX_THREADS = 64
# Most samples mc_crofton draws: its time is linear in them, and this is
# ten times the 10^6 of the documented examples.
MAX_SAMPLES = 10_000_000
# Samples per Haar draw in an mc_crofton worker.  Part of what fixes the
# output of a (seed, threads) pair: each chunk draws all its real parts,
# then all its imaginary parts, from the worker's stream, and its |det|
# values are summed as one array.  The real parts of a chunk are held
# whole (MC_CHUNK * n^2 floats, 16.8 MB at n = 8), since the imaginary
# parts come after all of them in the stream.
MC_CHUNK = 1 << 15
# Samples per block of the per-matrix pipeline (imaginary parts, QR, phase
# fix, rotation of F, determinant).  It only bounds the working set: the
# imaginary parts are drawn in stream order whatever the block, and every
# matrix goes through the same floating-point operations in a block of any
# size, so the output does not depend on it.
MC_BLOCK = 1 << 10


def j_matrix(n: int) -> np.ndarray:
    """Multiplication by sqrt(-1) on R^{2n} in interleaved coordinates."""
    j = np.zeros((2 * n, 2 * n))
    for i in range(n):
        j[2 * i, 2 * i + 1] = -1.0
        j[2 * i + 1, 2 * i] = 1.0
    return j


@dataclass(frozen=True)
class Frame:
    """k real-orthonormal vectors in R^{2n} ~ C^n, as columns."""

    n: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", v)
        if v.ndim != 2 or v.shape[0] != 2 * self.n:
            raise ValueError(f"frame must be a (2n, k) array, got {v.shape}")
        gram = v.T @ v
        if not np.allclose(gram, np.eye(v.shape[1]), atol=ORTHONORMAL_TOL, rtol=0.0):
            raise ValueError("frame is not orthonormal to 1e-12")

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    @staticmethod
    def model(n: int, k: int, q: int) -> "Frame":
        """The model plane of type (k, q): C^q + an isotropic R^{k-2q}.

        Spanned by x_1, y_1, ..., x_q, y_q and x_{q+1}, ..., x_{k-q};
        requires k - q <= n.
        """
        if not 0 <= 2 * q <= k or k - q > n:
            raise ValueError(f"model frame (k={k}, q={q}) does not fit in C^{n}")
        cols = []
        for i in range(q):
            cols.append(2 * i)
            cols.append(2 * i + 1)
        for i in range(q, k - q):
            cols.append(2 * i)
        m = np.zeros((2 * n, k))
        for col, row in enumerate(cols):
            m[row, col] = 1.0
        return Frame(n, m)

    @staticmethod
    def from_angles(n: int, k: int, thetas: Sequence[float]) -> "Frame":
        """A k-plane (k <= n) with prescribed Kaehler angles.

        Built from the normal form e_1, cos(t_1) J e_1 + sin(t_1) e_2, ...
        padded with one isotropic direction when k is odd.
        """
        if k > n:
            raise ValueError("from_angles requires k <= n")
        p = k // 2
        if len(thetas) != p:
            raise ValueError(f"need {p} angles for k={k}")
        m = np.zeros((2 * n, k))
        for i, t in enumerate(thetas):
            c, s = math.cos(t), math.sin(t)
            # snap the 1-ulp residue of cos(float(pi/2)) so nominal right
            # angles give exactly isotropic directions
            if abs(c) < 1e-15:
                c, s = 0.0, 1.0
            # complex coordinates 2i (real axis used twice) and 2i+1
            m[4 * i, 2 * i] = 1.0
            m[4 * i + 1, 2 * i + 1] = c
            m[4 * i + 2, 2 * i + 1] = s
        if k % 2:
            m[4 * p, k - 1] = 1.0
        return Frame(n, m)

    def complement(self) -> "Frame":
        """An orthonormal frame of the orthogonal complement."""
        u, _, _ = np.linalg.svd(self.vectors, full_matrices=True)
        return Frame(self.n, u[:, self.k :])


@dataclass(frozen=True)
class AngleVector:
    """Multiple Kaehler angle: nondecreasing angles in [0, pi/2]."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.thetas)
        object.__setattr__(self, "thetas", ts)
        if any(t < -ANGLE_TOL or t > math.pi / 2 + ANGLE_TOL for t in ts):
            raise ValueError("angles must lie in [0, pi/2]")
        if any(a > b + ANGLE_TOL for a, b in zip(ts, ts[1:])):
            raise ValueError("angles must be nondecreasing")

    def cos2(self) -> list[float]:
        return [math.cos(t) ** 2 for t in self.thetas]


def _kahler_cosines(f: Frame) -> list[float]:
    """Descending angle cosines of a frame with k <= n: the paired singular
    values of the skew restriction matrix of the Kaehler form (the stray
    zero of odd k is discarded)."""
    a = f.vectors.T @ j_matrix(f.n) @ f.vectors
    s = np.linalg.svd(a, compute_uv=False)
    p = f.k // 2
    return [float(c) for c in np.clip(s[0 : 2 * p : 2], 0.0, 1.0)]


def kahler_cos2(f: Frame) -> list[float]:
    """Squared angle cosines, descending; taken straight from the singular
    values, so model planes give exact 0/1 entries.  For k > n the
    complement values are prepended with cos^2(0) = 1."""
    if f.k > f.n:
        return [1.0] * (f.k - f.n) + kahler_cos2(f.complement())
    return [c * c for c in _kahler_cosines(f)]


def kahler_angles(f: Frame) -> AngleVector:
    """The multiple Kaehler angle of the span of a frame.

    For k <= n the angles are arccos of the paired singular values, sorted
    ascending; for k > n the complement is used and k - n zeros are
    prepended.
    """
    n, k = f.n, f.k
    if k > n:
        inner = kahler_angles(f.complement())
        return AngleVector((0.0,) * (k - n) + inner.thetas)
    return AngleVector(tuple(math.acos(c) for c in _kahler_cosines(f)))


def complement_angles_check(f: Frame) -> bool:
    """Numeric check that Theta(E_perp) = (0, ..., 0, Theta(E)) for k <= n."""
    if f.k > f.n:
        raise ValueError("complement check expects dim <= n")
    inner = kahler_angles(f)
    outer = kahler_angles(f.complement())
    expected = (0.0,) * (f.n - f.k) + inner.thetas
    return len(outer.thetas) == len(expected) and all(
        abs(a - b) <= ANGLE_TOL for a, b in zip(outer.thetas, expected)
    )


# ----------------------------------------------------------------------
# Haar sampling

def _haar_block(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar-distributed (b, n, n) unitaries from standard normal real and
    imaginary parts, via QR with the R-diagonal phase correction."""
    z = (re + 1j * im) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def _haar_blocks(n: int, count: int, rng: np.random.Generator, re: np.ndarray | None = None):
    """Yield (slice, unitaries) over blocks of count Haar unitaries on C^n.

    All count real parts are drawn from rng first, into re[:count] when
    re is given; then each block's imaginary parts, right before its QR.
    That is the order of one draw of every real part, then one of every
    imaginary part, so the values do not depend on MC_BLOCK.
    """
    re = rng.standard_normal((count, n, n)) if re is None else rng.standard_normal(out=re[:count])
    im = np.empty((min(count, MC_BLOCK), n, n))
    for start in range(0, count, MC_BLOCK):
        s = slice(start, min(start + MC_BLOCK, count))
        block = im[: s.stop - s.start]
        rng.standard_normal(out=block)
        yield s, _haar_block(re[s], block)


def _haar_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed stack of (count, n, n) unitaries (see _haar_blocks)."""
    out = np.empty((count, n, n), dtype=complex)
    for s, g in _haar_blocks(n, count, rng):
        out[s] = g
    return out


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """One Haar-random n x n unitary; bit-reproducible for a fixed seed."""
    return _haar_batch(n, 1, np.random.default_rng(seed))[0]


def _complex_columns(f: Frame) -> np.ndarray:
    """Frame columns as vectors in C^n (interleaved real -> complex)."""
    v = f.vectors
    return v[0::2, :] + 1j * v[1::2, :]


@dataclass(frozen=True)
class MCResult:
    """Monte-Carlo Crofton estimate against the exact Tasaki prediction."""

    estimate: float
    stderr: float
    prediction_exact: Scalar
    prediction_float: float
    sigma: float  # |estimate - prediction| in units of stderr
    samples: int

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "prediction_float": self.prediction_float,
            "prediction_exact": self.prediction_exact.to_json(),
            "sigma": self.sigma,
            "samples": self.samples,
        }


def crofton_prediction(n: int, k: int, e_frame: Frame, f_frame: Frame) -> Scalar:
    """Exact Tasaki-matrix prediction for the flat-disc kinematic mass.

    sum_ij (T^n_k)_ij sigma_i(cos^2 Theta(E)) sigma_j(cos^2 Theta(F_perp)),
    with the measured cosines promoted to exact rationals (every float is
    one), so the only approximation is the angle measurement itself.
    """
    t = tasaki_matrix_closed(n, k)
    sig_e = elementary_symmetric([Fraction(c) for c in kahler_cos2(e_frame)])
    sig_f = elementary_symmetric([Fraction(c) for c in kahler_cos2(f_frame.complement())])
    total = sum(x * si * sj for row, si in zip(t.rows, sig_e) for x, sj in zip(row, sig_f))
    return Scalar.of(Fraction(total, t.den), t.e)


def mc_crofton(
    n: int,
    k: int,
    e_frame: Frame,
    f_frame: Frame,
    samples: int,
    seed: int,
    threads: int = 1,
) -> MCResult:
    """Monte-Carlo mean of |det [E | gF]| over Haar g, with exact prediction.

    E must have dimension k <= n and F dimension 2n - k.  Worker substreams
    are spawned deterministically from the seed and reduced in worker
    order, so a fixed (seed, threads) is bit-reproducible.  threads below 1,
    above MAX_THREADS or above samples, and samples above MAX_SAMPLES, are
    refused before any worker starts.

    Each worker holds the real parts of one MC_CHUNK (MC_CHUNK * n^2
    floats, 4.2 MB at n = 4 and 16.8 MB at n = 8) and the working arrays of
    one MC_BLOCK of matrices, imaginary parts included: about 7 MB per
    thread at n = 4 and 26 MB at n = 8, measured as whole-process peak RSS
    against the thread count.
    """
    if not 1 <= k <= n:
        raise ValueError("mc_crofton needs 1 <= k <= n")
    if e_frame.n != n or f_frame.n != n:
        raise ValueError("frame ambient dimension mismatch")
    if e_frame.k != k or f_frame.k != 2 * n - k:
        raise ValueError(f"need dim E = {k} and dim F = {2 * n - k}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads > MAX_THREADS:
        raise ValueError(f"at most {MAX_THREADS} threads, got {threads}")
    if threads > samples:
        raise ValueError(f"more threads ({threads}) than samples ({samples})")
    if samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples, got {samples}")

    e_cols = e_frame.vectors
    f_complex = _complex_columns(f_frame)
    plan = [samples // threads] * threads
    plan[-1] += samples - sum(plan)
    streams = np.random.SeedSequence(seed).spawn(threads)

    def worker(args) -> tuple[float, float]:
        count, ss = args
        rng = np.random.default_rng(ss)
        size = min(count, MC_CHUNK)
        re = np.empty((size, n, n))
        d = np.empty(size)
        # [E | gF] per sample: E is written once, each block overwrites gF
        stacked = np.empty((min(size, MC_BLOCK), 2 * n, 2 * n))
        stacked[:, :, :k] = e_cols
        total = 0.0
        total_sq = 0.0
        left = count
        while left > 0:
            batch = min(left, MC_CHUNK)
            for s, g in _haar_blocks(n, batch, rng, re):
                moved = g @ f_complex
                m = stacked[: s.stop - s.start]
                m[:, 0::2, k:] = moved.real
                m[:, 1::2, k:] = moved.imag
                np.abs(np.linalg.det(m), out=d[s])
            chunk = d[:batch]
            total += float(chunk.sum())
            total_sq += float((chunk * chunk).sum())
            left -= batch
        return total, total_sq

    tasks = list(zip(plan, streams))
    if threads == 1:
        results = [worker(tasks[0])]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, tasks))
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    mean = total / samples
    var = max(0.0, (total_sq - total * total / samples) / (samples - 1))
    stderr = math.sqrt(var / samples)
    prediction = crofton_prediction(n, k, e_frame, f_frame)
    pred_f = prediction.to_float()
    sigma = abs(mean - pred_f) / stderr if stderr > 0 else math.inf
    return MCResult(
        estimate=mean,
        stderr=stderr,
        prediction_exact=prediction,
        prediction_float=pred_f,
        sigma=sigma,
        samples=samples,
    )
