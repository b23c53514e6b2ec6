"""Shared pieces of the benchmark: paths, child environment, seeded
stratified draws, canonical output text, digests and summary statistics.

Nothing here imports uval, so the orchestrating process stays free of the
package it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = ROOT / ".perfbench"

WORKLOADS = ("cone_sweep", "algebra_warm", "cli_jobs")

# Every child runs with one BLAS/OpenMP thread, so the only extra threads
# in a run are the ones `uval mc --threads 2` asks for.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the package and refs."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "uval" / "__init__.py", REFS)
        if not p.exists()
    ]
    if missing:
        sys.stderr.write(f"perfbench: not a uval checkout, missing {', '.join(missing)}\n")
        sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    # a fixed string hash seed keeps dict and set layouts, and so memory use,
    # the same from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("UVAL_SEED", None)
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# machine-speed calibration
#
# The shared machine the benchmark was built on runs the same code up to
# 2x slower for seconds at a time, in CPU time as much as in wall time.
# Every reported time is therefore normalised: a time t measured while a
# fixed calibration loop takes c seconds is reported as t * CALIBRATION_REF_S / c,
# the time it would take when the loop runs at its reference speed.  On the
# reference machine (2 cores, Python 3.11.7) the loop takes 1.06 ms at its
# fastest and ~2 ms at its slowest.

CALIBRATION_REF_S = 1.0e-3


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 250):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
        counts[i % 50] = counts.get(i % 50, 0) + i
    return time.perf_counter() - start


class SpeedSampler:
    """A background thread that times calibrate() every 50 ms (about 3 % of
    one core), so work done in a child process can be normalised by the
    machine speed while it ran."""

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append((time.perf_counter(), calibrate()))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def normalise(self, seconds: float, start: float, end: float, extra=()) -> float:
        """`seconds` of work done between start and end, at the reference
        speed: scaled by the median of the calibrations this sampler took
        in that interval and `extra` ones the job took itself."""
        window = [c for t, c in self.samples if start <= t <= end] + list(extra)
        if not window:
            window = [calibrate()]
        return seconds * CALIBRATION_REF_S / statistics.median(window)


# ----------------------------------------------------------------------
# seeded stratified draws

class Drawer:
    """Per-cell draws from a fixed pool of inputs.

    Each cell walks through seeded shuffles of its pool, so every pool item
    is used once per cycle: the seed changes which values a round sees and
    in what order, never how many draws each cell gets.
    """

    def __init__(self, seed: int, stream: str):
        self.seed = seed
        self.stream = stream
        self._state: dict[str, tuple[random.Random, list[int]]] = {}

    def draw(self, cell: str, pool_size: int) -> int:
        rng, left = self._state.get(cell, (None, []))
        if rng is None:
            rng = random.Random(f"{self.seed}:{self.stream}:{cell}")
        if not left:
            left = list(range(pool_size))
            rng.shuffle(left)
        index = left.pop()
        self._state[cell] = (rng, left)
        return index

    def round(self, index: int, layout: list[tuple[str, int]], pool_sizes: dict[str, int]) -> list[tuple[str, int]]:
        """One round: `count` draws for each (cell, count) of the layout,
        in a seeded order."""
        ops = [
            (cell, self.draw(cell, pool_sizes[cell]))
            for cell, count in layout
            for _ in range(count)
        ]
        random.Random(f"{self.seed}:{self.stream}:round:{index}").shuffle(ops)
        return ops


def epoch_rounds(layout: list[tuple[str, int]], pool_sizes: dict[str, int]) -> int:
    """Rounds after which every cell has used each pool item equally often.

    Runs stop only at such a boundary, so every input has the same weight
    in a run's percentiles whatever the seed.
    """
    return math.lcm(*(pool_sizes[cell] // math.gcd(pool_sizes[cell], count) for cell, count in layout))


# ----------------------------------------------------------------------
# canonical output text and digests

def scalar_text(s) -> str:
    return ",".join(f"{e}:{c.numerator}/{c.denominator}" for e, c in s.items())


def valuation_text(v) -> str:
    return f"n={v.n}|" + ";".join(f"{k},{q}={scalar_text(c)}" for (k, q), c in v.items())


def matrix_text(rows) -> str:
    return "[" + "|".join(";".join(scalar_text(s) for s in row) for row in rows) + "]"


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str | bytes) -> str:
    """The first 16 hex digits of the SHA-256 of an output."""
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def sequence_digest(digests: list[str]) -> str:
    """SHA-256 over an ordered list of per-operation digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def load_refs(workload: str) -> dict:
    with open(REFS / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# statistics

def percentile(values: list[float], p: float) -> float:
    """The p-th percentile (0 < p < 100) by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(p)) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
