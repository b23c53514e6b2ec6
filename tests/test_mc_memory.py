"""Peak memory of whole processes running the Monte-Carlo layer: `uval mc`
at the largest n it takes, and the selftest's full Haar check."""

import importlib.util
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# Two workers, each holding one MC_BLOCK of real parts, imaginary parts
# and the matrices built from them, peak near 61 MB; when each held the
# real parts of a whole MC_CHUNK as well they peaked near 92 MB.
MC_N8_PEAK_RSS_MB = 75
# Each worker adds about 11 MB at n = 8, so three threads peak about 22 MB
# above one; with the real parts of a whole MC_CHUNK per worker the gap
# was about 52 MB.
MC_N8_TWO_MORE_WORKERS_MB = 32
# 100 000 unitaries on C^3 drawn block by block, keeping only |g_00|^2,
# peak near 38 MB; with every real part held it took about 45 MB, and
# with every unitary held about 66 MB.
HAAR_CHECK_PEAK_RSS_MB = 45
DEADLINE_S = 120  # each run takes about a second on one core


def _cold_costs():
    """scripts/cold_costs.py, which holds the command and the thread pins.

    scripts/ and perfbench/ are on sys.path only while it imports; the
    modules it imports leave sys.modules again afterwards."""
    path, modules = sys.path[:], set(sys.modules)
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location("cold_costs", SCRIPTS / "cold_costs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            del sys.modules[name]
    return module


# A child's ru_maxrss starts at the high-water RSS of the process that
# spawned it (Linux keeps the old address space's peak across exec), so a
# pytest process grown by earlier tests would show through.  The command
# therefore runs under this small launcher, which prints the peak of its
# only child in KB.
LAUNCHER = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def _peak_rss_mb(args: list[str]) -> float:
    """Peak RSS in MB of `python ARGS` run to completion in a fresh process.

    BLAS/OpenMP run on one thread, as the benchmark's children do, so the
    figure measures the program and not the buffers of BLAS threads.  The
    launcher and its child are killed and the test fails after DEADLINE_S."""
    env = dict(os.environ, **_cold_costs().THREAD_PINS)
    proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, sys.executable, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{' '.join(args)} still ran after {DEADLINE_S} s")
    assert proc.returncode == 0, err.decode()
    return int(out) / 1024


def test_mc_n8_peak_rss_is_bounded():
    peak_mb = _peak_rss_mb(["-m", "uval.cli", *_cold_costs().MC_N8])
    assert peak_mb < MC_N8_PEAK_RSS_MB, f"uval mc --n 8 peaked at {peak_mb:.0f} MB"


def test_mc_n8_memory_per_worker_is_bounded():
    one, three = (_peak_rss_mb(["-m", "uval.cli", *_cold_costs().ROWS[f"mc_n8_t{t}"]]) for t in (1, 3))
    assert three - one < MC_N8_TWO_MORE_WORKERS_MB, \
        f"uval mc --n 8 peaked at {one:.0f} MB on one thread and {three:.0f} MB on three"


def test_haar_check_peak_rss_is_bounded():
    code = "from uval.checks import check_haar_unitary; check_haar_unitary('full')"
    peak_mb = _peak_rss_mb(["-c", code])
    assert peak_mb < HAAR_CHECK_PEAK_RSS_MB, f"the full Haar check peaked at {peak_mb:.0f} MB"
