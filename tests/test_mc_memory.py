"""Peak memory of a whole `uval mc` process at the largest n it takes."""

import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# Two workers, each with one MC_CHUNK draw and one block of MC_BLOCK
# matrices, peak near 140 MB; whole-chunk temporaries took about 570 MB.
PEAK_RSS_MB = 250
DEADLINE_S = 120  # the run takes about a second on one core


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


def test_mc_n8_peak_rss_is_bounded():
    cold_costs = _cold_costs()
    # One BLAS/OpenMP thread, as the benchmark's children run, so the bound
    # measures the Monte-Carlo workers and not the buffers of BLAS threads.
    env = dict(os.environ, **cold_costs.THREAD_PINS)
    # os.wait4 reads this child's own peak; RUSAGE_CHILDREN would keep the
    # largest of every child the test process has waited for.
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "uval.cli", *cold_costs.MC_N8],
                                stdout=subprocess.DEVNULL, stderr=err, env=env)
        deadline = time.monotonic() + DEADLINE_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9  # reaped here, not by Popen
                pytest.fail(f"uval mc --n 8 still ran after {DEADLINE_S} s")
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        assert proc.returncode == 0, err.read().decode()
    peak_mb = usage.ru_maxrss / 1024
    assert peak_mb < PEAK_RSS_MB, f"uval mc --n 8 peaked at {peak_mb:.0f} MB"
