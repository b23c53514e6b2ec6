"""The CLI selftest registry, run check by check under pytest, and the
forked worker that runs its numpy checks."""

import multiprocessing
import subprocess
import sys

import pytest

from uval import checks
from uval.checks import CHECKS
from uval.cli import main

NAMES = [name for name, _ in CHECKS]


@pytest.mark.parametrize("name,fn", CHECKS, ids=NAMES)
def test_selftest_check(name, fn):
    fn("quick")


def test_selftest_without_numpy_skips_numeric_checks(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "uval.grassmann", raising=False)
    assert main(["selftest", "--level", "quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    numeric = [name for name, _ in CHECKS if name.startswith("grassmann.")]
    assert [line for line in lines if line.startswith("skip ")] == [
        f"skip {name}: numpy is not installed" for name in numeric
    ]
    assert not [line for line in lines if line.startswith("FAIL ")]
    assert lines[-1] == (
        f"selftest: {len(CHECKS) - len(numeric)} passed, 0 failed, "
        f"{len(numeric)} skipped (level=quick)"
    )


# Text left in stdout's buffer before selftest, then the state of the
# parent afterwards: numpy loaded, live children, and whether any child
# is left to reap.
FRESH_RUN = """\
import multiprocessing, os, sys
print("printed before selftest")
from uval.cli import main
code = main(["selftest", "--level", "quick"])
try:
    os.waitpid(-1, os.WNOHANG)
    unreaped = True
except ChildProcessError:
    unreaped = False
print("numpy" in sys.modules, multiprocessing.active_children(), unreaped)
sys.exit(code)
"""


@pytest.fixture(scope="module")
def fresh_run():
    pytest.importorskip("numpy")
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_fresh_selftest_keeps_numpy_out_of_the_parent_and_reaps_its_worker(fresh_run):
    assert fresh_run[-1] == "False [] False"
    assert fresh_run[-2] == f"selftest: {len(CHECKS)} passed, 0 failed (level=quick)"
    # the numpy checks passed, so they ran in another process
    assert fresh_run[1:-2] == [f"ok   {name}" for name in NAMES]


def test_text_printed_before_selftest_appears_once(fresh_run):
    assert fresh_run[0] == "printed before selftest"
    assert fresh_run.count("printed before selftest") == 1


def _fail(level):
    raise AssertionError("planted failure")


def _raise(level):
    raise RuntimeError("planted error")


def _plant(monkeypatch, name, fn):
    planted = list(CHECKS)
    planted[NAMES.index(name)] = (name, fn)
    monkeypatch.setattr(checks, "CHECKS", planted)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
def test_numeric_failure_prints_at_its_registry_position(monkeypatch, capsys, fork):
    pytest.importorskip("numpy")
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _plant(monkeypatch, "grassmann.haar", _fail)
    assert main(["selftest", "--level", "quick"]) == 1
    want = [f"ok   {name}" for name in NAMES]
    want[NAMES.index("grassmann.haar")] = "FAIL grassmann.haar: planted failure"
    want.append(f"selftest: {len(CHECKS) - 1} passed, 1 failed (level=quick)")
    assert capsys.readouterr().out.splitlines() == want
    assert multiprocessing.active_children() == []


# an error in the worker, and one in the parent while the worker's
# earlier lines are still pending
@pytest.mark.parametrize("name", ["grassmann.haar", "cli.valspec_roundtrip"])
def test_error_propagates_after_the_lines_before_it(monkeypatch, capsys, name):
    pytest.importorskip("numpy")
    _plant(monkeypatch, name, _raise)
    with pytest.raises(RuntimeError, match="planted error"):
        main(["selftest", "--level", "quick"])
    before = NAMES[:NAMES.index(name)]
    assert "grassmann.angles" in before
    assert capsys.readouterr().out.splitlines() == [f"ok   {check}" for check in before]
    assert multiprocessing.active_children() == []
