"""The CLI selftest registry, run check by check under pytest."""

import sys

import pytest

from uval.checks import CHECKS
from uval.cli import main


@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
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
