"""Print the digest of every pinned output family.

    PYTHONPATH=src python3 scripts/pins.py [MODULE ...]

Every tests/test_*.py that defines PINNED_DIGESTS is a pin module: it
computes its SHA-256 prefixes in one function, `_digests`, and compares
them with its PINNED_DIGESTS.  This script runs those functions (of all
pin modules, or of the MODULEs named, e.g. test_cli_outputs) and prints
one line per family, `module family digest`, with the pinned value after
it where the two differ.  It exits 1 if any family differs.  A change
that alters an output on purpose runs it to read the new digests, writes
them into the module's PINNED_DIGESTS, and names each changed family and
why in CHANGES.md.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent.parent / "tests"

PINS = sorted(path.stem for path in TESTS.glob("test_*.py")
              if re.search(r"^PINNED_DIGESTS\b", path.read_text(), re.MULTILINE))


def main(names: list[str]) -> int:
    sys.path.insert(0, str(TESTS))
    differ = 0
    for name in names or PINS:
        try:
            module = importlib.import_module(name)
        except pytest.skip.Exception as exc:  # test_mc_outputs needs numpy
            print(f"{name} skipped: {exc}")
            continue
        pinned = module.PINNED_DIGESTS
        for family, digest in module._digests().items():
            want = pinned.get(family)
            differ += digest != want
            print(f"{name} {family} {digest}" + ("" if digest == want else f" (pinned {want})"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
