"""Print the digest of every pinned output family.

    PYTHONPATH=src python3 scripts/pins.py [MODULE ...]

Each pinned-output test module under tests/ computes its SHA-256 prefixes
in one function and compares them with its PINNED_DIGESTS.  This script
runs those functions (all of them, or the MODULEs named, e.g.
test_cli_outputs) and prints one line per family, `module family
digest`, with the pinned value after it where the two differ.  It exits
1 if any family differs.  A change that alters an output on purpose runs
it to read the new digests, writes them into the module's PINNED_DIGESTS,
and names each changed family and why in CHANGES.md.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent.parent / "tests"

# module -> its digest function
PINS = {
    "test_product_outputs": "_product_digests",
    "test_kinematic_outputs": "_outputs_digests",
    "test_tasaki_outputs": "_tasaki_digests",
    "test_cones": "_cone_digests",
    "test_mc_outputs": "_digests",
    "test_store_outputs": "_store_digests",
    "test_cli_outputs": "_cli_digests",
}


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
        for family, digest in getattr(module, PINS[name])().items():
            want = pinned.get(family)
            differ += digest != want
            print(f"{name} {family} {digest}" + ("" if digest == want else f" (pinned {want})"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
