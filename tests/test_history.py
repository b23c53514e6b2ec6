"""The same call gets the same answer whatever ran earlier in the process.

A public entry that reads a degree as a cache key must refuse a float
degree both in a fresh interpreter and after the int call has filled its
cache: a cache keyed by 2 is also hit by 2.0, so a check that sits behind
the cache is skipped on a warm call."""

import subprocess
import sys

import pytest

import uval

# case -> (entry, int arguments, the same arguments with one float)
ENTRIES = {
    "tasaki_matrix_closed": ("tasaki_matrix_closed", (2, 2), (2.0, 2)),
    "tasaki_matrix_oracle": ("tasaki_matrix_oracle", (2, 2), (2.0, 2)),
    "primitive_general": ("primitive_general", (3, 2, 1), (3.0, 2, 1)),
    "mu": ("mu", (3, 2, 1), (3.0, 2, 1)),
    "tau": ("tau", (3, 2, 1), (3.0, 2, 1)),
    "tau_float_q": ("tau", (3, 2, 1), (3, 2, 1.0)),
    "chi": ("chi", (3,), (3.0,)),
    "nu": ("nu", (3, 2, 1), (3.0, 2, 1)),
    "f_closed": ("f_closed", (3,), (3.0,)),
    "f_recursive": ("f_recursive", (3,), (3.0,)),
}
REFUSAL = "TypeError: 'float' object cannot be interpreted as an integer"


def _refusal(fn, args) -> str:
    with pytest.raises(TypeError) as info:
        fn(*args)
    return f"TypeError: {info.value}"


@pytest.mark.parametrize("case", ENTRIES)
def test_float_degree_is_refused_fresh(case):
    name, _, floats = ENTRIES[case]
    script = (f"import uval\ntry:\n    uval.{name}(*{floats!r})\n"
              f"except Exception as e:\n    print(f'{{type(e).__name__}}: {{e}}')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == REFUSAL


@pytest.mark.parametrize("case", ENTRIES)
def test_float_degree_is_refused_warm(case):
    name, ints, floats = ENTRIES[case]
    fn = getattr(uval, name)
    fn(*ints)
    assert _refusal(fn, floats) == REFUSAL
