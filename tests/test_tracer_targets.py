"""perfbench's tracer wraps methods through ``cls.__dict__[attr]`` with no
guard, so a listed method that moves to a base class or goes away would
make every traced run fail with KeyError; and it reads ``cache_info()`` of
every function in its CACHES table that uval defines, so such a function
that loses its lru_cache would make every traced run fail with
AttributeError.  These read the tracer's tables without installing it.

The tracer wraps only the uval modules in sys.modules when it is
installed, which perfbench does right after ``import uval`` or
``import uval.cli``; the last test installs it there in a fresh
interpreter."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["METHOD_SPANS", "BINARY_COUNTERS"])
def test_traced_methods_are_defined_on_their_class(table):
    targets = getattr(_tracer(), table)
    assert targets
    for module, cls_name, attr in targets:
        if module == "uval.grassmann" and importlib.util.find_spec("numpy") is None:
            continue  # uval.grassmann needs the [mc] extra
        cls = getattr(importlib.import_module(module), cls_name)
        assert attr in vars(cls), (module, cls_name, attr)


def test_traced_caches_have_cache_info():
    targets = _tracer().CACHES
    assert targets
    for module, attr in targets:
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is not None:
            assert hasattr(fn, "cache_info"), (module, attr)


INSTALL = f"""
import importlib, importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
for module, attr in tracer.FUNCTION_SPANS:
    fn = getattr(importlib.import_module(module), attr, None) if module != "uval.grassmann" else None
    assert fn is None or hasattr(fn, "__wrapped__"), (module, attr)
"""


@pytest.mark.parametrize("first", ["import uval", "import uval.cli"])
def test_tracer_installed_after_import_wraps_the_core(first):
    proc = subprocess.run([sys.executable, "-c", first + INSTALL], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
