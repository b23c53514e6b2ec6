"""perfbench's tracer wraps methods through ``cls.__dict__[attr]`` with no
guard, so a listed method that moves to a base class or goes away would
make every traced run fail with KeyError; and it reads ``cache_info()`` of
every function in its CACHES table that uval defines, so such a function
that loses its lru_cache would make every traced run fail with
AttributeError.  This reads the tracer's tables without installing it."""

import importlib
import importlib.util
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
