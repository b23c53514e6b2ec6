"""The public names of the `uval` package, which load lazily: each run is a
fresh interpreter, since the answer must not depend on what was imported
first."""

import subprocess
import sys

import pytest

# Where each name of `from uval import *` lives.
EXPORTS = {
    "scalar": "Scalar UndecidableSignError double_factorial omega",
    "poly": "GradedPoly change_vars f_closed f_recursive",
    "valuation": "KlainPolynomial Valuation chi dim_val fourier from_monomial iota klain mu "
                 "multiply q_range tau tau_coords to_monomial vol",
    "sl2": "Sl2Operator apply_H apply_L apply_Lambda lefschetz_decompose primitive "
           "primitive_general",
    "kinematic": "KinematicTensor TasakiMatrix additive_kinematic bezout_check cpn_normalize "
                 "kinematic pairing_fourier pairing_pd primitive_pairing_closed "
                 "principal_kinematic tasaki_matrix_closed tasaki_matrix_oracle",
    "cones": "ConeVerdict CurvExpr first_variation is_crofton_positive is_monotone is_positive "
             "norm_inf norm_one nu nu_coeffs",
    "valspec": "ValSpecError parse_valspec",
}
SUBMODULES = "cones linalg poly scalar sl2 valspec valuation".split()

CHECK = f"""
import importlib, sys
EXPORTS, SUBMODULES = {EXPORTS!r}, {SUBMODULES!r}
import uval
expected = {{*SUBMODULES, *" ".join(EXPORTS.values()).split()}}
assert expected <= set(dir(uval)), sorted(expected - set(dir(uval)))
public = {{name for name in dir(uval) if not name.startswith("_")}}
assert public - expected <= {{"cli"}}, sorted(public - expected)
names = {{}}
exec("from uval import *", names)
del names["__builtins__"]
assert len(names) == 61 and set(names) == expected, sorted(names)
for module in SUBMODULES:
    assert names[module] is sys.modules["uval." + module], module
for module, text in EXPORTS.items():
    for name in text.split():
        assert names[name] is getattr(sys.modules["uval." + module], name), name
from uval import kinematic
kin = importlib.import_module("uval.kinematic")
assert uval.kinematic is kinematic is kin.kinematic and callable(kinematic)
assert uval.__version__ == "0.1.0"
try:
    uval.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("no AttributeError")
"""


@pytest.mark.parametrize("first", ["import uval", "import uval.cli; import uval.kinematic"])
def test_public_api_in_any_import_order(first):
    proc = subprocess.run([sys.executable, "-c", f"{first}\n{CHECK}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_uval_runs_no_submodule():
    """`import uval` puts the core modules in sys.modules, where tools that
    scan it (such as perfbench's tracer) find them, but runs none of them:
    a lazy module stays a ModuleType subclass until its first use."""
    script = (
        "import sys, types, uval\n"
        "for n, m in sys.modules.items():\n"
        "    if n.startswith('uval.'):\n"
        "        print(n, type(m) is types.ModuleType)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    core = {"uval." + name for name in [*SUBMODULES, "kinematic"]}
    assert sorted(proc.stdout.splitlines()) == sorted(f"{name} False" for name in core)
