"""Exact hermitian integral geometry: the algebra of unitary-invariant
convex valuations on C^n, its canonical bases and kinematic formulas.

The exact core (everything except :mod:`uval.grassmann`) runs on rational
arithmetic extended by formal powers of pi and has no third-party
dependencies; the numeric module grounds the formulas with Monte-Carlo
checks over Haar-random unitaries.

``import uval`` runs no submodule's code. It puts the core modules in
``sys.modules`` and on the package as lazy modules
(:class:`importlib.util.LazyLoader`), each of which runs on its first
attribute access; the first use of a name below does that for the
submodule it lives in. ``uval.kinematic`` is the function; the module is
``importlib.import_module("uval.kinematic")``.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "scalar": ("Scalar", "UndecidableSignError", "double_factorial", "omega"),
    "poly": ("GradedPoly", "change_vars", "f_closed", "f_recursive"),
    "valuation": (
        "KlainPolynomial", "Valuation", "chi", "dim_val", "fourier", "from_monomial", "iota",
        "klain", "mu", "multiply", "q_range", "tau", "tau_coords", "to_monomial", "vol",
    ),
    "sl2": (
        "Sl2Operator", "apply_H", "apply_L", "apply_Lambda", "lefschetz_decompose", "primitive",
        "primitive_general",
    ),
    "kinematic": (
        "KinematicTensor", "TasakiMatrix", "additive_kinematic", "bezout_check", "cpn_normalize",
        "kinematic", "pairing_fourier", "pairing_pd", "primitive_pairing_closed",
        "principal_kinematic", "tasaki_matrix_closed", "tasaki_matrix_oracle",
    ),
    "cones": (
        "ConeVerdict", "CurvExpr", "first_variation", "is_crofton_positive", "is_monotone",
        "is_positive", "norm_inf", "norm_one", "nu", "nu_coeffs",
    ),
    "valspec": ("ValSpecError", "parse_valspec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Every submodule but kinematic is exported under its own name.
_SUBMODULES = ("cones", "linalg", "poly", "scalar", "sl2", "valspec", "valuation")
__all__ = [*_HOME, *_SUBMODULES]


def _lazy_submodule(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the real exec_module
    return module


# The import system binds a submodule on the package only when it loads
# it, so with these in sys.modules `import uval.kinematic` binds nothing.
for _name in _SUBMODULES:
    globals()[_name] = _lazy_submodule(_name)
del _name
_lazy_submodule("kinematic")  # left unbound: uval.kinematic is the function


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_sys.modules[f"{__name__}.{_HOME[name]}"], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
