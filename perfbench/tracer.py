"""Per-module tracing from outside the package.

The tracer replaces public functions of the uval modules with wrappers
that record a span (name, start, end, parent, request id) or only count
calls, in every uval module namespace that holds a reference to them.
Nothing under src/ is edited.  Spans are kept in memory and written when
the traced process ends; self time (a span minus the part of it that its
child spans cover) is accumulated as the spans close.

The Scalar arithmetic dunders get counters only, since they run millions
of times per second.  GradedPoly.__mul__ gets a span because its self
time is a reported metric; the other GradedPoly dunders are not wrapped.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

# (module, attribute) -> span name
FUNCTION_SPANS = {
    ("uval.scalar", "sign"): "scalar.sign",
    ("uval.poly", "change_vars"): "poly.change_vars",
    ("uval.valuation", "multiply"): "valuation.multiply",
    ("uval.valuation", "from_monomial"): "valuation.from_monomial",
    ("uval.valuation", "to_monomial"): "valuation.to_monomial",
    ("uval.valuation", "tau_coords"): "valuation.tau_coords",
    ("uval.sl2", "lefschetz_decompose"): "sl2.lefschetz_decompose",
    ("uval.sl2", "primitive_general"): "sl2.primitive_general",
    ("uval.kinematic", "kinematic"): "kinematic.kinematic",
    ("uval.kinematic", "principal_kinematic"): "kinematic.principal_kinematic",
    ("uval.kinematic", "tasaki_matrix_closed"): "kinematic.tasaki_closed",
    ("uval.kinematic", "tasaki_matrix_oracle"): "kinematic.tasaki_oracle",
    ("uval.linalg", "invert_scalar_matrix"): "linalg.invert_scalar_matrix",
    ("uval.cones", "is_crofton_positive"): "cones.is_crofton_positive",
    ("uval.cones", "is_monotone"): "cones.is_monotone",
    ("uval.cones", "is_positive"): "cones.is_positive",
    ("uval.cones", "first_variation"): "cones.first_variation",
    ("uval.cones", "nu_coeffs"): "cones.nu_coeffs",
    ("uval.grassmann", "crofton_prediction"): "grassmann.crofton_prediction",
    ("uval.grassmann", "mc_crofton"): "grassmann.mc_crofton",
    ("uval.valspec", "parse_valspec"): "valspec.parse_valspec",
}

# (module, class, method) -> span name; "cli.render" is the time spent
# turning results into the text the CLI prints.
METHOD_SPANS = {
    ("uval.poly", "GradedPoly", "__mul__"): "poly.mul",
    ("uval.poly", "GradedPoly", "__rmul__"): "poly.mul",
    ("uval.kinematic", "TasakiMatrix", "leading_minor_dets"): "kinematic.leading_minor_dets",
    ("uval.kinematic", "TasakiMatrix", "to_json"): "cli.render",
    ("uval.kinematic", "TasakiMatrix", "pretty"): "cli.render",
    ("uval.kinematic", "KinematicTensor", "to_json"): "cli.render",
    ("uval.kinematic", "KinematicTensor", "pretty"): "cli.render",
    ("uval.valuation", "Valuation", "to_json"): "cli.render",
    ("uval.valuation", "Valuation", "__str__"): "cli.render",
    ("uval.poly", "GradedPoly", "to_json"): "cli.render",
    ("uval.poly", "GradedPoly", "__str__"): "cli.render",
    ("uval.cones", "ConeVerdict", "to_json"): "cli.render",
    ("uval.cones", "CurvExpr", "__str__"): "cli.render",
    ("uval.grassmann", "MCResult", "to_json"): "cli.render",
}

FUNCTION_COUNTERS = {
    ("uval.kinematic", "pairing_pd"): "kinematic.pairing_pd",
    ("uval.linalg", "scalar_matrix_det"): "linalg.scalar_matrix_det",
    ("uval.linalg", "invert_fraction_matrix"): "linalg.invert_fraction_matrix",
}

BINARY_COUNTERS = {
    ("uval.scalar", "Scalar", "__mul__"): "scalar.mul",
    ("uval.scalar", "Scalar", "__rmul__"): "scalar.mul",
    ("uval.scalar", "Scalar", "__add__"): "scalar.add",
    ("uval.scalar", "Scalar", "__sub__"): "scalar.add",
}

# lru_cache'd functions whose hit ratio is reported
CACHES = {
    ("uval.kinematic", "tasaki_matrix_oracle"): "kinematic.tasaki_oracle.hit_ratio",
    ("uval.cones", "mu_gram"): "cones.mu_gram.hit_ratio",
}

CHECK_GROUPS = ("scalar", "poly", "valuation", "sl2", "kinematic", "cones", "grassmann", "cli")


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self):
        self.spans: list = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.request = 0
        self.sign_multiterm = 0
        self.min_eps: Fraction | None = None
        self.mc_samples = 0
        self.mc_thread_ns = 0
        self._stack: list[list[int]] = []
        self._main = threading.get_ident()
        self._caches: dict[str, object] = {}

    # -- wrappers ------------------------------------------------------
    def span(self, name: str, fn):
        spans, stack, self_ns, calls = self.spans, self._stack, self.self_ns, self.calls
        main, get_ident, clock = self._main, threading.get_ident, perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_ns[name] += took - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += took
                spans[frame[0]] = (name, start, end, parent, tracer.request)

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def binary_counter(self, name: str, fn):
        calls = self.calls

        def counted(a, b):
            calls[name] += 1
            return fn(a, b)

        counted.__wrapped__ = fn
        return counted

    def sign_wrapper(self, fn):
        tracer = self
        spanned = self.span("scalar.sign", fn)

        def sign(s):
            if not (s.is_zero or s.is_monomial):
                tracer.sign_multiterm += 1
            return spanned(s)

        sign.__wrapped__ = fn
        return sign

    def mc_wrapper(self, fn):
        """Span on mc_crofton that also keeps samples x threads per call, for
        the sampling rate per thread."""
        tracer = self
        spanned = self.span("grassmann.mc_crofton", fn)
        bind = inspect.signature(fn).bind

        def mc_crofton(*args, **kwargs):
            bound = bind(*args, **kwargs)
            bound.apply_defaults()
            before = tracer.self_ns["grassmann.mc_crofton"]
            try:
                return spanned(*args, **kwargs)
            finally:
                took = tracer.self_ns["grassmann.mc_crofton"] - before
                tracer.mc_samples += bound.arguments["samples"]
                tracer.mc_thread_ns += took * max(1, bound.arguments["threads"])

        mc_crofton.__wrapped__ = fn
        return mc_crofton

    def pi_bounds_wrapper(self, fn):
        tracer = self

        def pi_bounds(eps):
            e = Fraction(eps)
            if e > 0 and (tracer.min_eps is None or e < tracer.min_eps):
                tracer.min_eps = e
            return fn(eps)

        pi_bounds.__wrapped__ = fn
        return pi_bounds

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function in the uval modules imported so far."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "uval" or name.startswith("uval."))
        }
        replace: dict[int, object] = {}

        def plan(module, attr, make):
            mod = modules.get(module)
            if mod is None or not hasattr(mod, attr):
                return
            original = getattr(mod, attr)
            replace[id(original)] = (original, make(original))

        for (module, attr), name in FUNCTION_SPANS.items():
            if (module, attr) == ("uval.scalar", "sign"):
                plan(module, attr, self.sign_wrapper)
            elif (module, attr) == ("uval.grassmann", "mc_crofton"):
                plan(module, attr, self.mc_wrapper)
            else:
                plan(module, attr, lambda f, name=name: self.span(name, f))
        for (module, attr), name in FUNCTION_COUNTERS.items():
            plan(module, attr, lambda f, name=name: self.counter(name, f))
        plan("uval.scalar", "pi_bounds", self.pi_bounds_wrapper)
        for (module, attr), name in CACHES.items():
            if module in modules and hasattr(modules[module], attr):
                self._caches[name] = getattr(modules[module], attr)

        # rebind every module-level reference to a wrapped function
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        wrapped_methods: dict[tuple[str, str, int], object] = {}
        for table, make in ((METHOD_SPANS, self.span), (BINARY_COUNTERS, self.binary_counter)):
            for (module, cls_name, attr), name in table.items():
                mod = modules.get(module)
                if mod is None:
                    continue
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                key = (module, cls_name, id(original))
                if key not in wrapped_methods:  # __rmul__ is __mul__
                    wrapped_methods[key] = make(name, original)
                setattr(cls, attr, wrapped_methods[key])

        checks = modules.get("uval.checks")
        if checks is not None:
            checks.CHECKS[:] = [
                (name, self.span("checks." + name.split(".")[0], fn))
                for name, fn in checks.CHECKS
            ]

    # -- results -------------------------------------------------------
    def snapshot(self) -> dict:
        """The raw counts of this process, mergeable across processes."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.hits + info.misses]
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "sign_multiterm": self.sign_multiterm,
            "min_eps_log10": (
                math.log10(self.min_eps.numerator) - math.log10(self.min_eps.denominator)
                if self.min_eps is not None else None
            ),
            "mc_samples": self.mc_samples,
            "mc_thread_ns": self.mc_thread_ns,
            "caches": caches,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for span in self.spans:
                if span is not None:
                    fh.write("%s\t%d\t%d\t%d\t%d\n" % span)


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several traced processes."""
    out = {"calls": defaultdict(int), "self_ns": defaultdict(int), "sign_multiterm": 0,
           "min_eps_log10": None, "mc_samples": 0, "mc_thread_ns": 0, "caches": {}}
    for snap in snapshots:
        for key in ("calls", "self_ns"):
            for name, value in snap[key].items():
                out[key][name] += value
        for key in ("sign_multiterm", "mc_samples", "mc_thread_ns"):
            out[key] += snap[key]
        eps = snap["min_eps_log10"]
        if eps is not None and (out["min_eps_log10"] is None or eps < out["min_eps_log10"]):
            out["min_eps_log10"] = eps
        for name, (hits, lookups) in snap["caches"].items():
            h, n = out["caches"].get(name, (0, 0))
            out["caches"][name] = (h + hits, n + lookups)
    return out


SELF_TIMES = (
    "scalar.sign", "poly.mul", "poly.change_vars",
    "valuation.multiply", "valuation.from_monomial", "valuation.to_monomial",
    "valuation.tau_coords", "sl2.lefschetz_decompose", "sl2.primitive_general",
    "kinematic.kinematic", "kinematic.principal_kinematic", "kinematic.tasaki_closed",
    "kinematic.tasaki_oracle", "kinematic.leading_minor_dets",
    "linalg.invert_scalar_matrix", "cones.is_crofton_positive", "cones.is_monotone",
    "cones.is_positive", "cones.first_variation", "cones.nu_coeffs",
    "grassmann.crofton_prediction", "valspec.parse_valspec", "cli.render",
) + tuple(f"checks.{group}" for group in CHECK_GROUPS)

CALL_COUNTS = (
    "scalar.mul", "scalar.add", "scalar.sign", "poly.mul", "valuation.multiply",
    "kinematic.pairing_pd", "linalg.scalar_matrix_det", "linalg.invert_fraction_matrix",
)


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer numbers from a (merged) snapshot; 0 where a layer was not
    called."""
    calls, self_ns = snap["calls"], snap["self_ns"]
    out: dict[str, float] = {f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS}
    out.update({f"{name}.self_s": self_ns.get(name, 0) / 1e9 for name in SELF_TIMES})
    signs = calls.get("scalar.sign", 0)
    out["scalar.sign.multiterm_frac"] = snap["sign_multiterm"] / signs if signs else 0.0
    eps = snap["min_eps_log10"]
    out["scalar.pi_bounds.min_eps_log10"] = eps if eps is not None else 0.0
    out["grassmann.samples_per_s_per_thread"] = (
        snap["mc_samples"] / (snap["mc_thread_ns"] / 1e9) if snap["mc_thread_ns"] else 0.0
    )
    for name in CACHES.values():
        hits, lookups = snap["caches"].get(name, (0, 0))
        out[name] = hits / lookups if lookups else 0.0
    return out
