"""The two in-process workloads: input pools, the operation each input
drives, and the canonical text of its outputs.

Each workload is a fixed layout of cells, (kind, n[, degree]) -> draws per
round, and a fixed pool of inputs per cell generated from the cell name
alone.  The benchmark seed only chooses which pool items a round draws
(see common.Drawer), so every output has a stored reference digest.

uval functions are always called through their module (``cones.is_positive``),
so the tracer's rebinding of module attributes reaches these calls too.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter

import uval.cones as cones
import uval.sl2 as sl2
import uval.valuation as valuation
from uval.scalar import Scalar
from uval.valuation import Valuation, q_range

from common import json_text, matrix_text, scalar_text, valuation_text

# `import uval.kinematic as ...` would bind the package attribute, which is
# the function uval.kinematic.kinematic.
kin = importlib.import_module("uval.kinematic")

# Partial quotients of the continued fraction of pi, enough for the
# convergent p/q with a 25-digit q.
PI_CF = (3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1, 84, 2,
         1, 1, 15, 3, 13, 1, 4, 2, 6, 6, 99, 1, 2, 2, 6, 3, 5, 1, 1, 6, 8, 1)


def pi_convergents() -> list[tuple[int, int]]:
    h0, h1, k0, k1 = 1, PI_CF[0], 0, 1
    out = [(h1, k1)]
    for a in PI_CF[1:]:
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append((h1, k1))
    return out


CONVERGENTS = pi_convergents()
# p - q*pi for depth 44 (a 25-digit q) is the first convergent whose sign
# the seed code cannot decide, in any process.  Depths 42 and 43 are
# decided as bare scalars but not after some Gram-matrix pi shifts, so
# whether they fail depends on the position drawn; they are left out to
# keep the failing inputs a fixed count per round.
NEAR_DEPTHS = range(0, 42)
EDGE_DEPTH = 44


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # every failure is counted, never dropped
        return exc


class Workload:
    """Pools, layout and operations of one in-process workload."""

    name: str
    classes: tuple[str, ...]
    layout: list[tuple[str, int]]
    heavy_cells: frozenset[str]

    def __init__(self):
        self.tally: Counter = Counter()
        self.pools = {cell: self.make_pool(cell) for cell, _ in self.layout}
        self.pool_sizes = {cell: len(pool) for cell, pool in self.pools.items()}

    def make_pool(self, cell: str) -> list:
        raise NotImplementedError

    def input_text(self, cell: str, item) -> str:
        raise NotImplementedError

    def call(self, cell: str, item):
        """The timed operation; returns raw results (or the exception)."""
        raise NotImplementedError

    def outputs(self, cell: str, item, raw) -> tuple[dict[str, str | None], list[str]]:
        """Canonical output text per class (None where the call raised) and
        the invariant violations found."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def pool_text(self) -> str:
        return "\n".join(
            f"{cell}#{i}:{self.input_text(cell, item)}"
            for cell, _ in self.layout
            for i, item in enumerate(self.pools[cell])
        )


# ----------------------------------------------------------------------
# cone_sweep

def _mixed(rng: random.Random) -> Scalar:
    return Scalar({0: rng.randint(-4, 4), 1: rng.choice((-2, -1, 1, 2))})


def _near(rng: random.Random, depth: int) -> Scalar:
    p, q = CONVERGENTS[depth]
    s = rng.choice((-2, -1, 1, 2))
    return Scalar({0: s * p, 1: -s * q})


class ConeSweep(Workload):
    """Random homogeneous coefficient vectors, n = 1..6, every degree.

    Per (n, k) and round: 6 integer vectors (entries in [-4, 4]), 2 vectors
    with a + b*pi entries and 1 integer vector with one entry replaced by
    a near-cancelling s*(p - q*pi) from a convergent of pi.  Per n and
    round, one "edge" vector at k = n whose only entry is s*(p - q*pi) for
    the first convergent the seed code cannot decide.
    """

    name = "cone_sweep"
    classes = ("crofton", "monotone", "positive", "delta")
    POOL = {"int": 24, "mixed": 8, "near": 8, "edge": 6}
    PER_ROUND = {"int": 6, "mixed": 2, "near": 1}

    def __init__(self):
        self.layout = [
            (f"{kind}/{n}/{k}", count)
            for n in range(1, 7)
            for k in range(0, 2 * n + 1)
            for kind, count in self.PER_ROUND.items()
        ] + [(f"edge/{n}/{n}", 1) for n in range(1, 7)]
        self.heavy_cells = frozenset(c for c, _ in self.layout if not c.startswith("int/"))
        super().__init__()

    def make_pool(self, cell):
        kind, n, k = cell.split("/")
        n, k = int(n), int(k)
        rng = random.Random(f"pool:cone_sweep:{cell}")
        qs = list(q_range(n, k))
        pool = []
        for _ in range(self.POOL[kind]):
            if kind == "edge":
                coeffs = {(k, rng.choice(qs)): _near(rng, EDGE_DEPTH)}
            elif kind == "mixed":
                coeffs = {(k, q): _mixed(rng) for q in qs}
            else:
                coeffs = {(k, q): rng.randint(-4, 4) for q in qs}
                if kind == "near":
                    coeffs[(k, rng.choice(qs))] = _near(rng, rng.choice(NEAR_DEPTHS))
            pool.append((n, k, Valuation(n, coeffs)))
        return pool

    def input_text(self, cell, item):
        return valuation_text(item[2])

    def call(self, cell, item):
        n, k, v = item
        raw = {
            "crofton": _result_or_error(cones.is_crofton_positive, v),
            "monotone": _result_or_error(cones.is_monotone, v),
            "positive": _result_or_error(cones.is_positive, v),
        }
        if k >= 1:
            raw["delta"] = _result_or_error(self._delta, n, v)
        return raw

    @staticmethod
    def _delta(n, v):
        expr = cones.first_variation(n, v)
        return expr, expr.all_nonnegative() and v.coefficient(0, 0).sign() >= 0

    def outputs(self, cell, item, raw):
        n, k, v = item
        texts: dict[str, str | None] = {}
        for cls in ("crofton", "monotone", "positive"):
            r = raw[cls]
            texts[cls] = None if isinstance(r, Exception) else json_text([r.member, r.witness])
        d = raw.get("delta")
        if d is None:
            texts["delta"] = "-"
        elif isinstance(d, Exception):
            texts["delta"] = None
        else:
            expr, ok = d
            texts["delta"] = ";".join(
                f"{sym},{a},{b}={scalar_text(c)}" for (sym, a, b), c in expr.items()
            ) + f"|{ok}"
        bad = []
        if all(t is not None for t in texts.values()):
            cp, m, p = (raw[c].member for c in ("crofton", "monotone", "positive"))
            if cp and not m:
                bad.append("CP not in M")
            if m and not p:
                bad.append("M not in P")
            if k >= 1 and m != raw["delta"][1]:
                bad.append("M differs from the first-variation sign test")
            self.tally.update(decided=1, CP=cp, M=m, P=p)
        return texts, bad


# ----------------------------------------------------------------------
# algebra_warm

ALGEBRA_N = (4, 6, 8, 10)


def _random_valuation(rng: random.Random, n: int, terms: int) -> Valuation:
    keys = [(k, q) for k in range(2 * n + 1) for q in q_range(n, k)]
    return Valuation(n, {
        kq: Scalar({0: rng.randint(-9, 9), 1: rng.choice((-3, -2, -1, 1, 2, 3))})
        for kq in rng.sample(keys, terms)
    })


class AlgebraWarm(Workload):
    """A stream of algebra requests at n in {4, 6, 8, 10} with warm caches.

    Per n and round: 2 products of random 6-term valuations with a + b*pi
    coefficients, 1 kinematic tensor of a random 2-term valuation, 2
    Lefschetz decompositions of random 8-term valuations, and 2 Tasaki
    requests (closed route == Gram-inverse route, then the leading minors).
    """

    name = "algebra_warm"
    classes = ("multiply", "kinematic", "lefschetz", "tasaki")
    PER_ROUND = {"multiply": 2, "kinematic": 1, "lefschetz": 2, "tasaki": 2}
    POOL = 8

    def __init__(self):
        self.layout = [
            (f"{kind}/{n}", count) for n in ALGEBRA_N for kind, count in self.PER_ROUND.items()
        ]
        self.heavy_cells = frozenset(c for c, _ in self.layout if c.endswith(f"/{ALGEBRA_N[-1]}"))
        super().__init__()

    def make_pool(self, cell):
        kind, n = cell.split("/")
        n = int(n)
        rng = random.Random(f"pool:algebra_warm:{cell}")
        if kind == "tasaki":
            return [(n, rng.randint(0, n)) for _ in range(self.POOL)]
        if kind == "multiply":
            return [(_random_valuation(rng, n, 6), _random_valuation(rng, n, 6)) for _ in range(self.POOL)]
        terms = 2 if kind == "kinematic" else 8
        return [_random_valuation(rng, n, terms) for _ in range(self.POOL)]

    def input_text(self, cell, item):
        if cell.startswith("tasaki/"):
            return f"{item}"
        if cell.startswith("multiply/"):
            return valuation_text(item[0]) + "*" + valuation_text(item[1])
        return valuation_text(item)

    def warm_up(self):
        """Fill the Gram-inverse, monomial and primitive-basis caches."""
        for n in ALGEBRA_N:
            full = Valuation(n, {(k, q): 1 for k in range(2 * n + 1) for q in q_range(n, k)})
            for k in range(n + 1):
                kin.tasaki_matrix_oracle(n, k)
            valuation.multiply(full, full)
            sl2.lefschetz_decompose(full)

    def call(self, cell, item):
        kind = cell.split("/")[0]
        return {kind: _result_or_error(getattr(self, "_" + kind), item)}

    @staticmethod
    def _multiply(item):
        return valuation.multiply(*item)

    @staticmethod
    def _kinematic(m):
        return kin.kinematic(m.n, m)

    @staticmethod
    def _lefschetz(v):
        return sl2.lefschetz_decompose(v)

    @staticmethod
    def _tasaki(item):
        closed = kin.tasaki_matrix_closed(*item)
        oracle = kin.tasaki_matrix_oracle(*item)
        return closed, closed == oracle, closed.leading_minor_dets()

    def outputs(self, cell, item, raw):
        kind = cell.split("/")[0]
        r = raw[kind]
        bad = []
        if isinstance(r, Exception):
            text = None
        elif kind == "multiply":
            text = valuation_text(r)
        elif kind == "kinematic":
            text = ";".join(f"{a},{b}:{matrix_text(m)}" for (a, b), m in sorted(r.blocks.items()))
        elif kind == "lefschetz":
            text = ";".join(f"{k},{q}={scalar_text(c)}" for k, q, c in r)
        else:
            closed, same, dets = r
            if not same:
                bad.append("closed and Gram-inverse Tasaki matrices differ")
            text = f"{same}|{matrix_text(closed.entries)}|" + ";".join(scalar_text(d) for d in dets)
        return {kind: text}, bad


WORKLOADS = {"cone_sweep": ConeSweep, "algebra_warm": AlgebraWarm}
