"""Regenerate the reference digests in perfbench/refs/.

    python3 perfbench/make_refs.py [cone_sweep algebra_warm cli_jobs]

Runs every pool input of the named workloads (all three by default) once
and stores the SHA-256 prefix of each output.  Run it only on a commit
whose results are known to be right: the benchmark counts every later
difference as a failure.

The cone_sweep "edge" inputs are near-cancelling scalars whose sign the
code cannot decide with its default enclosure of pi.  Their references
hold the true verdicts, computed after this process has refined its pi
enclosure to width 10^-100 (a valid enclosure, so the signs are exact),
so a later fix of sign() matches them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from common import REFS, SRC, digest, json_text, sequence_digest

sys.path.insert(0, str(SRC))


def inproc_refs(name: str) -> dict:
    import uval.scalar
    import workloads

    wl = workloads.WORKLOADS[name]()
    wl.warm_up()
    cells: dict[str, list] = {}
    order = sorted(wl.pools, key=lambda cell: cell.startswith("edge/"))
    for cell in order:
        if cell.startswith("edge/"):
            uval.scalar.pi_bounds(Fraction(1, 10**100))
        refs = []
        for index, item in enumerate(wl.pools[cell]):
            texts, bad = wl.outputs(cell, item, wl.call(cell, item))
            raised = [cls for cls, text in texts.items() if text is None]
            if raised or bad:
                raise SystemExit(f"{name} {cell}#{index}: raised in {raised}, violations {bad}")
            refs.append([digest(text) for text in texts.values()])
        cells[cell] = refs
    return {"pool_sha256": sequence_digest([wl.pool_text()]),
            "cells": {cell: cells[cell] for cell in wl.pools}}


def cli_refs() -> dict:
    import clijobs

    pools = clijobs.pools()
    cells = {}
    for cell, jobs in pools.items():
        cells[cell] = []
        for argv in jobs:
            _, _, code, out, _ = clijobs.run_job(argv, timeout=300)
            if code != 0:
                raise SystemExit(f"cli_jobs {cell} {argv}: exit code {code}")
            cells[cell].append([out])
    return {"pool_sha256": sequence_digest([json_text(pools)]), "cells": cells}


def main() -> int:
    names = sys.argv[1:] or ["cone_sweep", "algebra_warm", "cli_jobs"]
    REFS.mkdir(exist_ok=True)
    for name in names:
        refs = cli_refs() if name == "cli_jobs" else inproc_refs(name)
        cells = refs.pop("cells")
        # one line per cell keeps the file small and its diffs readable
        body = ",\n".join(f"{json.dumps(cell)}:{json_text(items)}" for cell, items in cells.items())
        head = json_text({"workload": name, **refs})[:-1]
        (REFS / f"{name}.json").write_text(f'{head},"cells":{{\n{body}}}}}\n', encoding="utf-8")
        print(f"{name}: {sum(len(items) for items in cells.values())} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
