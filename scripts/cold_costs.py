"""Wall time, CPU time and peak RSS of whole `uval` processes, parent
against change.

    python3 scripts/cold_costs.py --parent REV --change REV --out BENCH_<label>.json

Both revisions are exported with `git archive`, as scripts/bench_pairs.py
does.  Each row is one `python -m uval.cli ARGS` process in a fresh
interpreter, run from the checkout of its side with that side's src on
PYTHONPATH, BLAS/OpenMP pinned to one thread and PYTHONHASHSEED=0, as
perfbench's cli_jobs children run.  The rows are the four long jobs of
cli_jobs, a Monte-Carlo check at the largest n `mc` takes, on 1, 2 and 3
threads, both Tasaki routes at the `tasaki` cap n = 64, the README's
whole-process `convert` and `additive` rows, and its library `kinematic`
rows as `kinematic --n N --val "(chi+t)^(2N)"` for N = 16, 24 and 32.
Every row runs RUNS times per side, alternating which side goes first.
CPU time (ru_utime + ru_stime) and peak RSS (ru_maxrss) are the child's
own, read with os.wait4, so no other child counts.  CPU time leaves out
the time a child waits for a core, but not the slowdown that other work
on shared cores causes while it runs.  The rows are written
under "cold_costs" into the --out file, keeping what is already there:
each run's wall time, CPU time, peak RSS and stdout digest, and per side
the median and range of the three.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export

sys.path.insert(0, str(ROOT / "perfbench"))
from clijobs import LONG_JOBS  # noqa: E402
from common import THREAD_PINS  # noqa: E402

# The Monte-Carlo check at the largest n `mc` takes; tests/test_mc_memory.py
# bounds the peak RSS of this same command.
MC_N8 = ["mc", "--n", "8", "--k", "5", "--angles", "0.3,0.9", "--co-angles", "0.7,0.1",
         "--samples", "100000", "--threads", "2"]
# MC_N8 on 1, 2 and 3 threads: every worker draws at least one whole
# MC_CHUNK, so the three peaks give the memory per worker.
ROWS = {**LONG_JOBS, "mc_n8": MC_N8,
        **{f"mc_n8_t{t}": [*MC_N8[:-1], str(t)] for t in (1, 3)},
        "tasaki64": ["tasaki", "--n", "64", "--k", "64"],
        "tasaki64_oracle": ["tasaki", "--n", "64", "--k", "63", "--oracle", "--json"],
        "convert32_prim": ["convert", "--n", "32", "--val", "(chi+t)^64", "--to", "prim"],
        "additive32": ["additive", "--n", "32", "--val", "(chi+t)^64"],
        **{f"kinematic{n}": ["kinematic", "--n", str(n), "--val", f"(chi+t)^{2 * n}"] for n in (16, 24, 32)}}
RUNS = 5  # fresh processes per row and side, the same for every record


def run(checkout: Path, argv: list[str]) -> dict:
    """One fresh `uval` process: wall and CPU seconds, peak RSS in MB,
    stdout digest."""
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    env.pop("UVAL_SEED", None)
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "uval.cli", *argv], cwd=checkout, env=env,
                                stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        stdout = out.read()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode} in {checkout}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest()[:16],
    }


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(rev, sides[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        for name, argv in ROWS.items():
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(RUNS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run(sides[side], argv))
                    print(name, i, side, runs[side][-1], file=sys.stderr, flush=True)
            rows[name] = {
                "argv": argv,
                "runs": runs,
                **{side: {m: summary([r[m] for r in rs]) for m in ("wall_s", "cpu_s", "peak_rss_mb")}
                   for side, rs in runs.items()},
            }
    record["cold_costs"] = {"runs": RUNS, **commits, "rows": rows}
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
