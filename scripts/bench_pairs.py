"""Compare two commits with perfbench and write a BENCH_<label>.json record.

    python3 scripts/bench_pairs.py --parent REV --change REV --seed N \
        --out BENCH_<label>.json [--layer NAME ...]

Each revision is exported with `git archive` into a temporary directory,
so both sides run their committed files with their own perfbench.  For
every workload the script runs 10 pairs of untraced 20 s runs
(`python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0`),
alternating which side runs first, then TRACED traced runs per side
(`--trace 1`), again alternating, and keeps the per-layer numbers named
with --layer: each side's median and every traced value.  The record
holds every run's end-to-end metrics, each side's median and quartiles,
and how many pairs the change won.  It is written into the --out file,
keeping what else is already there.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("algebra_warm", "cone_sweep", "cli_jobs")
PAIRS = 10  # at least ten pairs of runs to count the change's wins
SECONDS = 20  # the same run length on both sides
TRACED = 3  # traced runs per side; one traced layer time varies by about 30 %


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> dict:
    """Unpack rev into dest; returns its commit and the git tree of its src/."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev), check=True)
    return {
        "commit": git("rev-parse", rev).decode().strip(),
        "src_tree": git("rev-parse", f"{rev}:src").decode().strip(),
    }


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    record = json.loads(out.strip().splitlines()[-1])
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--layer", action="append", default=[])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": SECONDS,
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        record["parent"] = export(args.parent, sides["parent"])
        record["change"] = export(args.change, sides["change"])
        for workload in WORKLOADS:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run(sides[side], workload, args.seed, 0))
                    print(workload, i, side, runs[side][-1]["metrics"], file=sys.stderr, flush=True)
            metrics = {}
            for name in runs["parent"][0]["metrics"]:
                p = [r["metrics"][name] for r in runs["parent"]]
                c = [r["metrics"][name] for r in runs["change"]]
                sign = 1 if better[name] == "higher" else -1
                metrics[name] = {
                    "parent": summary(p),
                    "change": summary(c),
                    "change_over_parent": statistics.median(c) / statistics.median(p),
                    "change_wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
                }
            layers = {}
            if args.layer:
                traced: dict[str, list[dict]] = {"parent": [], "change": []}
                for i in range(TRACED):
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        traced[side].append(run(sides[side], workload, args.seed, 1)["metrics"])
                for side, ms in traced.items():
                    layers[side] = {}
                    for name in args.layer:
                        values = [m[name] for m in ms]
                        layers[side][name] = {"median": statistics.median(values), "runs": values}
            record["workloads"][workload] = {
                "metrics": metrics,
                "layers": layers,
                "runs": runs,
            }
    out = Path(args.out)
    if out.exists():  # keep what else the file holds, e.g. scripts/cold_costs.py's rows
        record = {**json.loads(out.read_text()), **record}
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
