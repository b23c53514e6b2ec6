"""The uval benchmark.

    python3 perfbench/run.py --workload {cone_sweep,algebra_warm,cli_jobs}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 the last stdout line is
a JSON object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  The lines before it name every metric
of the workload, with its unit, and the run's environment.  See
perfbench/README.md for the workloads, the metrics and what each layer
number should move.

This process never imports uval: the measured code runs in child
processes with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

import clijobs
from common import (
    HERE, OUT, ROOT, SRC, WORKLOADS, Drawer, SpeedSampler, check_checkout, child_env, json_text,
    load_refs, metric, nproc, percentile, sequence_digest,
)
from tracer import layer_metrics, merge

# Fresh processes whose set-up time is measured per run; the last one
# goes on to run the measured phase.
SETUP_SAMPLES = 5
# Rounds per traced run, whole epochs: fixed, so the counts repeat exactly
# for a seed.
TRACE_ROUNDS = {"cone_sweep": 24, "algebra_warm": 16}
# cli_jobs runs this many light rounds (11 jobs each; one pass over each
# kind's pool), so the light p75 has more than ten samples beyond it.
CLI_LIGHT_ROUNDS = 4
CLI_PASSES = 2
CLI_TRACE_LIGHT_ROUNDS = 2
# Everything a run does must end within this many seconds.
RUN_BUDGET_S = 170
TAIL_PERCENTILE = {"cone_sweep": 99, "algebra_warm": 90, "cli_jobs": 75}
# The workload-specific names of rate_per_s, p50_ms and tail_ms, printed
# before the JSON, and the unit of their latencies.
INPROC_NAMES = {
    "cone_sweep": ("cone.vectors_per_s", "cone.vector_p50_us", "cone.vector_p99_us", "us"),
    "algebra_warm": ("algebra.requests_per_s", "algebra.request_p50_ms", "algebra.request_p90_ms", "ms"),
}


class BenchError(RuntimeError):
    """The run could not produce its metrics."""


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


# ----------------------------------------------------------------------
# in-process workloads

class Child:
    """One inproc.py process, killed if it outlives the run's budget."""

    def __init__(self, workload: str, seed: int, extra: list[str], budget: Budget):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed), *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
        )
        self.timer = threading.Timer(budget.left(), self.proc.kill)
        self.timer.start()

    def ready(self) -> tuple[float, float]:
        """Wait for READY; returns when the process was started and when it
        got ready."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.close()
            raise BenchError(f"child did not get ready (exit {self.proc.returncode})")
        return self.started, time.perf_counter()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()

    def measure(self) -> dict:
        self.proc.stdin.write("GO\n")
        self.proc.stdin.flush()
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()
        if self.proc.returncode != 0 or not out.strip():
            raise BenchError(f"child failed (exit {self.proc.returncode})")
        return json.loads(out.strip().splitlines()[-1])


def run_inproc(workload: str, seed: int, seconds: float, budget: Budget) -> dict:
    setups = []
    with SpeedSampler() as speed:  # stopped before the measured phase, which calibrates itself
        for i in range(SETUP_SAMPLES):
            child = Child(workload, seed, ["--seconds", str(seconds)], budget)
            start, end = child.ready()
            setups.append(speed.normalise(end - start, start, end))
            if i < SETUP_SAMPLES - 1:
                child.close()
    res = child.measure()
    tail = TAIL_PERCENTILE[workload]
    rate_name, p50_name, tail_name, unit = INPROC_NAMES[workload]
    per_ms = {"us": 1e3, "ms": 1.0}[unit]
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "mismatched": res["mismatched"],
        "notes": res["notes"],
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "rate_per_s": metric(res["rate_per_s"], "1/s"),
            "p50_ms": metric(res["p50_ms"], "ms"),
            "tail_ms": metric(res[f"p{tail}_ms"], "ms"),
            "heavy_stratum_s": metric(res["heavy_s"], "s"),
        },
        "named": {
            rate_name: metric(res["rate_per_s"], "1/s"),
            p50_name: metric(res["p50_ms"] * per_ms, unit),
            tail_name: metric(res[f"p{tail}_ms"] * per_ms, unit),
        },
        "detail": {"rounds": res["rounds"], "samples": res["attempted"], "setup_samples_s": setups,
                   "raw_busy_s": res["raw_busy_s"], "tally": res["tally"], "digests": res["digests"]},
    }


def trace_inproc(workload: str, seed: int, budget: Budget) -> dict:
    rounds = ["--rounds", str(TRACE_ROUNDS[workload])]
    plain = Child(workload, seed, rounds, budget)
    plain.ready()
    plain = plain.measure()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}.spans.tsv"
    traced = Child(workload, seed, rounds + ["--trace", str(spans)], budget)
    traced.ready()
    traced = traced.measure()
    layers = layer_metrics(traced["trace"])
    tally = traced["tally"]
    decided = tally.get("decided", 0)
    for cone in ("P", "M", "CP"):
        layers[f"cones.member_frac.{cone}"] = tally.get(cone, 0) / decided if decided else 0.0
    layers.update({
        "cli.import_s": traced["import_s"],
        "cli.process_overhead_s": 0.0,
        "cli.heavy_s": 0.0, "cli.selftest_s": 0.0, "cli.mc_s": 0.0,
        "trace.overhead_frac": traced["busy_s"] / plain["busy_s"] - 1,
    })
    notes = plain["notes"] + traced["notes"]
    diverged = traced["digests"] != plain["digests"]
    if diverged:
        notes.append("traced outputs differ from the untraced run")
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"] + diverged,
        "mismatched": plain["mismatched"] + traced["mismatched"] + diverged,
        "notes": notes,
        "layers": layers,
        "detail": {"rounds": traced["rounds"], "spans": str(spans.relative_to(ROOT)),
                   "digests": traced["digests"]},
    }


# ----------------------------------------------------------------------
# cli_jobs

class JobLog:
    """Runs jobs and checks each stdout against its reference digest."""

    def __init__(self, budget: Budget, speed: SpeedSampler):
        self.budget = budget
        self.speed = speed
        self.refs = load_refs("cli_jobs")
        self.attempted = self.failed = self.mismatched = 0
        self.notes: list[str] = []
        self.raw_walls: list[float] = []

    def check(self, cell: str, index: int, code: int, out: str, label: str = "") -> None:
        self.attempted += 1
        expected = self.refs["cells"][cell][index][0]
        if code != 0:
            self.failed += 1
            self.notes.append(f"{cell}#{index}{label}: exit code {code}")
        elif out != expected:
            self.failed += 1
            self.mismatched += 1
            self.notes.append(f"{cell}#{index}{label}: stdout differs from its reference")

    def run(self, cell: str, index: int, argv: list[str], trace: bool = False) -> tuple[float, dict]:
        """Run one job and check it.  Returns its normalised time, importing
        uval.cli plus running main() (the wall time if the job wrote no
        record), and the job's record."""
        start, end, code, out, info = clijobs.run_job(argv, self.budget.left(), trace)
        self.check(cell, index, code, out, " (traced)" if trace else "")
        if not info:
            return self.speed.normalise(end - start, start, end), info
        info["wall_s"] = end - start
        self.raw_walls.append(end - start)
        work = info["import_s"] + info["main_s"]
        return self.speed.normalise(work, start, end, info["calibrations"]), info


def cli_pools() -> dict:
    pools = clijobs.pools()
    refs = load_refs("cli_jobs")
    if refs["pool_sha256"] != sequence_digest([json_text(pools)]):
        raise BenchError("cli job pools differ from the ones the references were made from")
    return pools


def light_rounds(seed: int, pools: dict):
    """The seed's rounds of light jobs, one job of each kind per round."""
    drawer = Drawer(seed, "run")
    layout = [(kind, 1) for kind in clijobs.LIGHT_KINDS]
    sizes = {kind: len(pools[kind]) for kind in clijobs.LIGHT_KINDS}
    r = 0
    while True:
        yield drawer.round(r, layout, sizes)
        r += 1


def run_cli(seed: int, budget: Budget, speed: SpeedSampler) -> dict:
    """cli_jobs, with the sampler running throughout."""
    pools = cli_pools()
    log = JobLog(budget, speed)
    setups = [log.run("help", 0, clijobs.HELP)[0] for _ in range(SETUP_SAMPLES)]
    rounds = light_rounds(seed, pools)
    light_ops = [op for _ in range(CLI_LIGHT_ROUNDS) for op in next(rounds)]
    # Every job runs CLI_PASSES times, a whole pass apart, and its time is
    # the fastest of its runs: calibration tracks the machine's speed only
    # roughly over a process's lifetime.
    light_runs: list[list[float]] = []
    long_runs: list[dict[str, float]] = []
    for _ in range(CLI_PASSES):
        light_runs.append([log.run(cell, index, pools[cell][index])[0] for cell, index in light_ops])
        long_runs.append({name: log.run(name, 0, argv)[0] for name, argv in clijobs.LONG_JOBS.items()})
    light = [min(times) for times in zip(*light_runs)]
    long = {name: min(p[name] for p in long_runs) for name in clijobs.LONG_JOBS}
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tail = TAIL_PERCENTILE["cli_jobs"]
    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "mismatched": log.mismatched,
        "notes": log.notes,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak, "MB"),
            "rate_per_s": metric(len(light) / sum(light), "1/s"),
            "p50_ms": metric(statistics.median(light) * 1e3, "ms"),
            "tail_ms": metric(percentile(light, tail) * 1e3, "ms"),
            "heavy_stratum_s": metric(sum(long.values()), "s"),
        },
        "named": {
            "cli.light_p50_s": metric(statistics.median(light), "s"),
            f"cli.light_p{tail}_s": metric(percentile(light, tail), "s"),
            "cli.heavy_s": metric(long["pkf32"] + long["tasaki32"], "s"),
            "cli.selftest_s": metric(long["selftest"], "s"),
            "cli.mc_s": metric(long["mc"], "s"),
        },
        "detail": {"light_jobs": len(light), "long_jobs_s": long_runs, "setup_samples_s": setups,
                   "raw_wall_s": sum(log.raw_walls)},
    }


def trace_cli(seed: int, budget: Budget, speed: SpeedSampler) -> dict:
    """`uval --help`, CLI_TRACE_LIGHT_ROUNDS of light jobs and the long jobs,
    each run untraced and then traced."""
    pools = cli_pools()
    log = JobLog(budget, speed)
    rounds = light_rounds(seed, pools)
    jobs = [("help", 0)] + [op for _ in range(CLI_TRACE_LIGHT_ROUNDS) for op in next(rounds)]
    jobs += [(name, 0) for name in clijobs.LONG_JOBS]
    plain, traced, snaps, imports, overheads = {}, {}, [], [], []
    for cell, index in jobs:
        argv = pools[cell][index]
        plain[cell, index] = log.run(cell, index, argv)[0]
        traced[cell, index], info = log.run(cell, index, argv, trace=True)
        if info:
            snaps.append(info["trace"])
            imports.append(info["import_s"])
            overheads.append(info["wall_s"] - info["import_s"] - info["main_s"])
    layers = layer_metrics(merge(snaps))
    layers.update({
        "cones.member_frac.P": 0.0, "cones.member_frac.M": 0.0, "cones.member_frac.CP": 0.0,
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.process_overhead_s": statistics.median(overheads) if overheads else 0.0,
        "cli.heavy_s": plain["pkf32", 0] + plain["tasaki32", 0],
        "cli.selftest_s": plain["selftest", 0],
        "cli.mc_s": plain["mc", 0],
        "trace.overhead_frac": sum(traced.values()) / sum(plain.values()) - 1,
    })
    return {
        "attempted": log.attempted,
        "failed": log.failed,
        "mismatched": log.mismatched,
        "notes": log.notes,
        "layers": layers,
        "detail": {"jobs": len(jobs), "spans": str(OUT.relative_to(ROOT)) + "/cli_job_*.spans.tsv"},
    }


# ----------------------------------------------------------------------
# reporting

def environment(workload: str, args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy_version, "nproc": nproc(),
        "commit": commit, "src_sha256": tree.hexdigest(),
    }


def run_one(workload: str, args) -> int:
    """Run one workload and print its report; the last line is its JSON."""
    budget = Budget(RUN_BUDGET_S)
    try:
        if workload == "cli_jobs":
            with SpeedSampler() as speed:
                res = (trace_cli if args.trace else run_cli)(args.seed, budget, speed)
        elif args.trace:
            res = trace_inproc(workload, args.seed, budget)
        else:
            res = run_inproc(workload, args.seed, args.seconds, budget)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {workload}: {exc}\n")
        return 1

    env = environment(workload, args)
    if args.trace:
        metrics = {name: metric(value, layer_unit(name)) for name, value in res["layers"].items()}
        named = {}
    else:
        metrics, named = res["metrics"], res["named"]
    failed_frac = res["failed"] / res["attempted"]
    print("env " + json_text(env))
    for name, m in sorted({**metrics, **named}.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed_frac:.6g} ({res['failed']} of {res['attempted']})")
    for note in res["notes"][:10]:
        print(f"note: {note}")
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "failed_frac": failed_frac, **res}
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json_text({
        "correct": res["mismatched"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="uval benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_checkout()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(workload, args) for workload in chosen)


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("min_eps_log10"):
        return "log10"
    if name.endswith("per_s_per_thread"):
        return "1/s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
