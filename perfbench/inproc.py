"""Child process of the in-process workloads (cone_sweep, algebra_warm).

    python3 perfbench/inproc.py --workload NAME --seed N
                                (--seconds S | --rounds R) [--trace SPANS_PATH]

Imports uval, builds the input pools, runs one warm-up round and prints
READY.  It then waits for a line on stdin: GO starts the measured phase,
end of input exits.  The measured phase runs whole epochs (see
common.epoch_rounds) until S seconds have passed, or exactly R rounds, and prints one JSON line with the
summary.  With --trace the tracer is installed right after the import, so
the set-up is traced too, and the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import statistics
import sys
import time
from array import array
from time import perf_counter_ns

from common import (
    CALIBRATION_REF_S, Drawer, calibrate, digest, epoch_rounds, json_text, load_refs, percentile,
    sequence_digest,
)

MAX_NOTES = 20


def run_round(wl, ops, refs, tracer, first_request, acc) -> None:
    """Run one round of (cell, pool index) operations and account for
    every one of them.  Latencies are normalised by calibration runs just
    before and after the round (see common.calibrate)."""
    before = [calibrate() for _ in range(3)]
    heavy_ns = raw_ns = 0
    latencies = []
    for i, (cell, index) in enumerate(ops):
        item = wl.pools[cell][index]
        if tracer is not None:
            tracer.request = first_request + i
        start = perf_counter_ns()
        raw = wl.call(cell, item)
        took = perf_counter_ns() - start
        raw_ns += took
        latencies.append(took)
        if cell in wl.heavy_cells:
            heavy_ns += took
        texts, bad = wl.outputs(cell, item, raw)
        # references are listed in the order the workload emits its classes
        expected = refs["cells"][cell][index]
        raised = False
        for (cls, text), ref in zip(texts.items(), expected, strict=True):
            if text is None:
                raised = True
                acc["digests"][cls].update(b"raised\n")
                continue
            d = digest(text)
            acc["digests"][cls].update(d.encode() + b"\n")
            if d != ref:
                bad.append(f"{cls}: output differs from its reference")
        if len(acc["notes"]) < MAX_NOTES:
            acc["notes"] += [f"{cell}#{index}: {note}" for note in bad]
        mismatched = bool(bad)
        acc["attempted"] += 1
        acc["failed"] += raised or mismatched
        acc["raised"] += raised
        acc["mismatched"] += mismatched
    scale = CALIBRATION_REF_S / statistics.median(before + [calibrate() for _ in range(3)])
    acc["latency_ns"].extend(took * scale for took in latencies)
    acc["heavy_round_ns"].append(heavy_ns * scale)
    acc["raw_ns"] += raw_ns


def new_accumulator(wl) -> dict:
    return {
        "latency_ns": array("d"), "heavy_round_ns": [], "raw_ns": 0,
        "digests": {c: hashlib.sha256() for c in wl.classes},
        "notes": [], "attempted": 0, "failed": 0, "raised": 0, "mismatched": 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args()

    start = time.perf_counter()
    import uval  # noqa: F401  (the import time is a reported number)
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    refs = load_refs(args.workload)
    if refs["pool_sha256"] != sequence_digest([wl.pool_text()]):
        sys.stderr.write("perfbench: input pools differ from the ones the references were made from\n")
        return 2
    wl.warm_up()
    warm = Drawer(args.seed, "warm")
    run_round(wl, warm.round(0, wl.layout, wl.pool_sizes), refs, tracer, 0, new_accumulator(wl))
    wl.tally.clear()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0

    drawer = Drawer(args.seed, "run")
    epoch = epoch_rounds(wl.layout, wl.pool_sizes)
    acc = new_accumulator(wl)
    deadline = time.perf_counter() + (args.seconds or 0)
    rounds = 0
    while True:
        ops = drawer.round(rounds, wl.layout, wl.pool_sizes)
        run_round(wl, ops, refs, tracer, acc["attempted"], acc)
        rounds += 1
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif rounds % epoch == 0 and time.perf_counter() >= deadline:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the summaries
    lat = acc["latency_ns"]
    busy_s = sum(lat) / 1e9
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "raised": acc["raised"],
        "mismatched": acc["mismatched"],
        "notes": acc["notes"][:MAX_NOTES],
        "busy_s": busy_s,
        "rate_per_s": len(lat) / busy_s,
        "p50_ms": statistics.median(lat) / 1e6,
        "p90_ms": percentile(lat, 90) / 1e6,
        "p99_ms": percentile(lat, 99) / 1e6,
        "heavy_s": statistics.fmean(acc["heavy_round_ns"]) / 1e9,
        "raw_busy_s": acc["raw_ns"] / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "digests": {cls: h.hexdigest() for cls, h in acc["digests"].items()},
        "tally": dict(wl.tally),
    }
    if tracer is not None:
        tracer.write_spans(args.trace)
        result["trace"] = tracer.snapshot()
    print(json_text(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
