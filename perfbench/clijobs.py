"""The cli_jobs workload: fresh `python -m uval.cli` processes, one at a time.

Light jobs come from a fixed pool per subcommand; a round runs one job of
each kind, drawn by the seed.  The long jobs are fixed: the principal
kinematic tensor and the Gram-inverse Tasaki matrix at n = 32 (cold
caches), the full selftest, and a 10^6-sample Monte-Carlo check on two
threads.  Every job's stdout is compared with its stored SHA-256.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from common import HERE, OUT, ROOT, child_env, digest

LIGHT_KINDS = ("tasaki", "convert_tau", "convert_mono", "convert_prim", "sl2", "primitive",
               "delta", "cone", "kinematic", "additive", "pkf")
LIGHT_POOL = 4


def _expression(rng: random.Random, n: int, terms: int) -> str:
    def atom() -> str:
        k = rng.randint(0, 2 * n)
        choice = rng.randrange(6)
        if choice <= 1:
            return f"mu[{k},{rng.randint(max(0, k - n), k // 2)}]"
        if choice == 2:
            return f"tau[{k},{rng.randint(0, k // 2)}]"
        if choice == 3:
            k = rng.randint(0, n)
            return f"F(tau[{k},{rng.randint(0, k // 2)}])"
        return rng.choice(("t", "u", "s", "chi", "vol", "t^2", "t*u"))

    def coeff() -> str:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        return rng.choice((f"{a}", f"({a}/{b})", "pi", f"({a}*pi)", f"({a}/pi)", f"({a}/({b}*pi))"))

    text = f"{coeff()}*{atom()}"
    for _ in range(terms - 1):
        text += rng.choice((" + ", " - ")) + f"{coeff()}*{atom()}"
    return text


def light_pool(kind: str) -> list[list[str]]:
    rng = random.Random(f"pool:cli_jobs:{kind}")
    pool = []
    for _ in range(LIGHT_POOL):
        if kind == "tasaki":
            n = rng.randint(2, 16)
            argv = ["tasaki", "--n", str(n), "--k", str(rng.randint(0, n))]
        elif kind.startswith("convert_"):
            n = rng.randint(2, 8)
            argv = ["convert", "--n", str(n), "--val", _expression(rng, n, 3), "--to", kind[8:]]
        elif kind == "sl2":
            n = rng.randint(2, 8)
            argv = ["sl2", "--n", str(n), "--op", rng.choice(("L", "Lambda", "H")),
                    "--val", _expression(rng, n, 3)]
        elif kind == "primitive":
            n = rng.randint(2, 12)
            r = rng.randint(0, n // 2)
            argv = ["primitive", "--n", str(n), "--k", str(rng.randint(2 * r, 2 * n - 2 * r)),
                    "--r", str(r)]
        elif kind == "delta":
            n = rng.randint(2, 8)
            argv = ["delta", "--n", str(n), "--val", _expression(rng, n, 3)]
        elif kind == "cone":
            n = rng.randint(2, 6)
            argv = ["cone", "--n", str(n), "--test", rng.choice(("positive", "monotone", "crofton")),
                    "--val", _expression(rng, n, 2)]
        elif kind in ("kinematic", "additive"):
            n = rng.randint(2, 6)
            argv = [kind, "--n", str(n), "--val", _expression(rng, n, 1)]
        else:
            argv = ["pkf", "--n", str(rng.randint(2, 16))]
        if rng.random() < 0.5:
            argv.append("--json")
        pool.append(argv)
    return pool


# With every BLAS/OpenMP pool pinned to one thread, the mc job's two
# threads are the only extra threads of a run (2 cores on the reference
# machine).
LONG_JOBS = {
    "pkf32": ["pkf", "--n", "32", "--json"],
    "tasaki32": ["tasaki", "--n", "32", "--k", "32", "--oracle", "--json"],
    "selftest": ["selftest", "--level", "full"],
    "mc": ["mc", "--n", "4", "--k", "3", "--angles", "0.3", "--co-angles", "0.7",
           "--samples", "1000000", "--threads", "2"],
}


HELP = ["--help"]


def pools() -> dict[str, list[list[str]]]:
    """Every job the workload can run, by cell."""
    out = {kind: light_pool(kind) for kind in LIGHT_KINDS}
    out.update({name: [argv] for name, argv in LONG_JOBS.items()})
    out["help"] = [HELP]
    return out


def run_job(argv: list[str], timeout: float, trace: bool = False) -> tuple[float, float, int, str, dict]:
    """Run one job in a fresh interpreter through cli_job.py.

    Returns (start, end, exit code, stdout digest, record), where the record
    is what cli_job.py wrote ({} if it wrote none).  A job that times out
    reports exit code -1.
    """
    OUT.mkdir(exist_ok=True)
    record = OUT / "cli_job.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "cli_job.py"), str(record), *(["--trace"] if trace else []), "--", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return start, time.perf_counter(), -1, "", {}
    end = time.perf_counter()
    info = json.loads(record.read_text(encoding="utf-8")) if record.exists() else {}
    if trace and info:
        record.with_suffix(".spans.tsv").replace(OUT / f"cli_job_{digest(json.dumps(argv))}.spans.tsv")
    return start, end, proc.returncode, digest(proc.stdout), info
