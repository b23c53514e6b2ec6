"""Pinned outputs of the uval command line, as SHA-256 prefixes per
subcommand: the exit code, stdout and stderr of every subcommand but mc
and selftest, in text and --json, run in process through cli.main, on
valid inputs, valuation expressions that do not parse and arguments out
of range.  Usage errors are pinned by their exit code alone, since
argparse words its messages differently between Python versions."""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from uval.cli import main

VALS = [
    "chi", "t", "vol", "(chi+t)^3", "mu[2,1] - pi*tau[1,0]", "F(t^2) + 3/2*u", "u/pi^2 + s",
    "pi[2,1] - 2*chi", "iota(tau[2,0])", "-t^2 + (1+pi)*mu[3,1]", "mu[4,2]*pi^-1 - mu[3,1]",
]
BAD_VALS = ["mu[2,", "tau[2 2]", "chi + ?", "nosuch", "chi / vol", "t^-1", "F(t", "mu[5,0]", "pi[3,2]", "2**t"]


def _cases():
    """(family, argv) over every subcommand but mc and selftest."""
    for n in range(1, 7):
        for k in range(n + 1):
            yield "tasaki", ["tasaki", "--n", str(n), "--k", str(k)]
            yield "tasaki", ["tasaki", "--n", str(n), "--k", str(k), "--oracle"]
        yield "pkf", ["pkf", "--n", str(n)]
        yield "pkf", ["pkf", "--n", str(n), "--cpn"]
    for n in (1, 3):
        for val in VALS:
            yield "kinematic", ["kinematic", "--n", str(n), "--val", val]
            yield "additive", ["additive", "--n", str(n), "--val", val]
            for test in ("positive", "monotone", "crofton"):
                yield "cone", ["cone", "--n", str(n), "--test", test, "--val", val]
            for to in ("mu", "tau", "mono", "prim"):
                yield "convert", ["convert", "--n", str(n), "--val", val, "--to", to]
            for op in ("L", "Lambda", "H"):
                yield "sl2", ["sl2", "--n", str(n), "--op", op, "--val", val]
            yield "delta", ["delta", "--n", str(n), "--val", val]
    for n in range(1, 5):
        yield "kinematic", ["kinematic", "--n", str(n), "--val", "t", "--cpn"]
        for k in range(2 * n + 1):
            for r in range(min(k, 2 * n - k) // 2 + 2):
                yield "primitive", ["primitive", "--n", str(n), "--k", str(k), "--r", str(r)]
    for val in BAD_VALS:
        for command in (["kinematic"], ["cone", "--test", "crofton"], ["convert", "--to", "tau"]):
            yield "valspec_errors", [*command, "--n", "2", "--val", val]
        for command in (["additive"], ["sl2", "--op", "L"], ["delta"]):
            yield "valspec_errors_more", [*command, "--n", "2", "--val", val]
    for argv in (["tasaki", "--n", "2", "--k", "7"], ["tasaki", "--n", "3", "--k", "4", "--oracle"],
                 ["pkf", "--n", "33"], ["tasaki", "--n", "65", "--k", "0"], ["primitive", "--n", "2", "--k", "5", "--r", "0"],
                 ["cone", "--n", "40", "--test", "positive", "--val", "chi"]):
        yield "range_errors", argv


USAGE_ERRORS = [
    [], ["--help"], ["nosuch"], ["tasaki", "--n", "2"], ["tasaki", "--n", "x", "--k", "1"],
    ["cone", "--n", "2", "--test", "bogus", "--val", "chi"], ["convert", "--n", "2", "--val", "t", "--to", "x"],
    ["pkf", "--help"], ["sl2", "--n", "2", "--op", "M", "--val", "t"], ["primitive", "--n", "2", "--k", "1"],
]


def _run(argv):
    """(exit code, stdout, stderr) of one in-process run of main; an error
    that main lets through, which would end a process with a traceback,
    takes the place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _digests():
    """Per family, the first 16 hex digits of the SHA-256 of its lines."""
    hashes = {}

    def record(family, line):
        hashes.setdefault(family, hashlib.sha256()).update(f"{line}\n".encode())

    for family, argv in _cases():
        for fmt in ([], ["--json"]):
            record(family, repr((argv + fmt, *_run(argv + fmt))))
    for argv in USAGE_ERRORS:
        record("usage_errors", repr((argv, _run(argv)[0])))
    return {f: h.hexdigest()[:16] for f, h in hashes.items()}


# computed from the same runs while each stored vector held floor(k/2)+1
# numerators, zero below q_range; valspec_errors_more while each --val
# subcommand parsed --val in its own handler
PINNED_DIGESTS = {
    "tasaki": "669092a33a42b22a",
    "pkf": "f767976698a92c9e",
    "kinematic": "c32c91902a79d3be",
    "additive": "0a26619c8c5b75b6",
    "cone": "6a05dbcea30b1e04",
    "convert": "a982cc04691ebd38",
    "sl2": "e74bb76fcc4a4849",
    "delta": "0b75a3ade2003a55",
    "primitive": "84616f920bcb6fab",
    "valspec_errors": "7c9c39c13cddcb10",
    "valspec_errors_more": "b586b97e92c9bd0b",
    "range_errors": "27e8d66669138b2d",
    "usage_errors": "65990fcff160b73a",
}


def test_cli_outputs_pinned():
    got = _digests()
    assert set(got) == set(PINNED_DIGESTS)
    differ = [family for family, want in PINNED_DIGESTS.items() if got[family] != want]
    assert not differ, f"{', '.join(differ)} outputs differ from the pinned ones"
