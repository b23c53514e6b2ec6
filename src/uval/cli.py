"""The `uval` command line: scriptable access to the valuation algebra.

The eleven subcommands are the keys of _COMMANDS.  Output is
deterministic (stable ordering everywhere) and UTF-8; `--json` switches
to the machine format.  Exit codes: 0 success, 1 failed selftest or
undecidable sign, 2 usage error.

Every --n is at most a cap per subcommand (MAX_N, else DEFAULT_MAX_N),
and mc --samples at most grassmann.MAX_SAMPLES; larger values exit 2
before any work.

At module level this imports no core module: each subcommand imports
the modules it runs, and main() imports uval.scalar only to map an
undecided sign to exit 1, so `uval --help`, a usage error or an --n cap
refusal compiles no core module.  main() parses --val, after the --n cap
check, for the six subcommands that take it.  When its first argument
names a subcommand, main() builds the parser of that subcommand alone;
anything else (no arguments, --help, an unknown name, an option first)
builds all eleven.  Each parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

__all__ = ["main"]

# Largest --n per subcommand.  Each cap keeps the heaviest input within
# about 20 s on one core (whole processes, 2 shared cores, Python 3.11):
# at n = 32 pkf takes 0.3 s, additive of (chi+t)^64 7.5-9 s and
# convert --to prim of it 0.3 s; the Gram-inverse Tasaki matrix takes at
# most 0.8 s at n = 64 (k = 63).  mc holds one MC_BLOCK of 2n x 2n
# matrices and their normals per thread, about 11 MB at n = 8; the whole
# process with --threads 2 peaks near 61 MB there.
MAX_N = {"tasaki": 64, "mc": 8}
DEFAULT_MAX_N = 32


def _emit(args, payload, text) -> int:
    """Print payload() as JSON under --json, else text(); both are
    zero-argument callables, so only the output asked for is built."""
    if args.json:
        import json

        print(json.dumps(payload(), sort_keys=True, separators=(",", ":")))
    else:
        print(text())
    return 0


def _tensor_cmd(args, tensor) -> int:
    if getattr(args, "cpn", False):
        from .kinematic import cpn_normalize

        tensor = cpn_normalize(tensor)
    return _emit(args, tensor.to_json, tensor.pretty)


def _cmd_tasaki(args) -> int:
    from .kinematic import tasaki_matrix_closed, tasaki_matrix_oracle

    route = tasaki_matrix_oracle if args.oracle else tasaki_matrix_closed
    t = route(args.n, args.k)
    return _emit(args, t.to_json, t.pretty)


def _cmd_pkf(args) -> int:
    from .kinematic import principal_kinematic

    return _tensor_cmd(args, principal_kinematic(args.n))


def _cmd_kinematic(args) -> int:
    from .kinematic import kinematic

    return _tensor_cmd(args, kinematic(args.n, args.val))


def _cmd_additive(args) -> int:
    from .kinematic import additive_kinematic

    return _tensor_cmd(args, additive_kinematic(args.n, args.val))


def _cmd_cone(args) -> int:
    from .cones import is_crofton_positive, is_monotone, is_positive

    test = {
        "positive": is_positive,
        "monotone": is_monotone,
        "crofton": is_crofton_positive,
    }[args.test]
    verdict = test(args.val)
    return _emit(args, verdict.to_json,
                 lambda: "member" if verdict.member else f"not a member; witness: {verdict.witness}")


def _cmd_convert(args) -> int:
    from .valuation import _format_combo, tau_coords, to_monomial

    v, n = args.val, args.n
    if args.to == "mu":
        return _emit(args, v.to_json, lambda: str(v))
    if args.to == "mono":
        p = to_monomial(v)
        return _emit(args, lambda: {"n": n, "basis": "mono", "poly": p.to_json()}, lambda: str(p))
    if args.to == "tau":
        terms = []
        for k in v.degrees():
            coords = tau_coords(v, k)
            if k <= n:
                terms += [(c, f"tau[{k},{j}]") for j, c in enumerate(coords)]
            else:
                terms += [(c, f"F(tau[{2 * n - k},{j}])") for j, c in enumerate(coords)]
        text = _format_combo(terms)
    else:  # prim
        from .sl2 import lefschetz_decompose

        text = _format_combo([(c, f"pi[{k},{r}]") for k, r, c in lefschetz_decompose(v)])
    return _emit(args, lambda: {"n": n, "basis": args.to, "expr": text}, lambda: text)


def _cmd_sl2(args) -> int:
    from .sl2 import Sl2Operator

    out = Sl2Operator(args.op).apply(args.val)
    return _emit(args, out.to_json, lambda: str(out))


def _cmd_primitive(args) -> int:
    from .sl2 import primitive_general

    v = primitive_general(args.n, args.k, args.r)
    return _emit(args, v.to_json, lambda: str(v))


def _cmd_delta(args) -> int:
    from .cones import first_variation

    expr = first_variation(args.n, args.val)
    return _emit(args, lambda: [{"symbol": sym, "k": k, "q": q, "coeff": c.to_json()}
                                for (sym, k, q), c in expr.items()], lambda: str(expr))


def _cmd_mc(args) -> int:
    from .grassmann import Frame, mc_crofton  # numpy import stays lazy

    def parse_angles(text: str) -> list[float]:
        text = text.strip()
        if not text:
            return []
        return [float(x) for x in text.split(",")]

    n, k = args.n, args.k
    e_frame = Frame.from_angles(n, k, parse_angles(args.angles))
    co = Frame.from_angles(n, k, parse_angles(args.co_angles))
    f_frame = co.complement()
    seed = args.seed
    if seed is None:
        text = os.environ.get("UVAL_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"UVAL_SEED must be an integer, got {text!r}") from None
    result = mc_crofton(n, k, e_frame, f_frame, args.samples, seed=seed, threads=args.threads)
    return _emit(args, result.to_json, lambda: (
        f"estimate {result.estimate:.6f}  stderr {result.stderr:.2e}  "
        f"prediction {result.prediction_exact} = {result.prediction_float:.6f}  "
        f"sigma {result.sigma:.2f}"
    ))


def _check_n(args) -> None:
    """Refuse an --n above the subcommand's cap, before any work."""
    n, cap = getattr(args, "n", None), MAX_N.get(args.command, DEFAULT_MAX_N)
    if n is not None and n > cap:
        raise ValueError(f"{args.command} --n is at most {cap}, got {n}")


def _cmd_selftest(args) -> int:
    from .checks import run_selftest  # the registry loads only for selftest

    _, failed = run_selftest(args.level)
    return 1 if failed else 0


# Every option by flag, each declared once: --json goes on every
# subcommand, --n on every one but selftest, the rest where named.
_OPTIONS = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--n": {"type": int, "required": True},
    "--k": {"type": int, "required": True},
    "--r": {"type": int, "required": True},
    "--val": {"required": True},
    "--cpn": {"action": "store_true", "help": "CP^n probability normalization"},
    "--oracle": {"action": "store_true", "help": "use the Gram-inverse route"},
    "--test": {"choices": ("positive", "monotone", "crofton"), "required": True},
    "--to": {"choices": ("mu", "tau", "mono", "prim"), "required": True},
    "--op": {"choices": ("L", "Lambda", "H"), "required": True},
    "--angles": {"default": "", "help": "Kaehler angles of E (radians, comma separated)"},
    "--co-angles": {"dest": "co_angles", "default": "", "help": "angles of the complement of F"},
    "--samples": {"type": int, "default": 100_000},
    "--seed": {"type": int, "default": None, "help": "default: UVAL_SEED, else 0"},
    "--threads": {"type": int, "default": 1},
    "--level": {"choices": ("quick", "full"), "default": "full"},
}


# Every subcommand: name -> (handler, help, options beyond the shared
# --json and --n).  _build_parser and main read the names from here alone.
_COMMANDS = {
    "tasaki": (_cmd_tasaki, "print the Tasaki matrix T^n_k", "--k", "--oracle"),
    "pkf": (_cmd_pkf, "principal kinematic tensor k(chi)", "--cpn"),
    "kinematic": (_cmd_kinematic, "kinematic tensor of a valuation", "--val", "--cpn"),
    "additive": (_cmd_additive, "additive kinematic tensor of a valuation", "--val"),
    "cone": (_cmd_cone, "cone membership tests", "--test", "--val"),
    "convert": (_cmd_convert, "rewrite a valuation in another basis", "--val", "--to"),
    "sl2": (_cmd_sl2, "apply an sl(2) operator", "--op", "--val"),
    "primitive": (_cmd_primitive, "the primitive element pi_{k,r}", "--k", "--r"),
    "delta": (_cmd_delta, "first-variation curvature measure", "--val"),
    "mc": (_cmd_mc, "Monte-Carlo Crofton check for flat discs",
           "--k", "--angles", "--co-angles", "--samples", "--seed", "--threads"),
    "selftest": (_cmd_selftest, "run the invariant suite", "--level"),
}


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand, or of all of them for None, built
    once per process; each handler is bound here.  A one-command parser
    names every subcommand in its usage line, as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="uval",
        description="Exact hermitian integral geometry: unitary-invariant "
        "valuations, Tasaki matrices, kinematic formulas, cones.",
    )
    # a metavar on the full parser would rename it in "arguments are required"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        fn, help_text, *flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        shared = ("--json",) if name == "selftest" else ("--json", "--n")
        for flag in (*shared, *flags):
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named subcommand builds its own parser only; anything else, all
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        _check_n(args)  # before --val, so an over-cap --n costs no parse
        if hasattr(args, "val"):
            from .valspec import parse_valspec

            args.val = parse_valspec(args.val, args.n)
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:  # loads no core module
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        from .scalar import UndecidableSignError

        if not isinstance(exc, UndecidableSignError):
            raise  # OverflowError and the like are not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
