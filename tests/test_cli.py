"""The valuation expression grammar and the uval command line."""

import importlib
import io
import json
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from pi_convergents import CONVERGENTS

from uval.cli import main
from uval.kinematic import primitive_pairing_closed, principal_kinematic, tasaki_matrix_closed, tasaki_matrix_oracle
from uval.scalar import Scalar
from uval.cli import _COMMANDS, _OPTIONS, DEFAULT_MAX_N, MAX_N, _build_parser
from uval.grassmann import MAX_SAMPLES
from uval.valspec import MAX_NESTING, MAX_POWER_TERMS, ValSpecError, parse_valspec
from uval.valuation import Valuation, chi, fourier, iota, mu, multiply, q_range, tau, vol


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# parser

def test_parse_atoms():
    assert parse_valspec("chi", 3) == mu(3, 0, 0)
    assert parse_valspec("vol", 2) == mu(2, 4, 2)
    assert parse_valspec("mu[2,1]", 2) == mu(2, 2, 1)
    assert parse_valspec("tau[2,0]", 2) == tau(2, 2, 0)


def test_parse_u_definition():
    for n in (1, 2, 3):
        assert parse_valspec("4*s - t^2", n) == parse_valspec("u", n)


def test_parse_fourier_delegation():
    assert parse_valspec("F(tau[2,1])", 2) == fourier(tau(2, 2, 1))
    assert parse_valspec("iota(tau[2,0])", 2) == iota(tau(2, 2, 0))


def test_parse_powers_are_products():
    t = parse_valspec("t", 2)
    assert parse_valspec("t^2", 2) == multiply(t, t)
    assert parse_valspec("t^0", 2) == chi(2)
    # powers by repeated squaring equal repeated products, also with a chi part
    bases = ["t", "chi + t", "3/2*chi - pi*mu[1,0] + s", "2/pi * tau[1,0] - 1/3 * chi + u"]
    for n in range(1, 4):
        for text in bases:
            base = parse_valspec(text, n)
            want = chi(n)
            for k in range(13):
                assert parse_valspec(f"({text})^{k}", n) == want, (n, text, k)
                want = multiply(want, base)


def test_parse_huge_power_of_nilpotent_is_fast():
    start = time.perf_counter()
    assert parse_valspec("t^10000000", 1).is_zero
    assert time.perf_counter() - start < 1.0


def _timed_cli(argv):
    """(exit code, stdout, stderr, seconds) of one in-process run."""
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    return code, out, err.getvalue(), time.perf_counter() - start


def test_parse_nesting_limit():
    deep = MAX_NESTING + 1
    for text, offset in (
        ("(" * 3000 + "chi" + ")" * 3000, MAX_NESTING),
        ("F(" * 400 + "chi" + ")" * 400, 2 * MAX_NESTING),
        ("iota(" * deep + "chi" + ")" * deep, 5 * MAX_NESTING),
        ("(" * deep + "chi" + ")" * deep, MAX_NESTING),
    ):
        with pytest.raises(ValSpecError, match="nesting deeper") as exc:
            parse_valspec(text, 2)
        assert exc.value.pos == offset
        code, out, err, took = _timed_cli(["convert", "--n", "2", "--val", text, "--to", "mu"])
        assert (code, out) == (2, "") and "nesting deeper" in err
        assert took < 1.0
    # unary minus folds in a loop: any run length parses
    assert parse_valspec("-" * 100_000 + "tau[1,0]", 2) == tau(2, 1, 0)
    assert parse_valspec("-" * 3001 + "tau[1,0]", 2) == -tau(2, 1, 0)
    t = parse_valspec("t", 2)
    assert parse_valspec("--t^2", 2) == multiply(t, t)  # two minus signs cancel
    assert parse_valspec("chi - -t", 2) == chi(2) + t
    # nesting up to the limit, mixing all three kinds
    third = MAX_NESTING // 3
    want = tau(2, 2, 1)
    for _ in range(third):
        want = fourier(iota(want))
    assert parse_valspec("F(iota((" * third + "tau[2,1]" + ")))" * third, 2) == want
    top = "(" * MAX_NESTING + "-chi" + ")" * MAX_NESTING
    assert parse_valspec(top, 2) == -chi(2)


def test_parse_power_budget():
    # refused before any work: the result would need more decimal digits
    # than sys.get_int_max_str_digits()
    for text in ("2^20000", "2^1000000000000", "(2*chi+t)^1000000000000", "(2/3)^-1000000000000"):
        code, out, err, took = _timed_cli(["convert", "--n", "2", "--val", text, "--to", "mu"])
        assert (code, out) == (2, "") and "power too large" in err, text
        assert took < 1.0, text
    # a unit chi coefficient (or none) keeps the sizes small at any exponent
    for text, n in (("t^10000000", 1), ("(chi+t)^1000000000000", 2), ("(pi*chi-t)^1000000000000", 1)):
        code, out, err, took = _timed_cli(["convert", "--n", str(n), "--val", text, "--to", "mu"])
        assert code == 0 and err == "", text
        assert took < 1.0, text
    k = 10**12
    assert parse_valspec(f"(chi+t)^{k}", 1) == chi(1) + parse_valspec(f"{k}*t + {k * (k - 1) // 2}*t^2", 1)
    # below the budget the power is computed as before
    assert parse_valspec("2^14000", 1) == chi(1) * 2**14000
    # the term budget: (1+pi)^k has k + 1 powers of pi
    for text in ("(1+pi)^2000", "(chi+pi*chi)^2000", "(pi^-1+pi)^200"):
        code, out, err, took = _timed_cli(["convert", "--n", "2", "--val", text, "--to", "mu"])
        assert (code, out) == (2, "") and "powers of pi" in err, text
        assert took < 1.0, text
    cube = parse_valspec("(1+pi)^3", 1)
    assert cube == chi(1) * Scalar({0: 1, 1: 3, 2: 3, 3: 1})
    # at the budget the power still answers, with every power of pi
    top = parse_valspec(f"(1+pi)^{MAX_POWER_TERMS - 1}", 1).coefficient(0, 0)
    assert len(top.items()) == MAX_POWER_TERMS


def test_parse_scalar_literals():
    assert parse_valspec("3/4", 2) == chi(2) * Fraction(3, 4)
    assert parse_valspec("pi", 2) == chi(2) * Scalar.pi(1)
    assert parse_valspec("2/pi * mu[1,0]", 2) == mu(2, 1, 0) * (
        Scalar.of(2) / Scalar.pi(1)
    )
    assert parse_valspec("pi^2 * chi - vol", 1) == chi(1) * Scalar.pi(2) - vol(1)


def test_parse_unary_minus_binds_looser_than_power():
    assert parse_valspec("-pi^2", 2) == chi(2) * Scalar.of(-1, 2)
    assert parse_valspec("-2^2", 2) == chi(2) * -4
    t = parse_valspec("t", 2)
    assert parse_valspec("-t^2", 2) == -multiply(t, t)
    assert parse_valspec("2*-pi^2", 2) == chi(2) * Scalar.of(-2, 2)
    assert parse_valspec("(-pi)^2", 2) == chi(2) * Scalar.pi(2)


def test_parse_number_before_pi_is_a_product():
    # the forms Scalar prints: p*pi^e, p*pi^e/q, p/(q*pi^e)
    assert parse_valspec("3π", 2) == chi(2) * Scalar.of(3, 1)
    assert parse_valspec("-3π^2/4", 2) == chi(2) * Scalar.of(Fraction(-3, 4), 2)
    assert parse_valspec("(3/(4π^2) + 2π)*mu[1,0]", 2) == mu(2, 1, 0) * Scalar({-2: Fraction(3, 4), 1: 2})
    assert parse_valspec("2pi", 2) == chi(2) * Scalar.of(2, 1)
    with pytest.raises(ValSpecError):
        parse_valspec("3 π", 2)  # only a number written straight before pi
    with pytest.raises(ValSpecError):
        parse_valspec("2^3π", 2)


def test_parse_primitive_atom():
    from uval.sl2 import primitive_general

    assert parse_valspec("pi[2,1]", 2) == primitive_general(2, 2, 1)
    assert parse_valspec("pi[2,1] + pi*chi", 2) == primitive_general(2, 2, 1) + chi(
        2
    ) * Scalar.pi(1)


def test_parse_errors_carry_offsets():
    with pytest.raises(ValSpecError) as exc:
        parse_valspec("mu[2,", 2)
    assert exc.value.pos >= 5
    with pytest.raises(ValSpecError):
        parse_valspec("tau[2 2]", 2)
    with pytest.raises(ValSpecError) as exc:
        parse_valspec("chi + ?", 2)
    assert exc.value.pos == 6
    # a character offset: "?" is character 4 of the text but byte 5 of its UTF-8
    with pytest.raises(ValSpecError) as exc:
        parse_valspec("π + ?", 2)
    assert exc.value.pos == 4
    with pytest.raises(ValSpecError):
        parse_valspec("mu[2,0]", 1)  # out of range at n = 1
    with pytest.raises(ValSpecError):
        parse_valspec("nosuch", 2)
    with pytest.raises(ValSpecError):
        parse_valspec("chi / vol", 2)
    with pytest.raises(ValSpecError):
        parse_valspec("t^-1", 2)


def test_parse_only_ascii_digits_are_numbers():
    # superscripts and other scripts' digits are unexpected characters at
    # their offset, not numbers
    for text, pos in (("t^\u00b2", 2), ("\u0663*t", 0), ("mu[2,\u0661]", 5), ("(chi+t)^\u00b9\u2070", 8)):
        with pytest.raises(ValSpecError, match="unexpected character") as exc:
            parse_valspec(text, 2)
        assert exc.value.pos == pos, text
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli(["convert", "--n", "2", "--val", "t^\u00b2", "--to", "mu"]) == (2, "")
    assert err.getvalue() == "error: unexpected character '\u00b2' (at offset 2)\n"


def test_parse_unicode_pi():
    assert parse_valspec("π * chi", 2) == chi(2) * Scalar.pi(1)


def test_json_roundtrip_of_atoms():
    for n in (1, 2, 3):
        atoms = ["chi", "vol", "t", "s", "u"]
        for k in range(0, 2 * n + 1):
            atoms += [f"mu[{k},{q}]" for q in q_range(n, k)]
            atoms += [f"tau[{k},{q}]" for q in range(0, k // 2 + 1)]
        for text in atoms:
            v = parse_valspec(text, n)
            assert Valuation.from_json(json.loads(json.dumps(v.to_json()))) == v


# ----------------------------------------------------------------------
# CLI commands

def test_cli_tasaki_pretty():
    code, out = run_cli(["tasaki", "--n", "2", "--k", "2"])
    assert code == 0
    assert out == "1/8 * [[3,-1],[-1,3]]\n"


def test_cli_tasaki_oracle_matches_closed():
    _, closed = run_cli(["tasaki", "--n", "3", "--k", "2", "--json"])
    _, oracle = run_cli(["tasaki", "--n", "3", "--k", "2", "--oracle", "--json"])
    assert closed == oracle


def test_cli_convert_to_tau():
    code, out = run_cli(["convert", "--n", "2", "--val", "mu[2,0]", "--to", "tau"])
    assert code == 0
    assert out == "tau[2,0] - tau[2,1]\n"


def test_cli_convert_roundtrips_through_parser():
    for target in ("tau", "mono", "prim"):
        code, out = run_cli(["convert", "--n", "2", "--val", "mu[2,0]", "--to", target])
        assert code == 0
        assert parse_valspec(out.strip(), 2) == mu(2, 2, 0), target


def test_cli_sl2():
    code, out = run_cli(["sl2", "--n", "2", "--op", "Lambda", "--val", "mu[2,1]"])
    assert code == 0
    assert out == "mu[1,0]\n"


def test_cli_primitive():
    code, out = run_cli(["primitive", "--n", "2", "--k", "2", "--r", "1"])
    assert code == 0
    assert out == "(-1/3)*mu[2,0] + (2/3)*mu[2,1]\n"


def test_cli_cone():
    code, out = run_cli(["cone", "--n", "2", "--test", "positive", "--val", "mu[2,0]"])
    assert code == 0 and out == "member\n"
    code, out = run_cli(
        ["cone", "--n", "2", "--test", "monotone", "--val", "mu[2,0]", "--json"]
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["member"] is False
    assert verdict["witness"]["family"] == 2


def test_cli_pkf_and_kinematic():
    code, out = run_cli(["pkf", "--n", "1"])
    assert code == 0
    assert "bidegree (1,1)" in out and "2/π" in out
    code, out2 = run_cli(["kinematic", "--n", "1", "--val", "chi"])
    assert code == 0
    assert out == out2
    code, out = run_cli(["pkf", "--n", "2", "--cpn", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["cpn_normalized"] is True


def test_cli_additive():
    code, out = run_cli(["additive", "--n", "2", "--val", "vol", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "additive"


def test_cli_delta():
    code, out = run_cli(["delta", "--n", "3", "--val", "mu[3,1]"])
    assert code == 0
    assert "Gamma[2,1]" in out


def test_cli_mc_json():
    code, out = run_cli(
        [
            "mc",
            "--n",
            "2",
            "--k",
            "2",
            "--angles",
            "0",
            "--co-angles",
            "0",
            "--samples",
            "20000",
            "--seed",
            "3",
            "--threads",
            "2",
        ]
    )
    assert code == 0
    code, out = run_cli(
        [
            "mc",
            "--n",
            "2",
            "--k",
            "2",
            "--angles",
            "0",
            "--co-angles",
            "0",
            "--samples",
            "20000",
            "--seed",
            "3",
            "--threads",
            "2",
            "--json",
        ]
    )
    data = json.loads(out)
    assert data["prediction_float"] == 0.5
    assert data["sigma"] < 6


def test_cli_deterministic_output():
    for argv in (
        ["tasaki", "--n", "4", "--k", "3"],
        ["pkf", "--n", "2", "--json"],
        ["convert", "--n", "3", "--val", "t^2", "--to", "mu"],
    ):
        out1 = run_cli(argv)
        out2 = run_cli(argv)
        assert out1 == out2


def test_cli_division_by_zero_exits_2():
    for text, offset in (("chi/0", 3), ("1/0*chi", 1), ("(pi-pi)^-1*chi", 7)):
        code, out, err, _ = _timed_cli(["convert", "--n", "2", "--val", text, "--to", "mu"])
        assert (code, out) == (2, ""), text
        assert err == f"error: division of Scalar by zero (at offset {offset})\n", text


def test_cli_undecided_sign_exits_1():
    # p - q*pi at the depth-44 convergent is past the last enclosure of pi
    p, q = CONVERGENTS[44]
    code, out, err, _ = _timed_cli(["cone", "--n", "1", "--test", "positive", "--val", f"({p}-{q}*pi)*mu[1,0]"])
    assert (code, out) == (1, "")
    assert err == ("error: sign of 26151465932107044561886949 - 8324270144388272579650158π undecided"
                   " on the last enclosure of pi (width < 1e-48)\n")


def test_cli_other_arithmetic_errors_propagate(monkeypatch):
    # only an undecided sign is exit 1 and only ValueError and
    # ZeroDivisionError are exit 2; an OverflowError is a fault, not a verdict
    def overflow(n):
        raise OverflowError("too large")

    monkeypatch.setattr(importlib.import_module("uval.kinematic"), "principal_kinematic", overflow)
    with pytest.raises(OverflowError, match="too large"):
        run_cli(["pkf", "--n", "2"])


def test_cli_exit_codes():
    code, _ = run_cli(["convert", "--n", "1", "--val", "mu[2,0]", "--to", "mu"])
    assert code == 2
    code, _ = run_cli(["tasaki", "--n", "2", "--k", "7"])
    assert code == 2


def test_closed_routes_reject_n0():
    # both Tasaki routes check n before k: k = 0 is valid at every n, so
    # a bad n is what each names
    message = "ambient complex dimension must be >= 1"
    for n in (0, -3):
        for route in (tasaki_matrix_closed, tasaki_matrix_oracle, lambda n, _: principal_kinematic(n)):
            with pytest.raises(ValueError) as exc:
                route(n, 0)
            assert str(exc.value) == message, (route, n)
        for route in ([], ["--oracle"]):
            err = io.StringIO()
            with redirect_stderr(err):
                assert run_cli(["tasaki", "--n", str(n), "--k", "0", *route]) == (2, ""), route
            assert err.getvalue() == f"error: {message}\n", route
    with pytest.raises(ValueError, match=message):
        primitive_pairing_closed(0, 0, 0)


def test_cli_mc_thread_bound_exits_2():
    before = threading.active_count()
    for threads, samples in (
        ("1000000000000", "10000000000000"), ("65", "1000"), ("11", "10"), ("0", "10"), ("-1", "10"),
    ):
        argv = ["mc", "--n", "2", "--k", "2", "--angles", "0", "--co-angles", "0",
                "--samples", samples, "--threads", threads]
        err = io.StringIO()
        with redirect_stderr(err):
            assert run_cli(argv)[0] == 2
        assert "threads" in err.getvalue()
    assert threading.active_count() == before


def test_cli_mc_k_above_n_exits_2():
    # the range of k is checked before the number of angles it needs
    for argv in (["--k", "3"], ["--k", "3", "--angles", "0"], ["--k", "4", "--angles", "0,0"]):
        code, out, err, _ = _timed_cli(["mc", "--n", "2", *argv])
        assert (code, out, err) == (2, "", "error: from_angles requires k <= n\n"), argv


_CAPPED = {
    "tasaki": ["--k", "0"],
    "pkf": [],
    "kinematic": ["--val", "chi"],
    "additive": ["--val", "chi"],
    "cone": ["--test", "positive", "--val", "chi"],
    "convert": ["--val", "chi", "--to", "mu"],
    "sl2": ["--op", "L", "--val", "chi"],
    "primitive": ["--k", "0", "--r", "0"],
    "delta": ["--val", "chi"],
    "mc": ["--k", "1", "--samples", "10"],
}


@pytest.mark.parametrize("command", sorted(_CAPPED))
def test_cli_n_cap_exits_2(command):
    cap = MAX_N.get(command, DEFAULT_MAX_N)
    assert cap >= (8 if command == "mc" else 32)  # pkf and tasaki run at n = 32
    code, out, err, took = _timed_cli([command, "--n", str(cap + 1), *_CAPPED[command]])
    assert (code, out) == (2, "") and f"--n is at most {cap}" in err, command
    assert took < 1.0, command


def test_cli_mc_samples_cap_exits_2():
    before = threading.active_count()
    argv = ["mc", "--n", "2", "--k", "2", "--angles", "0", "--co-angles", "0"]
    assert MAX_SAMPLES >= 10**6
    code, out, err, took = _timed_cli([*argv, "--samples", str(MAX_SAMPLES + 1), "--threads", "2"])
    assert (code, out) == (2, "") and f"at most {MAX_SAMPLES} samples" in err
    assert took < 1.0
    assert threading.active_count() == before


def test_cli_uval_seed_read_only_by_mc(monkeypatch):
    mc = ["mc", "--n", "2", "--k", "2", "--angles", "0", "--co-angles", "0", "--samples", "2000"]
    monkeypatch.setenv("UVAL_SEED", "abc")
    assert run_cli(["tasaki", "--n", "2", "--k", "2"]) == (0, "1/8 * [[3,-1],[-1,3]]\n")
    code, out, err, _ = _timed_cli(mc)
    assert (code, out) == (2, "") and "UVAL_SEED" in err and "'abc'" in err
    assert run_cli([*mc, "--seed", "7"])[0] == 0  # an explicit seed never reads it
    monkeypatch.setenv("UVAL_SEED", "7")
    assert run_cli(mc) == run_cli([*mc, "--seed", "7"])
    assert run_cli(mc) != run_cli([*mc, "--seed", "8"])
    monkeypatch.delenv("UVAL_SEED")
    assert run_cli(mc) == run_cli([*mc, "--seed", "0"])


def test_cli_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "uval.cli", "tasaki", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_cli_builds_its_parser_once_per_process():
    """Three main() calls of one subcommand in a fresh interpreter build
    its parser once: the top-level ArgumentParser and that subcommand's,
    2 in all.  --help then builds the full parser, the top level and all
    eleven subparsers: 12 more."""
    script = (
        "import argparse, contextlib, io\n"
        "built, init = [], argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from uval.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['tasaki', '--n', '2', '--k', str(k)]) for k in range(3)]\n"
        "    first = len(built)\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print(codes, first, len(built) - first)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout == "[0, 0, 0, 0] 2 12\n", proc.stdout + proc.stderr


def _parse_outcome(parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv), which exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_cli_one_command_parser_reads_as_the_full_parser(command):
    """Help and usage errors of the parser main() builds for one named
    subcommand are those of the full parser, byte for byte."""
    valid = [] if command == "selftest" else ["--n", "2", *_CAPPED[command]]
    cases = [[command, "-h"], [command, *valid, "extra"]]
    if command != "selftest":  # its only option has a default
        cases.append([command, *valid[2:]])  # --n missing
    cases += [[command, *valid, flag, "bogus"] for flag in _COMMANDS[command][2:]
              if "choices" in _OPTIONS[flag]]
    for argv in cases:
        want = _parse_outcome(_build_parser(None), argv)
        assert want[0] == (0 if argv[1:] == ["-h"] else 2), (argv, want)
        assert _parse_outcome(_build_parser(command), argv) == want, argv


def test_cli_selftest_quick():
    """In a fresh interpreter, `import uval.cli` loads neither the selftest
    registry nor dataclasses nor json; selftest through main() loads the
    registry and passes."""
    script = (
        "import sys; before = set(sys.modules); import uval.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)), flush=True); "
        "sys.exit(uval.cli.main(['selftest', '--level', 'quick']))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    added = set(proc.stdout.splitlines()[0].split())
    assert "uval.cli" in added
    assert not added & {"uval.checks", "dataclasses", "json"}
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failed" in proc.stdout


# Each subcommand runs only the modules it needs: the core modules whose
# code has not run after main() in a fresh interpreter.  `import uval` puts
# them in sys.modules as lazy modules, a ModuleType subclass until they run.
_UNLOADED = {
    "primitive --n 3 --k 2 --r 1": ("poly", "kinematic", "linalg", "cones", "valspec"),
    "convert --n 3 --val chi+t --to prim": ("poly", "kinematic", "linalg", "cones"),
    "sl2 --n 3 --op L --val t": ("poly", "kinematic", "linalg", "cones"),
    "tasaki --n 3 --k 2": ("poly", "linalg", "cones", "valspec"),
    "pkf --n 3": ("poly", "linalg", "cones", "valspec"),
    "kinematic --n 3 --val t": ("poly", "linalg"),
    "cone --n 3 --test crofton --val t": ("poly", "linalg"),
    "cone --n 3 --test positive --val t": ("poly", "sl2", "kinematic", "linalg"),
    "cone --n 3 --test monotone --val t": ("poly", "sl2", "kinematic", "linalg"),
    "delta --n 3 --val t": ("poly", "sl2", "kinematic", "linalg"),
    "convert --n 3 --val t --to tau": ("poly", "sl2", "kinematic", "linalg", "cones"),
    "convert --n 3 --val t --to mu": ("poly", "sl2", "kinematic", "linalg", "cones"),
}


# Help, a usage error and an --n cap refusal compute nothing: they run
# uval.cli alone, and not even fractions.  Each maps to its exit code.
_LIGHT = {"--help": 0, "kinematic --help": 0, "kinematic --n": 2, "kinematic --n 99 --val t": 2}


@pytest.mark.parametrize("command", sorted([*_UNLOADED, *_LIGHT]))
def test_cli_subcommand_loads_only_what_it_runs(command):
    script = (
        "import sys, types, uval.cli\n"
        "try:\n    code = uval.cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n    code = exc.code\n"
        "print(' '.join(n for n, m in sys.modules.items() if n == 'fractions'\n"
        "               or n.startswith('uval.') and type(m) is types.ModuleType))\n"
        "sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", script, *command.split()],
                          capture_output=True, text=True)
    assert proc.returncode == _LIGHT.get(command, 0), proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    if command in _LIGHT:
        assert loaded == {"uval.cli"}, loaded
    else:
        assert {"uval.cli", "uval.scalar"} <= loaded
        assert not loaded & {f"uval.{name}" for name in _UNLOADED[command]}, command
