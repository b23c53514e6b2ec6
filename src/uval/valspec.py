"""Textual expressions denoting valuations: the --val grammar of the CLI.

Atoms are the basis elements mu[k,q], tau[k,q], pi[k,r] (primitive, from
uval.sl2, which loads only when a pi[k,r] is read), the global generators
t, s, u, the unit chi, the volume vol, and rational-pi scalar literals
(pi parses as the scalar unless followed by an index bracket).
Operators are + - * / ^ with the usual precedence, unary minus (looser
than ^: -pi^2 is -(pi^2)), and the functions F(...) for the Fourier
transform and iota(...).  A number written straight before pi
multiplies it, so the text Scalar prints (3π^2/4, 1/(2π)) parses back.
Division is restricted to single-term scalar divisors, matching exact
Scalar division.  Scalars occurring where a valuation is needed are read
as multiples of chi.

Errors carry the character offset (not the byte offset) of the offending token.

Three limits keep the parser's work bounded by the text.  Parentheses,
F(...) and iota(...) nest at most MAX_NESTING deep; runs of unary minus
fold in a loop and take any length.  A power is refused before it is
computed when its result would need more decimal digits than
``sys.get_int_max_str_digits()``, the most Python prints of one integer
(its default 4300 when that limit is off), or more than MAX_POWER_TERMS
powers of pi.
"""

from __future__ import annotations

import math
import sys
from typing import Union

from .scalar import Scalar, _Record
from .valuation import Valuation, _monomial_image, chi, fourier, iota, mu, multiply, tau, vol

__all__ = ["MAX_NESTING", "MAX_POWER_TERMS", "ValSpecError", "parse_valspec"]

# Deepest nesting of parentheses, F(...) and iota(...) that parses; each
# level costs a handful of Python frames, so this stays well inside the
# default recursion limit.
MAX_NESTING = 100

# Most pi-terms a power may have.  s^k of a scalar whose pi exponents
# spread over d has up to |k| d + 1 terms, and the squarings that build it
# cost about the square of that in products: (1+pi)^255 takes a few tenths
# of a second, (1+pi)^500 over a second.
MAX_POWER_TERMS = 256


class ValSpecError(ValueError):
    """Parse or range error in a valuation expression, with character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class _Token(_Record):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):  # kind: "num" | "ident" | "op" | "end"
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)


_OPS = set("+-*/^()[],")
_DIGITS = set("0123456789")  # str.isdigit() also takes superscripts and other scripts' digits


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_" or c == "π":
            if c == "π":
                tokens.append(_Token("ident", "pi", i))
                i += 1
                continue
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ValSpecError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


_Value = Union[Scalar, Valuation]


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ValSpecError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def take_int(self) -> int:
        t = self.next()
        neg = False
        if t.text == "-":
            neg = True
            t = self.next()
        if t.kind != "num":
            raise ValSpecError(f"expected an integer, found {t.text!r}", t.pos)
        return -int(t.text) if neg else int(t.text)

    # -- grammar --------------------------------------------------------
    def parse(self) -> Valuation:
        value = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ValSpecError(f"unexpected trailing {t.text!r}", t.pos)
        return self.as_valuation(value)

    def expr(self) -> _Value:
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            value, rhs = self.align(value, rhs)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> _Value:
        value = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op.text == "*":
                value = self.mul(value, rhs, op.pos)
            else:
                value = self.div(value, rhs, op.pos)
        return value

    def factor(self) -> _Value:
        negate = False
        while self.peek().text == "-":
            self.next()
            negate = not negate
        first = self.peek()
        value = self.powers()
        t = self.peek()
        if first.kind == "num" and t.text == "pi" and t.pos == first.pos + len(first.text):
            value = self.mul(value, self.powers(), t.pos)
        return -value if negate else value

    def powers(self) -> _Value:
        value = self.primary()
        while self.peek().text == "^":
            op = self.next()
            value = self.power(value, self.take_int(), op.pos)
        return value

    def nested(self, opener: _Token) -> _Value:
        """The expression inside a parenthesis, F( or iota( and its ")"."""
        if self.depth == MAX_NESTING:
            raise ValSpecError(f"nesting deeper than {MAX_NESTING} levels", opener.pos)
        self.depth += 1
        value = self.expr()
        self.expect(")")
        self.depth -= 1
        return value

    def primary(self) -> _Value:
        t = self.next()
        if t.kind == "num":
            return Scalar.of(int(t.text))
        if t.text == "(":
            return self.nested(t)
        if t.kind != "ident":
            raise ValSpecError(f"unexpected {t.text!r}", t.pos)
        name = t.text
        if name in ("F", "iota"):
            self.expect("(")
            inner = self.as_valuation(self.nested(t))
            try:
                return fourier(inner) if name == "F" else iota(inner)
            except ValueError as exc:
                raise ValSpecError(str(exc), t.pos) from None
        if name == "pi" and self.peek().text != "[":
            return Scalar.pi(1)
        if name in ("mu", "tau", "pi"):
            self.expect("[")
            k = self.take_int()
            self.expect(",")
            q = self.take_int()
            self.expect("]")
            try:
                if name == "mu":
                    return mu(self.n, k, q)
                if name == "tau":
                    return tau(self.n, k, q)
                from .sl2 import primitive_general

                return primitive_general(self.n, k, q)
            except ValueError as exc:
                raise ValSpecError(str(exc), t.pos) from None
        if name == "chi":
            return chi(self.n)
        if name == "vol":
            return vol(self.n)
        if name == "s":  # s = (t^2 + u)/4
            return (_monomial_image(self.n, 2, 0) + _monomial_image(self.n, 0, 1)) / 4
        if name in ("t", "u"):
            return _monomial_image(self.n, *{"t": (1, 0), "u": (0, 1)}[name])
        raise ValSpecError(f"unknown name {name!r}", t.pos)

    # -- value algebra --------------------------------------------------
    def as_valuation(self, value: _Value) -> Valuation:
        if isinstance(value, Valuation):
            return value
        return chi(self.n) * value

    def align(self, a: _Value, b: _Value) -> tuple[_Value, _Value]:
        """Promote scalars to chi multiples when mixed with valuations."""
        if isinstance(a, Valuation) or isinstance(b, Valuation):
            return self.as_valuation(a), self.as_valuation(b)
        return a, b

    def mul(self, a: _Value, b: _Value, pos: int) -> _Value:
        if isinstance(a, Valuation) and isinstance(b, Valuation):
            return multiply(a, b)
        return a * b

    def div(self, a: _Value, b: _Value, pos: int) -> _Value:
        if isinstance(b, Valuation):
            raise ValSpecError("division by a valuation is not defined", pos)
        try:
            return a / b
        except (ValueError, ZeroDivisionError) as exc:
            raise ValSpecError(str(exc), pos) from None

    def power(self, a: _Value, k: int, pos: int) -> _Value:
        # v = c*chi + w with w nilpotent, so the size of v^k grows as c^k
        base = a if isinstance(a, Scalar) else a.coefficient(0, 0)
        exps = [e for e, _ in base.items()]
        terms = abs(k) * (max(exps) - min(exps)) + 1 if exps else 1
        if terms > MAX_POWER_TERMS:
            raise ValSpecError(
                f"power too large: {terms} powers of pi, more than {MAX_POWER_TERMS}", pos
            )
        digits = _power_digits(base, k)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if digits > limit:
            raise ValSpecError(
                f"power too large: about {digits:.3g} decimal digits, "
                f"more than the {limit} that can be printed",
                pos,
            )
        if isinstance(a, Scalar):
            try:
                return a**k
            except (ValueError, ZeroDivisionError) as exc:
                raise ValSpecError(str(exc), pos) from None
        if k < 0:
            raise ValSpecError("negative power of a valuation", pos)
        # repeated squaring, as Scalar.__pow__; a zero square ends it early
        out = chi(self.n)
        while k and not a.is_zero:
            if k & 1:
                out = multiply(out, a)
            k >>= 1
            if k:
                a = multiply(a, a)
        return a if k else out


def _power_digits(s: Scalar, k: int) -> float:
    """|k| log10(S D) for s = sum_e (a_e / D) pi^e over the common
    denominator D, with S = sum_e |a_e|.  Every numerator of s^k is at
    most S^k and every denominator at most D^k, so neither has more
    decimal digits than this.  0 for 0, 1, pi and the like."""
    if s.is_zero or k == 0:
        return 0.0
    parts, den = s.to_parts()
    return abs(k) * math.log10(sum(map(abs, parts.values())) * den)


def parse_valspec(text: str, n: int) -> Valuation:
    """Parse a valuation expression at level n; exact and deterministic."""
    return _Parser(text, n).parse()
