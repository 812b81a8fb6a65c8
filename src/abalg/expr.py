"""The CLI expression language: parsing, elaboration, canonical printing.

Grammar (no implicit multiplication, ^ > * > +/-, left associative):

    expr     := ["-"] term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | atom ("^" nat)?
    atom     := "a" | "b" | "i" | rational | "(" expr ")"
    rational := nat ("/" nat)?          (one token, no internal spaces)

Leading "-" inside a term position is unary negation, so canonical output
like "-a + b" or "(-1 + 2*i)*a" re-parses.  Parse errors carry the byte
offset and the expected-token set.

The canonical printer orders terms by (total degree, b-power), which makes
CLI output byte-stable, and renders coefficients so that the output always
re-parses to the same element.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .coefficients import GaussianRational, int_to_str
from .elements import LEFT, AlgebraElement, Ordering, gen_a, gen_b, mul, power
from .errors import ExprError


# -- tokens ---------------------------------------------------------------

_SYMBOLS = {"+", "-", "*", "^", "(", ")"}
_LETTERS = {"a", "b", "i"}


class _Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind, value, offset):
        self.kind = kind      # 'letter' | 'number' | one of _SYMBOLS | 'end'
        self.value = value
        self.offset = offset

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, @{self.offset})"


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, pos))
            pos += 1
            continue
        if ch in _LETTERS:
            out.append(_Token("letter", ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            num = _int_literal(text, start, pos)
            den = 1
            if pos < n and text[pos] == "/":
                slash = pos
                pos += 1
                dstart = pos
                while pos < n and text[pos].isdigit():
                    pos += 1
                if dstart == pos:
                    raise ExprError(slash + 1, ("digit",), _describe(text, pos))
                den = _int_literal(text, dstart, pos)
                if den == 0:
                    raise ExprError(dstart, ("nonzero denominator",), "0")
            out.append(_Token("number", Fraction(num, den), start))
            continue
        raise ExprError(pos, ("'a'", "'b'", "'i'", "number", "'('", "operator"), repr(ch))
    out.append(_Token("end", None, n))
    return out


def _int_literal(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:  # longer than the interpreter's int-from-str digit limit
        raise ExprError(start, (f"a number of at most {sys.get_int_max_str_digits()} digits",),
                        f"{end - start} digits") from None


def _describe(text: str, pos: int) -> str:
    return repr(text[pos]) if pos < len(text) else "end of input"


# -- AST ---------------------------------------------------------------------
# Nodes are plain tuples: ("add", l, r), ("sub", l, r), ("mul", l, r),
# ("neg", x), ("pow", x, n), ("gen", "a"|"b"), ("imag",), ("rat", Fraction).

Expression = tuple


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        found = tok.value if tok.kind != "end" else "end of input"
        raise ExprError(tok.offset, expected, repr(found) if tok.kind != "end" else found)

    def parse(self) -> Expression:
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'^'", "end of input"))
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek().kind == "*":
            self.take()
            node = ("mul", node, self.factor())
        return node

    def factor(self) -> Expression:
        if self.peek().kind == "-":
            self.take()
            return ("neg", self.factor())
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "number" or tok.value.denominator != 1 or tok.value < 0:
                self.fail(("natural number exponent",))
            self.take()
            node = ("pow", node, int(tok.value))
        return node

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "letter":
            self.take()
            return ("imag",) if tok.value == "i" else ("gen", tok.value)
        if tok.kind == "number":
            self.take()
            return ("rat", tok.value)
        if tok.kind == "(":
            self.take()
            node = self.expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.take()
            return node
        self.fail(("'a'", "'b'", "'i'", "number", "'('"))


def parse(text: str) -> Expression:
    return _Parser(_tokenize(text), text).parse()


def elaborate(node: Expression, order: int) -> AlgebraElement:
    """Evaluate an AST into the order-N quotient algebra (LEFT ordering)."""
    kind = node[0]
    if kind == "gen":
        if order < 1:
            return AlgebraElement.zero(order)  # degree-1 generators die in the quotient
        return gen_a(order) if node[1] == "a" else gen_b(order)
    if kind == "imag":
        return AlgebraElement.scalar(GaussianRational(0, 1), order)
    if kind == "rat":
        return AlgebraElement.scalar(GaussianRational(node[1]), order)
    if kind == "neg":
        return -elaborate(node[1], order)
    if kind == "add":
        return elaborate(node[1], order) + elaborate(node[2], order)
    if kind == "sub":
        return elaborate(node[1], order) - elaborate(node[2], order)
    if kind == "mul":
        return mul(elaborate(node[1], order), elaborate(node[2], order))
    if kind == "pow":
        return power(elaborate(node[1], order), node[2])
    raise AssertionError(f"unknown node {kind}")


def parse_element(text: str, order: int, ordering: Ordering = LEFT) -> AlgebraElement:
    return elaborate(parse(text), order).with_ordering(ordering)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an expression that must evaluate to a scalar (used for flags)."""
    node = parse(text)

    def mentions_generator(n):
        if n[0] == "gen":
            return True
        return any(isinstance(c, tuple) and mentions_generator(c) for c in n[1:])

    if mentions_generator(node):
        raise ExprError(0, ("a scalar expression (no a or b)",), repr(text))
    return elaborate(node, 0).constant_term


# -- canonical printing ----------------------------------------------------------


def _fraction_str(x: Fraction) -> str:
    num = int_to_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_to_str(x.denominator)}"


def _monomial_str(p: int, q: int, ordering: Ordering) -> str:
    a_part = "" if p == 0 else ("a" if p == 1 else f"a^{p}")
    b_part = "" if q == 0 else ("b" if q == 1 else f"b^{q}")
    parts = [a_part, b_part] if ordering is LEFT else [b_part, a_part]
    return "*".join(s for s in parts if s)


def _coeff_str(c: GaussianRational, monomial: str):
    """Returns (sign, body): sign in {+1, -1}, body without leading sign."""
    if not c.im:
        mag = abs(c.re)
        sign = 1 if c.re > 0 else -1
        if monomial and mag == 1:
            return sign, monomial
        body = _fraction_str(mag)
    elif not c.re:
        mag = abs(c.im)
        sign = 1 if c.im > 0 else -1
        body = "i" if mag == 1 else f"{_fraction_str(mag)}*i"
    else:
        sign = 1
        im_mag = abs(c.im)
        im_body = "i" if im_mag == 1 else f"{_fraction_str(im_mag)}*i"
        join = "+" if c.im > 0 else "-"
        body = f"({_fraction_str(c.re)} {join} {im_body})"
    return sign, f"{body}*{monomial}" if monomial else body


def format_element(x: AlgebraElement) -> str:
    """Human-readable sum, sorted by (total degree, b-power); re-parseable."""
    if x.is_zero:
        return "0"
    bits = []
    for (p, q), c in sorted(x.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1])):
        sign, body = _coeff_str(c, _monomial_str(p, q, x.ordering))
        if not bits:
            bits.append(body if sign > 0 else f"-{body}")
        else:
            bits.append(f"{'+' if sign > 0 else '-'} {body}")
    return " ".join(bits)


def format_poly(coeffs, var: str = "x") -> str:
    """Pretty form of a univariate polynomial, highest power first."""
    bits = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        sign, body = _coeff_str(c, mono)
        if not bits:
            bits.append(body if sign > 0 else f"-{body}")
        else:
            bits.append(f"{'+' if sign > 0 else '-'} {body}")
    return " ".join(bits) or "0"
