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

Sums and products of any length parse into one flat node each and are
folded left to right in a loop.  Parentheses and unary minus signs may nest
at most MAX_NESTING deep; deeper input is a parse error, not a recursion
overflow.  An exponent is at most MAX_EXPONENT, and a power whose constant
term is not 0, 1, -1, i or -i must not have a constant term too large to
print (see _check_power): both end huge powers before they are computed.

The canonical printer orders terms by (total degree, b-power), which makes
CLI output byte-stable, and renders coefficients so that the output always
re-parses to the same element.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .coefficients import GaussianRational, check_printable_bits, int_to_str
from .elements import LEFT, AlgebraElement, Ordering, gen_a, gen_b, mul, power
from .errors import ExprError


# -- tokens ---------------------------------------------------------------

_SYMBOLS = {"+", "-", "*", "^", "(", ")"}
_LETTERS = {"a", "b", "i"}
_DIGITS = frozenset("0123456789")  # str.isdigit would take any Unicode digit


class _Token:
    __slots__ = ("kind", "value", "offset", "source")

    def __init__(self, kind, value, offset, source):
        self.kind = kind      # 'letter' | 'number' | one of _SYMBOLS | 'end'
        self.value = value
        self.offset = offset
        self.source = source  # the literal text, as an error message quotes it

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
            out.append(_Token(ch, ch, pos, ch))
            pos += 1
            continue
        if ch in _LETTERS:
            out.append(_Token("letter", ch, pos, ch))
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            num = _int_literal(text, start, pos)
            den = 1
            if pos < n and text[pos] == "/":
                slash = pos
                pos += 1
                dstart = pos
                while pos < n and text[pos] in _DIGITS:
                    pos += 1
                if dstart == pos:
                    raise ExprError(slash + 1, ("digit",), _describe(text, pos))
                den = _int_literal(text, dstart, pos)
                if den == 0:
                    raise ExprError(dstart, ("nonzero denominator",), "0")
            out.append(_Token("number", Fraction(num, den), start, text[start:pos]))
            continue
        raise ExprError(pos, ("'a'", "'b'", "'i'", "number", "'('", "operator"), repr(ch))
    out.append(_Token("end", None, n, ""))
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
# Nodes are plain tuples: ("sum", t0, ("+"|"-", t1), ...), ("product", f0, f1, ...),
# ("neg", x), ("pow", x, n), ("gen", "a"|"b"), ("imag",), ("rat", Fraction).
# A sum or product of one operand is that operand itself.

Expression = tuple

#: How deeply parentheses and unary minus signs may nest, counted together.
#: Each level costs a few interpreter frames in the parser and elaborator.
MAX_NESTING = 100

#: The largest exponent literal.  With a unit constant term (0, 1, -1, i or
#: -i) a power's coefficients grow only polynomially in the exponent, and
#: this bounds the squarings; other constant terms are bounded by the
#: printing limit first (see _check_power).
MAX_EXPONENT = 100_000


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        raise ExprError(tok.offset, expected,
                        repr(tok.source) if tok.kind != "end" else "end of input")

    def nest(self, tok: _Token):
        """Enter one more level of parentheses or unary minus at `tok`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(tok.offset, (f"at most {MAX_NESTING} nested parentheses and "
                                         "unary minus signs",), repr(tok.source))

    def parse(self) -> Expression:
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(("'+'", "'-'", "'*'", "'^'", "end of input"))
        return node

    def expr(self) -> Expression:
        terms = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            terms.append((op, self.term()))
        return terms[0] if len(terms) == 1 else ("sum", *terms)

    def term(self) -> Expression:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("product", *factors)

    def factor(self) -> Expression:
        if self.peek().kind == "-":
            self.nest(self.take())
            node = ("neg", self.factor())
            self.depth -= 1
            return node
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "number" or "/" in tok.source:  # "^" nat: no "4/2"
                self.fail(("natural number exponent",))
            if tok.value > MAX_EXPONENT:
                raise ExprError(tok.offset, (f"an exponent of at most {MAX_EXPONENT}",),
                                str(tok.value))
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
            self.nest(self.take())
            node = self.expr()
            if self.peek().kind != ")":
                self.fail(("')'",))
            self.take()
            self.depth -= 1
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
    if kind == "sum":
        acc = elaborate(node[1], order)
        for op, term in node[2:]:
            value = elaborate(term, order)
            acc = acc + value if op == "+" else acc - value
        return acc
    if kind == "product":
        acc = elaborate(node[1], order)
        for factor in node[2:]:
            acc = mul(acc, elaborate(factor, order))
        return acc
    if kind == "pow":
        base = elaborate(node[1], order)
        _check_power(base, node[2])
        return power(base, node[2])
    raise AssertionError(f"unknown node {kind}")


def _floor_log2(a: int, b: int) -> int:
    """floor(log2(a / b)) for positive integers a, b."""
    t = a.bit_length() - b.bit_length()
    return t if a << max(-t, 0) >= b << max(t, 0) else t - 1


def _check_power(x: AlgebraElement, n: int):
    """Raise the printing-limit error when the constant term c^n of x^n is
    certain to print past it, before x^n is computed.

    Write c = (re + im*i) / D in lowest terms, not 0 and not a unit of Z[i],
    c^n = A + B*i with A = A1/A2 and B = B1/B2 in lowest terms, and M for
    the largest of |A1|, A2, |B1|, B2, all of which the printer writes out.
    Then:
      - |c|^(2n) = A^2 + B^2 <= 2 M^2;
      - |c|^(2n) >= 1 / (A2 B2)^2 >= M^-4;
      - M^2 >= A2 B2 >= lcm(A2, B2) = D^n / g, where g is the largest integer
        dividing both D^n and (re + im*i)^n in Z[i].  No odd prime p | D
        divides (re + im*i)^n: p is prime in Z[i], or p = pi conj(pi) with
        at most one of pi, conj(pi) dividing re + im*i.  And 2 = -i(1+i)^2
        while (1+i)^2 does not divide re + im*i, so g <= 2^(n/2), and
        M^4 >= (D^2 / 2)^n.
    Each bound gives a number of bits that M certainly reaches.
    """
    c = x.table.get((0, 0))
    if c is None:
        return
    re, im = c
    g = math.gcd(x.den, re, im)  # x.den is shared by every coefficient of x
    re, im, den = re // g, im // g, x.den // g
    den2 = den * den
    if den2 == 1 and abs(re) + abs(im) == 1:
        return  # c^n is a unit too
    t = _floor_log2(re * re + im * im, den2)  # 2^t <= |c|^2 < 2^(t+1)
    check_printable_bits(max((t * n - 1) // 2, -(t + 1) * n // 4,
                             (den2.bit_length() - 2) * n // 4))


def parse_element(text: str, order: int, ordering: Ordering = LEFT) -> AlgebraElement:
    return elaborate(parse(text), order).with_ordering(ordering)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an expression that must evaluate to a scalar (used for flags)."""
    node = parse(text)
    if _mentions_generator(node):
        raise ExprError(0, ("a scalar expression (no a or b)",), repr(text))
    return elaborate(node, 0).constant_term


def _mentions_generator(node: Expression) -> bool:
    stack = [node]
    while stack:
        n = stack.pop()
        if n[0] == "gen":
            return True
        stack.extend(c for c in n[1:] if isinstance(c, tuple))
    return False


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


def _signed_sum(terms) -> str:
    """The (sign, body) pairs of _coeff_str joined as "a - b + c"; "0" for none."""
    bits = []
    for sign, body in terms:
        if not bits:
            bits.append(body if sign > 0 else f"-{body}")
        else:
            bits.append(f"{'+' if sign > 0 else '-'} {body}")
    return " ".join(bits) or "0"


def format_element(x: AlgebraElement) -> str:
    """Human-readable sum, sorted by (total degree, b-power); re-parseable."""
    return _signed_sum(_coeff_str(c, _monomial_str(p, q, x.ordering)) for (p, q), c in
                       sorted(x.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1])))


def format_poly(coeffs, var: str = "x") -> str:
    """Pretty form of a univariate polynomial, highest power first."""
    return _signed_sum(_coeff_str(coeffs[k], "" if k == 0 else (var if k == 1 else f"{var}^{k}"))
                       for k in range(len(coeffs) - 1, -1, -1) if coeffs[k])
