"""Expression parsing and rendering for stem polynomials and points.

Grammar (EBNF):

    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | base ("^" natural)?
    base     := rational | unit | var | "(" expr ")"
    rational := integer ("/" positive_integer)?
    unit     := "i" | "j" | "k" | "E"
    var      := "z" | "q"
    pair     := "(" expr ";" expr ")"

so "^" binds tighter than "*" binds tighter than "+"/"-", and unary minus
binds tighter than addition but looser than "^" ("-z^2" is -(z^2), and
"2*i^2" is -2).  Lowercase i, j, k are the quaternion units; uppercase E
is the commuting complex unit of the complexification and is admitted in
point mode only.  Variables z and q are interchangeable spellings of the
same indeterminate (the stem and the slice viewpoint); mixing both in one
expression is rejected.  Pairs for the split algebra H + H are a whole
text of the `pair` form, and each half picks its own spelling.

One recursive-descent pass parses and evaluates.  Multiplying out
preserves the written order of noncommuting factors, and since the
variable is central every expression has a canonical right-coefficient
form sum_k z^k * a_k.  Stem expressions evaluate straight into
`StemPoly`: literals, units and the variable are constants and the
monomial z, sums use `+`/`-`, and products and powers (square-and-
multiply) use `StemPoly.star`, the integer Kronecker kernel of `stem.py`,
except that a power z^n of the variable is built as that monomial.
Point expressions have no variable, so they evaluate with plain `CQuat`
arithmetic.  Before each product or power the degree it would have, from
the degrees of its trimmed operands, is checked against MAX_DEGREE, and
every exponent against MAX_EXPONENT.

A character outside the grammar is reported first (the text is tokenized
up front); otherwise the first fault in reading order, be it syntax, mode
or limit.  Positions count from the start of the whole text.

Renderers emit ascending powers, exact rationals as a/b, quaternion
coefficients parenthesized; their output reparses to an equal value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .algebra import (QI, QJ, QK, CQuat, Quaternion, R3Elem, _join_terms,
                      _render_components)
from .errors import (LimitExceededError, ParseError, UnitNotAllowedError,
                     VariableInPointError)
from .poly import Poly
from .scalars import GaussRat, Record
from .stem import Z, R3StemPoly, StemPoly

# -- limits ---------------------------------------------------------------

# Parentheses and unary minus nest by recursion, a few frames per level;
# 100 levels stay far inside Python's default recursion limit of 1000.
MAX_NESTING = 100
# Caps on a power's exponent and on the degree of any power or product,
# checked before the multiplication runs.
MAX_EXPONENT = 1000
MAX_DEGREE = 1000

# -- tokens ---------------------------------------------------------------

_PUNCT = set("+-*^()/;")
_NAMES = set("ijkEzq")


class _Token(Record):
    kind: str  # "num", "name", one of the punct chars, "end"
    text: str
    pos: int
    value: int = 0


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        # Only ASCII digits: str.isdigit() also accepts '²' and '١'.
        if "0" <= ch <= "9":
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(_Token("num", text[start:pos], start,
                                 int(text[start:pos])))
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        if ch in _NAMES:
            tokens.append(_Token("name", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parsing and evaluation ---------------------------------------------------

_UNIT_VALUES = {"i": QI, "j": QJ, "k": QK, "E": CQuat(GaussRat(0, 1))}


class _Parser:
    """Recursive descent that evaluates as it parses: into `StemPoly` in
    stem mode, where products are `star` in written order, and into
    `CQuat` in point mode, where every value is a constant.  Sums and
    products fold in a loop, so a long one costs no recursion."""

    def __init__(self, text: str, mode: str):
        if mode not in ("stem", "point"):
            raise ValueError("mode must be 'stem' or 'point'")
        self.stem = mode == "stem"
        self.lift = StemPoly.constant if self.stem else CQuat.coerce
        self.seen_var: str | None = None
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.pos)
        return self.advance()

    def nested(self, parse, tok: _Token):
        """parse() one nesting level deeper than here; tok opens the level."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels of "
                             "parentheses and unary minus", tok.pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def pair(self):
        """The two halves of "( expr ; expr )".  The text's first and last
        tokens are the pair's parentheses; the last one ends the second
        half as the end of input ends a whole expression.  Each half
        picks its own spelling of the variable."""
        tokens = self.tokens
        if tokens[0].kind != "(" or tokens[-2].kind != ")":
            raise ParseError("pair syntax is '( <expr> ; <expr> )'", 0)
        tokens[-2:] = [_Token("end", "", tokens[-2].pos)]
        self.index = 1
        first = self.expr()
        tok = self.advance()
        if tok.kind == ")":
            raise ParseError("unbalanced parentheses in pair", tok.pos)
        if tok.kind == "end":
            raise ParseError("pair syntax needs a top-level ';'", tok.pos)
        if tok.kind != ";":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        self.seen_var = None
        return first, self.parse()

    def expr(self):
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            rhs = self.factor()
            if self.stem:
                _check_degree(value.degree + rhs.degree)
            value = value * rhs
        return value

    def factor(self):
        if self.peek().kind == "-":
            return -self.nested(self.factor, self.advance())
        value = self.base()
        if self.peek().kind != "^":
            return value
        self.advance()
        exponent = self.expect("num").value
        if exponent > MAX_EXPONENT:
            raise LimitExceededError(
                f"exponent {exponent} is above the limit of {MAX_EXPONENT}")
        if self.stem:
            _check_degree(value.degree * exponent)
            if value is Z:
                return StemPoly.monomial(exponent)
        return value ** exponent

    def base(self):
        tok = self.advance()
        if tok.kind == "num":
            if self.peek().kind != "/":
                return self.lift(Fraction(tok.value))
            self.advance()
            den = self.expect("num")
            if den.value == 0:
                raise ParseError("denominator must be positive", den.pos)
            return self.lift(Fraction(tok.value, den.value))
        if tok.kind == "name":
            if tok.text not in "zq":
                if tok.text == "E" and self.stem:
                    raise UnitNotAllowedError(
                        "unit E has no meaning in a stem expression", tok.pos)
                return self.lift(_UNIT_VALUES[tok.text])
            if not self.stem:
                raise VariableInPointError(
                    "point expressions must be constant", tok.pos)
            if self.seen_var is None:
                self.seen_var = tok.text
            elif self.seen_var != tok.text:
                raise ParseError(
                    "cannot mix the variable spellings 'z' and 'q'", tok.pos)
            return Z
        if tok.kind == "(":
            value = self.nested(self.expr, tok)
            self.expect(")")
            return value
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos)


def _check_degree(degree: int) -> None:
    """Refuse a power or product whose degree, from the degrees of its
    trimmed operands, is above MAX_DEGREE (a zero operand has degree -1)."""
    if degree > MAX_DEGREE:
        raise LimitExceededError(
            f"degree {degree} is above the limit of {MAX_DEGREE}")


def parse_expr(text: str, mode: str):
    """Parse and evaluate; returns a StemPoly (stem mode) or CQuat (point
    mode)."""
    return _Parser(text, mode).parse()


def parse_stem(text: str) -> StemPoly:
    return parse_expr(text, "stem")


def parse_point(text: str) -> CQuat:
    return parse_expr(text, "point")


def parse_r3_stem(text: str) -> R3StemPoly:
    return R3StemPoly(*_Parser(text, "stem").pair())


def parse_r3_point(text: str) -> R3Elem:
    p1, p2 = _Parser(text, "point").pair()
    if p1.is_real_quaternion and p2.is_real_quaternion:
        return R3Elem(p1.to_quaternion(), p2.to_quaternion())
    return R3Elem(p1, p2)


# -- rendering --------------------------------------------------------------------

def render_poly(p: Poly) -> str:
    """Ascending powers, rationals as a/b; reparses to the same polynomial."""
    parts = []
    for k, coeff in enumerate(p.coeffs):
        if not coeff:
            continue
        text = str(coeff)
        if k == 0:
            parts.append(text)
            continue
        power = "z" if k == 1 else f"z^{k}"
        if text == "1":
            parts.append(power)
        elif text == "-1":
            parts.append(f"-{power}")
        else:
            parts.append(f"{text}*{power}")
    return _join_terms(parts)


def render_quat(q: Quaternion) -> str:
    return str(q)


def render_cquat(x: CQuat) -> str:
    return str(x)


def render_stem(stem: StemPoly) -> str:
    """Terms z^k*(coefficient), ascending; reparses to the same stem."""
    parts = []
    columns = zip_longest(*(p.coeffs for p in stem.parts),
                          fillvalue=Fraction(0))
    for k, coeff in enumerate(columns):
        if not any(coeff):
            continue
        body = f"({_render_components(coeff)})"
        if k == 0:
            parts.append(body)
        elif k == 1:
            parts.append(f"z*{body}")
        else:
            parts.append(f"z^{k}*{body}")
    return " + ".join(parts) or "0"

