"""Expression parsing and rendering for stem polynomials and points.

Grammar (EBNF):

    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | base ("^" natural)?
    base     := rational | unit | var | "(" expr ")"
    rational := integer ("/" positive_integer)?
    unit     := "i" | "j" | "k" | "E"
    var      := "z" | "q"

so "^" binds tighter than "*" binds tighter than "+"/"-", and unary minus
binds tighter than addition but looser than "^" ("-z^2" is -(z^2), and
"2*i^2" is -2).  Lowercase i, j, k are the quaternion units; uppercase E
is the commuting complex unit of the complexification and is admitted in
point mode only.  Variables z and q are interchangeable spellings of the
same indeterminate (the stem and the slice viewpoint); mixing both in one
expression is rejected.

Normalization multiplies everything out, preserving the written order of
noncommuting factors, and collects a canonical right-coefficient form
sum_k z^k * a_k.  Since the variable is central, every expression in this
grammar normalizes to such a form.

Pairs for the split algebra use the syntax "( <expr> ; <expr> )".

Renderers emit ascending powers, exact rationals as a/b, quaternion
coefficients parenthesized; their output reparses to an equal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import CQuat, Quaternion, R3Elem
from .errors import (LimitExceededError, ParseError, UnitNotAllowedError,
                     VariableInPointError)
from .poly import Poly
from .scalars import GaussRat
from .stem import R3StemPoly, StemPoly

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


@dataclass(frozen=True)
class _Token:
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
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
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


# -- abstract syntax ---------------------------------------------------------

@dataclass(frozen=True)
class RationalLit:
    value: Fraction


@dataclass(frozen=True)
class Unit:
    name: str
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "-":
            return Neg(self.nested(self.factor, self.advance()))
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            return Pow(node, tok.value)
        return node

    def base(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            numerator = tok.value
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("num")
                if den.value == 0:
                    raise ParseError("denominator must be positive", den.pos)
                return RationalLit(Fraction(numerator, den.value))
            return RationalLit(Fraction(numerator))
        if tok.kind == "name":
            self.advance()
            if tok.text in "zq":
                return Var(tok.text, tok.pos)
            return Unit(tok.text, tok.pos)
        if tok.kind == "(":
            node = self.nested(self.expr, self.advance())
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos)


def parse_ast(text: str):
    """Parse to the raw expression tree (mode checks happen later)."""
    return _Parser(text).parse()


# -- normalization -------------------------------------------------------------

_UNIT_VALUES = {
    "i": CQuat(GaussRat(0), GaussRat(1), GaussRat(0), GaussRat(0)),
    "j": CQuat(GaussRat(0), GaussRat(0), GaussRat(1), GaussRat(0)),
    "k": CQuat(GaussRat(0), GaussRat(0), GaussRat(0), GaussRat(1)),
    "E": CQuat(GaussRat(0, 1)),
}


class _Normalizer:
    """Evaluate an expression tree in the polynomial ring over the
    complexified algebra (dense coefficient lists, variable central)."""

    def __init__(self, mode: str):
        if mode not in ("stem", "point"):
            raise ValueError("mode must be 'stem' or 'point'")
        self.mode = mode
        self.seen_var: str | None = None

    def run(self, node) -> list[CQuat]:
        if isinstance(node, RationalLit):
            return [CQuat(GaussRat(node.value))]
        if isinstance(node, Unit):
            if node.name == "E" and self.mode == "stem":
                raise UnitNotAllowedError(
                    "unit E has no meaning in a stem expression", node.pos)
            return [_UNIT_VALUES[node.name]]
        if isinstance(node, Var):
            if self.mode == "point":
                raise VariableInPointError(
                    "point expressions must be constant", node.pos)
            if self.seen_var is None:
                self.seen_var = node.name
            elif self.seen_var != node.name:
                raise ParseError(
                    "cannot mix the variable spellings 'z' and 'q'", node.pos)
            return [CQuat(), CQuat(1)]
        if isinstance(node, Neg):
            return [-c for c in self.run(node.child)]
        if isinstance(node, (Add, Sub, Mul)):
            # Sums and products parse as left-deep chains, as long as the
            # text; fold the chain in a loop, not one recursion per term.
            chain = []
            while isinstance(node, (Add, Sub, Mul)):
                chain.append(node)
                node = node.left
            acc = self.run(node)
            for node in reversed(chain):
                acc = self._combine(node, acc, self.run(node.right))
            return acc
        if isinstance(node, Pow):
            if node.exponent > MAX_EXPONENT:
                raise LimitExceededError(
                    f"exponent {node.exponent} is above the limit of "
                    f"{MAX_EXPONENT}")
            base = self.run(node.base)
            _check_degree((len(base) - 1) * node.exponent)
            out = [CQuat(1)]
            for _ in range(node.exponent):
                out = self._convolve(out, base)
            return out
        raise TypeError(f"unknown node {node!r}")

    def _combine(self, node, left, right):
        if isinstance(node, Mul):
            _check_degree(len(left) + len(right) - 2)
            return self._convolve(left, right)
        if isinstance(node, Sub):
            right = [-c for c in right]
        n = max(len(left), len(right))
        left += [CQuat()] * (n - len(left))
        right += [CQuat()] * (n - len(right))
        return [a + b for a, b in zip(left, right)]

    @staticmethod
    def _convolve(left, right):
        out = [CQuat() for _ in range(len(left) + len(right) - 1)]
        for a, ca in enumerate(left):
            if not ca:
                continue
            for b, cb in enumerate(right):
                out[a + b] += ca * cb
        return out


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise LimitExceededError(
            f"degree {degree} is above the limit of {MAX_DEGREE}")


def parse_expr(text: str, mode: str):
    """Parse and normalize; returns a StemPoly (stem mode) or CQuat (point
    mode)."""
    ast = parse_ast(text)
    coeffs = _Normalizer(mode).run(ast)
    if mode == "point":
        return coeffs[0] if coeffs else CQuat()
    quats = []
    for c in coeffs:
        if not c.is_real_quaternion:
            raise AssertionError("stem coefficients must be real quaternions")
        quats.append(c.to_quaternion())
    return StemPoly(quats)


def parse_stem(text: str) -> StemPoly:
    return parse_expr(text, "stem")


def parse_point(text: str) -> CQuat:
    return parse_expr(text, "point")


def split_pair(text: str):
    """Split "( left ; right )" at the top-level semicolon."""
    stripped = text.strip()
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise ParseError("pair syntax is '( <expr> ; <expr> )'", 0)
    inner = stripped[1:-1]
    depth = 0
    for idx, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in pair", idx + 1)
        elif ch == ";" and depth == 0:
            return inner[:idx], inner[idx + 1:]
    raise ParseError("pair syntax needs a top-level ';'", len(stripped) - 1)


def parse_r3_stem(text: str) -> R3StemPoly:
    left, right = split_pair(text)
    return R3StemPoly(parse_stem(left), parse_stem(right))


def parse_r3_point(text: str) -> R3Elem:
    left, right = split_pair(text)
    p1 = parse_point(left)
    p2 = parse_point(right)
    if p1.is_real_quaternion and p2.is_real_quaternion:
        return R3Elem(p1.to_quaternion(), p2.to_quaternion())
    return R3Elem(p1, p2)


# -- rendering --------------------------------------------------------------------

def _coeff_text(coeff) -> tuple[str, bool]:
    """Render a Fraction/GaussRat coefficient; second value says whether
    the text needs parentheses when multiplied by a power of z."""
    if isinstance(coeff, GaussRat):
        if coeff.is_real:
            coeff = coeff.re
        else:
            return str(coeff), True
    return str(coeff), False


def render_poly(p: Poly, var: str = "z") -> str:
    """Ascending powers, rationals as a/b; reparses to the same polynomial."""
    if p.is_zero:
        return "0"
    parts = []
    for k, coeff in enumerate(p.coeffs):
        if not coeff:
            continue
        text, needs_parens = _coeff_text(coeff)
        if k == 0:
            parts.append(f"({text})" if needs_parens else text)
            continue
        power = var if k == 1 else f"{var}^{k}"
        if needs_parens:
            parts.append(f"({text})*{power}")
        elif text == "1":
            parts.append(power)
        elif text == "-1":
            parts.append(f"-{power}")
        else:
            parts.append(f"{text}*{power}")
    out = parts[0]
    for item in parts[1:]:
        out += f" - {item[1:]}" if item.startswith("-") else f" + {item}"
    return out


def render_quat(q: Quaternion) -> str:
    return str(q)


def render_cquat(x: CQuat) -> str:
    return str(x)


def render_stem(stem: StemPoly, var: str = "z") -> str:
    """Terms z^k*(coefficient), ascending; reparses to the same stem."""
    if stem.is_zero:
        return "0"
    parts = []
    for k, coeff in enumerate(stem.coeffs):
        if not coeff:
            continue
        body = f"({coeff})"
        if k == 0:
            parts.append(body)
        elif k == 1:
            parts.append(f"{var}*{body}")
        else:
            parts.append(f"{var}^{k}*{body}")
    return " + ".join(parts)


def render_r3_stem(pair: R3StemPoly) -> str:
    return f"({render_stem(pair.first)} ; {render_stem(pair.second)})"
