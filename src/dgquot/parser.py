"""Parser for commutative polynomial expressions over declared variables.

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | name | factor '^' positive-integer | '(' expr ')'
    name   := identifier ('[' index (',' index)* ']')*

Rationals are integers or integer/integer.  An identifier is a letter or
underscore, then letters, digits and underscores; an index is a run of
letters, digits and underscores.  A name is one token, with no whitespace
inside, looked up whole in the declared generator table: ``a[w,x][1,2]``,
``y[1]`` and ``s[1][2,2]`` name chart generators.  An undeclared name,
indexed or not, is a ParseError at its first character.  Manifest
variables stay plain identifiers (variable_gens).  The canonical printer
in algebra.GradedPoly emits exactly this grammar, so parse/print
round-trips, and a presentation report's term strings parse back against
the report's own generator table.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

from .algebra import GenSym, GradedPoly
from .errors import ParseError, StructureError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAME = re.compile(_IDENT.pattern + r"(?:\[\w+(?:,\w+)*\])*", re.ASCII)
_NUMBER = re.compile(r"[0-9]+")

VARIABLE_KIND = "variable"


def variable_gens(names: Sequence[str]) -> tuple:
    """Degree-0 variable generators for a declared name list."""
    seen = set()
    out = []
    for name in names:
        if not _IDENT.fullmatch(name):
            raise StructureError(f"invalid variable name {name!r}")
        if name in seen:
            raise StructureError(f"duplicate variable name {name!r}")
        seen.add(name)
        out.append(GenSym(name, 0, VARIABLE_KIND))
    return tuple(out)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def match_re(self, pattern):
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m


def parse_poly(text: str, variables: Union[Sequence[str], Sequence[GenSym]]) -> GradedPoly:
    """Parse a polynomial string over the declared variables."""
    if variables and isinstance(variables[0], GenSym):
        gens = {g.name: g for g in variables}
    else:
        gens = {g.name: g for g in variable_gens(list(variables))}
    toks = _Tokens(text)
    poly = _parse_expr(toks, gens)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(f"unexpected input {text[toks.pos]!r}", toks.pos)
    return poly


def _parse_expr(toks: _Tokens, gens) -> GradedPoly:
    negate = False
    if toks.peek() == "-":
        toks.take("-")
        negate = True
    poly = _parse_term(toks, gens)
    if negate:
        poly = -poly
    while True:
        op = toks.peek()
        if op == "+":
            toks.take("+")
            poly = poly + _parse_term(toks, gens)
        elif op == "-":
            toks.take("-")
            poly = poly - _parse_term(toks, gens)
        else:
            return poly


def _parse_term(toks: _Tokens, gens) -> GradedPoly:
    poly = _parse_factor(toks, gens)
    while toks.peek() == "*":
        toks.take("*")
        poly = poly * _parse_factor(toks, gens)
    return poly


def _parse_factor(toks: _Tokens, gens) -> GradedPoly:
    ch = toks.peek()
    start = toks.pos
    if ch == "(":
        toks.take("(")
        poly = _parse_expr(toks, gens)
        toks.take(")")
    elif ch.isdigit():
        poly = GradedPoly.const(_parse_rational(toks))
    else:
        m = toks.match_re(_NAME)
        if not m:
            raise ParseError("expected a number, variable or '('", start)
        if toks.text.startswith("[", toks.pos):
            raise ParseError("malformed index group", toks.pos)
        name = m.group(0)
        if name not in gens:
            raise ParseError(f"unknown identifier {name!r}", start)
        poly = GradedPoly.gen(gens[name])
    while toks.peek() == "^":
        toks.take("^")
        estart = toks.pos
        m = toks.match_re(_NUMBER)
        if not m:
            raise ParseError("malformed exponent", estart)
        e = int(m.group(0))
        if e <= 0:
            raise ParseError("exponent must be a positive integer", estart)
        poly = poly**e
    return poly


def _parse_rational(toks: _Tokens) -> Fraction:
    start = toks.pos
    m = toks.match_re(_NUMBER)
    if not m:
        raise ParseError("expected a number", start)
    num = int(m.group(0))
    save = toks.pos
    if toks.peek() == "/":
        toks.take("/")
        dstart = toks.pos
        m = toks.match_re(_NUMBER)
        if not m:
            # a '/' not followed by digits is not part of the literal
            toks.pos = save
            return Fraction(num)
        den = int(m.group(0))
        if den == 0:
            raise ParseError("division by zero in rational literal", dstart)
        return Fraction(num, den)
    return Fraction(num)
