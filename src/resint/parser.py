"""Recursive-descent parser for polynomial expressions.

Grammar:

    expr   := ['-'|'+'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | VAR ('^' INT)? | '(' expr ')'
    VAR    := [A-Za-z_][A-Za-z0-9_]*
    INT    := [0-9]+

Whitespace is insignificant.  VAR is ``resint.poly.NAME``, the one name rule
that ``Ring`` also checks.  VAR and INT are ASCII only: a superscript, an
accented letter or another script's digit is an unexpected character, a
ParseError at its position.  NUMBER extends INT with an optional '/INT'
denominator so that printed monic Groebner elements round-trip.
Parentheses nest at most ``NESTING_LIMIT`` (100) deep; a deeper '(' is a
ParseError at its position, not a RecursionError.

A term of numbers and variable powers is read in one loop into a packed
key of the ring's packer, the sum of ``units[i] * e`` over its powers
(``Packer.enc`` is linear), and the terms of a sum are added up in one
dict {key: coefficient} and stored as one Polynomial: no exponent tuple is
built.  Only a parenthesised factor goes through ``Polynomial`` arithmetic.
The parse runs at 8 bits, and again at 16 from the start when a term of
nonzero coefficient reaches degree 128, as the engine widens a basis
computation; ``Polynomial`` stores the result at the width its degree
needs.
"""

from fractions import Fraction
from math import lcm

from .poly import (
    DEGREE_LIMIT,
    FIELD_WIDTHS,
    NAME,
    Polynomial,
    PolyError,
    UnknownVariableError,
    _width_for,
)


class ParseError(PolyError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeExponentError(ParseError):
    pass


NESTING_LIMIT = 100

_OPS = set("+-*^()/")
# ASCII only: str.isdigit also accepts superscripts and other scripts' digits.
_DIGITS = set("0123456789")


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append(("int", source[i:j], i))
            i = j
            continue
        name = NAME.match(source, i)
        if name:
            tokens.append(("name", name.group(), i))
            i = name.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _int(tok):
    """The value of an integer token; one too long for ``int`` (by default
    more than 4300 digits) is a ParseError at the token."""
    _, text, at = tok
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long", at) from None


def _expected(kind, tok):
    return ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])


class _Widen(Exception):
    """A term reached the degree limit of the parse's packer."""


class _Parser:
    def __init__(self, tokens, ring, width):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.pk = ring.packer(width)
        self.depth = 0

    def parse(self):
        p = self.expr()
        kind, text, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", at)
        return p

    def expr(self):
        """A sum.  Its monomial terms are summed in one dict of packed keys
        and built into one Polynomial, so a flat sum takes linear time; only
        a term with a parenthesised factor is added as a Polynomial."""
        tokens = self.tokens
        sign = 1
        kind = tokens[self.pos][0]
        if kind == "-" or kind == "+":
            self.pos += 1
            sign = -1 if kind == "-" else 1
        acc = {}
        rest = None
        while True:
            t = self.term()
            if t.__class__ is tuple:
                key, c = t
                acc[key] = acc.get(key, 0) + (c if sign > 0 else -c)
            else:
                if sign < 0:
                    t = -t
                rest = t if rest is None else rest + t
            kind = tokens[self.pos][0]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                break
            self.pos += 1
        p = self._sum(acc)
        return p if rest is None else p + rest

    def _sum(self, acc):
        """The Polynomial of {packed key: coefficient}."""
        keys = sorted([k for k, c in acc.items() if c], reverse=True)
        nums = [acc[k] for k in keys]
        den = lcm(*[c.denominator for c in nums])
        nums = [c.numerator * (den // c.denominator) for c in nums]
        return Polynomial._stored(self.ring, keys, nums, den, self.pk)

    def term(self):
        """A product, read one factor at a time.  While its factors are
        numbers and variable powers it is (packed key, coefficient): each
        power e of variable i adds ``units[i] * e`` to the key.  From its
        first parenthesised factor on it is a Polynomial, and each further
        factor multiplies it.  A degree is refused where the product of
        Polynomials would refuse it: not once the coefficient is zero."""
        tokens, ring, pk = self.tokens, self.ring, self.pk
        units, index, limit = pk.units, ring._index, pk.limit
        pos = self.pos
        key, coeff, degree, p = 0, 1, 0, None
        while True:
            tok = tokens[pos]
            kind, text, at = tok
            pos += 1
            if kind == "name":
                i = index.get(text)
                if i is None:
                    raise UnknownVariableError(f"unknown variable {text!r} (at position {at})")
                e = 1
                if tokens[pos][0] == "^":
                    tok = tokens[pos + 1]
                    pos += 2
                    if tok[0] != "int":
                        if tok[0] == "-":
                            raise NegativeExponentError("negative exponent", tok[2])
                        raise _expected("int", tok)
                    e = _int(tok)
                    if e >= DEGREE_LIMIT:
                        _width_for(e)
                if p is not None:
                    power = ring.packer(_width_for(e))
                    p = p * Polynomial._stored(ring, (power.units[i] * e,), (1,), 1, power)
                else:
                    key += units[i] * e
                    if coeff:
                        degree += e
                        if degree >= limit:
                            _width_for(degree)
                            raise _Widen
            elif kind == "int":
                value = _int(tok)
                if tokens[pos][0] == "/":
                    tok = tokens[pos + 1]
                    pos += 2
                    if tok[0] != "int":
                        raise _expected("int", tok)
                    den = _int(tok)
                    if den == 0:
                        raise ParseError("zero denominator", tok[2])
                    value = Fraction(value, den)
                if p is not None:
                    p = p * value
                else:
                    coeff *= value
            elif kind == "(":
                if p is None:
                    p = ring.zero()
                    if coeff:
                        p = Polynomial._stored(
                            ring, (key,), (coeff.numerator,), coeff.denominator, pk
                        )
                self.pos = pos
                p = p * self.group(at)
                pos = self.pos
            else:
                raise ParseError(f"expected a factor, found {text!r}", at)
            if tokens[pos][0] != "*":
                break
            pos += 1
        self.pos = pos
        return (key, coeff) if p is None else p

    def group(self, at):
        """A parenthesised sum whose '(' at `at` was just read."""
        if self.depth == NESTING_LIMIT:
            raise ParseError(f"parentheses nested deeper than {NESTING_LIMIT}", at)
        self.depth += 1
        p = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != ")":
            raise _expected(")", tok)
        self.pos += 1
        self.depth -= 1
        return p


def parse_poly(source, ring) -> Polynomial:
    """Parse `source` into the canonical Polynomial of `ring`: at 8 bits,
    and again at 16 when a term reaches degree 128."""
    tokens = _tokenize(source)
    try:
        return _Parser(tokens, ring, FIELD_WIDTHS[0]).parse()
    except _Widen:
        return _Parser(tokens, ring, FIELD_WIDTHS[-1]).parse()
