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
"""

from fractions import Fraction

from .poly import NAME, Polynomial, PolyError, UnknownVariableError, _width_for


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


class _Parser:
    def __init__(self, source, ring):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return p

    def expr(self):
        """A sum.  Its monomial terms are summed in one dict and built into
        one Polynomial, so a flat sum takes linear time; only a term with a
        parenthesised factor is added as a Polynomial."""
        sign = 1
        if self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -1
        monomials = {}
        rest = None
        while True:
            t = self.term()
            if isinstance(t, Polynomial):
                t = t if sign > 0 else -t
                rest = t if rest is None else rest + t
            else:
                m, c = t
                monomials[m] = monomials.get(m, 0) + sign * c
            if self.peek()[0] not in ("+", "-"):
                break
            sign = 1 if self.advance()[0] == "+" else -1
        p = Polynomial(self.ring, monomials)
        return p if rest is None else p + rest

    def term(self):
        """A product: (exponent tuple, coefficient) while its factors are
        numbers and variable powers, and a Polynomial from its first
        parenthesised factor on.  A degree is refused where the product of
        Polynomials would refuse it: not once the coefficient is zero."""
        exps = [0] * self.ring.arity
        coeff, degree = 1, 0
        while True:
            f = self.factor()
            if isinstance(f, tuple):
                i, e = f
                exps[i] += e
                if coeff:
                    degree += e
                    _width_for(degree)
            elif isinstance(f, Polynomial):
                p = self.ring.monomial(exps, coeff) * f
                while self.peek()[0] == "*":
                    self.advance()
                    p = p * self._polynomial(self.factor())
                return p
            else:
                coeff *= f
            if self.peek()[0] != "*":
                return tuple(exps), coeff
            self.advance()

    def _polynomial(self, f):
        """A factor as a Polynomial."""
        if isinstance(f, tuple):
            exps = [0] * self.ring.arity
            exps[f[0]] = f[1]
            return self.ring.monomial(exps)
        return f if isinstance(f, Polynomial) else self.ring.constant(f)

    def factor(self):
        """A number, a variable power as (variable index, exponent), or a
        parenthesised sum as a Polynomial."""
        tok = self.advance()
        kind, text, at = tok
        if kind == "int":
            value = _int(tok)
            if self.peek()[0] == "/":
                self.advance()
                tok = self.expect("int")
                den = _int(tok)
                if den == 0:
                    raise ParseError("zero denominator", tok[2])
                value = Fraction(value, den)
            return value
        if kind == "name":
            try:
                i = self.ring.index(text)
            except UnknownVariableError:
                raise UnknownVariableError(
                    f"unknown variable {text!r} (at position {at})"
                ) from None
            e = 1
            if self.peek()[0] == "^":
                self.advance()
                nxt = self.peek()
                if nxt[0] == "-":
                    raise NegativeExponentError("negative exponent", nxt[2])
                e = _int(self.expect("int"))
                _width_for(e)
            return i, e
        if kind == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(f"parentheses nested deeper than {NESTING_LIMIT}", at)
            self.depth += 1
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise ParseError(f"expected a factor, found {text!r}", at)


def parse_poly(source, ring) -> Polynomial:
    """Parse `source` into the canonical Polynomial of `ring`."""
    return _Parser(source, ring).parse()
