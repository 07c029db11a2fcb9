"""Sparse multivariate polynomials over exact rationals.

Monomials are plain exponent tuples, one entry per ring variable, at the
public surface.  A polynomial stores packed monomial keys (below) in strictly
descending order, one nonzero integer numerator per key and one positive
denominator, with no factor common to the denominator and all numerators,
at the narrowest packing width that holds its degree.  That stored form is
canonical, so equality and hashing compare it directly, and arithmetic works
on it without building tuples or Fractions.  The ``terms`` view, (exponent
tuple, Fraction) pairs in the same order, is decoded on first read and kept.

Every monomial order ranks monomials by one packed int, built by a linear
map: ``enc(m) = sum(e_i * units[i])`` with one unit per variable (Monagan and
Pearce's packed exponent vectors).  The int has ``2n + 1`` fields of equal
width; from high to low they hold the order's weight rows, the exponents and
the total degree.  Lex, grevlex and the block elimination order all rank
monomials by 0/1 weight rows (the identity for lex, reversed prefix sums for
each grevlex block), so comparing packed ints compares monomials, multiplying
monomials adds ints, and a divides b exactly when ``b - a`` borrows from no
guard bit (the top bit of each exponent and degree field).

Every field is at most the total degree, so a field width of w bits is exact
while the total degree stays below 2**(w - 1).  A polynomial packs its terms
at the narrower of 8 and 16 bits that holds its degree (8 bits up to degree
127), widens a product that needs it, and repacks narrower when a
cancellation lowers the degree.  ``DEGREE_LIMIT``, 2**15, is the one degree
limit of the package: a polynomial, product, power or ``MonomialOrder.key``
of that degree or more raises ``DegreeOverflowError``.  The Buchberger
engine in ``resint.groebner`` runs in the ring's order at the widest width
of its inputs, and takes a polynomial's keys and numerators as they are.

Four ``Packer`` embeddings map grevlex keys by field shifts to ``enc`` of
their monomials in a ring with more variables and back, for the colon and
``intersect`` of ``resint.groebner``.  ``lift_last`` adds k variables last:
k rows of the degree on top, k zero fields under the exponents.
``drop_last`` sets the last k to 1: the rows of the others, whose top row is
their degree, and their exponents.  ``lift_front`` adds one variable first
under ``BlockElim(1)``: its row on top, its exponent field above the others;
``drop_front`` removes it.  All keep term order, ``drop_last`` among
monomials of one degree and one exponent in each of the last k - 1.

``NAME`` is the one rule for a name, ASCII only: a ring variable, a variable
token of ``resint.parser`` and a scenario's polynomial name all match
``[A-Za-z_][A-Za-z0-9_]*``.
"""

import functools
import re
import struct
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import mul, sub


NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class PolyError(Exception):
    pass


class RingMismatchError(PolyError):
    pass


class ArityMismatchError(PolyError):
    pass


class UnknownVariableError(PolyError):
    pass


class DegreeOverflowError(PolyError):
    """A monomial's total degree is DEGREE_LIMIT or more."""


def mon_div(b, a):
    """b / a, assuming a divides b."""
    return tuple(map(sub, b, a))


def mon_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _grevlex_rows(lo, hi, n):
    # Over the variables lo..hi-1: deg, deg - e_{hi-1}, deg - e_{hi-1} -
    # e_{hi-2}, ..., e_lo.  These are the prefix sums, reversed.
    return [tuple(1 if lo <= v < hi - r else 0 for v in range(n)) for r in range(hi - lo)]


class MonomialOrder:
    """Base class; subclasses give the 0/1 weight rows that rank monomials.

    An order is an immutable value: two orders are equal, and hash alike,
    when they have one type and equal fields (``_fields``).
    """

    __slots__ = ()

    def _fields(self):
        return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__.__name__,) + self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable order")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable order")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        return f"{self.__class__.__name__}()"

    def weight_rows(self, n):
        """n rows of n 0/1 weights, highest first.  Monomials rank by their
        weighted degree under the first row, ties broken by the next row."""
        raise NotImplementedError

    def key(self, m):
        """The packed int of m at the widest fields: larger int, larger monomial."""
        _width_for(_max_degree([m]))
        return packer(self, len(m), FIELD_WIDTHS[-1]).enc(m)

    @property
    def tag(self):
        raise NotImplementedError


class Lex(MonomialOrder):
    __slots__ = ()

    def weight_rows(self, n):
        return [tuple(1 if v == r else 0 for v in range(n)) for r in range(n)]

    @property
    def tag(self):
        return "lex"


class GrevLex(MonomialOrder):
    __slots__ = ()

    def weight_rows(self, n):
        return _grevlex_rows(0, n, n)

    @property
    def tag(self):
        return "grevlex"


class BlockElim(MonomialOrder):
    """Elimination order: grevlex on the first `front` variables, then grevlex
    on the tail.  Any monomial touching a front variable beats any that does not.
    `front` is a non-negative int: a negative one would give more weight rows
    than variables.
    """

    __slots__ = ("front",)

    def __init__(self, front):
        if type(front) is not int or front < 0:
            raise ValueError(f"block front must be a non-negative integer, got {front!r}")
        object.__setattr__(self, "front", front)

    def _fields(self):
        return (self.front,)

    def __repr__(self):
        return f"BlockElim(front={self.front!r})"

    def weight_rows(self, n):
        f = min(self.front, n)
        return _grevlex_rows(0, f, n) + _grevlex_rows(f, n, n)

    @property
    def tag(self):
        return f"block:{self.front}"


def order_from_tag(tag):
    if tag == "lex":
        return Lex()
    if tag == "grevlex":
        return GrevLex()
    if tag.startswith("block:"):
        return BlockElim(int(tag.split(":", 1)[1]))
    raise ValueError(f"unknown monomial order {tag!r}")


# -- packed monomials -----------------------------------------------------

FIELD_WIDTHS = (8, 16)
_STRUCT_CODES = {8: "B", 16: "H"}
# The exclusive bound on the total degree of every monomial: it keeps the
# top bit of every field at the widest width clear.
DEGREE_LIMIT = 1 << (FIELD_WIDTHS[-1] - 1)


class Packer:
    """Packs exponent tuples of one arity into ints ranked like one order.

    ``enc`` is linear, so ``enc(a) + enc(b) == enc(a * b)``.  It is exact for
    monomials with non-negative exponents and total degree below ``limit``;
    callers check both (``_max_degree`` and ``_width_for`` for polynomials,
    the engine for its own products).
    """

    __slots__ = ("order", "n", "width", "limit", "degree", "units", "codec", "guard", "exps")

    def __init__(self, order, n, width):
        self.order = order
        self.n = n
        self.width = width
        self.limit = 1 << (width - 1)
        self.degree = (1 << width) - 1  # the total-degree field, lowest
        fields = order.weight_rows(n)
        fields += [tuple(1 if v == i else 0 for v in range(n)) for i in range(n)]
        fields.append((1,) * n)
        self.codec = struct.Struct(f">{len(fields)}{_STRUCT_CODES[width]}")
        # The unit of variable i packs its column of the fields, highest first.
        self.units = tuple(
            int.from_bytes(self.codec.pack(*column), "big") for column in zip(*fields)
        )
        # Guard bits of the exponent and degree fields: a | b iff not
        # (b - a) & guard.  The exponent fields alone (weights and degree
        # zero) carry the pair lcms of the Buchberger loop.
        self.guard = sum(self.limit << (width * k) for k in range(n + 1))
        self.exps = sum((self.limit - 1) << (width * k) for k in range(1, n + 1))

    def enc(self, m):
        return sum(map(mul, compress(m, m), compress(self.units, m)))

    def dec(self, x):
        n = self.n
        return self.codec.unpack(x.to_bytes(self.codec.size, "big"))[n : 2 * n]

    def enc_exps(self, x):
        """The packed monomial whose exponents are the exponent fields of x
        (weights and degree zero); one step per nonzero field."""
        width, mask, units, n = self.width, self.limit - 1, self.units, self.n
        out = 0
        while x:
            field = ((x & -x).bit_length() - 1) // width
            shift = width * field
            e = (x >> shift) & mask
            out += e * units[n - field]
            x ^= e << shift
        return out

    def lcm_exps(self, a, b):
        """Exponent fields of lcm(a, b), with weights and degree left zero."""
        a &= self.exps
        b &= self.exps
        h = self.guard
        ge = ((a | h) - b) & h  # guard bit set where a's field >= b's
        return b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))

    def exponent(self, key, i):
        """The exponent of variable i in the packed monomial `key`."""
        return (key >> (self.width * (self.n - i))) & self.degree

    def lift_last(self, keys, k):
        """Grevlex keys into ``packer(GrevLex(), n + k, width)``: k variables added last."""
        width, n, degree = self.width, self.n, self.degree
        low, rows, exps = width * (n + 1), width * (n + k + 1), width * (k + 1)
        mask = (1 << (width * n)) - 1
        degrees = 1 + sum(1 << (width * (2 * (n + k) - j)) for j in range(k))
        return [
            ((key >> low) << rows) + (((key >> width) & mask) << exps) + (key & degree) * degrees
            for key in keys
        ]

    def drop_last(self, keys, k):
        """Grevlex keys into ``packer(GrevLex(), n - k, width)``: the last k set to 1."""
        width, n = self.width, self.n - k
        low, rows, exps = width * (n + 1), width * (n + k + 1), width * (k + 1)
        mask, top = (1 << (width * n)) - 1, width * (n - 1)
        return [
            ((x := (key >> rows) & mask) << low) + (((key >> exps) & mask) << width) + (x >> top)
            for key in keys
        ]

    def lift_front(self, keys):
        """Grevlex keys into ``packer(BlockElim(1), n + 1, width)``: one variable added first."""
        low = self.width * (self.n + 1)
        mask, rows = (1 << low) - 1, low + self.width
        return [((key >> low) << rows) + (key & mask) for key in keys]

    def drop_front(self, keys):
        """``BlockElim(1)`` keys free of the first variable into
        ``packer(GrevLex(), n - 1, width)``: ``lift_front`` undone."""
        low = self.width * self.n
        mask, rows = (1 << low) - 1, low + self.width
        return [((key >> rows) << low) + (key & mask) for key in keys]


@functools.cache
def packer(order, n, width):
    """The shared packer of (order, n, width); shared so that keys made by
    one can be recognised by identity."""
    return Packer(order, n, width)


def _max_degree(mons):
    """The largest total degree in a non-empty list of exponent tuples."""
    if mons[0] and min(map(min, mons)) < 0:
        raise PolyError("negative exponent")
    return max(map(sum, mons))


def _width_for(degree):
    """The narrowest field width that packs monomials up to `degree` exactly."""
    for width in FIELD_WIDTHS:
        if degree >> (width - 1) == 0:
            return width
    raise DegreeOverflowError(f"total degree {degree} exceeds the limit of {DEGREE_LIMIT - 1}")


class Ring:
    """A named polynomial ring over Q with a fixed monomial order."""

    __slots__ = ("variables", "order", "_index", "_hash", "_packers")

    def __init__(self, variables, order=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PolyError("duplicate variable names")
        for v in variables:
            if not NAME.fullmatch(v):
                raise PolyError(f"invalid variable name {v!r}")
        self.variables = variables
        self.order = order if order is not None else GrevLex()
        self._index = {v: i for i, v in enumerate(variables)}
        self._hash = hash((variables, self.order))
        self._packers = {}

    @property
    def arity(self):
        return len(self.variables)

    def packer(self, width=FIELD_WIDTHS[0]):
        """The shared packer of this ring's order and arity at `width` bits."""
        pk = self._packers.get(width)
        if pk is None:
            pk = self._packers[width] = packer(self.order, self.arity, width)
        return pk

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def var(self, name):
        pk = self.packer()
        return Polynomial._stored(self, (pk.units[self.index(name)],), (1,), 1, pk)

    def gens(self):
        return [self.var(v) for v in self.variables]

    def constant(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial._stored(self, (0,), (c.numerator,), c.denominator, self.packer())

    def zero(self):
        return Polynomial._stored(self, (), (), 1, self.packer())

    def one(self):
        return self.constant(1)

    def monomial(self, exponents, coeff=1):
        exponents = tuple(exponents)
        if len(exponents) != self.arity:
            raise ArityMismatchError("exponent vector arity mismatch")
        return Polynomial(self, {exponents: Fraction(coeff)})

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ring({', '.join(self.variables)}; {self.order.tag})"


class Polynomial:
    """Immutable canonical polynomial, stored packed.

    The stored form is ``_keys``, the packed ints of the monomials under
    ``_packer`` in strictly descending order, ``_nums``, their nonzero integer
    numerators, and ``_den``, one positive denominator, with
    ``gcd(_den, *_nums) == 1``.  ``_packer`` is the ring's packer at the
    narrowest width that holds the degree.  ``terms``, the (exponent tuple,
    Fraction) pairs, is decoded from the stored form on first read and kept.
    """

    __slots__ = ("ring", "_keys", "_nums", "_den", "_packer", "_terms")

    def __init__(self, ring, coeffs):
        items = [(m, c) for m, c in coeffs.items() if c]
        if not items:
            self._fill(ring, (), (), 1, ring.packer())
            return
        pk = ring.packer(_width_for(_max_degree([m for m, _ in items])))
        enc = pk.enc
        den = 1
        for _, c in items:
            d = c.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        # Distinct monomials have distinct keys, so the sort never compares c.
        keyed = sorted([(enc(m), c) for m, c in items], reverse=True)
        self._fill(
            ring,
            [k for k, _ in keyed],
            [c.numerator * (den // c.denominator) for _, c in keyed],
            den,
            pk,
        )

    @classmethod
    def _stored(cls, ring, keys, nums, den, pk):
        """A polynomial from keys strictly descending under `pk`, a packer of
        ring's order wide enough for each of them, their nonzero integer
        numerators and a positive denominator."""
        p = object.__new__(cls)
        p._fill(ring, keys, nums, den, pk)
        return p

    def _fill(self, ring, keys, nums, den, pk):
        # The common factor of den and nums, and any width the degree does
        # not need (after a cancellation or ``drop_last``), are dropped here.
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [n // g for n in nums]
        if pk.width != FIELD_WIDTHS[0]:
            narrow = ring.packer(_width_for(max([k & pk.degree for k in keys], default=0)))
            if narrow.width != pk.width:
                keys = [narrow.enc(pk.dec(k)) for k in keys]
                pk = narrow
        self.ring = ring
        self._keys = tuple(keys)
        self._nums = tuple(nums)
        self._den = den
        self._packer = pk
        self._terms = None

    @property
    def terms(self):
        """The (exponent tuple, Fraction) pairs, strictly descending."""
        terms = self._terms
        if terms is None:
            den = self._den
            if den == 1:
                coeffs = map(Fraction, self._nums)
            else:
                coeffs = [Fraction(n, den) for n in self._nums]
            terms = self._terms = tuple(zip(map(self._packer.dec, self._keys), coeffs))
        return terms

    def _packed(self, pk):
        """The packed keys of the terms under packer `pk`, in term order.

        The caller makes sure `pk` is wide enough for this polynomial."""
        if pk is self._packer:
            return self._keys
        dec = self._packer.dec
        return tuple([pk.enc(dec(k)) for k in self._keys])

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self._keys

    def leading_monomial(self):
        if not self._keys:
            raise PolyError("zero polynomial has no leading monomial")
        return self._packer.dec(self._keys[0])

    def total_degree(self):
        if not self._keys:
            return -1
        degree = self._packer.degree
        return max([k & degree for k in self._keys])

    def is_homogeneous(self):
        degree = self._packer.degree
        return len({k & degree for k in self._keys}) <= 1

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        if not other._keys:
            return self
        if not self._keys:
            return other
        # The sum merges by key at the wider of the two packings, over the
        # lcm of the two denominators.
        pk = max(self._packer, other._packer, key=lambda p: p.width)
        da, db = self._den, other._den
        den = da * db // gcd(da, db)
        nums = self._nums
        if den != da:
            nums = [n * (den // da) for n in nums]
        acc = dict(zip(self._packed(pk), nums))
        nums = other._nums
        if den != db:
            nums = [n * (den // db) for n in nums]
        for k, c in zip(other._packed(pk), nums):
            v = acc.get(k)
            if v is None:
                acc[k] = c
            else:
                v += c
                if v:
                    acc[k] = v
                else:
                    del acc[k]
        keys = sorted(acc, reverse=True)
        return Polynomial._stored(self.ring, keys, [acc[k] for k in keys], den, pk)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._stored(
            self.ring, self._keys, [-n for n in self._nums], self._den, self._packer
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        if not self._keys or not other._keys:
            return self.ring.zero()
        pk = self.ring.packer(_width_for(self.total_degree() + other.total_degree()))
        den = self._den * other._den
        # Keys add like monomials multiply, and pk holds the product's
        # degree; numerators multiply over the product of the denominators.
        right = list(zip(other._packed(pk), other._nums))
        acc = {}
        get = acc.get
        for ka, ca in zip(self._packed(pk), self._nums):
            for kb, cb in right:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        keys = sorted([k for k, v in acc.items() if v], reverse=True)
        return Polynomial._stored(self.ring, keys, [acc[k] for k in keys], den, pk)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        cn = c.numerator
        return Polynomial._stored(
            self.ring,
            self._keys,
            [n * cn for n in self._nums],
            self._den * c.denominator,
            self._packer,
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PolyError("exponent must be a non-negative integer")
        if self._keys:
            # Refuse before squaring, so the error names the degree asked for.
            _width_for(self.total_degree() * n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        # The packing width is canonical too, so equal polynomials have
        # equal keys.
        return (
            isinstance(other, Polynomial)
            and self._keys == other._keys
            and self._nums == other._nums
            and self._den == other._den
            and self._packer.width == other._packer.width
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.ring, self._keys, self._nums, self._den))

    # -- calculus ------------------------------------------------------

    def derivative(self, name):
        i = self.ring.index(name)
        acc = {}
        for m, c in self.terms:
            e = m[i]
            if e == 0:
                continue
            dm = m[:i] + (e - 1,) + m[i + 1 :]
            acc[dm] = acc.get(dm, Fraction(0)) + c * e
        return Polynomial(self.ring, acc)

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        names = self.ring.variables
        for i, (m, c) in enumerate(self.terms):
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = _frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_frac_str(mag)] + factors)
            if i == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"<poly {self}>"


def _frac_str(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def euler_pairing(p):
    """Sum of x_i * dp/dx_i; equals deg(p) * p for homogeneous p."""
    total = p.ring.zero()
    for name in p.ring.variables:
        total = total + p.ring.var(name) * p.derivative(name)
    return total
