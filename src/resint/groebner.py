"""Buchberger engine and the ideal calculus built on it.

The engine works on integer-coefficient term lists (denominators cleared,
content stripped) so the hot reduction loop never touches Fractions; exact
rational results are recovered by tracking the accumulated scale.  Reduced
bases are unique per (ideal, monomial order) and cached on the ideal.

Inside the engine a monomial is one packed int.  Its 16-bit fields hold, from
high to low, the order's weight rows, the exponents and the total degree.
Lex, grevlex and the block elimination order all rank monomials by 0/1 weight
rows (the identity for lex, prefix sums for each grevlex block), so comparing
packed ints compares monomials and the reduction heap holds negated ints.
Multiplying and dividing monomials is adding and subtracting ints, and a
divides b exactly when ``b - a`` borrows from no guard bit (the top bit of
each exponent and degree field).  Every field must stay below 2**15.  The
total degree bounds every field, so an input monomial, reduction product or
S-polynomial lcm of degree 2**15 or more raises ``GroebnerError`` naming the
limit instead of wrapping.  Public polynomials keep exponent tuples: terms are
packed on entry (``_epoly``, ``normal_form``) and unpacked on exit
(``_int_terms_to_poly``).
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import os
import struct
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .parser import parse_poly
from .poly import (
    BlockElim,
    GrevLex,
    Lex,
    Polynomial,
    PolyError,
    Ring,
    RingMismatchError,
    UnknownVariableError,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
)


class GroebnerError(PolyError):
    pass


class BudgetExceededError(GroebnerError):
    pass


class ZeroIdealDivisorError(GroebnerError):
    pass


class UnitIdealError(GroebnerError):
    pass


class NonHomogeneousError(GroebnerError):
    pass


# Step budget guarding runaway computations.  Exceeding it raises, never
# returns a wrong answer.  Defaults are calibrated so the bundled E6 and E7
# scenarios complete.
DEFAULT_MAX_REDUCTIONS = 50_000_000
DEFAULT_MAX_PAIRS = 1_000_000

_budget = {"max_reductions": DEFAULT_MAX_REDUCTIONS, "max_pairs": DEFAULT_MAX_PAIRS}


def set_budget(max_reductions=None, max_pairs=None):
    if max_reductions is not None:
        _budget["max_reductions"] = max_reductions
    if max_pairs is not None:
        _budget["max_pairs"] = max_pairs


def get_budget():
    return dict(_budget)


class _State:
    __slots__ = ("arity", "max_reductions", "steps_left", "max_pairs")

    def __init__(self, arity):
        self.arity = arity
        self.max_reductions = self.steps_left = _budget["max_reductions"]
        self.max_pairs = _budget["max_pairs"]

    def step(self):
        self.steps_left -= 1
        if self.steps_left < 0:
            raise BudgetExceededError(
                f"reduction-step budget of {self.max_reductions} exceeded "
                f"in a {self.arity}-variable ring"
            )

    def check_pairs(self, count):
        if count > self.max_pairs:
            raise BudgetExceededError(
                f"pair-queue cap of {self.max_pairs} exceeded "
                f"in a {self.arity}-variable ring"
            )


# -- packed monomials -----------------------------------------------------

# Exclusive bound on the total degree of any engine monomial; it keeps the
# top bit of every 16-bit field clear.
DEGREE_LIMIT = 1 << 15
_DEGREE = (1 << 16) - 1  # the total-degree field, lowest in every layout


def _degree_error(degree):
    return GroebnerError(
        f"monomial of total degree {degree} exceeds the engine limit of "
        f"{DEGREE_LIMIT - 1}"
    )


def _grevlex_rows(m):
    # deg, deg - e_n, deg - e_n - e_{n-1}, ..., e_1: the prefix sums, reversed.
    rows = list(accumulate(m))
    rows.reverse()
    return rows


class _Packer:
    """Packs exponent tuples of one arity into ints ranked like one order."""

    __slots__ = ("n", "rows", "codec", "guard", "exps")

    def __init__(self, order, n):
        if isinstance(order, Lex):
            self.rows = tuple
        elif isinstance(order, GrevLex):
            self.rows = _grevlex_rows
        elif isinstance(order, BlockElim):
            k = order.front
            self.rows = lambda m: _grevlex_rows(m[:k]) + _grevlex_rows(m[k:])
        else:
            raise GroebnerError(f"the engine cannot pack the {order.tag} order")
        self.n = n
        # n weight rows, n exponents, the degree; big-endian, highest first.
        self.codec = struct.Struct(f">{2 * n + 1}H")

        def fields(word, last):
            return int.from_bytes(word * n + last, "big")

        # Guard bits of the exponent and degree fields: a | b iff not
        # (b - a) & guard.  The exponent fields alone (weights and degree
        # zero) carry the pair lcms of the Buchberger loop.
        self.guard = fields(b"\x80\x00", b"\x80\x00")
        self.exps = fields(b"\x7f\xff", b"\x00\x00")

    def enc(self, m):
        degree = sum(m)
        if degree >= DEGREE_LIMIT:
            raise _degree_error(degree)
        try:
            return int.from_bytes(self.codec.pack(*self.rows(m), *m, degree), "big")
        except struct.error:
            raise GroebnerError(f"negative exponent in {m!r}") from None

    def dec(self, x):
        n = self.n
        return self.codec.unpack(x.to_bytes(self.codec.size, "big"))[n : 2 * n]

    def lcm_exps(self, a, b):
        """Exponent fields of lcm(a, b), with weights and degree left zero."""
        a &= self.exps
        b &= self.exps
        h = self.guard
        ge = ((a | h) - b) & h  # guard bit set where a's field >= b's
        return b ^ ((a ^ b) & (ge - (ge >> 15)))


@functools.lru_cache(maxsize=64)
def _packer(order, n):
    return _Packer(order, n)


# -- engine polynomials -------------------------------------------------


def _content(values):
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def _primitive(items):
    """Strip content and make the first (leading) coefficient positive."""
    if not items:
        return items
    g = _content([c for _, c in items])
    if items[0][1] < 0:
        g = -g
    if g != 1:
        items = [(m, c // g) for m, c in items]
    return items


class _EPoly:
    """Engine polynomial: packed integer terms sorted descending.

    ``sugar`` is the degree the polynomial would have if the computation were
    homogenized: at least its own maximal degree, and for a reduced
    S-polynomial at least the sugar of its pair.
    """

    __slots__ = ("mons", "coeffs", "lm", "lc", "maxdeg", "sugar")

    def __init__(self, items, sugar=0):
        self.mons = [m for m, _ in items]
        self.coeffs = [c for _, c in items]
        self.lm = self.mons[0]
        self.lc = self.coeffs[0]
        self.maxdeg = max(m & _DEGREE for m in self.mons)
        self.sugar = max(sugar, self.maxdeg)

    def items(self):
        return list(zip(self.mons, self.coeffs))


def _int_terms(p, packer):
    """(den, packed integer terms of den * p), den the lcm of denominators."""
    den = 1
    for _, c in p.terms:
        d = c.denominator
        den = den * d // gcd(den, d)
    enc = packer.enc
    return den, [(enc(m), int(c * den)) for m, c in p.terms]


def _epoly(p, packer):
    _, items = _int_terms(p, packer)
    items.sort(reverse=True)
    return _EPoly(_primitive(items))


def _int_terms_to_poly(items, ring, packer, denom=1):
    dec = packer.dec
    return Polynomial(ring, {dec(m): Fraction(c, denom) for m, c in items})


# -- normal form --------------------------------------------------------

_STRIP_BITS = 1024


def _nf(terms, basis, guard, state):
    """Full normal form of the packed integer term list vs `basis`.

    Returns (remainder items sorted descending, scale) such that
    scale * input == combination of basis + remainder, scale > 0.
    """
    work = {}
    for m, c in terms:
        v = work.get(m)
        v = c if v is None else v + c
        if v:
            work[m] = v
        else:
            work.pop(m, None)
    heap = [-m for m in work]
    heapq.heapify(heap)
    rem = {}
    scale = 1
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for red in basis:
            if not (m - red.lm) & guard:
                break
        else:
            rem[m] = c
            continue
        state.step()
        shift = m - red.lm
        if (shift & _DEGREE) + red.maxdeg >= DEGREE_LIMIT:
            raise _degree_error((shift & _DEGREE) + red.maxdeg)
        lc = red.lc
        if lc != 1:
            scale *= lc
            for k in work:
                work[k] *= lc
            for k in rem:
                rem[k] *= lc
        gmons = red.mons
        gcoeffs = red.coeffs
        for idx in range(1, len(gmons)):
            nm = shift + gmons[idx]
            v = work.get(nm)
            if v is None:
                work[nm] = -c * gcoeffs[idx]
                heapq.heappush(heap, -nm)
            else:
                v -= c * gcoeffs[idx]
                if v:
                    work[nm] = v
                else:
                    del work[nm]
        if scale.bit_length() > _STRIP_BITS:
            g0 = _content(list(work.values()) + list(rem.values()) + [scale])
            if g0 > 1:
                work = {k: v // g0 for k, v in work.items()}
                rem = {k: v // g0 for k, v in rem.items()}
                scale //= g0
    return sorted(rem.items(), reverse=True), scale


def _spoly_terms(f, g, lcm):
    sf = lcm - f.lm
    sg = lcm - g.lm
    for shift, p in ((sf, f), (sg, g)):
        if (shift & _DEGREE) + p.maxdeg >= DEGREE_LIMIT:
            raise _degree_error((shift & _DEGREE) + p.maxdeg)
    d = gcd(f.lc, g.lc)
    cf, cg = g.lc // d, f.lc // d
    acc = {}
    for m, c in zip(f.mons, f.coeffs):
        nm = sf + m
        acc[nm] = acc.get(nm, 0) + cf * c
    for m, c in zip(g.mons, g.coeffs):
        nm = sg + m
        v = acc.get(nm, 0) - cg * c
        if v:
            acc[nm] = v
        else:
            acc.pop(nm, None)
    return list(acc.items())


# -- Buchberger ----------------------------------------------------------


def _buchberger(inputs, packer, state):
    """Return a (not yet reduced) Groebner basis of the input _EPolys.

    Pairs are updated as in Gebauer-Moeller (Becker-Weispfenning's UPDATE).
    The new pairs (h, g) are grouped by lcm: a group holding a coprime pair
    yields nothing, and otherwise its first g yields one pair, provided no
    other new lcm properly divides it.  An old pair goes when lm(h) divides
    its lcm and neither of its lcms with h equals it.  The queue is a heap
    ordered by (sugar, packed lcm, seq): sugar selection (Giovini et al.).
    The criteria compare lcms by their exponent fields alone, which rank
    monomials lex, so a proper divisor is always a smaller int.
    """
    guard = packer.guard
    exps = packer.exps
    lcm_exps = packer.lcm_exps
    G = []
    P = []
    seq = 0

    def update(h):
        nonlocal P, seq
        hlm = h.lm
        hexp = hlm & exps
        first = {}
        coprime = set()
        for g in G:
            l = lcm_exps(hlm, g.lm)
            first.setdefault(l, g)
            if l == hexp + (g.lm & exps):
                coprime.add(l)
        P = [
            entry
            for entry in P
            if (entry[5] - hexp) & guard
            or lcm_exps(entry[3].lm, hlm) == entry[5]
            or lcm_exps(entry[4].lm, hlm) == entry[5]
        ]
        # A proper divisor is a smaller int, so in ascending order l is
        # minimal iff no minimal lcm found before it divides it.
        minimal = []
        for l in sorted(first):
            for m in minimal:
                if not (l - m) & guard:
                    break
            else:
                minimal.append(l)
                if l not in coprime:
                    g = first[l]
                    packed = packer.enc(packer.dec(l))
                    deg = packed & _DEGREE
                    sugar = max(
                        h.sugar + deg - (hlm & _DEGREE),
                        g.sugar + deg - (g.lm & _DEGREE),
                    )
                    seq += 1
                    P.append((sugar, packed, seq, g, h, l))
        heapq.heapify(P)
        state.check_pairs(len(P))
        G.append(h)

    for p in inputs:
        r, _ = _nf(p.items(), G, guard, state)
        if r:
            update(_EPoly(_primitive(r), p.sugar))
    while P:
        # (sugar, packed lcm, seq) is unique, so the heap never compares _EPolys.
        sugar, lcm, _, f, g, _ = heapq.heappop(P)
        r, _ = _nf(_spoly_terms(f, g, lcm), G, guard, state)
        if r:
            update(_EPoly(_primitive(r), sugar))
    return G


def _reduce_basis(G, guard, state):
    """Minimalize and tail-reduce into the unique reduced basis (ascending)."""
    Gs = sorted(G, key=lambda g: g.lm)
    kept = []
    for g in Gs:
        if all((g.lm - h.lm) & guard for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r, _ = _nf(g.items(), others, guard, state)
        out.append(_EPoly(_primitive(r)))
    return out


class GroebnerBasis:
    """Reduced Groebner basis: monic elements, ascending leading monomials."""

    __slots__ = ("ring", "order", "elements", "_engine")

    def __init__(self, ring, order, elements):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self._engine = None

    def engine(self):
        if self._engine is None:
            packer = _packer(self.order, self.ring.arity)
            self._engine = [_epoly(p, packer) for p in self.elements]
        return self._engine

    @property
    def is_unit(self):
        return len(self.elements) == 1 and self.elements[0] == self.ring.one()

    def leading_monomials(self):
        return [p.terms_sorted(self.order)[0][0] for p in self.elements]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"<GroebnerBasis of {len(self.elements)} elements ({self.order.tag})>"


class Ideal:
    """An ideal presented by generators, with cached reduced bases per order."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_poly(g, ring)
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = {}

    def groebner_basis(self, order=None):
        return groebner_basis(self, order)

    def __repr__(self):
        return f"<Ideal with {len(self.generators)} generators in {self.ring!r}>"


# -- persistent basis cache ----------------------------------------------


def _cache_file(ideal, order):
    root = os.environ.get("RESINT_CACHE_DIR")
    if not root:
        return None
    payload = json.dumps(
        [
            list(ideal.ring.variables),
            order.tag,
            [str(g) for g in ideal.generators],
        ]
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return os.path.join(root, f"gb-{digest}.json")


def _cache_load(path, ring):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return [parse_poly(s, ring) for s in data["basis"]]
    except (OSError, ValueError, KeyError, PolyError):
        return None


def _cache_store(path, elements):
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"basis": [str(p) for p in elements]}, fh)
        os.replace(tmp, path)
    except OSError:
        pass


# -- public operations ----------------------------------------------------


def groebner_basis(ideal, order=None):
    order = order if order is not None else ideal.ring.order
    cached = ideal._gb.get(order)
    if cached is not None:
        return cached
    path = _cache_file(ideal, order)
    if path is not None and os.path.exists(path):
        loaded = _cache_load(path, ideal.ring)
        if loaded is not None:
            gb = GroebnerBasis(ideal.ring, order, loaded)
            ideal._gb[order] = gb
            return gb
    state = _State(ideal.ring.arity)
    packer = _packer(order, ideal.ring.arity)
    inputs = [_epoly(g, packer) for g in ideal.generators]
    raw = _buchberger(inputs, packer, state)
    reduced = _reduce_basis(raw, packer.guard, state)
    elements = [
        _int_terms_to_poly(e.items(), ideal.ring, packer, denom=e.lc) for e in reduced
    ]
    gb = GroebnerBasis(ideal.ring, order, elements)
    ideal._gb[order] = gb
    if path is not None:
        _cache_store(path, elements)
    return gb


def normal_form(f, basis, order=None):
    """Remainder of f on division by `basis` (a GroebnerBasis or poly list)."""
    if isinstance(basis, GroebnerBasis):
        if f.ring != basis.ring:
            raise RingMismatchError("polynomial and basis from different rings")
        packer = _packer(basis.order, basis.ring.arity)
        engine = basis.engine()
        ring = basis.ring
    else:
        basis = [b for b in basis if not b.is_zero()]
        if not basis:
            return f
        ring = basis[0].ring
        if f.ring != ring or any(b.ring != ring for b in basis):
            raise RingMismatchError("polynomial and basis from different rings")
        packer = _packer(order if order is not None else ring.order, ring.arity)
        engine = [_epoly(b, packer) for b in basis]
    if f.is_zero():
        return f
    num, items = _int_terms(f, packer)
    rem, scale = _nf(items, engine, packer.guard, _State(ring.arity))
    return _int_terms_to_poly(rem, ring, packer, denom=num * scale)


def is_member(f, ideal, order=None):
    gb = groebner_basis(ideal, order)
    if f.ring != ideal.ring:
        raise RingMismatchError("polynomial and ideal from different rings")
    if f.is_zero():
        return True
    if not gb.elements:
        return False
    return normal_form(f, gb).is_zero()


def ideals_equal(a, b, order=None):
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")
    ga = groebner_basis(a, order)
    gb = groebner_basis(b, order)
    return ga.elements == gb.elements


def _map_exponents(p, target_ring, perm):
    """Rebuild p in target_ring, exponent i drawn from position perm[i]."""
    acc = {}
    for m, c in p.terms:
        acc[tuple(m[j] for j in perm)] = c
    return Polynomial(target_ring, acc)


def eliminate(ideal, front_vars):
    """Generators of ideal ∩ k[variables outside front_vars]."""
    ring = ideal.ring
    front = [v for v in ring.variables if v in front_vars]
    unknown = set(front_vars) - set(ring.variables)
    if unknown:
        raise UnknownVariableError(f"unknown variables {sorted(unknown)!r}")
    if not front:
        return Ideal(ring, ideal.generators)
    rest = [v for v in ring.variables if v not in front_vars]
    work_ring = Ring(tuple(front + rest), BlockElim(len(front)))
    fwd = [ring.index(v) for v in work_ring.variables]
    back = [work_ring.index(v) for v in ring.variables]
    mapped = Ideal(work_ring, [_map_exponents(g, work_ring, fwd) for g in ideal.generators])
    gb = groebner_basis(mapped, work_ring.order)
    k = len(front)
    out = []
    for p in gb.elements:
        lm = p.leading_monomial()
        if any(lm[:k]):
            continue
        out.append(_map_exponents(p, ring, back))
    return Ideal(ring, out)


def _fresh_aux_name(ring):
    if "t" not in ring.variables:
        return "t"
    i = 0
    while f"t_aux{i}" in ring.variables:
        i += 1
    return f"t_aux{i}"


def intersect(a, b):
    """Generators of a ∩ b via the t / (1-t) elimination trick."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")
    ring = a.ring
    if not a.generators or not b.generators:
        return Ideal(ring, ())
    t = _fresh_aux_name(ring)
    work_ring = Ring((t,) + ring.variables, BlockElim(1))
    gens = []
    for g in a.generators:
        gens.append(Polynomial(work_ring, {(1,) + m: c for m, c in g.terms}))
    for h in b.generators:
        acc = {}
        for m, c in h.terms:
            acc[(0,) + m] = c
            acc[(1,) + m] = -c
        gens.append(Polynomial(work_ring, acc))
    work = Ideal(work_ring, gens)
    gb = groebner_basis(work, work_ring.order)
    out = []
    for p in gb.elements:
        if p.leading_monomial()[0]:
            continue
        out.append(Polynomial(ring, {m[1:]: c for m, c in p.terms}))
    return Ideal(ring, out)


def exact_divide(g, f):
    """g / f when f divides g exactly; raises PolyError otherwise."""
    if g.ring != f.ring:
        raise RingMismatchError("polynomials from different rings")
    if f.is_zero():
        raise PolyError("division by the zero polynomial")
    ring = g.ring
    key = ring.order.key
    num = {m: c for m, c in g.terms}
    fm, fc = f.terms[0]
    quot = {}
    while num:
        m = max(num, key=key)
        c = num.pop(m)
        if not mon_divides(fm, m):
            raise PolyError("not an exact multiple")
        qm = mon_div(m, fm)
        qc = c / fc
        quot[qm] = qc
        for m2, c2 in f.terms[1:]:
            nm = mon_mul(qm, m2)
            v = num.get(nm, Fraction(0)) - qc * c2
            if v:
                num[nm] = v
            else:
                num.pop(nm, None)
    return Polynomial(ring, quot)


def quotient(a, b):
    """The colon ideal a : b, via a : f = (1/f)(a ∩ (f)) per generator."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")
    if not b.generators:
        raise ZeroIdealDivisorError("colon by the zero ideal")
    ring = a.ring
    result = None
    for f in b.generators:
        if len(f.terms) == 1 and sum(f.terms[0][0]) == 0:
            part = Ideal(ring, a.generators)
        else:
            inter = intersect(a, Ideal(ring, (f,)))
            part = Ideal(ring, [exact_divide(g, f) for g in inter.generators])
        result = part if result is None else intersect(result, part)
    return result


def _minimal_supports(lms):
    sups = {frozenset(i for i, e in enumerate(m) if e) for m in lms}
    sups.discard(frozenset())
    out = []
    for s in sorted(sups, key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def _min_hitting_set(supports):
    best = [len(supports)]

    def lower_bound(remaining):
        count = 0
        used = set()
        for s in remaining:
            if not (s & used):
                count += 1
                used |= s
        return count

    def rec(remaining, size):
        if not remaining:
            best[0] = min(best[0], size)
            return
        if size + lower_bound(remaining) >= best[0]:
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rec([s for s in remaining if v not in s], size + 1)

    rec(supports, 0)
    return best[0]


def dimension(ideal, order=None):
    """Krull dimension of R/I via independent sets of the leading-term ideal."""
    gb = groebner_basis(ideal, order)
    if gb.is_unit:
        raise UnitIdealError("the unit ideal has no dimension")
    n = ideal.ring.arity
    if not gb.elements:
        return n
    supports = _minimal_supports(gb.leading_monomials())
    return n - _min_hitting_set(supports)


def codim(ideal, order=None):
    """Height of a proper ideal: ring arity minus dimension."""
    return ideal.ring.arity - dimension(ideal, order)


def s_polynomial(f, g, order=None):
    """The S-polynomial of f and g under `order` (ring order by default)."""
    if f.ring != g.ring:
        raise RingMismatchError("polynomials from different rings")
    ring = f.ring
    order = order if order is not None else ring.order
    lf, cf = f.terms_sorted(order)[0]
    lg, cg = g.terms_sorted(order)[0]
    l = mon_lcm(lf, lg)
    mf = Polynomial(ring, {mon_div(l, lf): 1 / cf})
    mg = Polynomial(ring, {mon_div(l, lg): 1 / cg})
    return mf * f - mg * g


def certify_basis(gb):
    """Buchberger's criterion, re-checked definitionally: every S-polynomial
    of the basis reduces to zero against it."""
    elems = list(gb.elements)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not normal_form(s_polynomial(elems[i], elems[j], gb.order), gb).is_zero():
                return False
    return True


def min_generators(ideal):
    """A minimal generating subset of the given homogeneous generators."""
    ring = ideal.ring
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise NonHomogeneousError(f"nonhomogeneous generator {g}")
    key = ring.order.key
    gens = sorted(
        ideal.generators, key=lambda g: (g.total_degree(), key(g.leading_monomial()))
    )
    kept = []
    for g in gens:
        if kept and is_member(g, Ideal(ring, kept)):
            continue
        kept.append(g)
    return kept
