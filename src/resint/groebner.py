"""Buchberger engine and the ideal calculus built on it.

The engine works on integer-coefficient term lists (denominators cleared,
content stripped) so the hot reduction loop never touches Fractions; exact
rational results are recovered by tracking the accumulated scale.  The
ring's monomial order is the only order: a reduced basis is unique per
ideal, and the ideal caches it in one slot, in memory; nothing is read from
or written to disk.  A basis in another order is the basis of the same
generators in a ring of that order.  Membership in an ideal of homogeneous
generators advances its basis computation only through the degree tested,
and the paused computation waits in a second slot until it is resumed.

Inside the engine a monomial is the packed int of ``resint.poly``, and the
reduction heap holds negated ints.  Each basis computation and each normal
form runs at the widest width of its inputs, 8 or 16 bits, so every
polynomial hands its stored keys and integer numerators to the engine as
they are, and results leave the same way, already descending.  A reduction
product, S-polynomial shift or pair lcm of degree 2**(width - 1) stops the
computation: at 8 bits it is redone once at 16, and at 16 bits, where
``resint.poly.DEGREE_LIMIT`` is reached, it raises ``GroebnerError`` naming
the limit instead of wrapping.

``intersect`` is the one elimination, in a ``BlockElim(1)`` ring with ``t``
in front: its inputs move there by ``Packer.lift_front`` and its outputs
back by ``drop_front``.  A ring of another order intersects in its grevlex
twin, the grevlex ring on the same variables, and moves the generators back.
Eliminating other variables is a basis in a ``BlockElim(k)`` ring with them
in front, keeping the elements whose leading monomial has no front variable.
``quotient`` finds each part a : f in the grevlex twin too, by the
reverse-lex property, in a ring entered by ``Packer.lift_last`` and left by
``drop_last``.
"""

import contextvars
import heapq
from itertools import accumulate
from math import gcd, inf

from .parser import parse_poly
from .poly import (
    DEGREE_LIMIT,
    FIELD_WIDTHS,
    BlockElim,
    GrevLex,
    Polynomial,
    PolyError,
    Ring,
    RingMismatchError,
    mon_div,
    mon_lcm,
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


# Limits guarding runaway computations.  Exceeding one raises, never returns
# a wrong answer.  The reduction-step budget is read when a normal form or an
# advance of a basis computation starts (a complete basis computed at once is
# one advance); a value set on it holds in the current context only, so
# ``contextvars.copy_context().run`` scopes it to one call.  The values are
# calibrated so the bundled E6 and E7 scenarios complete.
max_reductions = contextvars.ContextVar("max_reductions", default=50_000_000)
MAX_PAIRS = 1_000_000


class _State:
    __slots__ = ("arity", "budget", "steps_left")

    def __init__(self, arity):
        self.arity = arity
        self.refill()

    def refill(self):
        self.budget = self.steps_left = max_reductions.get()

    def step(self):
        self.steps_left -= 1
        if self.steps_left < 0:
            raise BudgetExceededError(
                f"reduction-step budget of {self.budget} exceeded "
                f"in a {self.arity}-variable ring"
            )

    def check_pairs(self, count):
        if count > MAX_PAIRS:
            raise BudgetExceededError(
                f"pair-queue cap of {MAX_PAIRS} exceeded "
                f"in a {self.arity}-variable ring"
            )


# -- packed monomials -----------------------------------------------------


class _Widen(Exception):
    """A degree reached the limit of an engine width narrower than the widest."""


def _degree_error(degree, pk):
    if pk.width < FIELD_WIDTHS[-1]:
        return _Widen()
    return GroebnerError(
        f"monomial of total degree {degree} exceeds the engine limit of "
        f"{DEGREE_LIMIT - 1}"
    )


def _widening(compute, polys, *args):
    """``compute(*args, width)`` at the widest width of the polynomials
    `polys`, redone once at the widest engine width when a degree reaches
    the narrower width's limit."""
    width = max([p._packer.width for p in polys], default=FIELD_WIDTHS[0])
    try:
        return compute(*args, width)
    except _Widen:
        return compute(*args, FIELD_WIDTHS[-1])


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
    S-polynomial at least the sugar of its pair.  ``_buchberger`` sets
    ``exps`` and ``redundant`` when it inserts the polynomial.
    """

    __slots__ = ("terms", "tail", "lm", "lc", "maxdeg", "sugar", "exps", "redundant")

    def __init__(self, items, degree, sugar=0):
        self.terms = items
        self.tail = items[1:]
        self.lm, self.lc = items[0]
        self.maxdeg = max(m & degree for m, _ in items)
        self.sugar = max(sugar, self.maxdeg)


def _int_terms(p, pk):
    """(den, packed integer terms of den * p): p's stored form, its keys
    packed by pk, a packer of p's ring at least as wide as p's, so the terms
    stay descending."""
    return p._den, list(zip(p._packed(pk), p._nums))


def _epoly(p, pk):
    return _EPoly(_primitive(_int_terms(p, pk)[1]), pk.degree)


def _int_terms_to_poly(items, ring, pk, denom=1):
    """The polynomial of packed integer terms descending under pk, a packer
    of ring, over the positive denom."""
    return Polynomial._stored(ring, [m for m, _ in items], [c for _, c in items], denom, pk)


# -- normal form --------------------------------------------------------

_STRIP_BITS = 1024


def _nf(work, basis, pk, state):
    """Full normal form vs `basis` of the dict {packed monomial: nonzero
    integer coefficient} `work`, which it consumes.

    Returns (remainder items sorted descending, scale) such that
    scale * input == combination of basis + remainder, scale > 0.
    """
    guard, degree, limit = pk.guard, pk.degree, pk.limit
    heap = [-m for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    rem = {}
    scale = 1
    while heap:
        m = -heappop(heap)
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
        if (shift & degree) + red.maxdeg >= limit:
            raise _degree_error((shift & degree) + red.maxdeg, pk)
        lc = red.lc
        if lc != 1:
            # Scale by lc / gcd(c, lc) only, as _spoly_terms does.
            g = gcd(c, lc)
            c //= g
            s = lc // g
            if s != 1:
                scale *= s
                for k in work:
                    work[k] *= s
                for k in rem:
                    rem[k] *= s
        c = -c
        for gm, gc in red.tail:
            nm = shift + gm
            v = work.get(nm)
            if v is None:
                work[nm] = c * gc
                heappush(heap, -nm)
            else:
                v += c * gc
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


def _spoly_terms(f, g, lcm, pk):
    sf = lcm - f.lm
    sg = lcm - g.lm
    degree = pk.degree
    for shift, p in ((sf, f), (sg, g)):
        if (shift & degree) + p.maxdeg >= pk.limit:
            raise _degree_error((shift & degree) + p.maxdeg, pk)
    d = gcd(f.lc, g.lc)
    cf, cg = g.lc // d, f.lc // d
    # The lcm terms cancel by the choice of cf and cg, so only tails add up.
    acc = {sf + m: cf * c for m, c in f.tail}
    for m, c in g.tail:
        nm = sg + m
        v = acc.get(nm, 0) - cg * c
        if v:
            acc[nm] = v
        else:
            del acc[nm]
    return acc


# -- Buchberger ----------------------------------------------------------


def _buchberger(inputs, pk, state):
    """A basis computation of the input _EPolys that pauses at a degree: a
    generator, started by ``next``.  Each degree d sent to it inserts the
    inputs (the first time) and pops pairs while the lowest queued sugar is
    at most d, then yields G, every element inserted so far.  Once the queue
    is empty it returns a minimal, not yet tail-reduced Groebner basis, in
    insertion order.  Pausing changes nothing that is done, only when, so a
    run sent d1 < d2 < ... and then ``inf`` does exactly the work of one run
    sent ``inf``.

    For homogeneous inputs sugar is degree, so pairs leave the heap in degree
    order, and each criterion below drops a pair only on the strength of
    pairs of no larger degree, or of its own two elements.  So once no pair
    of sugar d or less is queued, every homogeneous element of degree d or
    less of the ideal reduces to zero against G, in any monomial order: G
    is a d-truncated basis (Becker-Weispfenning, Gröbner Bases, 1993,
    §10.2).  Reducing by homogeneous elements never mixes degrees, so a
    polynomial of degree at most d lies in the ideal exactly when it
    reduces to zero against G.  For inhomogeneous inputs a paused G decides
    nothing.

    Inputs enter ascending by (sugar, terms), the order Giovini et al. ask
    for, so the basis, the pair queue and every work counter depend on the
    generator set and not on the order it came in (only identical
    polynomials tie).  Pairs are updated as in Gebauer-Moeller
    (Becker-Weispfenning's UPDATE), incrementally: the new pairs (h, g) are
    grouped by lcm, a group holding a coprime pair yields nothing, and
    otherwise its first g yields one pair, provided no other new lcm
    properly divides it; these are pushed onto the heap.  A pair is coprime
    when gcd(lm h, lm g) = 1 (Buchberger's product criterion).  An old pair
    goes when lm(h) divides its lcm and neither of its lcms with h equals
    it; only then is the queue rebuilt and re-heapified.  The heap is
    ordered by (sugar, packed lcm, seq): sugar selection.  The criteria
    compare lcms by their exponent fields alone, which rank monomials lex,
    so a proper divisor is always a smaller int.  Each element carries the
    exponent fields of its leading monomial, found once when it is
    inserted; a queue entry's lcm fields are its packed lcm's.  The new
    pairs' lcms are the guard-bit max of ``Packer.lcm_exps`` inlined, and
    the gcd of two leading monomials is the guard-bit min.  The same sweep
    finds lm(h) dividing lm(g), which makes g redundant; g stays a reducer
    and a pair partner, but is left out of the basis returned.  Dropping g
    from `G` when it is marked is also a correct Buchberger, but a much
    slower one here: ``_nf`` reduces by the first divisor in insertion
    order, so g's reductions move to the later h, and g's pairs are no
    longer formed.  On the lex cyclic-4 ideal of the tests that variant's
    remainder coefficients reached 28,766 bits within 251 steps, and it did
    not finish in 90 s; kept, g lets the basis finish in 157 steps, at 16
    bits.
    """
    guard = pk.guard
    exps = pk.exps
    degree = pk.degree
    limit = pk.limit
    lcm_exps = pk.lcm_exps
    enc_exps = pk.enc_exps
    top = pk.width - 1
    G = []
    P = []
    seq = 0

    def update(h):
        nonlocal P, seq
        hlm = h.lm
        hexp = h.exps = hlm & exps
        high = hexp | guard
        h.redundant = False
        first = {}  # lcm: the first g giving it, None once a pair is coprime
        for g in G:
            gexp = g.exps
            ge = (high - gexp) & guard  # guard bit set where h's field >= g's
            sel = (hexp ^ gexp) & (ge - (ge >> top))
            if not sel:  # lm(h) divides lm(g)
                g.redundant = True
            l = gexp ^ sel  # lcm(lm h, lm g)
            first.setdefault(l, g)
            if not hexp ^ sel:  # gcd(lm h, lm g) = 1
                first[l] = None
        # B-criterion, by seq.  Entries are (sugar, packed lcm, seq, f, g).
        gone = {
            e[2]
            for e in P
            if not ((l := e[1] & exps) - hexp) & guard
            and lcm_exps(e[3].exps, hexp) != l
            and lcm_exps(e[4].exps, hexp) != l
        }
        new = []
        # A proper divisor is a smaller int, so in ascending order l is
        # minimal iff no minimal lcm found before it divides it.
        minimal = []
        for l in sorted(first):
            for m in minimal:
                if not (l - m) & guard:
                    break
            else:
                minimal.append(l)
                g = first[l]
                if g is not None:
                    packed = hlm + enc_exps(l - hexp)  # lm(h) * (lcm / lm(h))
                    deg = packed & degree
                    if deg >= limit:
                        raise _degree_error(deg, pk)
                    sugar = max(
                        h.sugar + deg - (hlm & degree),
                        g.sugar + deg - (g.lm & degree),
                    )
                    seq += 1
                    new.append((sugar, packed, seq, g, h))
        if gone:
            P = [e for e in P if e[2] not in gone]
            P += new
            heapq.heapify(P)
        else:
            for entry in new:
                heapq.heappush(P, entry)
        state.check_pairs(len(P))
        G.append(h)

    stop = yield
    for p in sorted(inputs, key=lambda p: (p.sugar, p.terms)):
        r, _ = _nf(dict(p.terms), G, pk, state)
        if r:
            update(_EPoly(_primitive(r), degree, p.sugar))
    while P:
        if P[0][0] > stop:
            stop = yield G
            continue
        # (sugar, packed lcm, seq) is unique, so the heap never compares _EPolys.
        sugar, lcm, _, f, g = heapq.heappop(P)
        r, _ = _nf(_spoly_terms(f, g, lcm, pk), G, pk, state)
        if r:
            update(_EPoly(_primitive(r), degree, sugar))
    return [g for g in G if not g.redundant]


def _reduce_basis(G, pk, state):
    """Tail-reduce the minimal basis `G` into the unique reduced basis
    (ascending).

    No other leading monomial of a minimal basis divides lm(g), so only g's
    tail is reduced; its leading term comes back as lc(g) times the scale
    of that reduction.  `G` is in insertion order, and ``_buchberger`` left
    each element fully reduced against every element before it.  So g's
    tail is reduced only when a leading monomial after g divides one of its
    tail terms.  Such a monomial is no larger than g's largest tail term, so
    only those are tried.  Any other element is already reduced and is kept
    as it is.
    """
    guard = pk.guard
    kept = []  # (g, whether its tail needs reducing), latest first
    later = []  # the leading monomials after g
    for g in reversed(G):
        top = g.tail[0][0] if g.tail else -1
        reach = [l for l in later if l <= top]
        kept.append((g, any(not (m - l) & guard for m, _ in g.tail for l in reach)))
        later.append(g.lm)
    kept.sort(key=lambda e: e[0].lm)
    reducers = [g for g, _ in kept]
    out = []
    for g, reached in kept:
        if reached:
            # A tail term is smaller than lm(g), so g never reduces its own tail.
            r, scale = _nf(dict(g.tail), reducers, pk, state)
            g = _EPoly(_primitive([(g.lm, g.lc * scale)] + r), pk.degree)
        out.append(g)
    return out


class GroebnerBasis:
    """Reduced Groebner basis: monic elements, ascending leading monomials.
    It keeps what is derived from its elements: the engine polynomials per
    width and the Hilbert numerator of its leading monomials."""

    __slots__ = ("ring", "elements", "_engine", "_numerator")

    def __init__(self, ring, elements):
        self.ring = ring
        self.elements = tuple(elements)
        self._engine = {}
        self._numerator = None

    @property
    def order(self):
        return self.ring.order

    def engine(self, width):
        """The elements as engine polynomials at `width` bits, kept per width."""
        engine = self._engine.get(width)
        if engine is None:
            pk = self.ring.packer(width)
            engine = self._engine[width] = [_epoly(p, pk) for p in self.elements]
        return engine

    def leading_numerator(self):
        """K(t) of the monomial ideal of the leading monomials, computed once."""
        numerator = self._numerator
        if numerator is None:
            elements = self.elements
            width = max([p._packer.width for p in elements], default=FIELD_WIDTHS[0])
            pk = self.ring.packer(width)
            low = (1 << pk.width * (pk.n + 1)) - 1  # the exponent and degree fields
            leads = [
                (p._keys[0] if p._packer is pk else pk.enc(p._packer.dec(p._keys[0]))) & low
                for p in elements
            ]
            numerator = self._numerator = _monomial_numerator(leads, pk)
        return numerator

    @property
    def is_unit(self):
        return len(self.elements) == 1 and self.elements[0] == self.ring.one()

    def leading_monomials(self):
        return [p.leading_monomial() for p in self.elements]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"<GroebnerBasis of {len(self.elements)} elements ({self.order.tag})>"


class Ideal:
    """An ideal presented by generators, with its reduced basis cached in
    ``_gb`` once computed.  ``_run`` holds a basis computation that
    ``is_member`` advanced only part way, as (packer, state, generator),
    until it completes."""

    __slots__ = ("ring", "generators", "_gb", "_run")

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
        self._gb = self._run = None

    def __repr__(self):
        return f"<Ideal with {len(self.generators)} generators in {self.ring!r}>"


# -- public operations ----------------------------------------------------


def _advance(ideal, degree, width):
    """Advance the basis computation of `ideal` through `degree` (``inf``:
    to its end).  A new run packs at `width` bits, a resumed one at its own:
    an 8-bit run queues no pair of degree 128 or more, so advancing it to
    the degree of a 16-bit polynomial widens it or completes it.  Returns
    (packer, G) while pairs remain queued.  Once the queue is empty it
    caches the reduced basis in ``_gb``, drops the run and returns None.  A
    run that raises is dropped too, so the next call starts afresh."""
    ring = ideal.ring
    run = ideal._run
    if run is None:
        pk = ring.packer(width)
        state = _State(ring.arity)
        steps = _buchberger([_epoly(g, pk) for g in ideal.generators], pk, state)
        next(steps)
        run = (pk, state, steps)
    pk, state, steps = run
    state.refill()
    ideal._run = None
    try:
        G = steps.send(degree)
    except StopIteration as done:
        reduced = _reduce_basis(done.value, pk, state)
        elements = [_int_terms_to_poly(e.terms, ring, pk, denom=e.lc) for e in reduced]
        ideal._gb = GroebnerBasis(ring, elements)
        return None
    ideal._run = run
    return pk, G


def groebner_basis(ideal):
    """The reduced basis of `ideal` in its ring's order, computed once.  A
    computation that ``is_member`` left paused in the ideal's ``_run`` is
    finished, not redone."""
    if ideal._gb is None:
        _widening(_advance, ideal.generators, ideal, inf)
    return ideal._gb


def _remainder(f, basis, width):
    ring = basis.ring
    pk = ring.packer(width)
    num, items = _int_terms(f, pk)
    rem, scale = _nf(dict(items), basis.engine(width), pk, _State(ring.arity))
    return _int_terms_to_poly(rem, ring, pk, denom=num * scale)


def normal_form(f, basis):
    """Remainder of f on division by the GroebnerBasis `basis`."""
    if f.ring != basis.ring:
        raise RingMismatchError("polynomial and basis from different rings")
    if f.is_zero():
        return f
    return _widening(_remainder, (*basis.elements, f), f, basis)


def _member(f, ideal, width):
    run = _advance(ideal, f.total_degree(), width)
    if run is None:
        return normal_form(f, ideal._gb).is_zero()
    pk, G = run
    return not _nf(dict(_int_terms(f, pk)[1]), G, pk, _State(ideal.ring.arity))[0]


def is_member(f, ideal):
    """Whether f lies in `ideal`.

    While the basis of an ideal with homogeneous generators is not complete,
    its computation is advanced only through deg f, the largest degree of
    f's terms, and f is reduced against the elements found so far.  That is
    exact because pairs leave in degree order when sugar is degree
    (``_buchberger``).  With an inhomogeneous generator sugar is not
    degree and a paused run decides nothing, so such an ideal reduces f
    against its complete basis.  The partial run stays in the ideal's
    ``_run``, and a later call or ``groebner_basis`` resumes it.
    """
    if f.ring != ideal.ring:
        raise RingMismatchError("polynomial and ideal from different rings")
    if f.is_zero():
        return True
    if ideal._gb is None and (ideal._run or all(g.is_homogeneous() for g in ideal.generators)):
        return _widening(_member, (*ideal.generators, f), f, ideal)
    gb = groebner_basis(ideal)
    return bool(gb.elements) and normal_form(f, gb).is_zero()


def ideals_equal(a, b):
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")
    ga = groebner_basis(a)
    gb = groebner_basis(b)
    return ga.elements == gb.elements


def _fresh_aux_name(ring, taken=()):
    """The first of t, t_aux0, t_aux1, ... not in `ring` or `taken`."""
    used = set(ring.variables).union(taken)
    name, i = "t", 0
    while name in used:
        name, i = f"t_aux{i}", i + 1
    return name


def _grevlex_twin(ring):
    """The grevlex ring on `ring`'s variables: `ring` itself when it is grevlex."""
    return ring if ring.order == GrevLex() else Ring(ring.variables)


def _moved(polys, ring):
    """The polynomials `polys`, of a ring on `ring`'s variables, in `ring`."""
    return [p if p.ring == ring else Polynomial(ring, dict(p.terms)) for p in polys]


def intersect(a, b):
    """Generators of a ∩ b via the t / (1-t) elimination trick; in a
    grevlex ring they are its reduced basis, cached in ``_gb``."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")
    ring = a.ring
    if not a.generators or not b.generators:
        return Ideal(ring, ())
    twin = _grevlex_twin(ring)
    gens = _moved(a.generators + b.generators, twin)
    work_ring = Ring((_fresh_aux_name(ring),) + ring.variables, BlockElim(1))
    t = work_ring.var(work_ring.variables[0])
    work = []
    for i, g in enumerate(gens):
        pk = work_ring.packer(g._packer.width)
        lifted = Polynomial._stored(work_ring, g._packer.lift_front(g._keys), g._nums, g._den, pk)
        work.append(t * lifted if i < len(a.generators) else lifted - t * lifted)
    gb = groebner_basis(Ideal(work_ring, work))
    out = []
    for p in gb.elements:
        # No term of p has t when its leading term has none.
        pk = p._packer
        if not pk.exponent(p._keys[0], 0):
            keys = pk.drop_front(p._keys)
            out.append(Polynomial._stored(twin, keys, p._nums, p._den, twin.packer(pk.width)))
    result = Ideal(ring, _moved(out, ring))
    if twin is ring:
        # Stripped of t, the t-free part of a reduced BlockElim(1) basis is
        # the reduced grevlex basis of a ∩ b: monic, ascending and reduced.
        result._gb = GroebnerBasis(ring, out)
    return result


def _colon_route(a, homogeneous):
    """A function giving generators of a : f for each non-constant f of a's
    grevlex ring, by the reverse-lex property.

    S = k[x][y]/(y^d - f), d = deg f, is free over k[x] on 1, ..., y^(d-1),
    so (a : f)S = aS : y^d, whose preimage is J : y^d for J = a + (y^d - f).
    For J homogeneous and y last under grevlex, in(J : y) = in(J) : y (Bayer
    and Stillman, Invent. Math. 1987; Eisenbud, Prop. 15.12): J : y^d has
    the basis g / y^min(d, v(g)), v(g) the least y-exponent of g's terms
    (dividing fully gives the saturation).  Rewritten by y^(qd + r) =
    f^q y^r, their coefficients of 1, ..., y^(d-1) generate a : f.
    Otherwise a's cached grevlex basis and f are homogenized by a fresh z
    before y (Cox, Little and O'Shea, Ch. 8 section 4), and z = 1 is set at
    the end.  a is lifted once for every f, and f is replaced by its
    numerator F: a : f = a : F.
    """
    ring = a.ring
    n = ring.arity
    y = _fresh_aux_name(ring)
    added = (y,) if homogeneous else (_fresh_aux_name(ring, (y,)), y)
    k = len(added)
    yring = Ring(ring.variables + added)

    def lift(p, nums, den):
        """p in the y-ring over `nums` and `den`, homogenized by z."""
        pk = yring.packer(p._packer.width)
        keys = p._packer.lift_last(p._keys, k)
        if k == 2:
            z, degree, total = pk.units[n], pk.degree, p.total_degree()
            keys = [key + (total - (key & degree)) * z for key in keys]
        return Polynomial._stored(yring, keys, nums, den, pk)

    gens = a.generators if homogeneous else groebner_basis(a).elements
    lifted = [lift(g, g._nums, g._den) for g in gens]

    def colon(f):
        d = f.total_degree()
        F = lift(f, f._nums, 1)
        powers = {}  # (width, q): the terms of F^q at width
        out = []
        for g in groebner_basis(Ideal(yring, lifted + [F - yring.var(y) ** d])).elements:
            pk = g._packer
            width, unit, exponent = pk.width, pk.units[-1], pk.exponent
            ey = [exponent(key, n + k - 1) for key in g._keys]  # y is the last variable
            s = min(d, min(ey))
            groups = [{} for _ in range(d)]
            for key, e, c in zip(g._keys, ey, g._nums):
                q, r = divmod(e - s, d)
                if q and (width, q) not in powers:
                    p = F**q
                    powers[width, q] = list(zip(p._packed(yring.packer(width)), p._nums))
                acc = groups[r]
                key -= e * unit
                for fm, fc in powers[width, q] if q else ((0, 1),):
                    acc[key + fm] = acc.get(key + fm, 0) + c * fc
            for acc in groups:
                keys = sorted([m for m, c in acc.items() if c], reverse=True)
                if keys:
                    nums = [acc[m] for m in keys]
                    dropped = pk.drop_last(keys, k)  # sets z = 1
                    out.append(Polynomial._stored(ring, dropped, nums, 1, ring.packer(width)))
        return out

    return colon


def quotient(a, b):
    """The colon ideal a : b, the intersection of the parts a : f over the
    generators f of b.

    R, the colon found so far, starts as the unit ideal and takes b's
    generators in (degree, terms) order, so the work does not depend on the
    order of b's generators.  A generator f is skipped when R·f lies in a:
    then R lies in a : f, so R ∩ (a : f) = R.  The test is f ∈ a first
    (a : f = (1)), the whole test while R = (1), and then g·f ∈ a for each
    generator g of R, as the colon or ``intersect`` gave them, that is
    neither a generator nor a member of a.  Any generating set of R decides
    R·f ⊆ a, and g ∈ a gives g·f ∈ a, so the skip is exact; those g are
    found once for each R, when it is first tested.  Only when the test
    fails is a : f computed, as a reverse-lex colon (``_colon_route``), and
    R becomes R ∩ (a : f): the fold runs only when a product test fails.
    So a : b is the unit ideal, generated by 1, exactly when every
    generator lies in a.  The memberships, R and the fold stay in the
    grevlex twin; only the final R moves to a's ring, and a grevlex ring
    gets R itself.  A b with a nonzero constant is (1), so a : b = a: it is
    returned on a's generators, or as (1) when a is the unit ideal.
    """
    if a.ring != b.ring:
        raise RingMismatchError("ideals from different rings")
    if not b.generators:
        raise ZeroIdealDivisorError("colon by the zero ideal")
    ring = a.ring
    twin = _grevlex_twin(ring)
    within = a if twin is ring else Ideal(twin, _moved(a.generators, twin))
    if any(f._keys == (0,) for f in b.generators):
        return Ideal(ring, (ring.one(),) if groebner_basis(within).is_unit else a.generators)
    divisors = sorted(_moved(b.generators, twin), key=lambda f: (f.total_degree(), f.terms))
    homogeneous = all(p.is_homogeneous() for p in within.generators + tuple(divisors))
    colon = _colon_route(within, homogeneous)
    result = outside = None  # R, None while it is (1), and its generators not in a
    for f in divisors:
        if is_member(f, within):
            continue
        if result is not None:
            if outside is None:
                outside = [
                    g for g in result.generators
                    if g not in within.generators and not is_member(g, within)
                ]
            if all(is_member(g * f, within) for g in outside):
                continue
        part = Ideal(twin, colon(f))
        result = part if result is None else intersect(result, part)
        outside = None
    if result is None:
        return Ideal(ring, (ring.one(),))
    return result if twin is ring else Ideal(ring, _moved(result.generators, ring))


def dimension(ideal):
    """Krull dimension of R/I: n minus the order of t = 1 as a root of the
    Hilbert numerator of in(I).  R/I and R/in(I) have the same dimension in
    every monomial order, and in(I) is a monomial ideal, homogeneous whatever
    I is, so no generator need be (Bayer and Stillman, J. Symb. Comp. 14,
    1992)."""
    gb = groebner_basis(ideal)
    if gb.is_unit:
        raise UnitIdealError("the unit ideal has no dimension")
    coeffs = gb.leading_numerator()
    order = 0
    while not sum(coeffs):
        # K(1) = 0, so K / (1 - t) is the polynomial of K's partial sums.
        coeffs = list(accumulate(coeffs))[:-1]
        order += 1
    return ideal.ring.arity - order


def codim(ideal):
    """Height of a proper ideal: ring arity minus dimension."""
    return ideal.ring.arity - dimension(ideal)


def _times_binomial(coeffs, d):
    """The coefficients of coeffs(t) * (1 - t^d)."""
    out = coeffs + [0] * d
    for i, c in enumerate(coeffs):
        out[i + d] -= c
    return out


def _monomial_numerator(mons, pk):
    """The coefficients of K(t) for the monomial ideal M of `mons`, keys of
    `pk` cut to their exponent and degree fields, none dividing another.

    A monomial p outside M gives the exact sequence 0 → R/(M : p)(−deg p)
    → R/M → R/(M + p) → 0, so N(M) = N(M + p) + t^deg(p)·N(M : p).  The
    pivot is x^e, x a variable in the most generators and e its least
    exponent among them.  While x is in two generators x^e is not in M, and
    every generator with x has x-exponent at least e, so M + x^e is the
    generators without x and x^e, whose N is (1 − t^e) times theirs, and
    M : x^e takes e off each of those exponents.  Generators that share no
    variable give Π(1 − t^deg) (Bayer and Stillman, J. Symb. Comp. 14,
    1992; Bigatti, J. Pure Appl. Algebra 119, 1997).  The splits wait on a
    stack, each with its multiplier, so no Python recursion limit applies."""
    degree, guard, exps, width = pk.degree, pk.guard, pk.exps, pk.width
    total = []
    stack = [(mons, [1])]
    while stack:
        mons, mult = stack.pop()
        # The guard bit of each nonzero exponent field: x's bit is in a
        # support when x divides the monomial.
        sups = [((m & exps) + exps) & guard for m in mons]
        seen = shared = 0
        for s in sups:
            shared |= seen & s
            seen |= s
        if not shared:
            for m in mons:
                mult = _times_binomial(mult, m & degree)
            if len(mult) > len(total):
                total += [0] * (len(mult) - len(total))
            for i, c in enumerate(mult):
                total[i] += c
            continue
        best = 0
        bits = shared
        while bits:
            bit = bits & -bits
            bits ^= bit
            count = sum([1 for s in sups if s & bit])
            if count > best:
                best, pivot = count, bit
        shift = pivot.bit_length() - width
        e = min([(m >> shift) & degree for m, s in zip(mons, sups) if s & pivot])
        xe = e * ((1 << shift) | 1)
        stack.append(([m for m, s in zip(mons, sups) if not s & pivot], _times_binomial(mult, e)))
        # M : x^e, kept minimal: by ascending degree a divisor comes first.
        colon = []
        quotients = [m - xe if s & pivot else m for m, s in zip(mons, sups)]
        for m in sorted(quotients, key=lambda m: m & degree):
            for k in colon:
                if not (m - k) & guard:
                    break
            else:
                colon.append(m)
        stack.append((colon, [0] * e + mult))
    while total and not total[-1]:
        total.pop()
    return tuple(total)


def hilbert_numerator(ideal):
    """The integer coefficients of K(t), constant first, where the Hilbert
    series of R/ideal is K(t) / (1 − t)^n, n the ring's arity; the zero
    polynomial, the unit ideal's, is ().

    The generators must be homogeneous.  Then R/ideal and R/in(ideal) have
    the same Hilbert function in every monomial order (Macaulay), so K is
    read off the leading monomials of the ideal's reduced basis, which
    divide no other (``_monomial_numerator``).
    """
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise NonHomogeneousError(f"nonhomogeneous generator {g}")
    return groebner_basis(ideal).leading_numerator()


def s_polynomial(f, g):
    """The S-polynomial of f and g in their ring's order."""
    if f.ring != g.ring:
        raise RingMismatchError("polynomials from different rings")
    ring = f.ring
    lf, cf = f.terms[0]
    lg, cg = g.terms[0]
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
            if not normal_form(s_polynomial(elems[i], elems[j]), gb).is_zero():
                return False
    return True


def min_generators(ideal):
    """A minimal generating subset of the homogeneous generators, whatever their order."""
    ring = ideal.ring
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise NonHomogeneousError(f"nonhomogeneous generator {g}")
    gens = sorted(ideal.generators, key=lambda g: (g.total_degree(), g.terms))
    kept = []
    # One ideal per kept set, so each skipped generator resumes its run.
    span = None
    for g in gens:
        if kept and is_member(g, span):
            continue
        kept.append(g)
        span = Ideal(ring, kept)
    return kept
