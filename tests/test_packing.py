"""Packed monomials, checked against the tuple monomial ops.

A packed monomial must round-trip, sort like a reference tuple key of its
order, multiply by int addition and test divisibility by one guard mask, for
every arity the bundled datasets use and for exponents up to the limit of
each engine width, 8 and 16 bits.  An 8-bit computation whose degree reaches
128 is redone at 16 bits; at 16 bits the engine raises at or past its limit
rather than wrapping.  A `Polynomial` packs at a width that holds its
degree, or raises when the degree reaches the limit.
"""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resint import (
    BlockElim,
    GrevLex,
    Ideal,
    Lex,
    Polynomial,
    PolyError,
    Ring,
    groebner_basis,
    intersect,
    is_member,
    normal_form,
)
from resint import groebner
from resint.groebner import DEGREE_LIMIT, GroebnerError, certify_basis
from resint.poly import (
    FIELD_WIDTHS,
    DegreeOverflowError,
    Packer,
    mon_lcm,
    packer,
)


def _grevlex_ref(m):
    # Larger key = larger monomial: total degree first, then the rightmost
    # differing variable must have the *smaller* exponent.
    return (sum(m),) + tuple(-e for e in reversed(m))


def reference_key(order, m):
    """The tuple key each order was defined by before keys were packed."""
    if isinstance(order, Lex):
        return m
    if isinstance(order, GrevLex):
        return _grevlex_ref(m)
    f = order.front
    return _grevlex_ref(m[:f]) + _grevlex_ref(m[f:])


def mon_mul(a, b):
    return tuple(map(add, a, b))


def mon_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


# The widths the engine runs at.
ENGINE_WIDTHS = FIELD_WIDTHS[:2]


@st.composite
def order_and_arity(draw):
    n = draw(st.integers(1, 30))
    order = draw(
        st.sampled_from([Lex(), GrevLex()]) | st.integers(0, n).map(BlockElim)
    )
    return order, n


def _capped(limit, *ms):
    """Scale monomials down so that their degrees sum to below `limit`."""
    total = sum(sum(m) for m in ms)
    if total < limit:
        return ms
    return tuple(tuple(e * (limit - 1) // total for e in m) for m in ms)


def _monomials(data, n, count, limit):
    # Small exponents make ties and divisibility common; large ones reach
    # the limit.
    exponent = st.one_of(st.integers(0, 3), st.integers(0, limit - 1))
    mono = st.lists(exponent, min_size=n, max_size=n).map(tuple)
    return [_capped(limit, data.draw(mono))[0] for _ in range(count)]


@pytest.mark.parametrize("width", ENGINE_WIDTHS)
@settings(max_examples=200, deadline=None)
@given(case=order_and_arity(), data=st.data())
def test_pack_roundtrips_and_sorts_like_order_key(width, case, data):
    order, n = case
    p = packer(order, n, width)
    ms = _monomials(data, n, data.draw(st.integers(1, 8)), p.limit)
    for m in ms:
        assert p.dec(p.enc(m)) == m
    ref = sorted(ms, key=lambda m: reference_key(order, m))
    assert sorted(ms, key=p.enc) == ref
    assert sorted(ms, key=order.key) == ref


@pytest.mark.parametrize("width", ENGINE_WIDTHS)
@settings(max_examples=200, deadline=None)
@given(case=order_and_arity(), data=st.data())
def test_pack_multiply_lcm_and_divisibility(width, case, data):
    order, n = case
    p = packer(order, n, width)
    a, c = _capped(p.limit, *_monomials(data, n, 2, p.limit))
    b = mon_mul(a, c) if data.draw(st.booleans()) else _monomials(data, n, 1, p.limit)[0]
    ea, eb, ec = p.enc(a), p.enc(b), p.enc(c)
    assert ea + ec == p.enc(mon_mul(a, c))
    assert (not (eb - ea) & p.guard) == mon_divides(a, b)
    assert (not (ea - eb) & p.guard) == mon_divides(b, a)
    l = p.lcm_exps(ea, eb)
    assert p.dec(l) == mon_lcm(a, b)
    # The Buchberger loop packs a pair's lcm as lm(h) + the image of the
    # exponent fields of lcm / lm(h).
    assert ea + p.enc_exps(l - (ea & p.exps)) == p.enc(mon_lcm(a, b))
    assert p.enc_exps(ea & p.exps) == ea


@pytest.mark.parametrize("width", ENGINE_WIDTHS)
def test_units_pack_each_column_of_the_fields(width):
    """Each variable's unit, packed by the codec, is the sum of its column
    of fields shifted into place, highest field first."""
    for n in range(1, 31):
        for order in [Lex(), GrevLex()] + [BlockElim(f) for f in range(n + 1)]:
            fields = order.weight_rows(n)
            fields += [tuple(1 if v == i else 0 for v in range(n)) for i in range(n)]
            fields.append((1,) * n)
            top = len(fields) - 1
            shifted = tuple(
                sum(row[i] << (width * (top - f)) for f, row in enumerate(fields))
                for i in range(n)
            )
            assert Packer(order, n, width).units == shifted, (order, n)


# -- embeddings ------------------------------------------------------------
#
# Each embedding must equal enc of the embedded monomials in the target
# packer, for arities through those of the bundled colons (e7's y-ring has
# 28 variables) and degrees up to each width's limit, and keep descending
# keys strictly descending.


def _descending(p, ms):
    """The distinct monomials `ms`, descending under packer p."""
    return sorted(set(ms), key=p.enc, reverse=True)


def _strictly_descending(keys):
    return keys == sorted(set(keys), reverse=True)


@pytest.mark.parametrize("width", ENGINE_WIDTHS)
@settings(max_examples=100, deadline=None)
@given(case=order_and_arity(), data=st.data())
def test_exponent_reads_one_variable(width, case, data):
    order, n = case
    p = packer(order, n, width)
    for m in _monomials(data, n, 4, p.limit):
        assert [p.exponent(p.enc(m), i) for i in range(n)] == list(m)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("width", ENGINE_WIDTHS)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_lift_last_adds_variables_last(width, k, n, data):
    src, dst = packer(GrevLex(), n, width), packer(GrevLex(), n + k, width)
    ms = _descending(src, _monomials(data, n, data.draw(st.integers(1, 8)), src.limit))
    lifted = src.lift_last([src.enc(m) for m in ms], k)
    assert lifted == [dst.enc(m + (0,) * k) for m in ms]
    assert _strictly_descending(lifted)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("width", ENGINE_WIDTHS)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_drop_last_sets_the_last_variables_to_one(width, k, n, data):
    src, dst = packer(GrevLex(), n + k, width), packer(GrevLex(), n, width)
    ms = _monomials(data, n + k, data.draw(st.integers(1, 8)), src.limit)
    assert src.drop_last([src.enc(m) for m in ms], k) == [dst.enc(m[:n]) for m in ms]
    # Monomials of one degree, with one exponent c in each of the last k - 1
    # variables, keep their order.
    c = data.draw(st.integers(0, 3))
    xs = _monomials(data, n, data.draw(st.integers(1, 8)), src.limit - 3 * (k - 1))
    top = max(map(sum, xs))
    ms = _descending(src, [x + (top - sum(x),) + (c,) * (k - 1) for x in xs])
    dropped = src.drop_last([src.enc(m) for m in ms], k)
    assert dropped == [dst.enc(m[:n]) for m in ms]
    assert _strictly_descending(dropped)


@pytest.mark.parametrize("width", ENGINE_WIDTHS)
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), data=st.data())
def test_lift_front_and_drop_front_move_a_first_variable(width, n, data):
    src, dst = packer(GrevLex(), n, width), packer(BlockElim(1), n + 1, width)
    ms = _descending(src, _monomials(data, n, data.draw(st.integers(1, 8)), src.limit))
    keys = [src.enc(m) for m in ms]
    lifted = src.lift_front(keys)
    assert lifted == [dst.enc((0,) + m) for m in ms]
    assert _strictly_descending(lifted)
    assert dst.drop_front([dst.enc((0,) + m) for m in ms]) == keys


# -- wide polynomials ------------------------------------------------------

# At, just past and far past each field width; from 2**15 on, past the
# degree limit.
WIDE_DEGREES = [
    2**7 - 1, 2**7, 2**15 - 1, 2**15, 2**16, 2**31 + 3, 2**40, 2**63 - 1, 2**63, 2**70
]


@pytest.mark.parametrize("top", WIDE_DEGREES)
@settings(max_examples=25, deadline=None)
@given(case=order_and_arity(), data=st.data())
def test_wide_polynomials_order_terms_or_raise(top, case, data):
    order, n = case
    ring = Ring([f"x{i}" for i in range(n)], order)
    # One monomial carries the whole degree on some variable, the others
    # split smaller and large exponents at random.
    heavy = [0] * n
    heavy[data.draw(st.integers(0, n - 1))] = top
    mono = st.lists(st.sampled_from([0, 1, 2, top // 3, top // 2]), min_size=n, max_size=n)
    ms = {tuple(heavy)} | {tuple(m) for m in data.draw(st.lists(mono, max_size=6))}
    coeffs = {m: 1 + i for i, m in enumerate(sorted(ms))}
    degree = max(map(sum, ms))
    if degree >= DEGREE_LIMIT:
        with pytest.raises(DegreeOverflowError):
            Polynomial(ring, coeffs)
        return
    p = Polynomial(ring, coeffs)
    want = sorted(ms, key=lambda m: reference_key(order, m), reverse=True)
    assert [m for m, _ in p.terms] == want
    assert p.total_degree() == degree
    assert p + p == p.scale(2)
    # Sums with a narrower polynomial merge at the wider packing.
    small = Polynomial(ring, {(1,) * n: 5, (0,) * n: -1})
    both = dict(coeffs)
    for m, c in small.terms:
        both[m] = both.get(m, 0) + c
    assert p + small == small + p == Polynomial(ring, both)
    # Cancelling p's terms repacks the sum at small's width.
    rest = (p + small) - p
    assert rest == small
    assert rest._packer.width == small._packer.width == FIELD_WIDTHS[0]
    # Products add keys while they fit, then widen, then raise.
    if 2 * degree >= DEGREE_LIMIT:
        with pytest.raises(DegreeOverflowError):
            p * p
        return
    square = p * p
    assert square.terms[0][0] == mon_mul(want[0], want[0])
    assert square.total_degree() == 2 * degree
    assert square == Polynomial(ring, dict(square.terms))


def test_polynomial_rejects_negative_exponents():
    R = Ring(["x", "y"])
    with pytest.raises(PolyError, match="negative"):
        Polynomial(R, {(1, -1): 1})
    with pytest.raises(PolyError, match="negative"):
        R.monomial((0, -3))


# -- the degree limit ------------------------------------------------------


def _lex_xy():
    return Ring(["x", "y"], Lex())


def test_generator_at_degree_limit_raises():
    R = _lex_xy()
    half = DEGREE_LIMIT // 2
    # No generator, and no key, of degree DEGREE_LIMIT can be built.
    with pytest.raises(DegreeOverflowError, match=str(DEGREE_LIMIT - 1)):
        R.monomial((half, half)) - R.var("y")
    for order in (Lex(), GrevLex(), BlockElim(1)):
        with pytest.raises(DegreeOverflowError, match=str(DEGREE_LIMIT - 1)):
            order.key((half, half))


def test_product_past_degree_limit_raises():
    R = _lex_xy()
    x = R.var("x")
    # The leading term of x - y^(limit-1) is x, so reducing x^2 by it, or the
    # S-polynomial of x^2 and it, produces x*y^(limit-1).
    g = x - R.monomial((0, DEGREE_LIMIT - 1))
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        normal_form(x * x, groebner_basis(Ideal(R, [g])))
    with pytest.raises(GroebnerError, match=str(DEGREE_LIMIT - 1)):
        groebner_basis(Ideal(R, [x * x, g]))


def test_generator_just_below_degree_limit_is_reduced():
    R = _lex_xy()
    top = DEGREE_LIMIT - 1
    g = R.monomial((top, 0), 2) - R.monomial((1, top - 1)) + R.var("y")
    gb = groebner_basis(Ideal(R, [g]))
    assert gb.elements == (g.scale(Fraction(1, 2)),)
    assert normal_form(R.monomial((top, 0)), gb) == (g.scale(Fraction(-1, 2)) + R.monomial((top, 0)))


# -- the 8 -> 16 redo --------------------------------------------------------


def test_basis_past_8_bits_is_redone_at_16():
    R = _lex_xy()
    x, y = R.gens()
    g = x - y**127
    # Both inputs pack at 8 bits; x * y^127 and the basis element y^254 do not.
    assert g._packer.width == (x * x)._packer.width == 8
    gb = groebner_basis(Ideal(R, [x * x, g]))
    assert gb.elements == (y**254, g)
    assert [p._packer.width for p in gb] == [16, 8]


def test_spoly_shift_past_8_bits_is_redone_at_16():
    R = _lex_xy()
    x, y = R.gens()
    # Both inputs and their lcm x*y^100 pack at 8 bits; the S-polynomial's
    # shifted tail term y^130 does not.
    gb = groebner_basis(Ideal(R, [x + y**100, x * y**30]))
    assert gb.elements == (y**130, x + y**100)
    assert [p._packer.width for p in gb] == [16, 8]


def test_pair_lcm_past_8_bits_is_redone_at_16(monkeypatch):
    R = Ring(["x", "y", "z"], GrevLex())
    x, y, z = R.gens()
    f, g = x**100 * y + z, x * y**100 + z
    # Both inputs pack at 8 bits; their pair lcm x^100*y^100 has degree 200.
    assert f._packer.width == g._packer.width == 8
    raised = []
    trusted = groebner._degree_error

    def spy(degree, pk):
        raised.append((degree, pk.width))
        return trusted(degree, pk)

    monkeypatch.setattr(groebner, "_degree_error", spy)
    gb = groebner_basis(Ideal(R, [f, g]))
    assert raised == [(200, 8)]
    assert gb.elements == (x**99 * z - y**99 * z, g, f, y**199 * z + x**98 * z**2)
    assert certify_basis(gb)


def test_normal_form_past_8_bits_is_redone_at_16():
    R = _lex_xy()
    x, y = R.gens()
    g = x - y**127
    # A fresh basis first used past 8 bits, and one used at 8 bits first.
    assert normal_form(x * x, groebner_basis(Ideal(R, [g]))) == y**254
    basis = groebner_basis(Ideal(R, [g]))
    # First used at 8 bits, then widened for x^2.
    assert normal_form(x * y, basis) == y**128
    assert normal_form(y, basis) == y
    assert normal_form(x * x, basis) == y**254
    assert is_member(x * x - y**254, Ideal(R, [g]))
    assert not is_member(x * x, Ideal(R, [g]))


def test_intersect_of_mixed_widths_matches_the_terms_path(monkeypatch):
    R = Ring(["x", "y", "z"], GrevLex())
    # BlockElim(0) ranks like grevlex, but intersect lifts only a GrevLex
    # ring's keys, so the twin takes the terms path.
    twin = Ring(R.variables, BlockElim(0))
    x, y, z = R.gens()
    small, cubic = x * y - z**2, z**3 - x * y * z  # 8 bits
    top = y**127 - x * z**126  # 8 bits, but t lifts it to degree 128
    wide = y**130 - x * z**129  # 16 bits
    assert [p._packer.width for p in (small, cubic, top, wide)] == [8, 8, 8, 16]
    # Every polynomial built on keys, the lifted ones included, holds its
    # degree at its width.
    trusted = Polynomial._stored.__func__

    def audited(cls, ring, keys, nums, den, pk):
        assert max([k & pk.degree for k in keys], default=0) < pk.limit
        return trusted(cls, ring, keys, nums, den, pk)

    monkeypatch.setattr(Polynomial, "_stored", classmethod(audited))

    def move(ps, ring):
        return [Polynomial(ring, dict(p.terms)) for p in ps]

    cases = [
        ([small], [wide]),
        ([wide], [small, cubic]),
        ([small, top], [cubic]),
        ([top], [x - y]),
        ([cubic, wide], [top]),
    ]
    for a, b in cases:
        got = intersect(Ideal(R, a), Ideal(R, b)).generators
        want = intersect(Ideal(twin, move(a, twin)), Ideal(twin, move(b, twin))).generators
        assert list(got) == move(want, R)
    # Coprime principal ideals meet in their product.
    for f, g in ((small, wide), (top, x - y)):
        got = groebner_basis(intersect(Ideal(R, [f]), Ideal(R, [g])))
        assert got.elements == groebner_basis(Ideal(R, [f * g])).elements
