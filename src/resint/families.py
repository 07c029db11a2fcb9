"""Constructors for the concrete ideal families under verification.

Generic matrices and their minors, skew-symmetric matrices and Pfaffians,
the bordered matrix of the Gorenstein residual-intersection construction,
the type A and D Schubert-cell ideals, built by one rule, the Gr(2,n)
Pluecker model, and the bundled E6/E7 datasets, read from the bundled
scenario JSON, their only source.
"""

import itertools

from .groebner import Ideal
from .poly import PolyError, Ring


class FamilyError(PolyError):
    pass


def _grid_name(prefix, i, j, wide):
    return f"{prefix}_{i}_{j}" if wide else f"{prefix}_{i}{j}"


# -- generic matrices and minors ------------------------------------------


class GenericMatrix:
    """A matrix over a ring, as a tuple of row tuples, with a memo of its
    minors keyed by (rows, cols)."""

    __slots__ = ("ring", "entries", "_minor_cache")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = entries
        self._minor_cache = {}

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def entry(self, i, j):
        """1-based access."""
        return self.entries[i - 1][j - 1]


def generic_matrix(rows, cols):
    """A rows x cols grid of fresh variables y_ij in a fresh grevlex ring."""
    if rows < 1 or cols < 1:
        raise FamilyError("matrix dimensions must be positive")
    wide = max(rows, cols) > 9
    names = [_grid_name("y", i, j, wide) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    ring = Ring(names)
    entries = tuple(
        tuple(ring.var(_grid_name("y", i, j, wide)) for j in range(1, cols + 1))
        for i in range(1, rows + 1)
    )
    return GenericMatrix(ring, entries)


def big_cell_matrix(k, n):
    """The k x n big-cell matrix: a k x (n-k) variable block, then I_k."""
    if not 1 <= k < n:
        raise FamilyError("need 1 <= k < n")
    block = generic_matrix(k, n - k)
    ring = block.ring
    entries = []
    for i in range(1, k + 1):
        row = list(block.entries[i - 1])
        row += [ring.one() if t == i else ring.zero() for t in range(1, k + 1)]
        entries.append(tuple(row))
    return GenericMatrix(ring, tuple(entries))


def matrix_minor(M, rows, cols):
    """Determinant of the submatrix on `rows` x `cols` (1-based index lists)."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise FamilyError("minor needs equally many rows and columns")
    return _cofactor(M, rows, cols)


def _cofactor(M, rows, cols):
    if not rows:
        return M.ring.one()
    cached = M._minor_cache.get((rows, cols))
    if cached is not None:
        return cached
    r = rows[0]
    total = M.ring.zero()
    for idx, c in enumerate(cols):
        e = M.entry(r, c)
        if e.is_zero():
            continue
        sub = _cofactor(M, rows[1:], cols[:idx] + cols[idx + 1 :])
        term = e * sub
        total = total + (term if idx % 2 == 0 else -term)
    M._minor_cache[rows, cols] = total
    return total


def minors(M, r):
    """All r x r minors, cofactor-expanded through the matrix's memo."""
    if r < 0 or r > min(M.rows, M.cols):
        raise FamilyError(f"no {r}x{r} minors of a {M.rows}x{M.cols} matrix")
    return [
        _cofactor(M, rows, cols)
        for rows in itertools.combinations(range(1, M.rows + 1), r)
        for cols in itertools.combinations(range(1, M.cols + 1), r)
    ]


# -- skew-symmetric matrices and Pfaffians ---------------------------------


class SkewMatrix:
    """Skew-symmetric matrix over a ring: upper entries, zero diagonal."""

    __slots__ = ("ring", "size", "_upper", "_pf_cache")

    def __init__(self, ring, size, upper):
        self.ring = ring
        self.size = size
        self._upper = dict(upper)
        self._pf_cache = {}

    def entry(self, i, j):
        if i == j:
            return self.ring.zero()
        if i < j:
            return self._upper.get((i, j), self.ring.zero())
        return -self._upper.get((j, i), self.ring.zero())


def generic_skew(m):
    """Generic m x m skew matrix of fresh variables x_ij."""
    if m < 1:
        raise FamilyError("size must be positive")
    wide = m > 9
    names = [_grid_name("x", i, j, wide) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    ring = Ring(names)
    upper = {
        (i, j): ring.var(_grid_name("x", i, j, wide))
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    }
    return SkewMatrix(ring, m, upper)


def zero_corner(A, j):
    """Copy of A with the south-east j x j block set to zero."""
    m = A.size
    if not 0 <= j <= m:
        raise FamilyError(f"j={j} outside [0, {m}]")
    cut = m - j
    upper = {
        (a, b): A.entry(a, b)
        for a in range(1, m + 1)
        for b in range(a + 1, m + 1)
        if not (a > cut and b > cut)
    }
    return SkewMatrix(A.ring, m, upper)


def ku_bordered(A, j):
    """The (m+j) x (m+j) bordered skew matrix [[A, B], [-B^t, 0]].

    B is m x j with zero top (m-j) x j part and the j x j identity below,
    so its columns select the last j coordinate vectors.
    """
    m = A.size
    if not 1 <= j <= m:
        raise FamilyError(f"j={j} outside [1, {m}]")
    one = A.ring.one()
    upper = {}
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            e = A.entry(a, b)
            if not e.is_zero():
                upper[(a, b)] = e
    for col in range(1, j + 1):
        upper[(m - j + col, m + col)] = one
    return SkewMatrix(A.ring, m + j, upper)


def pfaffian(A, rows=None):
    """Pfaffian of the principal submatrix on `rows` (pf of the empty set is 1)."""
    if rows is None:
        rows = range(1, A.size + 1)
    S = tuple(sorted(rows))
    if len(S) % 2:
        raise FamilyError("pfaffian needs an even index set")
    return _pf(A, S)


def _pf(A, S):
    cached = A._pf_cache.get(S)
    if cached is not None:
        return cached
    if not S:
        return A.ring.one()
    total = A.ring.zero()
    a, rest = S[0], S[1:]
    for idx, b in enumerate(rest):
        e = A.entry(a, b)
        if e.is_zero():
            continue
        term = e * _pf(A, tuple(x for x in rest if x != b))
        total = total + (term if idx % 2 == 0 else -term)
    A._pf_cache[S] = total
    return total


def submaximal_pfaffians(A):
    """pf([1,m] minus {t}) for t = 1..m, for odd m."""
    m = A.size
    if m % 2 == 0:
        raise FamilyError("sub-maximal pfaffians need odd size")
    full = tuple(range(1, m + 1))
    return [_pf(A, tuple(x for x in full if x != t)) for t in range(1, m + 1)]


def _even_pfaffians(A, base, rest):
    """pf(base + S) for each S of `rest` that makes an even set, smallest S
    first; every index of `rest` lies above those of `base`."""
    base = tuple(base)
    return [
        _pf(A, base + S)
        for size in range(len(base) % 2, len(rest) + 1, 2)
        for S in itertools.combinations(rest, size)
    ]


def pfaffian_ideal_containing(A, j):
    """The ideal of pf(S) over all even S containing [1, m-j].

    For j = m the empty set qualifies and contributes pf = 1, so the ideal
    degenerates to the unit ideal, matching the colon identity at j = m.
    """
    m = A.size
    if not 3 <= j <= m:
        raise FamilyError(f"j={j} outside [3, {m}]")
    return Ideal(A.ring, _even_pfaffians(A, range(1, m - j + 1), range(m - j + 1, m + 1)))


def pfaffian_colon_base(A, j):
    """The last j sub-maximal Pfaffians: pf([1,m] minus {t}) for t = m-j+1..m.

    These are the generators selected by the zero-over-identity border matrix;
    their colon against the full sub-maximal Pfaffian ideal is Pf_j.
    """
    m = A.size
    if m % 2 == 0:
        raise FamilyError("odd size required")
    if not 3 <= j <= m:
        raise FamilyError(f"j={j} outside [3, {m}]")
    return submaximal_pfaffians(A)[m - j :]


def bordered_pfaffian_ideal(A, j):
    """Even-sized Pfaffians of the bordered matrix containing the A block."""
    m = A.size
    T = ku_bordered(A, j)
    return Ideal(A.ring, _even_pfaffians(T, range(1, m + 1), range(m + 1, m + j + 1)))


# -- Schubert-cell ideals -----------------------------------------------------


def schubert_ideal(ring, crystal, el, unit, coordinate):
    """Vanishing ideal of the cell Schubert variety at the crystal element
    `el`: the coordinates of the elements outside the Bruhat interval between
    `el` and `unit`, the extremal element whose coordinate is 1.

    One rule for every type; only the coordinate and the unit differ.  In
    type A the unit is the crystal's top, the last k columns of the big-cell
    matrix; in type D it is the spin bottom, pf of the empty set.
    """
    leq = crystal.bruhat_leq
    lo, hi = (el, unit) if leq(el, unit) else (unit, el)
    return Ideal(
        ring, [coordinate(x) for x in crystal.elements if not (leq(lo, x) and leq(x, hi))]
    )


def typeD_schubert_ideal(el, crystal, A):
    """Ideal of the cell Schubert variety at the spin element `el`: the
    Pfaffians of all labels not Bruhat-below el."""
    from .combinat import pfaffian_label

    if not isinstance(A, SkewMatrix):
        raise FamilyError("expected a SkewMatrix")
    if crystal.n != A.size:
        raise FamilyError("crystal rank and matrix size differ")
    return schubert_ideal(
        A.ring, crystal, el, crystal.bottom(), lambda x: pfaffian(A, pfaffian_label(x))
    )


def typeA_left_subset(k, s):
    """Walk node s on the long arm: {1..k-1, k+s}; s = 0 is the cell itself."""
    if s == 0:
        return tuple(range(1, k + 1))
    return tuple(sorted(list(range(1, k)) + [k + s]))


def typeA_right_subset(k, s):
    """Walk node s on the short arm: [1, k+1] minus {k+1-s}."""
    out = list(range(1, k + 2))
    out.remove(k + 1 - s)
    return tuple(out)


def typeA_coordinate(M, subset):
    """The Pluecker coordinate p_subset on the big cell: a maximal minor."""
    return matrix_minor(M, range(1, M.rows + 1), subset)


def _typeA_schubert(k, n, w):
    """Ideal of the cell Schubert variety at the k-subset w of [1, n], on the
    k x n big-cell matrix: the p_tau with tau not componentwise >= w."""
    from .combinat import TypeACrystal

    M = big_cell_matrix(k, n)
    crystal = TypeACrystal(k, n)
    return schubert_ideal(
        M.ring, crystal, w, crystal.elements[-1], lambda tau: typeA_coordinate(M, tau)
    )


def _check_typeA_params(k, n):
    if not 2 <= k <= n - 2:
        raise FamilyError(f"need 2 <= k <= n-2, got k={k}, n={n}")


def typeA_left_ideal(k, n, s):
    """Ideal of the s-th long-arm node (s = 1 is the first arm node y_1)."""
    _check_typeA_params(k, n)
    if not 0 <= s <= n - k - 1:
        raise FamilyError(f"left arm index s={s} outside [0, {n - k - 1}]")
    return _typeA_schubert(k, n, typeA_left_subset(k, s + 1))


def typeA_right_ideal(k, n, s):
    """Ideal of the walk node s steps down the short arm (s = 2 is z_1)."""
    _check_typeA_params(k, n)
    if not 0 <= s <= k:
        raise FamilyError(f"right walk index s={s} outside [0, {k}]")
    return _typeA_schubert(k, n, typeA_right_subset(k, s))


def typeA_left_chain(k, n, upto):
    """Linking coordinates p along the long-arm walk, positions 0..upto."""
    _check_typeA_params(k, n)
    if not 0 <= upto <= n - k:
        raise FamilyError(f"walk position {upto} outside [0, {n - k}]")
    M = big_cell_matrix(k, n)
    return [typeA_coordinate(M, typeA_left_subset(k, s)) for s in range(upto + 1)]


def typeA_right_chain(k, n, upto):
    _check_typeA_params(k, n)
    if not 0 <= upto <= k:
        raise FamilyError(f"walk position {upto} outside [0, {k}]")
    M = big_cell_matrix(k, n)
    return [typeA_coordinate(M, typeA_right_subset(k, s)) for s in range(upto + 1)]


# -- Gr(2, n) Pluecker model ------------------------------------------------


class Gr2Model:
    """The Gr(2, n) coordinate ring and its Pluecker relations."""

    __slots__ = ("n", "ring", "relations")

    def __init__(self, n, ring, relations):
        self.n = n
        self.ring = ring
        self.relations = relations

    def coordinate(self, s, t):
        return self.ring.var(_grid_name("p", s, t, self.n > 9))

    def ideal_I(self):
        """(p_in : 1 <= i < n) together with the relations."""
        gens = [self.coordinate(i, self.n) for i in range(1, self.n)]
        return Ideal(self.ring, gens + list(self.relations))

    def ideal_K(self, j):
        """(p_in : j <= i < n) together with the relations."""
        self._check_j(j)
        gens = [self.coordinate(i, self.n) for i in range(j, self.n)]
        return Ideal(self.ring, gens + list(self.relations))

    def ideal_I_j(self, j):
        """(p_st : j <= s < t <= n) together with the relations."""
        self._check_j(j)
        gens = [
            self.coordinate(s, t)
            for s in range(j, self.n + 1)
            for t in range(s + 1, self.n + 1)
        ]
        return Ideal(self.ring, gens + list(self.relations))

    def _check_j(self, j):
        if not 1 <= j < self.n:
            raise FamilyError(f"j={j} outside [1, {self.n - 1}]")


def pluecker_gr2(n):
    """The Gr(2, n) coordinate ring with its three-term quadratic relations.

    The coordinates are p_st for s < t, named p_s_t once n > 9."""
    if n < 4:
        raise FamilyError("need n >= 4")
    wide = n > 9
    pairs = itertools.combinations(range(1, n + 1), 2)
    ring = Ring([_grid_name("p", s, t, wide) for s, t in pairs])

    def p(s, t):
        return ring.var(_grid_name("p", s, t, wide))

    rels = tuple(
        p(s, t) * p(u, v) - p(s, u) * p(t, v) + p(s, v) * p(t, u)
        for s, t, u, v in itertools.combinations(range(1, n + 1), 4)
    )
    return Gr2Model(n, ring, rels)


# -- bundled datasets --------------------------------------------------------


def _bundled(name):
    """The bundled scenario `name`, the one copy of its dataset."""
    # Imported here, not at module level, so that importing the families
    # does not import the scenario runner.
    from .verify import bundled_scenario_path, load_scenario_file

    return load_scenario_file(bundled_scenario_path(name))


def e6_dataset():
    """The 16-variable scenario, with ideals J23, J22, J17, a_1, a_2."""
    return _bundled("e6")


def e7_dataset():
    """The 27-variable scenario, with its I2 also named I51.

    The session checks leave I2 undefined; I51, the scenario's I2, is the
    reading that reproduces both recorded verdicts (see the dataset
    verification suite).
    """
    ds = _bundled("e7")
    return ds._replace(ideals=dict(ds.ideals, I51=ds.ideals["I2"]))
