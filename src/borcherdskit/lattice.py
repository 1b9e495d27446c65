"""Exact linear algebra for even positive-definite lattices.

Everything here runs over Python integers and fractions.Fraction; no floating
point is used anywhere. Vectors are tuples of Fractions holding coordinates
with respect to the lattice basis, so the Gram matrix is the single source of
truth for all inner products. Inner products scale both vectors to integers
over a common denominator and build one Fraction at the end. Short vectors of
a coset come from the branch and bound of Fincke and Pohst on integers: the
LDL decomposition of the Gram matrix is scaled once per lattice to integer
weights, each coset to its common denominator, and every vector found carries
its norm as an exact integer. Coset minima are searched once per orthogonal
block of the Gram matrix, on integer keys, into the record (gden, qden,
{gden * gamma: qden * min Q}); gden is the determinant, a common
denominator of every dual vector. The table is a read-only sorted map held
as the tables of its blocks, a minimum being the sum of its blocks' minima,
so it takes memory in proportion to the blocks' cosets; listing every key
still costs det. coset_minima() returns that record and builds no
Fraction; coset_minimum() gives one coset's minimum as a Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, product, repeat
from math import floor, gcd, inf, isqrt, lcm, prod
from operator import add, mul

from .errors import (
    DimensionMismatch,
    NotEven,
    NotInDualLattice,
    NotPositiveDefinite,
    NotSymmetric,
    SelfCheckFailed,
)

Vector = tuple[Fraction, ...]


def to_vector(coords) -> Vector:
    """Coerce an iterable of numbers into a tuple of exact Fractions. A tuple
    that already holds only Fractions is returned as it is."""
    if type(coords) is tuple and all(type(c) is Fraction for c in coords):
        return coords
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def frac_str(x) -> str:
    """x in lowest terms as "p/q", or "p" when it is an integer."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vector_str(v) -> str:
    """A vector as "(p/q, ...)", the way messages write it."""
    return f"({', '.join(map(frac_str, v))})"


def _as_integers(v: Vector) -> tuple[int, list[int]]:
    """(den, ints) with v = ints / den, den the least common denominator."""
    den = lcm(*[c.denominator for c in v])
    return den, [c.numerator * (den // c.denominator) for c in v]


def _blocks(gram) -> list[list[int]]:
    """Index lists of the orthogonal blocks of a Gram matrix: the connected
    components of its nonzero off-diagonal entries, ordered by smallest
    index."""
    n = len(gram)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in range(n):
                if gram[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, u, v) where u * matrix * v is diagonal with nonnegative
    entries diag[0] | diag[1] | ... and u, v are unimodular.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    u = _identity(n)
    v = _identity(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(n, m)):
        while True:
            pivot = None
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            if a[t][t] < 0:
                negate_row(t)
            cleared = True
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    cleared = False
            for j in range(t + 1, m):
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    cleared = False
            if not cleared:
                continue  # remainders are strictly smaller pivot candidates
            offender = None
            for i in range(t + 1, n):
                if any(a[i][j] % a[t][t] for j in range(t + 1, m)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    diag = [a[i][i] for i in range(min(n, m))]
    return diag, u, v


def _ldl(matrix):
    """Decompose a symmetric matrix as R^T D R with R unit upper triangular.

    Returns (d, r) such that x^T A x = sum_i d[i] * (x_i + sum_{j>i} r[i][j] x_j)^2.
    Raises NotPositiveDefinite at the first nonpositive pivot.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise NotPositiveDefinite(f"leading principal minor {i + 1} is not positive")
        r[i][i] = Fraction(1)
        for j in range(i + 1, n):
            r[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= d[i] * r[i][k] * r[i][l]
                a[l][k] = a[k][l]
    return d, r


class _Full(Exception):
    """Raised inside _enumerate_affine once more than limit vectors are found."""


def _enumerate_affine(levels, offset, den, budget, limit=inf):
    """All integer vectors y = offset + den * x, x integral, whose norm
    sum_i w_i * (m_i * y_i + sum_j a_ij * y_j)^2 is at most budget, as pairs
    (y, norm) in search order, or the first limit + 1 of them found when there
    are more than limit. levels are as EvenLattice._levels returns them and
    den is positive.

    Branch and bound over integers (Fincke and Pohst): with the coordinates
    above level i fixed, the level's term is w_i * (m_i * den * x_i + b)^2, so
    the x_i within what is left of the budget are exactly those with
    |m_i * den * x_i + b| <= isqrt(left // w_i).
    """
    out = []
    if budget < 0:
        return out
    y = list(offset)

    def rec(i, left):
        w, m, row = levels[i]
        b = m * offset[i] + sum([a * y[j] for j, a in row])
        step = m * den
        s = isqrt(left // w)
        for x in range(-((s + b) // step), (s - b) // step + 1):
            t = step * x + b
            y[i] = offset[i] + den * x
            rest = left - w * t * t
            if i:
                rec(i - 1, rest)
            else:
                out.append((tuple(y), budget - rest))
                if len(out) > limit:
                    raise _Full

    try:
        rec(len(levels) - 1, budget)
    except _Full:
        pass
    finally:
        del rec  # rec refers to itself through its closure: end the cycle
    return out


class _Memo(dict):
    """fn(k) for keys k, each computed once: the rationals and decimal
    strings of one document or one series repeat."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, k):
        value = self[k] = self.fn(k)
        return value


def _Fractions(den: int) -> _Memo:
    """Fraction(k, den) for integers k, each built once."""
    return _Memo(lambda k: Fraction(k, den))


class _BlockTable(Mapping):
    """A read-only map on integer tuples, keys sorted, held as the product of
    the tables of consecutive blocks of coordinates. parts[b] is the table
    of block b, (keys, values, index): its sorted sub-keys, their values
    and {sub-key: position}; equal blocks share one part. The key at
    position sum_b i_b * strides[b] joins the sub-keys keys[i_b] of the
    blocks, and its value is the sum of their values[i_b]. The map holds
    the parts only: listing every key still costs one item per key."""

    __slots__ = ("parts", "strides", "cuts", "size")

    def __init__(self, parts):
        sizes = [len(keys) for keys, _, _ in parts]
        self.parts, self.size = parts, prod(sizes)
        self.strides = [prod(sizes[b + 1:]) for b in range(len(parts))]
        # the slice of a key that each block reads; the last one is open, so
        # that a key of another length misses some block's index
        starts = list(accumulate([len(keys[0]) for keys, _, _ in parts], initial=0))
        self.cuts = list(zip(starts, [*starts[1:-1], None]))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return map(tuple, map(chain.from_iterable, product(*[keys for keys, _, _ in self.parts])))

    def __getitem__(self, key) -> int:
        return sum([values[index[key[a:b]]] for (_, values, index), (a, b)
                    in zip(self.parts, self.cuts)])

    def values(self) -> list:
        """The values in key order."""
        return list(map(sum, product(*[values for _, values, _ in self.parts])))

    def position(self, key) -> int:
        """The index of key in key order; KeyError when it is not a key."""
        return sum([index[key[a:b]] * stride for (_, _, index), (a, b), stride
                    in zip(self.parts, self.cuts, self.strides)])

    def positions(self, columns) -> map:
        """position() of each key given as the coordinate columns of the
        keys, read block by block; KeyError when one is not a key."""
        at = repeat(0)
        for (_, _, index), (a, b), stride in zip(self.parts, self.cuts, self.strides):
            offset = {key: i * stride for key, i in index.items()}
            at = map(add, at, map(offset.__getitem__, zip(*columns[a:b])))
        return at

    def columns(self, cell=None):
        """Each coordinate column of the keys in key order, its entries
        passed through cell first when it is given: a block's column, each
        entry repeated by the block's stride, the whole repeated for the
        blocks before it."""
        for (keys, _, _), stride in zip(self.parts, self.strides):
            for column in zip(*keys):
                run = list(chain.from_iterable(map(repeat, map(cell, column) if cell else column,
                                                   repeat(stride))))
                yield run * (self.size // len(run))


class CosetMinima(namedtuple("CosetMinima", "gden qden table")):
    """Minimal Q on every coset of L'/L, on integers: table is a read-only
    map from gden * gamma to qden * min Q for each reduced representative
    gamma, keys sorted; gden is the determinant and qden a common
    denominator of the minima. table is a _BlockTable over the orthogonal
    blocks of the Gram matrix, so it holds memory in proportion to the
    blocks' cosets, not to det; reading a whole column of it, or listing its
    keys, still costs det.
    """

    __slots__ = ()


class DiscriminantGroup(namedtuple("DiscriminantGroup",
                                    "elementary_divisors order generators rank")):
    """The finite quotient L'/L with its invariant factors; order equals the
    Gram determinant.

    elementary_divisors: tuple[int, ...]; order: int; generators:
    tuple[Vector, ...]; rank: int.

    generators[j] is a dual vector of order elementary_divisors[j], reduced
    into [0, 1). representatives are all cosets, reduced componentwise into
    [0, 1) and sorted lexicographically; there are order of them, so they are
    listed only on first access (kept in the instance dict, so this class has
    no __slots__).
    """

    @cached_property
    def representatives(self) -> tuple[Vector, ...]:
        reps = {(Fraction(0),) * self.rank}
        for d, g in zip(self.elementary_divisors, self.generators):
            reps = {tuple((c + k * x) % 1 for c, x in zip(r, g)) for r in reps for k in range(d)}
        if len(reps) != self.order:
            raise SelfCheckFailed("distinct representatives",
                                  f"{len(reps)} distinct cosets listed, expected {self.order}")
        return tuple(sorted(reps))


class EvenLattice:
    """Even positive-definite lattice presented by an integer Gram matrix.

    Instances are immutable; derived data (discriminant group, coset minima)
    are computed on demand and cached.
    """

    def __init__(self, gram):
        rows = [list(row) for row in gram]
        n = len(rows)
        if n == 0:
            raise NotPositiveDefinite("Gram matrix is empty")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotSymmetric(
                    f"Gram matrix is not square: row {i} has {len(row)} entries, expected {n}")
            for j, entry in enumerate(row):
                if isinstance(entry, bool) or not isinstance(entry, int):
                    raise TypeError(f"Gram entry ({i}, {j}) is not an integer: {entry!r}")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(
                        f"Gram entry ({i}, {j}) = {rows[i][j]} differs from ({j}, {i}) = {rows[j][i]}")
        for i in range(n):
            if rows[i][i] % 2:
                raise NotEven(f"diagonal Gram entry ({i}, {i}) = {rows[i][i]} is odd")
        self.gram: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in rows)
        self.rank: int = n
        self._gram_ldl = _ldl(self.gram)
        det = Fraction(1)
        for piv in self._gram_ldl[0]:
            det *= piv
        self.det: int = int(det)
        self._disc = None
        self._minima = None

    def __eq__(self, other):
        return isinstance(other, EvenLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"EvenLattice(rank={self.rank}, det={self.det})"

    def _vec(self, v) -> Vector:
        w = to_vector(v)
        if len(w) != self.rank:
            raise DimensionMismatch(
                f"vector has length {len(w)}, lattice rank is {self.rank}")
        return w

    # -- bilinear data ----------------------------------------------------

    def bilinear_value(self, v, w) -> Fraction:
        """<v, w> = v^T * gram * w, exactly."""
        dv, a = _as_integers(self._vec(v))
        dw, b = _as_integers(self._vec(w))
        return Fraction(self._pair(a, b), dv * dw)

    def quadratic_value(self, v) -> Fraction:
        """Q(v) = <v, v> / 2, exactly."""
        den, a = _as_integers(self._vec(v))
        return Fraction(self._pair(a, a), 2 * den * den)

    def _pair(self, a, b) -> int:
        """a^T * gram * b for integer vectors a and b."""
        return sum(x * sum(map(mul, row, b)) for x, row in zip(a, self.gram) if x)

    def is_dual_vector(self, v) -> bool:
        """Whether v pairs integrally with every lattice vector, that is
        gram * v is integral."""
        den, a = _as_integers(self._vec(v))
        return all(sum(map(mul, row, a)) % den == 0 for row in self.gram)

    def _dual(self, v) -> Vector:
        """v as a vector of the lattice's rank; NotInDualLattice unless it is
        in the dual lattice."""
        v = self._vec(v)
        if not self.is_dual_vector(v):
            raise NotInDualLattice(f"{vector_str(v)} does not pair integrally with the lattice")
        return v

    def _coset_key(self, gamma) -> tuple[int, ...]:
        """det * gamma reduced mod det for a dual vector gamma, as the coset
        table keys its coset; det clears the denominators of every dual
        vector."""
        det = self.det
        return tuple([x.numerator * (det // x.denominator) % det for x in self._dual(gamma)])

    def reduce_mod1(self, v) -> Vector:
        """Reduce coordinates componentwise into [0, 1); a vector already
        reduced is returned as it is."""
        w = self._vec(v)
        if all(0 <= c.numerator < c.denominator for c in w):
            return w
        return tuple(c - floor(c) for c in w)

    def q_mod1(self, gamma) -> Fraction:
        """Q(gamma) mod 1; well defined on cosets of the lattice."""
        return self.quadratic_value(self._dual(gamma)) % 1

    def gcd_inner_products(self) -> int:
        """gcd of all inner products of lattice vectors (= gcd of the Gram
        entries, since every inner product is an integer combination of them
        and each entry is attained)."""
        g = 0
        for row in self.gram:
            for x in row:
                g = gcd(g, x)
        return g

    # -- enumeration ------------------------------------------------------

    @cached_property
    def _levels(self) -> tuple[int, list]:
        """The LDL decomposition (d, r) of the Gram matrix scaled to integers.

        Returns (k, levels) with levels[i] = (w, m, row), row listing the
        pairs (j, a) for j > i with a != 0, such that for every vector y
        k * y^T gram y = sum_i w_i * (m_i * y_i + sum_j a_ij * y_j)^2.
        m_i is the least common denominator of row i of r, a_ij = m_i * r[i][j],
        and k is the least positive integer making every w_i = k * d[i] / m_i^2
        an integer.
        """
        d, r = self._gram_ldl
        n = self.rank
        rows, weights = [], []
        for i in range(n):
            m = lcm(*(r[i][j].denominator for j in range(i + 1, n)))
            rows.append((m, [(j, r[i][j].numerator * (m // r[i][j].denominator))
                             for j in range(i + 1, n) if r[i][j]]))
            weights.append(d[i] / (m * m))
        k = lcm(*(w.denominator for w in weights))
        return k, [(w.numerator * (k // w.denominator), m, row)
                   for w, (m, row) in zip(weights, rows)]

    def _points(self, offset, den: int, top: int, over: int, limit=inf) -> tuple[int, list]:
        """(scale, points) for the vectors v = y / den, y = offset + den * x
        with x integral, whose Q(v) is at most top / over (over > 0): points
        lists the integer pairs (y, scale * Q(v)) in search order, scale being
        2 k den^2. When there are more than limit vectors, the search stops
        after limit + 1. The one entry point of the enumeration."""
        k, levels = self._levels
        # k * y^T gram y = 2 k den^2 Q(v)
        scale = 2 * k * den * den
        return scale, _enumerate_affine(levels, offset, den, scale * top // over, limit)

    def enumerate_coset(self, gamma, bound, limit=inf) -> list[Vector]:
        """All vectors in gamma + Z^rank with Q <= bound, sorted
        lexicographically by coordinates. When there are more than limit of
        them, the search stops after limit + 1 and returns those."""
        bound = Fraction(bound)
        den, offset = _as_integers(self._vec(gamma))
        _, points = self._points(offset, den, bound.numerator, bound.denominator, limit)
        coords = _Fractions(den).__getitem__
        return [tuple(map(coords, y)) for y, _ in sorted(points)]

    def coset_minimum(self, gamma) -> Fraction:
        """Minimal Q on the coset gamma + Z^rank of a dual vector gamma, by one
        search up to Q of gamma centred into [-1/2, 1/2)^rank. That vector
        lies in the coset, so the search cannot come back empty."""
        gamma = self._dual(gamma)
        half = Fraction(1, 2)
        centred = tuple(c - floor(c + half) for c in gamma)
        found = self.enumerate_coset(centred, self.quadratic_value(centred))
        if not found:
            raise SelfCheckFailed("coset search",
                                  f"no vector found in coset {vector_str(gamma)}")
        return min(map(self.quadratic_value, found))

    def coset_minima(self) -> CosetMinima:
        """Minimal Q value on every coset of the dual quotient, as the
        integer table {gden * gamma: qden * min Q} with gden = det, keyed by
        the reduced representatives in sorted order. Computed on the first
        call and kept.

        L'/L is the product of the groups of the orthogonal blocks of the
        Gram matrix, and Q adds across blocks, so each distinct block Gram is
        searched once and a coset's minimum is the sum of its blocks' minima,
        added as integers over one common denominator. The table is kept as
        the product of the tables of runs of consecutive coordinates
        (_BlockTable): a run is one block, or blocks whose indices
        interleave, multiplied out and sorted.
        """
        if self._minima is None:
            searched: dict[tuple, dict] = {}
            runs = []  # the (block, gram) of each run of consecutive coordinates
            end = -1
            for block in _blocks(self.gram):
                gram = tuple(tuple(self.gram[i][j] for j in block) for i in block)
                if gram not in searched:
                    lat = self if len(block) == self.rank else EvenLattice(gram)
                    searched[gram] = {gamma: lat.coset_minimum(gamma)
                                      for gamma in lat.discriminant_group().representatives}
                if block[0] > end:
                    runs.append([])
                runs[-1].append((block, gram))
                end = max(end, block[-1])
            gden = self.det
            qden = lcm(*(q.denominator for part in searched.values() for q in part.values()))
            scaled = {gram: [(tuple([c.numerator * (gden // c.denominator) for c in gamma]),
                              q.numerator * (qden // q.denominator))
                             for gamma, q in part.items()]
                      for gram, part in searched.items()}
            parts = {}  # the Gram of a run -> its table
            tables = []
            for run in runs:
                # positions[k] is the coordinate that the k-th entry of a key
                # concatenated block by block belongs at
                positions = [i for block, _ in run for i in block]
                where = sorted(range(len(positions)), key=positions.__getitem__)
                start, stop = positions[0], positions[0] + len(positions)
                gram = tuple(row[start:stop] for row in self.gram[start:stop])
                if gram not in parts:
                    # block by block, each key extended
                    table: dict[tuple[int, ...], int] = {(): 0}
                    for _, block_gram in run:
                        table = {key + gamma: q + p for key, q in table.items()
                                 for gamma, p in scaled[block_gram]}
                    keys, qs = zip(*sorted((tuple([key[k] for k in where]), q)
                                           for key, q in table.items()))
                    parts[gram] = (keys, qs, dict(zip(keys, range(len(keys)))))
                tables.append(parts[gram])
            table = _BlockTable(tables)
            if len(table) != self.det:
                raise SelfCheckFailed("coset count",
                                      f"{len(table)} coset minima, expected {self.det}")
            self._minima = CosetMinima(gden, qden, table)
        return self._minima

    # -- discriminant group ------------------------------------------------

    def discriminant_group(self) -> DiscriminantGroup:
        if self._disc is None:
            diag, _, v = smith_normal_form(self.gram)
            order = 1
            for x in diag:
                order *= x
            if order != self.det:
                raise SelfCheckFailed(
                    "Smith product", f"Smith form multiplies to {order}, det is {self.det}")
            nontrivial = [j for j, d in enumerate(diag) if d != 1]
            self._disc = DiscriminantGroup(
                elementary_divisors=tuple(diag[j] for j in nontrivial),
                order=order,
                generators=tuple(
                    tuple(Fraction(v[i][j], diag[j]) % 1 for i in range(self.rank))
                    for j in nontrivial),
                rank=self.rank)
        return self._disc


def direct_sum(k1: EvenLattice, k2: EvenLattice) -> EvenLattice:
    """Orthogonal direct sum: block-diagonal Gram matrix."""
    n1, n2 = k1.rank, k2.rank
    gram = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            gram[i][j] = k1.gram[i][j]
    for i in range(n2):
        for j in range(n2):
            gram[n1 + i][n1 + j] = k2.gram[i][j]
    return EvenLattice(gram)
