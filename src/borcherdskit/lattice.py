"""Exact linear algebra for even positive-definite lattices.

Everything here runs over Python integers and fractions.Fraction; no floating
point is used anywhere. Vectors are tuples of Fractions holding coordinates
with respect to the lattice basis, so the Gram matrix is the single source of
truth for all inner products. Inner products scale both vectors to integers
over a common denominator and build one Fraction at the end. A lattice is set
up by one fraction-free (Bareiss) elimination of its Gram matrix on integers:
its pivots are the leading principal minors, so it checks positive
definiteness, its last pivot is the determinant, and its rows, each divided by
its gcd, are the integer levels of the Fincke and Pohst branch and bound that
finds the short vectors of a coset. Each coset is scaled to its common
denominator, and every vector found carries its norm as an exact integer.
Coset minima are searched once per orthogonal block of the Gram matrix, on
integer keys, into the record (gden, qden, {gden * gamma: qden * min Q}); gden
is the determinant, a common denominator of every dual vector. The table is a
read-only sorted map held as the tables of its blocks, a minimum being the sum
of its blocks' minima, so it takes memory in proportion to the blocks' cosets;
listing every key still costs det. coset_minima() returns that record and
builds no Fraction; coset_minimum() gives one coset's minimum as a Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, product, repeat
from math import floor, gcd, inf, isqrt, lcm, prod
from operator import mul

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
    """Index lists of the orthogonal blocks of a symmetric Gram matrix: the
    connected components of its nonzero off-diagonal entries, ordered by
    smallest index. Index i, taken in order, merges the blocks found so far
    that its row touches into one sorted block with i."""
    blocks = []
    for i, row in enumerate(gram):
        touched = [block for block in blocks if any(row[j] for j in block)]
        blocks = [block for block in blocks if block not in touched]
        blocks.append(sorted([i, *chain.from_iterable(touched)]))
    return sorted(blocks)


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, u, v) where u * matrix * v is diagonal with nonnegative
    entries diag[0] | diag[1] | ... and u, v are unimodular.

    Each operation runs once on the block matrix [[A, I_n], [I_m, 0]], A the
    n x m matrix: a row operation on the first n rows acts on A and u
    together, a column operation on the first m columns on A and v, so u is
    the top right block at the end and v the bottom left one. At step t the
    pivot is the entry of least absolute value in A from row and column t on,
    the first in row-major order; it is moved to (t, t) and made positive,
    and row t and column t are reduced modulo it until both are clear. A row
    below holding an entry the pivot does not divide is then added to row t,
    and the step starts over.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    rows = [[*row, *(int(i == k) for k in range(n))] for i, row in enumerate(a)]
    rows += [[*(int(i == k) for k in range(m)), *[0] * n] for i in range(m)]
    for t in range(min(n, m)):
        while pivot := min(((abs(x), i, j) for i in range(t, n)
                            for j, x in enumerate(rows[i][t:m], t) if x), default=None):
            _, i, j = pivot
            rows[t], rows[i] = rows[i], rows[t]
            for row in rows:
                row[t], row[j] = row[j], row[t]
            if rows[t][t] < 0:
                rows[t] = [-x for x in rows[t]]
            top = rows[t]
            p = top[t]
            for i in range(t + 1, n):
                if q := rows[i][t] // p:
                    rows[i] = [x - q * y for x, y in zip(rows[i], top)]
            for j in range(t + 1, m):
                if q := top[j] // p:
                    for row in rows:
                        row[j] -= q * row[t]
            if any(rows[i][t] for i in range(t + 1, n)) or any(top[t + 1:m]):
                continue  # remainders are strictly smaller pivot candidates
            offender = next((row for row in rows[t + 1:n] if any(x % p for x in row[t + 1:m])),
                            None)
            if offender is None:
                break
            rows[t] = [x + y for x, y in zip(top, offender)]
    diag = [rows[i][i] for i in range(min(n, m))]
    return diag, [row[m:] for row in rows[:n]], [row[:m] for row in rows[n:]]


def _eliminate(gram) -> tuple[int, int, list]:
    """(det, k, levels) of a symmetric integer matrix by one fraction-free
    elimination (Bareiss): levels[i] = (w, m, row), row listing the pairs
    (j, a) for j > i with a != 0, such that for every vector y
    k * y^T gram y = sum_i w_i * (m_i * y_i + sum_j a_ij * y_j)^2.

    At step i the pivot is the leading principal minor D_(i+1), and the
    entries after it over D_(i+1) are row i of the unit upper triangular R in
    gram = R^T diag(D_(i+1) / D_i) R. With g the gcd of the pivot's row,
    m_i = D_(i+1) / g, a_ij is the entry over g, and w_i / k is
    g^2 / (D_i D_(i+1)), k being the least common denominator of those
    weights. det is the last pivot. Raises NotPositiveDefinite at the first
    pivot that is not positive.
    """
    a = [list(row) for row in gram]
    prev, weights, rows = 1, [], []
    for i, row in enumerate(a):
        pivot = row[i]
        if pivot <= 0:
            raise NotPositiveDefinite(f"leading principal minor {i + 1} is not positive")
        g = gcd(*row[i:])
        rows.append((pivot // g, [(j, x // g) for j, x in enumerate(row[i + 1:], i + 1) if x]))
        num, den = g * g, prev * pivot
        h = gcd(num, den)
        weights.append((num // h, den // h))
        # Sylvester's identity: each new entry is a minor, so prev divides it;
        # only the upper triangle is updated and read
        for j in range(i + 1, len(a)):
            rj, c = a[j], row[j]
            rj[j:] = [(pivot * x - c * y) // prev for x, y in zip(rj[j:], row[j:])]
        prev = pivot
    k = lcm(*[den for _, den in weights])
    return prev, k, [(num * (k // den), m, row) for (num, den), (m, row) in zip(weights, rows)]


class _Full(Exception):
    """Raised inside _enumerate_affine once more than limit vectors are found."""


def _enumerate_affine(levels, offset, den, budget, limit=inf):
    """All integer vectors y = offset + den * x, x integral, whose norm
    sum_i w_i * (m_i * y_i + sum_j a_ij * y_j)^2 is at most budget, as pairs
    (y, norm) in search order, or the first limit + 1 of them found when there
    are more than limit. levels are as _eliminate returns them and
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
        self.det, self._k, self._levels = _eliminate(self.gram)
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

    def gcd_inner_products(self) -> int:
        """gcd of all inner products of lattice vectors (= gcd of the Gram
        entries, since every inner product is an integer combination of them
        and each entry is attained)."""
        return gcd(*chain.from_iterable(self.gram))

    # -- enumeration ------------------------------------------------------

    def _points(self, offset, den: int, top: int, over: int, limit=inf) -> tuple[int, list]:
        """(scale, points) for the vectors v = y / den, y = offset + den * x
        with x integral, whose Q(v) is at most top / over (over > 0): points
        lists the integer pairs (y, scale * Q(v)) in search order, scale being
        2 k den^2. When there are more than limit vectors, the search stops
        after limit + 1. The one entry point of the enumeration."""
        # k * y^T gram y = 2 k den^2 Q(v)
        scale = 2 * self._k * den * den
        return scale, _enumerate_affine(self._levels, offset, den, scale * top // over, limit)

    def enumerate_coset(self, gamma, bound) -> list[Vector]:
        """All vectors in gamma + Z^rank with Q <= bound, sorted
        lexicographically by coordinates."""
        bound = Fraction(bound)
        den, offset = _as_integers(self._vec(gamma))
        _, points = self._points(offset, den, bound.numerator, bound.denominator)
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
            order = prod(diag)
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
    return EvenLattice([*([*row, *[0] * k2.rank] for row in k1.gram),
                        *([*[0] * k1.rank, *row] for row in k2.gram)])
