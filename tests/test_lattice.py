"""Unit and property tests for the lattice module.

Derived expectations are frozen from independent oracles: brute-force box
scans for enumeration and coset minima, a Fraction branch and bound for the
integer enumerator, sympy's Smith normal form for the discriminant group,
sympy's exact inverse and adjugate for the scan boxes, and term-by-term
Fraction loops for the integer inner products.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction as F
from math import ceil, floor, gcd, inf, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from borcherdskit.errors import (
    DimensionMismatch,
    NotEven,
    NotInDualLattice,
    NotPositiveDefinite,
    NotSymmetric,
)
from borcherdskit.lattice import EvenLattice, _as_integers, direct_sum, smith_normal_form

GRAM_A = [[16, 8], [8, 16]]
GRAM_B = [[8, 0], [0, 8]]


def integer_determinant(matrix) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def fraction_enumerate_affine(d, r, offset, bound, limit=inf):
    """Oracle: all integer x with sum_i d[i]*(y_i + sum_{j>i} r[i][j] y_j)^2
    <= bound, where y = x + offset, or the first limit + 1 of them found when
    there are more than limit; a branch and bound over Fractions that tests
    every candidate of a rational square-root box."""
    n = len(d)
    out = []
    if bound < 0:
        return out
    y = [F(0)] * n
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            out.append(tuple(x))
            return len(out) > limit
        c = sum((r[i][j] * y[j] for j in range(i + 1, n)), F(0))
        center = -offset[i] - c
        ratio = remaining / d[i]
        # sqrt(p/q) = sqrt(p*q)/q <= (isqrt(p*q) + 1)/q
        s = F(isqrt(ratio.numerator * ratio.denominator) + 1, ratio.denominator)
        for xi in range(ceil(center - s), floor(center + s) + 1):
            yi = xi + offset[i]
            term = d[i] * (yi + c) ** 2
            if term <= remaining:
                x[i] = xi
                y[i] = yi
                if rec(i - 1, remaining - term):
                    return True
        return False

    rec(n - 1, F(bound))
    return out


def sympy_inverse(gram):
    """Exact inverse Gram matrix, computed by sympy, as rows of Fractions."""
    return [[F(int(x.p), int(x.q)) for x in row] for row in Matrix(gram).inv().tolist()]


def brute_dual_vectors(lattice, bound, box=64):
    """Oracle: scan gram^-1 * m over an integer box and keep Q <= bound."""
    inv = sympy_inverse(lattice.gram)
    n = lattice.rank
    found = []

    def rec(i, m):
        if i == n:
            v = tuple(sum(inv[r][c] * m[c] for c in range(n)) for r in range(n))
            if lattice.quadratic_value(v) <= bound:
                found.append(v)
            return
        for x in range(-box, box + 1):
            m[i] = x
            rec(i + 1, m)

    rec(0, [0] * n)
    return sorted(found)


def random_even_lattice(rng, rank):
    """Random even positive-definite Gram matrix 2 * A^T A."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        if integer_determinant(a) != 0:
            gram = [[2 * sum(a[k][i] * a[k][j] for k in range(rank))
                     for j in range(rank)] for i in range(rank)]
            return EvenLattice(gram)


@st.composite
def small_even_grams(draw, max_rank=3):
    """Even positive-definite Gram matrices of rank 1 to max_rank with
    diagonal entries up to 8 and off-diagonal entries in [-3, 3]."""
    rank = draw(st.integers(min_value=1, max_value=max_rank))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(min_value=1, max_value=4))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(min_value=-3, max_value=3))
    assume(all(integer_determinant([row[:k] for row in gram[:k]]) > 0
               for k in range(1, rank + 1)))
    return gram


@st.composite
def block_diagonal_grams(draw):
    """Orthogonal sums of small_even_grams blocks of total rank at most 4,
    with the indices permuted at random, so that blocks may interleave."""
    blocks = [draw(small_even_grams())]
    while sum(map(len, blocks)) < 4 and draw(st.booleans()):
        blocks.append(draw(small_even_grams(max_rank=4 - sum(map(len, blocks)))))
    rank = sum(map(len, blocks))
    gram = [[0] * rank for _ in range(rank)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            gram[offset + i][offset:offset + len(block)] = row
        offset += len(block)
    perm = draw(st.permutations(range(rank)))
    return [[gram[perm[i]][perm[j]] for j in range(rank)] for i in range(rank)]


def fraction_bilinear_value(gram, v, w):
    """Oracle: v^T * gram * w summed term by term over Fractions."""
    n = len(gram)
    total = F(0)
    for i in range(n):
        if v[i]:
            total += v[i] * sum(gram[i][j] * w[j] for j in range(n))
    return total


def fraction_is_dual_vector(gram, v):
    """Oracle: every entry of gram * v, summed over Fractions, is an integer."""
    n = len(gram)
    return all(F(sum(gram[i][j] * v[j] for j in range(n))).denominator == 1
               for i in range(n))


# -- validation ---------------------------------------------------------


def test_validate_gram_accepts_rank2_example():
    k = EvenLattice(GRAM_A)
    assert k.rank == 2
    assert k.det == 192


def test_validate_gram_rejects_odd_diagonal():
    with pytest.raises(NotEven, match=r"\(0, 0\)"):
        EvenLattice([[1]])


def test_validate_gram_rejects_asymmetric():
    with pytest.raises(NotSymmetric, match=r"\(0, 1\)"):
        EvenLattice([[2, 3], [2, 3]])


def test_validate_gram_rejects_nonpositive():
    with pytest.raises(NotPositiveDefinite, match="minor 1"):
        EvenLattice([[0]])
    with pytest.raises(NotPositiveDefinite, match="minor 2"):
        EvenLattice([[2, 4], [4, 2]])


def test_validate_gram_rejects_nonsquare():
    with pytest.raises(NotSymmetric):
        EvenLattice([[2, 0]])


def test_validate_gram_rejects_noninteger():
    with pytest.raises(TypeError):
        EvenLattice([[2.0]])


# -- quadratic and bilinear values --------------------------------------


def test_quadratic_value_diagonal_entry():
    k = EvenLattice(GRAM_A)
    assert k.quadratic_value((1, 0)) == 8


def test_quadratic_value_rational_vectors():
    assert EvenLattice(GRAM_A).quadratic_value((F(1, 24), F(1, 24))) == F(1, 24)
    assert EvenLattice(GRAM_B).quadratic_value((F(1, 8), 0)) == F(1, 16)


def test_quadratic_value_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        EvenLattice(GRAM_A).quadratic_value((1,))


def test_bilinear_polarization():
    k = EvenLattice(GRAM_A)
    rng = random.Random(7)
    for _ in range(20):
        v = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2))
        w = tuple(F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2))
        lhs = k.bilinear_value(v, w)
        rhs = k.quadratic_value(tuple(a + b for a, b in zip(v, w))) \
            - k.quadratic_value(v) - k.quadratic_value(w)
        assert lhs == rhs


# integers, and Fractions with negative numerators, entries outside [0, 1)
# and denominators up to 12
RATIONALS = st.one_of(st.integers(-20, 20),
                      st.builds(F, st.integers(-40, 40), st.integers(1, 12)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_even_grams(), st.data())
def test_integer_arithmetic_matches_fraction_loops(gram, data):
    k = EvenLattice(gram)
    vectors = st.lists(RATIONALS, min_size=k.rank, max_size=k.rank).map(tuple)
    v, w = data.draw(vectors), data.draw(vectors)
    # a dual vector outside [0, 1)^rank, so that is_dual_vector also says yes
    gamma = data.draw(st.sampled_from(k.discriminant_group().representatives))
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=k.rank, max_size=k.rank))
    dual = tuple(g + x for g, x in zip(gamma, shift))
    for a, b in ((v, w), (w, v), (v, v), (dual, v), (dual, dual)):
        value = k.bilinear_value(a, b)
        assert type(value) is F
        assert value == fraction_bilinear_value(gram, a, b)
    assert k.quadratic_value(v) == fraction_bilinear_value(gram, v, v) / 2
    assert k.quadratic_value(dual) == fraction_bilinear_value(gram, dual, dual) / 2
    for a in (v, w, dual):
        assert k.is_dual_vector(a) == fraction_is_dual_vector(gram, a)
        assert k.reduce_mod1(a) == tuple(F(x) - floor(x) for x in a)
    assert k.is_dual_vector(dual)
    assert k.reduce_mod1(dual) == gamma
    assert k.reduce_mod1(gamma) is gamma


def test_integer_arithmetic_dimension_mismatch():
    k = EvenLattice(GRAM_A)
    # a negative bound finds no vector, but the length is checked first
    for call in (lambda: k.bilinear_value((1, 0), (1,)), lambda: k.is_dual_vector((1,)),
                 lambda: k.reduce_mod1((0, 0, 0)), lambda: k.enumerate_coset((0,), -1)):
        with pytest.raises(DimensionMismatch):
            call()


# -- discriminant group ---------------------------------------------------


@pytest.mark.parametrize("gram, divisors, order", [
    ([[8]], (8,), 8),
    (GRAM_A, (8, 24), 192),
    (GRAM_B, (8, 8), 64),
])
def test_discriminant_group_known_values(gram, divisors, order):
    disc = EvenLattice(gram).discriminant_group()
    assert disc.elementary_divisors == divisors
    assert disc.order == order
    assert len(disc.representatives) == order
    # oracle: sympy Smith normal form of the same matrix
    expected = [int(x) for x in sympy_snf(Matrix(gram)).diagonal() if int(x) != 1]
    assert list(divisors) == expected


def test_discriminant_representatives_brute_force():
    # oracle: all dual vectors with coordinates in [0, 1), scanned directly
    for gram in ([[8]], GRAM_B):
        k = EvenLattice(gram)
        reps = set()
        for v in brute_dual_vectors(k, F(sum(abs(x) for row in gram for x in row), 8)):
            reps.add(k.reduce_mod1(v))
        assert reps == set(k.discriminant_group().representatives)


def test_discriminant_order_equals_det_random():
    rng = random.Random(11)
    for _ in range(8):
        k = random_even_lattice(rng, 2)
        assert k.discriminant_group().order == k.det


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        diag, u, v = smith_normal_form(mat)
        assert abs(integer_determinant(u)) == 1
        assert abs(integer_determinant(v)) == 1
        prod = [[sum(u[i][k] * mat[k][l] * v[l][j] for k in range(n) for l in range(n))
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (diag[i] if i == j else 0)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 or b % a == 0)


# -- Q mod 1 ---------------------------------------------------------------


def test_q_mod1_zero():
    assert EvenLattice(GRAM_A).q_mod1((0, 0)) == 0


def test_q_mod1_values():
    k = EvenLattice(GRAM_A)
    assert k.q_mod1((F(1, 8), 0)) == F(1, 8)
    # both of these cosets sit in the 1/24 class, not the 1/6 class
    assert k.q_mod1((F(5, 24), F(7, 12))) == F(1, 24)
    assert k.q_mod1((F(5, 12), F(7, 24))) == F(1, 24)
    assert k.q_mod1((F(1, 6), F(5, 12))) == F(1, 6)


def test_q_mod1_representative_independent():
    k = EvenLattice(GRAM_A)
    gamma = (F(5, 12), F(7, 24))
    shifted = (gamma[0] + 3, gamma[1] - 2)
    assert k.q_mod1(gamma) == k.q_mod1(shifted)


def test_q_mod1_rejects_non_dual():
    with pytest.raises(NotInDualLattice):
        EvenLattice(GRAM_A).q_mod1((F(1, 5), 0))


# -- gcd of inner products -------------------------------------------------


@pytest.mark.parametrize("gram, expected", [
    (GRAM_A, 8),
    (GRAM_B, 8),
    ([[2]], 2),
])
def test_gcd_inner_products_values(gram, expected):
    assert EvenLattice(gram).gcd_inner_products() == expected


def test_gcd_divides_twice_any_norm():
    rng = random.Random(5)
    for _ in range(10):
        k = random_even_lattice(rng, 3)
        n = k.gcd_inner_products()
        for _ in range(10):
            x = tuple(rng.randint(-4, 4) for _ in range(3))
            assert (2 * k.quadratic_value(x)) % n == 0


# -- enumeration -----------------------------------------------------------


def dual_vectors(lattice, bound):
    """All dual vectors with Q <= bound, gathered one coset at a time."""
    return sorted(v for gamma in lattice.discriminant_group().representatives
                  for v in lattice.enumerate_coset(gamma, bound))


def test_enumerate_dual_vectors_rank1():
    k = EvenLattice([[8]])
    assert dual_vectors(k, F(1, 16)) == [(F(-1, 8),), (F(0),), (F(1, 8),)]
    assert dual_vectors(k, 0) == [(F(0),)]
    assert dual_vectors(k, -1) == []


def test_enumerate_dual_vectors_rank2():
    k = EvenLattice(GRAM_B)
    got = dual_vectors(k, F(1, 16))
    assert len(got) == 5
    assert got == brute_dual_vectors(k, F(1, 16), box=8)


def test_enumerate_coset_small_lattices():
    k = EvenLattice([[8]])
    assert k.enumerate_coset((F(1, 8),), F(1, 16)) == [(F(1, 8),)]
    assert k.enumerate_coset((F(7, 8),), F(1, 16)) == [(F(-1, 8),)]
    assert k.enumerate_coset((0,), 0) == [(F(0),)]
    assert k.enumerate_coset((0,), -1) == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_even_grams(), st.data())
def test_enumerate_matches_brute_force(gram, data):
    # oracle: scan gamma + x over an integer box; Cauchy-Schwarz against the
    # dual basis gives v_i^2 <= 2 Q(v) (gram^-1)_ii, so the box holds every
    # vector of the coset with Q <= bound
    k = EvenLattice(gram)
    gamma = tuple(F(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 6)))
                  for _ in range(k.rank))
    bound = F(data.draw(st.integers(0, 12)), 4)
    inv = sympy_inverse(gram)
    ranges = []
    for i in range(k.rank):
        radius = isqrt(int(2 * bound * inv[i][i])) + 1
        ranges.append(range(int(-radius - gamma[i]) - 1, int(radius - gamma[i]) + 2))
    expected = []
    for x in itertools.product(*ranges):
        v = tuple(g + xi for g, xi in zip(gamma, x))
        if k.quadratic_value(v) <= bound:
            expected.append(v)
    assert k.enumerate_coset(gamma, bound) == sorted(expected)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(small_even_grams(), block_diagonal_grams()), st.data())
def test_integer_enumeration_matches_fraction_oracle(gram, data):
    k = EvenLattice(gram)
    offset = tuple(F(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 24)))
                   for _ in range(k.rank))
    # the norm of a short vector of the coset, or just off it
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=k.rank, max_size=k.rank))
    bound = k.quadratic_value(tuple(c - round(c) + x for c, x in zip(offset, shift)))
    bound += data.draw(st.sampled_from((0, 0, F(-1, 10**9), F(1, 10**9))))
    limit = data.draw(st.sampled_from((0, 1, 2, 5, inf)))
    d, r = k._gram_ldl

    def oracle(limit):
        return sorted(tuple(c + xi for c, xi in zip(offset, x))
                      for x in fraction_enumerate_affine(d, r, offset, 2 * bound, limit))

    found = k.enumerate_coset(offset, bound, limit)
    assert found == oracle(limit)
    assert len(found) <= limit + 1
    assert (len(found) > limit) == (len(oracle(inf)) > limit)
    # every point carries den * v and the exact integer scale * Q(v)
    den, ints = _as_integers(offset)
    scale, points = k._points(ints, den, bound.numerator, bound.denominator, limit)
    assert sorted(tuple(F(y, den) for y in v) for v, _ in points) == found
    for v, q in points:
        assert F(q, scale) == k.quadratic_value(tuple(F(y, den) for y in v))


def test_enumeration_monotone_and_symmetric():
    k = EvenLattice(GRAM_A)
    gamma = (F(5, 24), F(7, 12))
    small = set(k.enumerate_coset(gamma, 2))
    large = set(k.enumerate_coset(gamma, 10))
    assert small and small < large
    negated = set(k.enumerate_coset(tuple(-c for c in gamma), 10))
    assert negated == {tuple(-c for c in v) for v in large}


def test_enumerate_coset_contains_only_coset():
    k = EvenLattice(GRAM_B)
    gamma = (F(1, 8), F(0))
    for v in k.enumerate_coset(gamma, 3):
        assert all((a - b).denominator == 1 for a, b in zip(v, gamma))
        assert k.quadratic_value(v) <= 3


def test_min_coset_value():
    k = EvenLattice([[8]])
    minima = k.coset_minima()
    for gamma, value in (((F(7, 8),), F(1, 16)), ((F(1, 2),), 1), ((F(0),), 0)):
        assert k.coset_minimum(gamma) == value
        key = tuple(c * minima.gden for c in gamma)
        assert F(minima.table[key], minima.qden) == value


def box_scan_coset_minima(gram):
    """Oracle: minimal Q on every coset of L'/L from a scan of m = gram * v
    over integer boxes, in integer arithmetic.

    m_i = <e_i, v>, so Cauchy-Schwarz puts every dual vector v with Q(v) <= mu
    in the box |m_i| <= sqrt(2 mu gram_ii). The level mu doubles until each of
    the det cosets holds a vector with Q <= mu, which is then its minimum.
    """
    n = len(gram)
    matrix = Matrix(gram)
    det = int(matrix.det())
    adj = [[int(x) for x in row] for row in matrix.adjugate().tolist()]
    mu = 1
    while True:
        minima = {}
        radii = [isqrt(2 * mu * gram[i][i]) + 1 for i in range(n)]
        for m in itertools.product(*(range(-r, r + 1) for r in radii)):
            w = [sum(adj[i][j] * m[j] for j in range(n)) for i in range(n)]  # det * v
            twice_q_det = sum(mi * wi for mi, wi in zip(m, w))
            if twice_q_det <= 2 * mu * det:
                key = tuple(x % det for x in w)
                minima[key] = min(minima.get(key, twice_q_det), twice_q_det)
        if len(minima) == det:
            return {tuple(F(x, det) for x in key): F(value, 2 * det)
                    for key, value in minima.items()}
        mu *= 2


def check_coset_minima(k, oracle):
    """coset_minima() against the box scan: the integer table
    {gden * gamma: qden * min Q} in sorted order, det cosets, one result per
    lattice, and no way to write to it."""
    minima = k.coset_minima()
    assert minima is k.coset_minima()
    assert len(minima.table) == minima.gden == k.det
    assert minima.table == {tuple(c * minima.gden for c in gamma): q * minima.qden
                            for gamma, q in oracle.items()}
    assert list(minima.table) == sorted(minima.table)
    with pytest.raises(TypeError):
        minima.table[next(iter(minima.table))] = 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_even_grams())
def test_coset_minima_matches_box_scan(gram):
    check_coset_minima(EvenLattice(gram), box_scan_coset_minima(gram))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(block_diagonal_grams(), st.data())
def test_coset_minima_block_diagonal_matches_box_scan(gram, data):
    k = EvenLattice(gram)
    oracle = box_scan_coset_minima(gram)
    check_coset_minima(k, oracle)
    # the per-coset search of the whole Gram matrix, on cosets given by
    # representatives outside [0, 1)
    for gamma in data.draw(st.lists(st.sampled_from(sorted(oracle)), max_size=6)):
        shifted = tuple(c + data.draw(st.integers(-2, 2)) for c in gamma)
        assert k.coset_minimum(shifted) == oracle[gamma]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(block_diagonal_grams())
def test_coset_table_reads_agree_with_its_keys(gram):
    # the column, value and position reads of the table, built from its
    # blocks, against the keys it lists and one lookup per key
    table = EvenLattice(gram).coset_minima().table
    keys = list(table)
    assert [list(column) for column in zip(*keys)] == list(table.columns())
    assert [[str(x) for x in column] for column in zip(*keys)] == list(table.columns(str))
    assert list(table.values()) == [table[key] for key in keys]
    assert list(map(table.position, keys)) == list(range(len(keys)))
    assert list(table.positions([list(c) for c in zip(*reversed(keys))])) == list(
        reversed(range(len(keys))))
    for key in (keys[-1] + (0,), keys[-1][:-1], tuple(x + table.size for x in keys[0])):
        assert key not in table
        with pytest.raises(KeyError):
            table.position(key)


def test_coset_minima_of_diag8_rank7_are_held_as_blocks():
    # 8^7 cosets from the 8 of [[8]], with no table of 8^7 entries built
    block = EvenLattice([[8]]).coset_minima()
    tracemalloc.start()
    try:
        minima = EvenLattice([[8 * (i == j) for j in range(7)] for i in range(7)]).coset_minima()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    table, gden = minima.table, minima.gden
    assert len(table) == gden == 8 ** 7 and minima.qden == block.qden
    first = list(itertools.islice(table, 20))
    assert first == sorted(first) and first[:2] == [(0,) * 7, (0,) * 6 + (8 ** 6,)]
    scale = gden // 8  # a key of [[8]] over det 8, over det 8^7
    for key in [(0,) * 7, (1, 2, 3, 4, 5, 6, 7), (7,) * 7, (4, 0, 4, 1, 0, 7, 3)]:
        assert table[tuple(scale * x for x in key)] == sum(block.table[(x,)] for x in key)


def test_coset_minimum_rejects_non_dual():
    with pytest.raises(NotInDualLattice):
        EvenLattice(GRAM_A).coset_minimum((F(1, 5), 0))


# -- direct sum ------------------------------------------------------------


def test_direct_sum_block_structure():
    s = direct_sum(EvenLattice([[8]]), EvenLattice([[8]]))
    assert s.gram == ((8, 0), (0, 8))
    assert s.det == 64


def test_direct_sum_gcd():
    s = direct_sum(EvenLattice([[8]]), EvenLattice(GRAM_A))
    assert s.gcd_inner_products() == gcd(8, EvenLattice(GRAM_A).gcd_inner_products())
    assert s.rank == 3


# -- coset shift identity ----------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_coset_shift_identity(seed):
    rng = random.Random(seed)
    k = random_even_lattice(rng, rng.randint(1, 3))
    lam = tuple(rng.randint(-5, 5) for _ in range(k.rank))
    gamma = tuple(F(rng.randint(-10, 10), rng.randint(1, 8)) for _ in range(k.rank))
    diff = k.quadratic_value(tuple(g + l for g, l in zip(gamma, lam))) \
        - k.quadratic_value(gamma) - k.bilinear_value(gamma, lam) - k.quadratic_value(lam)
    assert diff == 0
