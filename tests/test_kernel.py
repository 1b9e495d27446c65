"""Property tests of the exact product kernel behind JacobiSeries.__mul__,
direct_product and the lift, of the in-place binomial factors behind phi04
and the triple product, and of the packing of their keys.

oracle_mul_into is the kernel as it was on tuple keys ((t, vec), c), before
every key was packed into one int; the packed kernel must agree with it
wherever the packing's bound holds, including monomials on the edge of the
box |vec_i| <= bound. _mul_rows, the row kernel that _mul_into and the
lift call, must equal a dict double loop on overlapping keys, with zero and
cancelling coefficients, and _mul_into checks its budget after each row
pass, not at each new term.

oracle_product is the plain double loop over Fraction-keyed terms that
both products used before they moved onto integer keys. Random sparse series
on [[8]] and on a rank-2 lattice cover label denominators 8 and 16, q_den 1
and 8, negative exponents, and windows that end between two multiples of
1/q_den, which puts the truncation boundary inside the support.

A series stores its terms on integer keys. The second oracle below is the
normalisation the constructor applied when it stored Fraction keys; the
Fraction-keyed view, q_den, support() and the q_row oracle must agree with it.

_binomial multiplies or divides graded rows by 1 + c X in place. On random
rows of rank 1 to 3 a product must equal _mul_into with the two terms of the
binomial, a quotient by 1 - X the product with the truncated geometric
series, and a quotient must undo the product; max_terms must refuse one
term past the peak count, and a quotient that would pass it in the rows it
appends before it builds them. oracle_phi04 and
oracle_triple_product are the loops that built both series before, one
_mul_into per factor over a snapshot of the whole accumulator; the rows must
give their terms exactly and in the same order.
"""

import pickle
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borcherdskit.errors import IncompatiblePrecision, ResourceLimit
from borcherdskit.lattice import EvenLattice, direct_sum
from borcherdskit.lift import lift_expansion, lift_expansion_log_exp
from borcherdskit.series import (
    RAW,
    JacobiSeries,
    _binomial,
    _grade_limit,
    _mul_into,
    _mul_rows,
    _Packing,
    direct_product,
    phi04,
    phi_n,
    theta_sum,
    theta_triple_product,
)
from oracles import q_row

LATTICES = (EvenLattice([[8]]), EvenLattice([[16, 8], [8, 16]]))


def oracle_mul_into(dst, a, b, limit, max_terms=None):
    """dst += a * b on tuple keys ((t, vec), c): the kernel before its keys
    were packed, kept as the oracle of the packed one."""
    for (ta, va), ca in a:
        stop = limit - ta
        for (tb, vb), cb in b:
            if tb >= stop:
                break
            key = (ta + tb, tuple(x + y for x, y in zip(va, vb)))
            c = dst.get(key, 0) + ca * cb
            if c:
                dst[key] = c
                if max_terms is not None and len(dst) > max_terms:
                    raise ResourceLimit(
                        f"product exceeded the {max_terms}-coefficient budget")
            else:
                dst.pop(key, None)


def packed(packing, terms):
    """Tuple-keyed terms ((t, vec), c) as packed kernel terms (t, k, c)."""
    return [(t, packing.pack(t, vec), c) for (t, vec), c in terms]


def oracle_product(a, b, combine):
    """Window and nonzero coefficients of a * b by the Fraction-keyed double
    loop; combine joins two labels."""
    prec = min(a.prec + min(b.min_exp, 0), b.prec + min(a.min_exp, 0))
    out = {}
    for (x, l1), c1 in a.coeffs.items():
        for (y, l2), c2 in b.coeffs.items():
            n = x + y
            if n >= prec:
                continue
            key = (n, combine(l1, l2))
            out[key] = out.get(key, 0) + c1 * c2
    return prec, {k: c for k, c in out.items() if c}


def add_labels(l1, l2):
    return tuple(x + y for x, y in zip(l1, l2))


def concat_labels(l1, l2):
    return l1 + l2


def assert_fraction_keys(phi):
    for n, l in phi.coeffs:
        assert type(n) is F
        assert all(type(x) is F for x in l)


@st.composite
def sparse_series(draw, lattice=None, q_den=None):
    if lattice is None:
        lattice = draw(st.sampled_from(LATTICES))
    if q_den is None:
        q_den = draw(st.sampled_from((1, 8)))
    label_den = draw(st.sampled_from((8, 16)))
    # a multiple of 1/(3 q_den): mostly not a multiple of 1/q_den
    prec = F(draw(st.integers(1, 12 * q_den)), 3 * q_den)
    exponent = st.integers(-2 * q_den, 4 * q_den).map(lambda k: F(k, q_den))
    entry = st.integers(-6, 6).map(lambda k: F(k, label_den))
    label = st.tuples(*[entry] * lattice.rank)
    coeffs = draw(st.dictionaries(st.tuples(exponent, label), st.integers(-5, 5),
                                  max_size=12))
    return JacobiSeries(lattice, 0, prec, coeffs, q_den=q_den, form_class=RAW)


@st.composite
def series_pairs(draw):
    lattice = draw(st.sampled_from(LATTICES))
    return draw(sparse_series(lattice)), draw(sparse_series(lattice))


# JacobiSeries drops terms outside its window on construction, so the
# kernel's own truncation and budget are checked on raw integer terms.
kernel_terms = st.lists(st.tuples(
    st.tuples(st.integers(-4, 8), st.tuples(st.integers(-3, 3), st.integers(-3, 3))),
    st.integers(-3, 3)), max_size=10)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-8, 16), st.tuples(st.integers(-6, 6),
                                                                  st.integers(-6, 6))),
                       st.integers(1, 3), max_size=5),
       kernel_terms, kernel_terms, st.integers(-4, 12), st.integers(0, 12))
def test_kernel_matches_double_loop(start, a, b, limit, max_terms):
    b.sort(key=lambda term: term[0][0])
    expected = dict(start)
    for (ta, va), ca in a:
        for (tb, vb), cb in b:
            if ta + tb < limit:
                key = (ta + tb, (va[0] + vb[0], va[1] + vb[1]))
                expected[key] = expected.get(key, 0) + ca * cb
    expected = {k: c for k, c in expected.items() if c}
    # start reaches 6 and every product of a and b reaches 3 + 3
    packing = _Packing(2, 6)
    a, b = packed(packing, a), packed(packing, b)
    start = {packing.pack(*mono): c for mono, c in start.items()}
    dst = dict(start)
    _mul_into(dst, a, b, limit)
    assert packing.unpack(dst) == expected
    dst = dict(start)
    try:
        _mul_into(dst, a, b, limit, max_terms)
    except ResourceLimit:
        assert len(dst) > max_terms
    else:
        assert packing.unpack(dst) == expected and len(dst) <= max(max_terms, len(start))


# few keys, so that products overlap, and coefficients that cancel or are zero
row_terms = st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-8, 8), st.integers(-3, 3).filter(bool), max_size=6),
       row_terms, row_terms, st.booleans())
def test_row_kernel_matches_double_loop(start, a, b, as_items):
    if as_items:
        # the lift hands over the items of its maps: distinct keys, as views
        a, b = dict(a).items(), dict(b).items()
    expected = dict(start)
    for ka, ca in a:
        for kb, cb in b:
            expected[ka + kb] = expected.get(ka + kb, 0) + ca * cb
    dst = dict(start)
    _mul_rows(dst, a, b)
    # no zero kept, also where a zero product lands on a key dst lacks
    assert dst == {k: c for k, c in expected.items() if c}


def test_mul_into_checks_the_budget_after_each_row_pass():
    packing = _Packing(1, 8)
    # two rows of a, one of b: each pass adds two new terms
    a = [(0, packing.pack(0, (0,)), 1), (1, packing.pack(1, (0,)), 1)]
    b = [(0, packing.pack(0, (1,)), 1), (0, packing.pack(0, (-1,)), 1)]
    dst = {}
    with pytest.raises(ResourceLimit, match="product exceeded the 2-coefficient budget"):
        _mul_into(dst, a, b, 5, 2)
    # refused after the second pass, not at its first new term: every
    # product of both passes is in dst
    assert len(dst) == 4
    # a pass that passes the budget on the way and ends inside it is kept
    start = {packing.pack(0, (-1,)): 1}
    dst = dict(start)
    _mul_into(dst, [(0, 0, 1)], [(0, packing.pack(0, (1,)), 1), (0, packing.pack(0, (-1,)), -1)],
              5, 1)
    assert dst == {packing.pack(0, (1,)): 1}


# bounds around powers of two, where the width of a digit changes
bounds = st.one_of(st.integers(0, 40),
                   st.integers(1, 70).flatmap(lambda e: st.sampled_from(
                       (2 ** e - 1, 2 ** e, 2 ** e + 1))))


def edge_components(bound):
    """Integers in [-bound, bound], on the edge +-bound half of the time."""
    return st.one_of(st.sampled_from((-bound, bound)), st.integers(-bound, bound))


@st.composite
def boxes(draw):
    """A packing, its bound and a strategy for the monomials in its box, with
    grades of either sign."""
    rank, bound = draw(st.integers(1, 5)), draw(bounds)
    monomial = st.tuples(st.integers(-2 ** 40, 2 ** 40),
                         st.tuples(*[edge_components(bound)] * rank))
    return _Packing(rank, bound), bound, monomial


@settings(max_examples=300, deadline=None)
@given(boxes(), st.data())
def test_pack_unpack_round_trip_on_the_box(box, data):
    packing, _, monomial = box
    terms = data.draw(st.dictionaries(monomial, st.integers(-5, 5).filter(bool), max_size=8))
    keys = {packing.pack(t, vec): c for (t, vec), c in terms.items()}
    # one key per monomial, read back exactly
    assert packing.unpack(keys) == terms
    # numeric order of keys is (t, lex vec) order, the order unpack returns
    assert [next(iter(packing.unpack({k: 1}))) for k in sorted(keys)] == sorted(terms)
    assert list(packing.unpack(keys)) == sorted(terms)


@settings(max_examples=300, deadline=None)
@given(boxes(), st.data())
def test_keys_add_inside_the_box(box, data):
    packing, bound, monomial = box
    t, total = data.draw(monomial)
    # two monomials of the box whose sum is (t, total)
    first = tuple(data.draw(st.integers(max(-bound, x - bound), min(bound, x + bound)))
                  for x in total)
    second = tuple(x - y for x, y in zip(total, first))
    s = data.draw(st.integers(-2 ** 40, 2 ** 40))
    key = packing.pack(s, first) + packing.pack(t - s, second)
    assert packing.unpack({key: 1}) == {(t, total): 1}


def edge_terms(rank, reach):
    """Tuple-keyed kernel terms whose components reach +-reach often."""
    label = st.tuples(*[edge_components(reach)] * rank)
    return st.lists(st.tuples(st.tuples(st.integers(-6, 6), label), st.integers(-3, 3)),
                    max_size=8)


@settings(max_examples=300, deadline=None)
@given(boxes(), st.data(), st.integers(-6, 12))
def test_packed_products_match_the_oracle(box, data, limit):
    packing, bound, _ = box
    # the reaches of the factors add up to the bound, as in JacobiSeries.__mul__
    reach = data.draw(st.integers(0, bound))
    rank = len(packing.weights)
    a = data.draw(edge_terms(rank, reach))
    b = sorted(data.draw(edge_terms(rank, bound - reach)), key=lambda term: term[0][0])
    expected = {}
    oracle_mul_into(expected, a, b, limit)
    dst = {}
    _mul_into(dst, packed(packing, a), packed(packing, b), limit)
    assert packing.unpack(dst) == expected


@given(st.fractions(min_value=-5, max_value=5), st.sampled_from((1, 3, 8)))
def test_grade_limit_is_the_first_grade_outside_the_window(prec, q_den):
    limit = _grade_limit(prec, q_den)
    assert F(limit, q_den) >= prec > F(limit - 1, q_den)


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_mul_matches_oracle(pair):
    a, b = pair
    prec, expected = oracle_product(a, b, add_labels)
    product = a * b
    assert product.prec == prec
    assert product.q_den == lcm(a.q_den, b.q_den)
    assert product.coeffs == expected
    assert_fraction_keys(product)


@settings(max_examples=150, deadline=None)
@given(sparse_series(q_den=1), sparse_series(q_den=1))
def test_direct_product_matches_oracle(a, b):
    prec, expected = oracle_product(a, b, concat_labels)
    if prec <= 0:
        with pytest.raises(IncompatiblePrecision):
            direct_product(a, b)
        return
    product = direct_product(a, b)
    assert product.lattice == direct_sum(a.lattice, b.lattice)
    assert product.prec == prec
    assert product.coeffs == expected
    assert_fraction_keys(product)


def test_mul_truncates_between_grid_points():
    lat = LATTICES[0]
    a = JacobiSeries(lat, 0, F(7, 6), {(F(0), (F(1, 8),)): 1, (F(1), (F(0),)): 2},
                     q_den=1, form_class=RAW)
    b = JacobiSeries(lat, 0, F(5, 4), {(F(1, 8), (F(1, 16),)): 3, (F(9, 8), (F(0),)): 1},
                     q_den=8, form_class=RAW)
    product = a * b
    # 1 + 1/8 = 9/8 is below 7/6; 1 + 9/8 is not
    assert product.prec == F(7, 6)
    assert product.coeffs == {(F(1, 8), (F(3, 16),)): 3, (F(9, 8), (F(1, 8),)): 1,
                              (F(9, 8), (F(1, 16),)): 6}


# -- integer keys against the Fraction-keyed normalisation ----------------------------


def oracle_normalise(prec, coeffs, q_den):
    """(coeffs, q_den) as the constructor stored them on Fraction keys: zero
    coefficients and exponents at or above prec dropped, keys coerced to
    Fractions, q_den inferred when it is None."""
    clean = {}
    for (n, l), c in coeffs.items():
        if c and n < prec:
            clean[(F(n), tuple(F(x) for x in l))] = c
    if q_den is None:
        q_den = lcm(*{n.denominator for n, _ in clean})
    return clean, q_den


def plain(x):
    """x as an int when it is integral, so keys mix ints and Fractions."""
    return x.numerator if x.denominator == 1 else x


@st.composite
def fraction_maps(draw):
    lattice = draw(st.sampled_from(LATTICES))
    q_den = draw(st.sampled_from((None, 1, 8)))
    step = q_den or draw(st.sampled_from((1, 2, 8)))
    exponent = st.integers(-2 * step, 4 * step).map(lambda k: plain(F(k, step)))
    entry = st.builds(F, st.integers(-20, 20), st.sampled_from((1, 2, 8, 16))).map(plain)
    label = st.tuples(*[entry] * lattice.rank)
    coeffs = draw(st.dictionaries(st.tuples(exponent, label), st.integers(-3, 3),
                                  max_size=12))
    prec = F(draw(st.integers(1, 12 * step)), 3 * step)
    return lattice, prec, coeffs, q_den


@settings(max_examples=300, deadline=None)
@given(fraction_maps())
def test_integer_keys_match_the_fraction_normalisation(case):
    lattice, prec, coeffs, q_den = case
    phi = JacobiSeries(lattice, 0, prec, coeffs, q_den=q_den, form_class=RAW)
    expected, expected_q_den = oracle_normalise(prec, coeffs, q_den)
    assert phi.coeffs == expected
    assert_fraction_keys(phi)
    assert phi.q_den == expected_q_den
    assert phi.support() == sorted(expected.items())
    assert q_row(phi, 0) == {l: c for (n, l), c in expected.items() if n == 0}
    assert phi.min_exp == min((n for n, _ in expected), default=0)
    half = prec / 2
    assert phi.truncate(half).coeffs == {k: c for k, c in expected.items() if k[0] < half}



def test_support_decodes_sorted_integer_keys(monkeypatch):
    # the support of a packed direct product, in (n, lex l) order, without
    # one comparison of two Fractions
    expected = sorted(phi_n(2, 4).coeffs.items())
    phi = phi_n(2, 4)

    def refuse(self, other):
        raise AssertionError("support() compared two Fractions")

    monkeypatch.setattr(F, "__lt__", refuse)
    assert phi.support() == expected

def test_equality_across_representations():
    lat = LATTICES[0]
    coeffs = {(F(0), (F(1, 8),)): 1, (F(1), (F(-1, 16),)): 2, (F(2), (F(0),)): -1}
    over_8 = JacobiSeries(lat, 0, 3, coeffs, q_den=8, form_class=RAW)
    over_1 = JacobiSeries(lat, 0, 3, coeffs, q_den=1, form_class=RAW)
    assert (over_8.q_den, over_1.q_den) == (8, 1)
    assert over_8 == over_1 == JacobiSeries(lat, 0, 3, coeffs, form_class=RAW)
    # the labels of the product reduce to eighths, its stored den stays 16
    a = JacobiSeries(lat, 0, 3, {(F(0), (F(1, 16),)): 1}, q_den=1, form_class=RAW)
    b = JacobiSeries(lat, 0, 3, {(F(0), (F(1, 16),)): 1, (F(1), (F(-1, 16),)): 1},
                     q_den=1, form_class=RAW)
    product = a * b
    reference = JacobiSeries(lat, 0, 3, {(F(0), (F(1, 8),)): 1, (F(1), (F(0),)): 1},
                             q_den=1, form_class=RAW)
    assert (product.den, reference.den) == (16, 8)
    assert product == reference and reference == product
    assert product.coeffs == reference.coeffs
    assert product + reference == 2 * reference
    assert (product - reference).is_zero() and (0 * product).is_zero()


def test_coeffs_view_is_read_only_and_pickles():
    phi = JacobiSeries(LATTICES[0], 0, 2, {(F(0), (F(0),)): 1}, form_class=RAW)
    with pytest.raises(TypeError):
        phi.coeffs[(F(1), (F(0),))] = 1
    assert phi.coeffs == {(F(0), (F(0),)): 1}
    assert pickle.loads(pickle.dumps(phi)) == phi


# -- kernel order: what a product hands on is already in file order -----------------


@pytest.mark.parametrize("build", [
    lambda: direct_product(phi04(3), phi_n(2, 2)),
    lambda: theta_sum(5) * theta_triple_product(5),
    lambda: phi04(4) * phi04(3),
    lambda: theta_triple_product(9),
    lambda: theta_sum(9),
    lambda: phi04(6),
    lambda: phi_n(3, 3),
    lambda: lift_expansion(phi_n(2, 4), 4),
    lambda: lift_expansion_log_exp(phi_n(2, 4), 4),
    lambda: lift_expansion(phi_n(3, 3), 2),
    lambda: lift_expansion_log_exp(phi_n(3, 3), 2),
], ids=["direct_product", "mul", "mul-weak", "theta_triple_product", "theta_sum", "phi04", "phi_n",
        "lift-phi_2", "log_exp-phi_2", "lift-phi_3", "log_exp-phi_3"])
def test_products_leave_their_terms_in_file_order(build):
    # series keys (t, vec) in (t, lex vec) order, expansion keys (n, m, l) in
    # (n, m, lex l) order: the emitters' sorts then pass over them once, and
    # so does the sort of the next product
    x = build()
    assert len(x.terms) > 1
    assert list(x.terms) == sorted(x.terms)


# -- binomial factors in place, grade by grade ----------------------------------------


def snapshot(packing, packed):
    """The kernel terms (t, k, c) of a map {k: c}, in its order: what phi04
    and the triple product listed of their whole accumulator before each
    factor, when every factor was one _mul_into call."""
    grades = [(k + packing.offset) >> packing.shift for k in packed]
    return list(zip(grades, packed, packed.values()))


def oracle_phi04(prec):
    """phi04's expansion as it was built before _binomial: per n, one product
    with (1 - q^n zeta^3)(1 - q^n zeta^-3) - 1 and one with each truncated
    geometric series, each over a snapshot of the accumulator."""
    limit = _grade_limit(F(prec), 1)
    packing = _Packing(1, 1 + 3 * limit)
    pack = packing.pack
    acc = {pack(0, (1,)): 1, pack(0, (0,)): 1, pack(0, (-1,)): 1}
    for n in range(1, limit):
        numer = [(n, pack(n, (3,)), -1), (n, pack(n, (-3,)), -1), (2 * n, pack(2 * n, (0,)), 1)]
        _mul_into(acc, snapshot(packing, acc), numer, limit)
        for sign in (1, -1):
            geom = [(k * n, pack(k * n, (sign * k,)), 1) for k in range(1, -(-limit // n))]
            _mul_into(acc, snapshot(packing, acc), geom, limit)
    return packing.unpack(acc)


def oracle_triple_product(prec):
    """The triple product's terms as they were built before _binomial: one
    _mul_into per factor over a snapshot of the accumulator."""
    limit = _grade_limit(F(prec), 8)
    packing = _Packing(1, 1 + limit // 4)
    acc = {packing.pack(1, (1,)): 1, packing.pack(1, (-1,)): -1}
    n = 1
    while 8 * n + 1 < limit:
        for label in (2, -2, 0):
            _mul_into(acc, snapshot(packing, acc), [(8 * n, packing.pack(8 * n, (label,)), -1)],
                      limit)
        n += 1
    return {key: c for key, c in packing.unpack(acc).items() if key[0] < limit}


@pytest.mark.parametrize("prec", range(1, 25))
def test_phi04_matches_the_accumulator_loop(prec):
    assert list(phi04(prec).terms.items()) == list(oracle_phi04(prec).items())


@pytest.mark.parametrize("prec", [F(k, 16) for k in range(1, 17)] + [F(7, 3), F(81, 8)]
                         + list(range(2, 33)))
def test_triple_product_matches_the_accumulator_loop(prec):
    assert list(theta_triple_product(prec).terms.items()) == list(
        oracle_triple_product(prec).items())


@st.composite
def graded_rows(draw, positive=False):
    """A packing of rank 1 to 3, a kernel limit, rows of grades 0 to limit - 1
    with small labels, and a factor 1 + c X, X of grade g >= 1. The packing's
    bound covers a label that gains the factor's at every grade."""
    rank = draw(st.integers(1, 3))
    limit = draw(st.integers(1, 9))
    packing = _Packing(rank, 3 + 2 * limit)
    label = st.tuples(*[st.integers(-3, 3)] * rank)
    coefficient = st.integers(1, 3) if positive else st.integers(-3, 3).filter(bool)
    rows = [{packing.pack(t, vec): c
             for vec, c in draw(st.dictionaries(label, coefficient, max_size=4)).items()}
            for t in range(draw(st.integers(0, limit)))]
    g = draw(st.integers(1, 4))
    key = packing.pack(g, draw(st.tuples(*[st.integers(-2, 2)] * rank)))
    return packing, limit, rows, g, key, draw(coefficient)


def flat(rows):
    return {k: c for row in rows for k, c in row.items()}


def rows_terms(packing, rows):
    """The rows as sorted kernel terms (t, k, c)."""
    return sorted(snapshot(packing, flat(rows)))


def assert_rows(packing, rows, expected, count):
    # every key on the row of its grade, no zero kept, the count exact
    assert all(t == grade for t, row in enumerate(rows) for grade, _ in packing.unpack(row))
    assert 0 not in flat(rows).values()
    assert count == len(flat(rows)) == sum(map(len, rows))
    assert list(packing.unpack(flat(rows)).items()) == list(packing.unpack(expected).items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_rows())
def test_binomial_product_matches_the_kernel(case):
    packing, limit, rows, g, key, c = case
    expected = {}
    _mul_into(expected, rows_terms(packing, rows), [(0, 0, 1), (g, key, c)], limit)
    count = _binomial(rows, g, key, c, limit, len(flat(rows)))
    assert_rows(packing, rows, expected, count)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_rows())
def test_binomial_quotient_by_one_minus_x_is_the_geometric_series(case):
    packing, limit, rows, g, key, _ = case
    expected = {}
    geometric = [(k * g, k * key, 1) for k in range(-(-limit // g))]
    _mul_into(expected, rows_terms(packing, rows), geometric, limit)
    count = _binomial(rows, g, key, -1, limit, len(flat(rows)), divide=True)
    assert_rows(packing, rows, expected, count)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_rows())
def test_binomial_quotient_undoes_the_product(case):
    packing, limit, rows, g, key, c = case
    before = flat(rows)
    count = _binomial(rows, g, key, c, limit, len(before))
    count = _binomial(rows, g, key, c, limit, count, divide=True)
    assert_rows(packing, rows, before, count)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_rows(positive=True), st.booleans())
def test_binomial_budget_refuses_one_term_past_it(case, divide):
    # positive rows times 1 + c X, or over 1 - X, with c > 0: nothing
    # cancels, so the count only grows and its final value is its peak
    packing, limit, rows, g, key, c = case
    if divide:
        c = -1
    start = [dict(row) for row in rows]
    total = _binomial(start, g, key, c, limit, len(flat(rows)), divide=divide)
    copy = [dict(row) for row in rows]
    assert _binomial(copy, g, key, c, limit, len(flat(rows)), total, divide) == total
    if total > len(flat(rows)):
        with pytest.raises(ResourceLimit, match=f"the {total - 1}-coefficient budget"):
            _binomial(rows, g, key, c, limit, len(flat(rows)), total - 1, divide)


def test_binomial_refuses_a_quotient_before_walking_past_its_rows():
    # each row the quotient appends repeats the size of a row below it, so
    # the terms it would reach are counted before the first one is built
    packing = _Packing(1, 4)
    rows = [{packing.pack(0, (1,)): 1, packing.pack(0, (-1,)): 1}]
    x = packing.pack(1, (0,))
    with pytest.raises(ResourceLimit, match="the 10-coefficient budget"):
        _binomial(rows, 1, x, -1, 10 ** 30, 2, 10, divide=True)
    assert len(rows) == 1
    # five rows of two terms fit the budget of ten
    assert _binomial(rows, 1, x, -1, 5, 2, 10, divide=True) == 10
    assert [len(row) for row in rows] == [2] * 5
