"""Property tests of the exact product kernel behind JacobiSeries.__mul__,
direct_product, phi04 and the lift, and of the packing of its keys.

oracle_mul_into is the kernel as it was on tuple keys ((t, vec), c), before
every key was packed into one int; the packed kernel must agree with it
wherever the packing's bound holds, including monomials on the edge of the
box |vec_i| <= bound.

oracle_product is the plain double loop over Fraction-keyed terms that
both products used before they moved onto integer keys. Random sparse series
on [[8]] and on a rank-2 lattice cover label denominators 8 and 16, q_den 1
and 8, negative exponents, and windows that end between two multiples of
1/q_den, which puts the truncation boundary inside the support.

A series stores its terms on integer keys. The second oracle below is the
normalisation the constructor applied when it stored Fraction keys; the
Fraction-keyed view, q_den, support() and q_row() must agree with it.
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
    _grade_limit,
    _mul_into,
    _Packing,
    direct_product,
    phi04,
    phi_n,
    theta_sum,
    theta_triple_product,
)

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
    assert packing.terms(keys) == [(t, k, c) for ((t, _), c), k in zip(terms.items(), keys)]
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
    assert phi.q_row(0) == {l: c for (n, l), c in expected.items() if n == 0}
    assert phi.min_exp == min((n for n, _ in expected), default=0)
    half = prec / 2
    assert phi.truncate(half).coeffs == {k: c for k, c in expected.items() if k[0] < half}


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
