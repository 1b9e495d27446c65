"""Tests for theta blocks, the weight-0 quotient, direct products and the
theta decomposition.

The two theta constructions check each other; the quotient is gated by the
multiplicative identity phi04 * theta(z) = theta(3z); decomposition is gated
by the recompose round trip. No expected value below was produced by the code
path it checks.
"""

import gc
import json
import random
from bisect import bisect_left
from fractions import Fraction as F
from math import ceil, lcm

import pytest
from hypothesis import given, settings, strategies as st

from borcherdskit.errors import (
    FormClassError,
    IncompatiblePrecision,
    NotInDualLattice,
    PrecisionTooSmall,
    ResourceLimit,
    ShiftInvarianceViolated,
)
from borcherdskit.io import canonical_dumps, emit_series, emit_vvform, parse_vvform
from borcherdskit.lattice import EvenLattice, _as_integers, vector_str
from borcherdskit.lift import principal_part
from borcherdskit.series import (
    DEFAULT_BUDGET,
    RAW,
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    direct_product,
    phi04,
    phi_n,
    recompose,
    rescale_elliptic,
    theta_component,
    theta_decompose,
    theta_lattice,
    theta_sum,
    theta_triple_product,
)
from oracles import bilinear_value, q_row, reduce_mod1

L8 = theta_lattice()


def random_series(rng, prec=4, n_terms=6):
    coeffs = {}
    for _ in range(n_terms):
        n = F(rng.randint(0, 8 * prec - 1), 8)
        l = (F(rng.randint(-6, 6), 16),)
        coeffs[(n, l)] = rng.randint(-5, 5)
    return JacobiSeries(L8, 0, prec, coeffs, form_class=RAW)


# -- theta as a sum ---------------------------------------------------------


def test_theta_sum_character_values():
    th = theta_sum(5)
    assert th.coefficient(F(1, 8), (F(1, 16),)) == 1
    assert th.coefficient(F(1, 8), (F(-1, 16),)) == -1
    assert th.coefficient(F(9, 8), (F(3, 16),)) == -1
    assert th.coefficient(F(9, 8), (F(-3, 16),)) == 1
    assert th.weight == F(1, 2)
    assert th.q_den == 8


def test_theta_sum_no_constant_term():
    th = theta_sum(5)
    assert q_row(th, 0) == {}
    assert th.min_exp == F(1, 8)


def test_theta_sum_term_count_below_25_8():
    # enumeration oracle: odd n with n^2 < 25 are +-1, +-3
    th = theta_sum(F(25, 8))
    assert len(th.coeffs) == 4


# -- theta as a triple product ------------------------------------------------


@pytest.mark.parametrize("prec", [F(25, 8), 5, 12])
def test_theta_formulas_agree(prec):
    assert theta_sum(prec).coeffs == theta_triple_product(prec).coeffs


# -- rescaling ----------------------------------------------------------------


def test_rescale_identity():
    th = theta_sum(4)
    assert rescale_elliptic(th, 1) == th


def test_rescale_lowest_term():
    th3 = rescale_elliptic(theta_sum(4), 3)
    assert th3.coefficient(F(1, 8), (F(3, 16),)) == 1
    assert th3.coefficient(F(1, 8), (F(-3, 16),)) == -1


def test_rescale_composition():
    th = theta_sum(4)
    assert rescale_elliptic(rescale_elliptic(th, 3), 3).coeffs \
        == rescale_elliptic(th, 9).coeffs


def test_rescale_rejects_nonpositive():
    with pytest.raises(ValueError):
        rescale_elliptic(theta_sum(2), 0)


# -- the weight-0 quotient ------------------------------------------------------


def test_phi04_q0_row():
    row = q_row(phi04(3), 0)
    assert row == {(F(1, 8),): 1, (F(0),): 1, (F(-1, 8),): 1}


def test_phi04_multiplicative_identity():
    # the defining quotient relation, checked through independent code paths
    p = phi04(10)
    th = theta_sum(10)
    assert p * th == rescale_elliptic(th, 3)


def test_phi04_label_symmetry():
    p = phi04(8)
    for (n, l), c in p.coeffs.items():
        assert p.coefficient(n, tuple(-x for x in l)) == c


def test_phi04_metadata():
    p = phi04(2)
    assert p.weight == 0
    assert p.q_den == 1
    assert p.form_class == WEAK_JACOBI


def test_phi04_requires_precision_one():
    with pytest.raises(PrecisionTooSmall):
        phi04(F(1, 2))


# -- direct products -------------------------------------------------------------


def test_direct_product_q0_grid():
    p = phi04(2)
    pp = direct_product(p, p)
    row = q_row(pp, 0)
    assert len(row) == 9
    for a in (F(-1, 8), F(0), F(1, 8)):
        for b in (F(-1, 8), F(0), F(1, 8)):
            assert row[(a, b)] == 1


def test_direct_product_constant_and_sum():
    for n in (1, 2, 3):
        p = phi_n(n, 2)
        zero = (F(0),) * n
        assert p.coefficient(0, zero) == 1
        assert sum(q_row(p, 0).values()) == 3 ** n


def test_direct_product_weights_add():
    p = phi04(2)
    assert direct_product(p, p).weight == 0


def test_direct_product_rejects_fractional_exponents():
    with pytest.raises(FormClassError):
        direct_product(theta_sum(2), theta_sum(2))


def test_direct_product_empty_window():
    p = phi04(2)
    shifted = JacobiSeries(p.lattice, 0, 1, {(F(-2), (F(0),)): 1}, q_den=1,
                           form_class=RAW)
    with pytest.raises(IncompatiblePrecision):
        direct_product(p, shifted)


def test_direct_product_associative_up_to_grouping():
    p = phi04(2)
    left = direct_product(direct_product(p, p), p)
    right = direct_product(p, direct_product(p, p))
    assert left.coeffs == right.coeffs
    assert left.lattice == right.lattice


# -- packed products against products of decoded series ----------------------------
#
# A direct product keeps its terms on the packed keys of the kernel, and the
# next product re-keys them by one shift when the label denominator and the
# digit width agree; otherwise it decodes them. Every such product must equal
# the one formed from its factors rebuilt through the public constructor.


def rebuilt(phi):
    """phi as the public constructor makes it: decoded keys over the least
    label denominator."""
    return JacobiSeries(phi.lattice, phi.weight, phi.prec, dict(phi.coeffs),
                        q_den=phi.q_den, form_class=phi.form_class)


def items_over(phi, den):
    """The items of phi.terms in their order, with labels over den."""
    k = den // phi.den
    return [((t, tuple(k * x for x in vec)), c) for (t, vec), c in phi.terms.items()]


def decomposition(phi):
    """theta_decompose(phi), or the type and message of its refusal: a
    rescaled phi04 is not shift invariant on its lattice."""
    try:
        return theta_decompose(phi)
    except ShiftInvarianceViolated as exc:
        return type(exc), str(exc)


@st.composite
def phi04_factors(draw):
    """rescale_elliptic(phi04(prec), a) over den 8, or over its least label
    denominator when rebuilt."""
    phi = rescale_elliptic(phi04(draw(st.integers(1, 3))), draw(st.sampled_from((1, 2, 3, 8))))
    return rebuilt(phi) if draw(st.booleans()) else phi


@settings(max_examples=25, deadline=None, derandomize=True)
@given(phi04_factors(), phi04_factors(), phi04_factors(), phi04_factors())
def test_packed_products_match_decoded_products(f1, f2, f3, f4):
    def packed():
        return direct_product(f1, f2)

    # a factor 64 times wider than the others cannot share their digit width
    cases = [
        ("packed x tuple", packed(), f3),
        ("tuple x packed", f3, packed()),
        ("packed x packed", packed(), direct_product(f3, f4)),
        ("width mismatch", packed(), rescale_elliptic(f4, 64)),
    ]
    products = []
    for name, a, b in cases:
        product = direct_product(a, b)
        for factor in (a, b):
            # a packed factor is decoded exactly when it cannot be re-keyed
            if factor._packed is not None:
                rekeyed = (factor.den == product.den
                           and factor._packing.width == product._packing.width)
                assert (factor._terms is None) == rekeyed, name
        products.append((name, product, direct_product(rebuilt(a), rebuilt(b))))
    assert cases[-1][1]._terms is not None
    for name, product, reference in products:
        den = lcm(product.den, reference.den)
        text = canonical_dumps(emit_series(product))
        assert text == canonical_dumps(emit_series(reference)), name
        assert text == canonical_dumps(emit_series(rebuilt(product))), name
        assert items_over(product, den) == items_over(reference, den), name
        assert list(product.coeffs.items()) == list(reference.coeffs.items()), name
        assert (product.lattice, product.weight, product.prec, product.form_class) == (
            reference.lattice, reference.weight, reference.prec, reference.form_class), name
        assert product == reference and reference == product, name
        assert decomposition(product) == decomposition(reference), name


def test_phi_n_one_is_phi04():
    assert phi_n(1, 3) == phi04(3)


def test_phi_n_budget():
    with pytest.raises(ResourceLimit):
        phi_n(3, 2, budget=10)


def test_phi_n_budget_stops_mid_product():
    # the budget is enforced by the product kernel as terms appear, not
    # after the product is complete
    with pytest.raises(ResourceLimit) as excinfo:
        phi_n(4, 5, budget=1000)
    assert [entry.name for entry in excinfo.traceback[-2:]] == ["direct_product", "_mul_into"]


def test_phi_n_budget_applies_inside_phi04():
    # phi04(50) alone has far more than 10 terms; the kernel refuses while
    # phi04 builds it
    with pytest.raises(ResourceLimit) as excinfo:
        phi_n(1, 50, budget=10)
    assert [entry.name for entry in excinfo.traceback[-2:]] == ["phi04", "_binomial"]


# -- coset theta series -----------------------------------------------------------


def test_theta_component_zero_coset():
    th = theta_component(L8, (0,), 5)
    assert th.coeffs == {(F(0), (F(0),)): 1, (F(4), (F(1),)): 1, (F(4), (F(-1),)): 1}


def test_theta_component_constant_term():
    assert theta_component(L8, (0,), 2).coefficient(0, (0,)) == 1
    th = theta_component(L8, (F(1, 8),), 2)
    assert q_row(th, 0) == {}


def test_theta_component_negation_closure():
    k = EvenLattice([[8, 0], [0, 8]])
    gamma = (F(1, 2), F(1, 2))  # equals its own negative mod 1
    th = theta_component(k, gamma, 4)
    for (n, l), c in th.coeffs.items():
        assert th.coefficient(n, tuple(-x for x in l)) == c


def test_theta_component_rejects_non_dual():
    with pytest.raises(NotInDualLattice):
        theta_component(L8, (F(1, 3),), 2)


# -- theta decomposition ------------------------------------------------------------


def test_decompose_phi04_leading_data():
    vv = theta_decompose(phi04(4))
    assert vv.weight == F(-1, 2)
    assert vv.lattice.det == 8
    assert len(emit_vvform(vv)["components"]) == 8
    assert vv.component((0,))[F(0)] == 1
    g1 = vv.component((F(1, 8),))
    assert min(g1) == F(-1, 16)
    assert g1[F(-1, 16)] == 1


def test_decompose_components_symmetric():
    vv = theta_decompose(phi_n(2, 3))
    for gamma, fg in vv.components.items():
        neg = vv.component(tuple(-c for c in gamma))
        assert fg == neg


def test_decompose_exponent_classes():
    vv = theta_decompose(phi04(5))
    lat = vv.lattice
    for gamma, fg in vv.components.items():
        for e in fg:
            assert (e + lat.quadratic_value(gamma)).denominator == 1


def test_decompose_rejects_raw_series():
    with pytest.raises(FormClassError):
        theta_decompose(theta_sum(3))


def test_decompose_detects_conflicting_witnesses():
    p = phi04(4)
    # c(3, -7/8) and c(0, 1/8) witness the same class; corrupt one of them
    key = (F(3), (F(-7, 8),))
    assert p.coeffs[key] == p.coeffs[(F(0), (F(1, 8),))] == 1
    corrupted = dict(p.coeffs)
    corrupted[key] = 2
    bad = JacobiSeries(p.lattice, 0, 4, corrupted, q_den=1, form_class=WEAK_JACOBI)
    with pytest.raises(ShiftInvarianceViolated):
        theta_decompose(bad)


def test_decompose_detects_missing_witness():
    p = phi04(4)
    corrupted = dict(p.coeffs)
    del corrupted[(F(3), (F(-7, 8),))]
    bad = JacobiSeries(p.lattice, 0, 4, corrupted, q_den=1, form_class=WEAK_JACOBI)
    with pytest.raises(ShiftInvarianceViolated):
        theta_decompose(bad)


def test_recompose_round_trip_phi04():
    p = phi04(5)
    back = recompose(theta_decompose(p), 5)
    assert back.prec == 5
    assert back.coeffs == p.coeffs


def test_recompose_keeps_q_den_and_form_class():
    phi = phi_n(2, 4)
    back = recompose(theta_decompose(phi), 4)
    assert back.q_den == 1
    assert back.form_class == WEAK_JACOBI
    assert back == phi


def test_recompose_zero_form():
    lat = L8
    reps = lat.discriminant_group().representatives
    zero = VectorValuedForm(lat, F(-1, 2), {g: {} for g in reps}, F(10))
    assert zero.components == {}
    assert zero.component((F(9, 8),)) == {}
    assert zero.precision((F(9, 8),)) == 10 - F(1, 16)
    assert recompose(zero, 5).is_zero()


def test_component_reads_one_coset_without_the_fraction_view():
    form, view = theta_decompose(phi_n(2, 3)), theta_decompose(phi_n(2, 3)).components
    reps = form.lattice.discriminant_group().representatives
    assert len(view) < len(reps)  # some cosets have f_gamma = 0
    for gamma in reps:
        for v in (gamma, tuple(x - 2 for x in gamma)):
            assert form.component(v) == view.get(gamma, {})
    # outside the dual lattice, as precision
    for read in (form.component, form.precision):
        with pytest.raises(NotInDualLattice, match=r"\(1/16, 0\) does not pair integrally"):
            read((F(1, 16), F(0)))
    assert "components" not in vars(form)


def test_recompose_window_capped_by_components():
    vv = theta_decompose(phi04(4))
    back = recompose(vv, 100)
    assert back.prec == 4


@pytest.fixture
def no_coset_listing(monkeypatch):
    """Fail the test if a lattice is asked for the minima of all its cosets."""
    def refuse(lattice):
        raise AssertionError("the dense coset listing was asked for")

    monkeypatch.setattr(EvenLattice, "coset_minima", refuse)


def test_decomposition_lists_no_cosets(no_coset_listing):
    phi = phi_n(3, 3)
    form = theta_decompose(phi)
    assert form.prec == 3
    back = recompose(form, 3)
    assert back.prec == 3
    assert back == phi
    pp = principal_part(form)
    assert pp.constant_term == 1
    # each q^0 label l other than 0 lands at exponent -Q(l) on its coset
    lat = phi.lattice
    for l, c in q_row(phi, 0).items():
        if any(l):
            assert pp.coeffs[(reduce_mod1(lat, l), -lat.quadratic_value(l))] == c


def test_rank_6_decomposition_round_trip(no_coset_listing):
    # diag(8)^6 has 262 144 cosets, and 729 of them carry a component
    phi = phi_n(6, 1)
    form = theta_decompose(phi)
    assert len(form.components) == 729
    assert recompose(form, 1) == phi
    assert len(principal_part(form).terms) == 728


def test_precision_searches_one_coset(no_coset_listing):
    # diag(8)^7 has 2 097 152 cosets; the minimum of Q on the coset of gamma
    # is 4 * sum_i dist(gamma_i, Z)^2
    lat = EvenLattice([[8 * (i == j) for j in range(7)] for i in range(7)])
    half = (F(1, 2),) * 7
    form = VectorValuedForm(lat, F(-7, 2), {half: {F(-7): 1}}, 1)
    assert form.precision(half) == 1 - 7
    assert form.precision((F(9, 8), F(-3, 8)) + (0,) * 5) == 1 - 4 * (F(1, 64) + F(9, 64))
    with pytest.raises(NotInDualLattice):
        form.precision((F(1, 16),) + (0,) * 6)


@st.composite
def gram_components(draw):
    """(lattice, components, prec, P): the Fraction map of a vector-valued
    form on a random lattice with Gram matrix 2 B^T B of rank at most 3, with
    random coefficients, zero ones included, at exponents in -Q(gamma) + Z
    near -min Q(gamma) on random cosets, its precision, and a recomposition
    precision P."""
    rank = draw(st.sampled_from((3, 2, 1)))
    # B = U * V with U upper and V unit lower triangular, nonsingular because
    # U has a nonzero diagonal
    entry = st.integers(-2, 2)
    u = [[draw(st.sampled_from((1, -1, 2, -2))) if i == j else draw(entry) if i < j else 0
          for j in range(rank)] for i in range(rank)]
    v = [[1 if i == j else draw(entry) if i > j else 0 for j in range(rank)]
         for i in range(rank)]
    b = [[sum(u[i][k] * v[k][j] for k in range(rank)) for j in range(rank)]
         for i in range(rank)]
    lat = EvenLattice([[2 * sum(row[i] * row[j] for row in b) for j in range(rank)]
                       for i in range(rank)])
    disc = lat.discriminant_group()
    components = {}
    for _ in range(draw(st.integers(1, 4))):
        gamma = [F(0)] * rank
        for d, g in zip(disc.elementary_divisors, disc.generators):
            k = draw(st.integers(0, d - 1))
            gamma = [c + k * x for c, x in zip(gamma, g)]
        gamma = reduce_mod1(lat, tuple(gamma))
        q = lat.coset_minimum(gamma)
        components[gamma] = {-q + draw(st.integers(-1, 3)): draw(st.integers(-3, 3))
                             for _ in range(draw(st.integers(1, 3)))}
    prec = draw(st.integers(1, 4))
    return lat, components, prec, draw(st.integers(1, 4))


def gram_forms():
    """(form, P): the form of weight -rank/2 of gram_components() and P."""
    return gram_components().map(
        lambda d: (VectorValuedForm(d[0], F(-d[0].rank, 2), d[1], d[2]), d[3]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gram_forms())
def test_decompose_recompose_round_trip_random_gram(form_and_prec):
    form, prec = form_and_prec
    lat = form.lattice
    top = min(prec, form.prec)
    expected = VectorValuedForm(
        lat, form.weight,
        {g: {e: c for e, c in fg.items() if e < top - lat.coset_minimum(g)}
         for g, fg in form.components.items()},
        top)
    assert theta_decompose(recompose(form, prec)) == expected
    # each coset theta series, against the public constructor on the vectors
    # of the coset
    for gamma in form.components:
        coeffs = {(lat.quadratic_value(l), l): 1
                  for l in lat.enumerate_coset(gamma, prec)}
        theta = theta_component(lat, gamma, prec)
        oracle = JacobiSeries(lat, F(lat.rank, 2), prec, coeffs, form_class=RAW)
        assert theta.coeffs == oracle.coeffs and theta.q_den == oracle.q_den


def nonzero_map(components):
    """The Fraction map of the constructor's input with zero coefficients,
    then empty components, dropped: what components must give back."""
    nonzero = {tuple(map(F, g)): {F(e): c for e, c in fg.items() if c}
               for g, fg in components.items()}
    return {g: fg for g, fg in nonzero.items() if fg}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gram_components(), st.integers(2, 3), st.data())
def test_integer_forms_match_their_fraction_maps(drawn, k, data):
    lat, components, prec, top = drawn
    weight = F(-lat.rank, 2)
    built = VectorValuedForm(lat, weight, components, prec)
    nonzero = nonzero_map(components)
    assert built.components == nonzero
    # theta_decompose's own form keeps eden = 2 den^2 over the label
    # denominator den of its input, so the same series stored over k * den
    # gives another eden, and finer keeps k times the decomposition's eden
    phi = recompose(built, top)
    decomposed = theta_decompose(phi)
    over = JacobiSeries._of(lat, phi.weight, phi.prec, phi._over(1, k * phi.den), 1,
                            k * phi.den, phi.form_class)
    parsed = parse_vvform(json.loads(canonical_dumps(emit_vvform(decomposed))))
    finer = VectorValuedForm._of(
        lat, weight, decomposed.prec,
        {g: {k * e: c for e, c in fg.items()} for g, fg in decomposed.terms.items()},
        k * decomposed.eden)
    expected = nonzero_map(decomposed.components)
    forms = [decomposed, theta_decompose(over), parsed, finer,
             VectorValuedForm(lat, weight, expected, decomposed.prec)]
    for form in forms:
        assert form.components == expected
        assert all(form == other for other in forms)
    if not expected:
        return
    # one coefficient, one exponent or one gamma changed
    g = data.draw(st.sampled_from(sorted(expected)))
    fg = expected[g]
    e = data.draw(st.sampled_from(sorted(fg)))
    rest = {x: c for x, c in fg.items() if x != e}
    cosets = [h for h in lat.discriminant_group().representatives if h not in expected]
    mutants = [{**expected, g: {**fg, e: fg[e] + (1 if fg[e] != -1 else -1)}},
               {**expected, g: {**rest, max(fg) + 1: fg[e]}}]
    if cosets:
        moved = {h: f for h, f in expected.items() if h != g}
        mutants.append({**moved, data.draw(st.sampled_from(cosets)): fg})
    for mutant in mutants:
        changed = VectorValuedForm(lat, weight, mutant, decomposed.prec)
        for form in forms:
            assert changed != form and form != changed
    # component and precision on reduced and unreduced gamma
    shift = tuple(data.draw(st.integers(-2, 2)) for _ in range(lat.rank))
    for gamma in [g, *cosets[:2]]:
        for v in (gamma, tuple(x + y for x, y in zip(gamma, shift))):
            for form in forms:
                assert form.component(v) == expected.get(gamma, {})
                assert form.precision(v) == form.prec - lat.coset_minimum(gamma)


def oracle_theta_decompose(phi):
    """theta_decompose grouping the terms on Fractions: each label is built,
    tested with is_dual_vector, reduced with reduce_mod1, and its class keyed
    by (gamma, n - Q(l))."""
    lat = phi.lattice
    groups = {}
    for (n, l), c in phi.coeffs.items():
        if not lat.is_dual_vector(l):
            raise NotInDualLattice(f"label {vector_str(l)} is not in the dual lattice")
        key = (reduce_mod1(lat, l), n - lat.quadratic_value(l))
        value, count = groups.get(key, (c, 0))
        if value != c:
            raise ShiftInvarianceViolated(
                f"coefficients at class gamma={vector_str(key[0])}, exponent {key[1]} "
                f"disagree: {value} vs {c}")
        groups[key] = (c, count + 1)
    by_gamma = {}
    for (gamma, e), (value, count) in groups.items():
        by_gamma.setdefault(gamma, []).append((e, value, count))
    if lat.det > DEFAULT_BUDGET:
        raise ResourceLimit(f"determinant {lat.det} exceeds the {DEFAULT_BUDGET}-coset budget")
    for gamma, entries in by_gamma.items():
        e_min, _, count_min = min(entries)
        q0 = lat.quadratic_value(gamma)
        bound = q0 + ceil(phi.prec - e_min - q0) - 1
        den, offset = _as_integers(gamma)
        scale, found = lat._points(offset, den, bound.numerator, bound.denominator,
                                   limit=count_min)
        if len(found) > count_min:
            raise ShiftInvarianceViolated(
                f"class gamma={vector_str(gamma)}, exponent {e_min} has {count_min} stored "
                f"witnesses but more than {count_min} lattice translates in the window")
        norms = sorted(q for _, q in found)
        for e, value, count in entries:
            expected = bisect_left(norms, ceil(scale * (phi.prec - e)))
            if expected != count:
                raise ShiftInvarianceViolated(
                    f"class gamma={vector_str(gamma)}, exponent {e} has {count} stored "
                    f"witnesses but {expected} lattice translates in the window")
    components = {g: {e: value for e, value, _ in entries} for g, entries in by_gamma.items()}
    return VectorValuedForm(lat, F(-lat.rank, 2), components, phi.prec)


def decompose_outcome(decompose, phi):
    """The form, or the type and message of the error raised."""
    try:
        return decompose(phi)
    except (NotInDualLattice, ShiftInvarianceViolated) as exc:
        return type(exc), str(exc)


def series_variants(draw, phi):
    """phi, phi stored over a label denominator that is not the least one,
    and two mutants: one label moved off the dual lattice, and one witness
    coefficient changed."""
    lat = phi.lattice
    k = draw(st.sampled_from((2, 3)))
    over = JacobiSeries._of(lat, phi.weight, phi.prec, phi._over(1, k * phi.den), 1,
                            k * phi.den, WEAK_JACOBI)
    yield phi
    yield over
    if not phi.terms:
        return
    keys = sorted(phi.coeffs)
    (n, l) = draw(st.sampled_from(keys))
    i = draw(st.integers(0, lat.rank - 1))
    # gram[i][i] / (gram[i][i] + 1) is not an integer, so l + e_i / (gram[i][i] + 1)
    # pairs non-integrally with e_i
    moved = tuple(x + (F(1, lat.gram[i][i] + 1) if j == i else 0) for j, x in enumerate(l))
    for key, change in (((n, moved), 0), ((n, l), draw(st.sampled_from((-1, 1))))):
        coeffs = dict(phi.coeffs)
        c = coeffs.pop((n, l))
        coeffs[key] = c + change
        yield JacobiSeries(lat, 0, phi.prec, coeffs, q_den=1, form_class=WEAK_JACOBI)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gram_forms(), st.data())
def test_decompose_matches_fraction_oracle(form_and_prec, data):
    form, prec = form_and_prec
    phi = recompose(form, prec)
    variants = list(series_variants(data.draw, phi))
    assert variants[1].den != phi.den
    for series in variants:
        assert (decompose_outcome(theta_decompose, series)
                == decompose_outcome(oracle_theta_decompose, series))


# -- shift invariance as a property --------------------------------------------------


@pytest.mark.parametrize("builder, prec", [
    (lambda: phi04(8), 8),
    (lambda: phi_n(2, 5), 5),
    (lambda: phi_n(3, 3), 3),
])
def test_shift_invariance_sampled(builder, prec):
    phi = builder()
    lat = phi.lattice
    rng = random.Random(42)
    keys = sorted(phi.coeffs)
    checked = 0
    while checked < 50:
        n, l = keys[rng.randrange(len(keys))]
        lam = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        n2 = n + bilinear_value(lat, lam, l) + lat.quadratic_value(lam)
        if n2 >= phi.prec or n2 < 0:
            continue
        l2 = tuple(a + b for a, b in zip(l, lam))
        assert phi.coefficient(n2, l2) == phi.coeffs[(n, l)]
        checked += 1


def test_weight_zero_label_symmetry_full_support():
    phi = phi_n(2, 4)
    for (n, l), c in phi.coeffs.items():
        assert phi.coefficient(n, tuple(-x for x in l)) == c


# -- ring laws on truncations ----------------------------------------------------------


def test_ring_laws():
    rng = random.Random(9)
    a, b, c = (random_series(rng) for _ in range(3))
    assert (a + b).coeffs == (b + a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    d = a * (b + c)
    e = a * b + a * c
    assert d == e


def test_multiplication_precision_is_min():
    a = phi04(5)
    b = phi04(3)
    assert (a * b).prec == 3
    assert (a + b).prec == 3


def test_equality_compares_common_window():
    assert phi04(3) == phi04(5)
    p = phi04(3)
    q = JacobiSeries(p.lattice, 0, 3, {**p.coeffs, (F(2), (F(1),)): 99},
                     q_den=1, form_class=WEAK_JACOBI)
    assert p != q


def test_truncate():
    p = phi04(5)
    t = p.truncate(2)
    assert t.prec == 2
    assert all(n < 2 for (n, _) in t.coeffs)
    with pytest.raises(PrecisionTooSmall):
        t.truncate(10)


def test_decomposition_leaves_no_reference_cycles():
    # the collector finds nothing after a decomposition, a recomposition and
    # a coset table: no search leaves a cycle behind
    phi = phi_n(3, 3)
    gc.collect()
    gc.disable()
    try:
        form = theta_decompose(phi)
        assert recompose(form, phi.prec) == phi
        EvenLattice([[8, 0, 0], [0, 8, 0], [0, 0, 8]]).coset_minima()
        assert gc.collect() == 0
    finally:
        gc.enable()
