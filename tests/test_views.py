"""Tests of the read-only Fraction views of the four records: coeffs of a
JacobiSeries, an OrthogonalExpansion and a PrincipalPart, and components of
a VectorValuedForm.

A view must answer as the plain Fraction-keyed dict of its record, which the
oracles below build from the integer terms with one Fraction per key entry.
len, and == between two views of one record type, read the integer terms
only; the laziness tests patch the decoder to raise to pin that. Pairs of
views compared here include records over different denominators (a finer
copy of the same record, rescale_elliptic of a series) and, for forms and
parts, the same Fraction map on lattices with different determinants, where
no common integer scale exists and the decoded maps are compared.

A record pickles and deep-copies after its view has been read, and reading
views leaves no reference cycle behind.
"""

import copy
import gc
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borcherdskit.lattice import EvenLattice
from borcherdskit.lift import (
    OrthogonalExpansion,
    PrincipalPart,
    WeylData,
    lift_expansion,
    lift_expansion_log_exp,
    principal_part,
)
from borcherdskit.series import (
    RAW,
    JacobiSeries,
    VectorValuedForm,
    _Packing,
    direct_product,
    phi_n,
    rescale_elliptic,
    theta_decompose,
)

# each lattice with one of a larger determinant on which every dual vector of
# the first is dual too
LATTICES = (
    (EvenLattice([[8]]), EvenLattice([[16]])),
    (EvenLattice([[8, 0], [0, 8]]), EvenLattice([[8, 0], [0, 16]])),
    (EvenLattice([[16, 8], [8, 16]]), EvenLattice([[32, 16], [16, 32]])),
)
COSETS = {id(pair[0]): pair[0].discriminant_group().representatives for pair in LATTICES}

coefficients = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)
rationals = st.builds(F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 8, 16, 24)))
ABSENT = ("absent",)


# -- oracles: the Fraction maps as the eager views built them -------------------------


def oracle_series(phi):
    return {(F(t, phi.q_den), tuple(F(x, phi.den) for x in vec)): c
            for (t, vec), c in phi.terms.items()}


def oracle_form(form):
    det = form.lattice.det
    return {tuple(F(x, det) for x in g): {F(e, form.eden): c for e, c in fg.items()}
            for g, fg in form.terms.items()}


def oracle_expansion(exp):
    return {(n, tuple(F(x, exp.den) for x in l), m): c for (n, m, l), c in exp.terms.items()}


def oracle_part(pp):
    det = pp.lattice.det
    return {(tuple(F(x, det) for x in key), F(e, pp.eden)): c
            for (key, e), c in pp.terms.items()}


def check_view(view, oracle):
    """Every read of view answers as the dict oracle does, in its order."""
    assert len(view) == len(oracle)
    assert list(view) == list(oracle)
    assert list(view.keys()) == list(oracle.keys())
    assert list(view.values()) == list(oracle.values())
    assert list(view.items()) == list(oracle.items())
    assert dict(view) == oracle and type(view.copy()) is dict and view.copy() == oracle
    for key, c in oracle.items():
        assert key in view and view[key] == c and view.get(key) == c
    assert ABSENT not in view and view.get(ABSENT) is None and view.get(ABSENT, 0) == 0
    with pytest.raises(KeyError):
        view[ABSENT]
    assert view == oracle and oracle == view
    assert not view != oracle and not oracle != view
    with pytest.raises(TypeError):
        view[ABSENT] = 1
    with pytest.raises(TypeError):
        del view[next(iter(oracle), ABSENT)]


def check_pair(a, b, oracle_a, oracle_b):
    """== and != between two views, and between each view and the other
    oracle, in both directions, answer as == between the oracles."""
    equal = oracle_a == oracle_b
    assert (a == b) == equal and (b == a) == equal
    assert (a != b) != equal and (b != a) != equal
    assert (a == oracle_b) == equal and (oracle_b == a) == equal
    assert (a != oracle_b) != equal and (oracle_b != a) != equal


# -- random records and their partners ----------------------------------------------


def changed(draw, terms):
    """terms with one coefficient changed or one term dropped, or as they are
    when there are none."""
    if not terms:
        return terms
    terms = dict(terms)
    key = draw(st.sampled_from(sorted(terms, key=repr)))
    if draw(st.booleans()):
        del terms[key]
    else:
        terms[key] += draw(st.sampled_from((-1, 1)))
    return {k: c for k, c in terms.items() if c}


@st.composite
def series_pairs(draw):
    lattice = draw(st.sampled_from(LATTICES))[0]
    kind = draw(st.sampled_from(("finer", "rescaled", "changed", "other", "product")))
    q_den = 1 if kind == "product" else draw(st.sampled_from((1, 8)))
    exponent = st.integers(-3 * q_den, 6 * q_den).map(lambda k: F(k, q_den))
    label = st.tuples(*[rationals] * lattice.rank)
    coeffs = draw(st.dictionaries(st.tuples(exponent, label), coefficients, max_size=20))
    prec = F(draw(st.integers(1, 7 * q_den)), q_den)
    phi = JacobiSeries(lattice, 0, prec, coeffs, q_den=q_den, form_class=RAW)
    if kind == "finer":
        k = draw(st.integers(2, 3))
        other = JacobiSeries._of(lattice, phi.weight, prec, phi._over(k * q_den, k * phi.den),
                                 k * q_den, k * phi.den, RAW)
    elif kind == "rescaled":
        other = rescale_elliptic(phi, draw(st.integers(2, 3)))
    elif kind == "changed":
        other = JacobiSeries._of(lattice, phi.weight, prec, changed(draw, phi.terms),
                                 q_den, phi.den, RAW)
    elif kind == "other":
        more = draw(st.dictionaries(st.tuples(exponent, label), coefficients, max_size=20))
        other = JacobiSeries(lattice, 0, prec, more, q_den=q_den, form_class=RAW)
    else:
        # direct products keep their terms on packed keys
        one = JacobiSeries(EvenLattice([[8]]), 0, 10,
                           {(F(0), (F(0),)): 1, (F(1), (F(1, 8),)): 2}, q_den=1)
        other = direct_product(phi, one)
        phi = direct_product(
            JacobiSeries._of(lattice, 0, prec, changed(draw, phi.terms), 1, phi.den, RAW), one)
    return phi, other


@st.composite
def form_pairs(draw):
    lattice, wider = draw(st.sampled_from(LATTICES))
    gammas = draw(st.lists(st.sampled_from(COSETS[id(lattice)]), unique=True, max_size=8))
    components = {g: draw(st.dictionaries(rationals, coefficients, max_size=5))
                  for g in gammas}
    prec = draw(rationals)
    form = VectorValuedForm(lattice, F(-lattice.rank, 2), components, prec)
    kind = draw(st.sampled_from(("finer", "wider", "changed", "other")))
    if kind == "finer":
        k = draw(st.integers(2, 3))
        other = VectorValuedForm._of(
            lattice, form.weight, prec,
            {g: {k * e: c for e, c in fg.items()} for g, fg in form.terms.items()},
            k * form.eden)
    elif kind == "wider":
        # the same Fraction map over another det: no common integer scale
        other = VectorValuedForm(wider, form.weight, components, prec)
    elif kind == "changed":
        flat = changed(draw, {(g, e): c for g, fg in form.terms.items() for e, c in fg.items()})
        terms = {}
        for (g, e), c in flat.items():
            terms.setdefault(g, {})[e] = c
        other = VectorValuedForm._of(lattice, form.weight, prec, terms, form.eden)
    else:
        more = {g: draw(st.dictionaries(rationals, coefficients, max_size=5)) for g in gammas}
        other = VectorValuedForm(lattice, form.weight, more, prec)
    return form, other


@st.composite
def expansion_pairs(draw):
    lattice = draw(st.sampled_from(LATTICES))[0]
    label = st.tuples(*[rationals] * lattice.rank)
    # total degree n + m below total_prec 5
    monomial = st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), label, st.integers(0, 4 - n)))
    coeffs = draw(st.dictionaries(monomial, coefficients, max_size=20))
    weyl = WeylData(F(0), (F(0),) * lattice.rank, F(0), (F(1),) * lattice.rank)
    exp = OrthogonalExpansion(lattice, weyl, F(0), coeffs, F(5))
    kind = draw(st.sampled_from(("finer", "changed", "other")))
    if kind == "finer":
        k = draw(st.integers(2, 3))
        terms = {(n, m, tuple(k * x for x in l)): c for (n, m, l), c in exp.terms.items()}
        other = OrthogonalExpansion._of(lattice, weyl, F(0), terms, k * exp.den, F(5))
    elif kind == "changed":
        other = OrthogonalExpansion._of(lattice, weyl, F(0), changed(draw, exp.terms),
                                        exp.den, F(5))
    else:
        more = draw(st.dictionaries(monomial, coefficients, max_size=20))
        other = OrthogonalExpansion(lattice, weyl, F(0), more, F(5))
    return exp, other


@st.composite
def part_pairs(draw):
    lattice, wider = draw(st.sampled_from(LATTICES))
    gamma = st.sampled_from(COSETS[id(lattice)])
    exp = st.builds(F, st.integers(-40, -1), st.sampled_from((1, 2, 8, 24)))
    coeffs = draw(st.dictionaries(st.tuples(gamma, exp), st.integers(-5, 5), max_size=12))
    pp = PrincipalPart(lattice, 1, coeffs)
    kind = draw(st.sampled_from(("wider", "changed", "other")))
    if kind == "wider":
        other = PrincipalPart(wider, 1, coeffs)
    elif kind == "changed":
        other = PrincipalPart._of(lattice, 1, changed(draw, pp.terms), pp.eden)
    else:
        more = draw(st.dictionaries(st.tuples(gamma, exp), st.integers(-5, 5), max_size=12))
        other = PrincipalPart(lattice, 1, more)
    return pp, other


# -- the views against the oracles ---------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_pairs())
def test_series_view_answers_as_the_fraction_map(pair):
    a, b = pair
    check_view(a.coeffs, oracle_series(a))
    check_view(b.coeffs, oracle_series(b))
    check_pair(a.coeffs, b.coeffs, oracle_series(a), oracle_series(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(form_pairs())
def test_form_view_answers_as_the_fraction_map(pair):
    a, b = pair
    check_view(a.components, oracle_form(a))
    check_view(b.components, oracle_form(b))
    check_pair(a.components, b.components, oracle_form(a), oracle_form(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expansion_pairs())
def test_expansion_view_answers_as_the_fraction_map(pair):
    a, b = pair
    check_view(a.coeffs, oracle_expansion(a))
    check_view(b.coeffs, oracle_expansion(b))
    check_pair(a.coeffs, b.coeffs, oracle_expansion(a), oracle_expansion(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(part_pairs())
def test_part_view_answers_as_the_fraction_map(pair):
    a, b = pair
    check_view(a.coeffs, oracle_part(a))
    check_view(b.coeffs, oracle_part(b))
    check_pair(a.coeffs, b.coeffs, oracle_part(a), oracle_part(b))


def test_equal_integer_terms_on_two_scales_are_different_maps():
    # each pair stores the same integer terms over different denominators,
    # or gammas over different dets: an integer fast path that skipped the
    # rescaling, or compared keys over two dets, would call them equal
    l8, l16 = EvenLattice([[8]]), EvenLattice([[16]])
    weyl = WeylData(F(0), (F(0),), F(0), (F(1),))
    w = F(-1, 2)
    pairs = [
        ((JacobiSeries(l8, 0, 1, {(F(0), (F(1, d),)): 1}), "coeffs") for d in (8, 16)),
        ((OrthogonalExpansion(l8, weyl, F(0), {(0, (F(1, d),), 1): 1}, F(2)), "coeffs")
         for d in (8, 16)),
        ((VectorValuedForm(l8, w, {(F(1, 8),): {F(-1, e): 1}}, 1), "components")
         for e in (16, 48)),
        ((VectorValuedForm(lat, w, {(g,): {F(-1, 32): 1}}, 1), "components")
         for lat, g in ((l8, F(1, 2)), (l16, F(1, 4)))),
        ((PrincipalPart(l8, 1, {((F(1, 8),), F(-1, e)): 1}), "coeffs") for e in (16, 48)),
        ((PrincipalPart(lat, 1, {((g,), F(-1, 32)): 1}), "coeffs")
         for lat, g in ((l8, F(1, 2)), (l16, F(1, 4)))),
    ]
    for (a, name), (b, _) in map(list, pairs):
        assert a.terms == b.terms
        check_pair(getattr(a, name), getattr(b, name), dict(getattr(a, name)),
                   dict(getattr(b, name)))
        assert getattr(a, name) != getattr(b, name)


def test_views_of_different_record_types_compare_their_maps():
    # no integer fast path across record types: the decoded maps decide
    lattice = EvenLattice([[8]])
    form = VectorValuedForm(lattice, F(-1, 2), {}, 1)
    pp = PrincipalPart(lattice, 1, {})
    assert form.components == pp.coeffs and pp.coeffs == form.components
    series = JacobiSeries(lattice, 0, 1, {(F(0), (F(0),)): 1})
    assert series.coeffs != pp.coeffs and not series.coeffs == form.components


# -- laziness: len and == between views decode nothing ---------------------------------


@pytest.fixture
def no_decoding(monkeypatch):
    def refuse(record):
        raise AssertionError("the Fraction map was decoded")

    for cls in (JacobiSeries, VectorValuedForm, OrthogonalExpansion, PrincipalPart):
        monkeypatch.setattr(cls, "_fractions", refuse)


def test_series_len_and_equality_decode_no_key(no_decoding):
    phi, again = phi_n(4, 5), phi_n(4, 5)
    finer = JacobiSeries._of(phi.lattice, phi.weight, phi.prec, phi._over(2, 3 * phi.den), 2,
                             3 * phi.den, phi.form_class)
    assert len(phi.coeffs) == phi.term_count() == 11773
    assert phi.coeffs == again.coeffs == finer.coeffs
    assert not phi.coeffs != finer.coeffs
    assert phi.coeffs != rescale_elliptic(again, 3).coeffs


def test_expansion_len_and_equality_decode_no_key(no_decoding):
    phi = phi_n(2, 4)
    direct, log_exp = lift_expansion(phi, 4), lift_expansion_log_exp(phi, 4)
    assert len(direct.coeffs) == len(log_exp.coeffs) == 480
    assert direct.coeffs == log_exp.coeffs and not direct.coeffs != log_exp.coeffs


def test_form_and_part_len_and_equality_decode_no_key(no_decoding):
    form, again = theta_decompose(phi_n(3, 3)), theta_decompose(phi_n(3, 3))
    assert len(form.components) == len(form.terms) == 189
    assert form.components == again.components
    pp = principal_part(form)
    assert len(pp.coeffs) == len(pp.terms) == 56 and pp.coeffs == principal_part(again).coeffs


# -- one coefficient, read on the integer keys ---------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(series_pairs(), st.data())
def test_coefficient_reads_the_integer_key(pair, data):
    phi = pair[0]
    rank = phi.lattice.rank
    # on the grid of the series, off it in the exponent or a label entry, and
    # labels of the wrong length
    on_grid = st.tuples(st.integers(-30, 60).map(lambda k: F(k, phi.q_den)),
                        st.tuples(*[st.integers(-40, 40).map(lambda k: F(k, phi.den))] * rank))
    anywhere = st.tuples(rationals, st.lists(rationals, min_size=rank - 1, max_size=rank + 1))
    stored = list(phi.coeffs)[:5]
    # a stored key moved off the grid by half a step
    moved = ([(n + F(1, 2 * phi.q_den), l) for n, l in stored]
             + [(n, (l[0] + F(1, 2 * phi.den),) + l[1:]) for n, l in stored])
    keys = stored + moved + data.draw(st.lists(on_grid | anywhere, max_size=10))
    expected = [phi.coeffs.get((F(n), tuple(map(F, l))), 0) for n, l in keys]

    def refuse(series):
        raise AssertionError("coefficient built the Fraction view")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JacobiSeries, "coeffs", property(refuse))
        assert [phi.coefficient(n, l) for n, l in keys] == expected
        assert [phi.coefficient(n, list(l)) for n, l in keys] == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(LATTICES), st.data())
def test_packed_coefficient_decodes_no_key(lattices, data):
    lattice = lattices[0]
    label = st.tuples(*[rationals] * lattice.rank)
    coeffs = data.draw(st.dictionaries(st.tuples(st.integers(-3, 6).map(F), label),
                                       coefficients.filter(bool), min_size=1, max_size=20))
    one = JacobiSeries(EvenLattice([[8]]), 0, 10, {(F(0), (F(0),)): 1, (F(1), (F(1, 8),)): 2},
                       q_den=1)
    phi = JacobiSeries(lattice, 0, 7, coeffs, q_den=1, form_class=RAW)
    packed, decoded = direct_product(phi, one), direct_product(phi, one)
    terms, packing = decoded.terms, packed._packing
    assert packed._terms is None and terms
    bound, carry = packing.bound, 1 << packing.width
    stored = data.draw(st.lists(st.sampled_from(sorted(terms)), min_size=1, max_size=5))
    keys = list(stored)
    for t, vec in stored:
        keys += [(t, vec[:-1]), (t, vec + (0,))]  # the wrong length
        for i in range(len(vec)):
            # one step outside the box, and a carry away from the stored key:
            # (t - 1, vec + M e_0) and (t, vec - e_i + M e_(i+1)) pack to its key
            keys += [(t, vec[:i] + (s * (bound + 1),) + vec[i + 1:]) for s in (1, -1)]
            keys.append((t - 1, (vec[0] + carry,) + vec[1:]) if i == 0 else
                        (t, vec[:i - 1] + (vec[i - 1] - 1, vec[i] + carry) + vec[i + 1:]))
    grid = st.integers(-bound - 2, bound + 2)
    keys += data.draw(st.lists(st.tuples(st.integers(-3, 10), st.tuples(*[grid] * len(vec))),
                               max_size=10))
    q_den, den = decoded.q_den, decoded.den
    points = [(F(t, q_den), tuple([F(x, den) for x in vec])) for t, vec in keys]
    # half a step off the grid in the exponent or in a label entry
    points += [(n + F(1, 2 * q_den), l) for n, l in points[:3]]
    points += [(n, (l[0] + F(1, 2 * den),) + l[1:]) for n, l in points[:3]]
    expected = [decoded.coeffs.get((n, l), 0) for n, l in points]

    def refuse(packing, packed):
        raise AssertionError("coefficient decoded the packed keys")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Packing, "unpack", refuse)
        assert [packed.coefficient(n, l) for n, l in points] == expected
    assert packed._terms is None


# -- pickling, copying and reference cycles ------------------------------------------------


def records():
    phi = phi_n(2, 3)
    form = theta_decompose(phi)
    return [(phi, "coeffs", oracle_series), (form, "components", oracle_form),
            (lift_expansion(phi_n(1, 4), 2), "coeffs", oracle_expansion),
            (principal_part(form), "coeffs", oracle_part)]


@pytest.mark.parametrize("index", range(4))
def test_records_pickle_and_copy_after_their_view_is_read(index):
    record, name, oracle = records()[index]
    view = getattr(record, name)
    check_view(view, oracle(record))
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                  copy.copy(record)):
        assert again == record
        assert getattr(again, name) == view and view == getattr(again, name)
        check_view(getattr(again, name), oracle(record))
    # a view pickles on its own, and without its decoded map
    back = pickle.loads(pickle.dumps(view))
    assert back._map is None and back == view
    check_view(back, oracle(record))


def test_reading_views_leaves_no_reference_cycles():
    built = records()
    gc.collect()
    gc.disable()
    try:
        for record, name, _ in built:
            dict(getattr(record, name))
        for record, name, _ in records():
            dict(getattr(record, name))
        del built
        assert gc.collect() == 0
    finally:
        gc.enable()
