"""Tests for principal parts, weights, the mod-24 congruence, the
divisibility criterion, Weyl data and the truncated product expansion.

The Weyl vector formula is gated by the classical rank-1 sanity value
(A = C = 1/2, B pairing 1/2 on the input with q^0 part 10 + zeta + zeta^-1)
before anything else is allowed to rely on it. The product expansion is
cross-checked against the exp-log pipeline and, for the weight-1/2 lift,
against the norm-zero support forced at singular weight.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borcherdskit.errors import (
    CongruenceFailed,
    InsufficientInputPrecision,
    NonGenericChamber,
    PrecisionTooSmall,
    SelfCheckFailed,
    UnboundedExpansion,
)
from borcherdskit import lift
from borcherdskit.lattice import EvenLattice
from borcherdskit.lift import (
    PrincipalPart,
    admits_half_integral_weight,
    congruence_check,
    default_chamber_vector,
    is_half_integral,
    is_singular_weight,
    lift_expansion,
    lift_expansion_log_exp,
    lift_weight,
    principal_part,
    singular_weight,
    validate_principal_part,
    weyl_vector,
)
from borcherdskit.series import (
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    phi04,
    phi_n,
    theta_decompose,
)

E8_GRAM = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def scalar_q0_series(gram, constant, coset_coeff):
    """Weight-0 series on a rank-1 lattice holding only a q^0 row
    constant + coset_coeff * (zeta + zeta^-1)."""
    k = EvenLattice(gram)
    gen = F(1, gram[0][0])
    coeffs = {(F(0), (F(0),)): constant,
              (F(0), (gen,)): coset_coeff,
              (F(0), (-gen,)): coset_coeff}
    return JacobiSeries(k, 0, 1, coeffs, q_den=1, form_class=WEAK_JACOBI)


# -- principal part -------------------------------------------------------------


def test_principal_part_of_phi04():
    pp = principal_part(theta_decompose(phi04(2)))
    assert pp.constant_term == 1
    assert pp.terms == {((F(1, 8),), F(-1, 16)): 1, ((F(7, 8),), F(-1, 16)): 1}


def test_principal_part_of_holomorphic_form_is_empty():
    lat = EvenLattice([[8]])
    reps = lat.discriminant_group().representatives
    comps = {g: {} for g in reps}
    comps[(F(0),)] = {F(0): 5, F(1): 7}
    vv = VectorValuedForm(lat, F(-1, 2), comps, F(4))
    pp = principal_part(vv)
    assert pp.terms == {}
    assert pp.constant_term == 5


def test_principal_part_of_phi_2():
    pp = principal_part(theta_decompose(phi_n(2, 2)))
    assert pp.constant_term == 1
    # the eight nonzero q^0 labels land at exponent -Q(gamma) on their cosets
    lat = pp.lattice
    for a in (F(0), F(1, 8), F(7, 8)):
        for b in (F(0), F(1, 8), F(7, 8)):
            gamma = (a, b)
            if gamma == (F(0), F(0)):
                continue
            q = lat.coset_minimum(gamma)
            assert pp.terms[(gamma, -q)] == 1
    # every exponent sits in the -Q(gamma) + Z class
    for (gamma, e), _ in pp.terms.items():
        assert (e + lat.quadratic_value(gamma)).denominator == 1


def test_principal_part_rejects_positive_exponent():
    with pytest.raises(ValueError):
        PrincipalPart(EvenLattice([[8]]), 1, {((F(1, 8),), F(1, 16)): 1})


# -- weights -----------------------------------------------------------------------


@pytest.mark.parametrize("constant, weight", [(9, F(9, 2)), (7, F(7, 2)), (1, F(1, 2))])
def test_lift_weight_half_integral(constant, weight):
    pp = PrincipalPart(EvenLattice([[8]]), constant, {})
    assert lift_weight(pp) == weight
    assert is_half_integral(pp)


def test_singular_weight_values():
    assert singular_weight(EvenLattice([[16, 8], [8, 16]])) == 1
    assert singular_weight(EvenLattice([[8]])) == F(1, 2)
    assert singular_weight(EvenLattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])) == F(3, 2)


def test_phi04_lift_is_singular_but_weight_9_half_is_not():
    pp1 = principal_part(theta_decompose(phi04(2)))
    assert is_singular_weight(pp1)
    pp9 = PrincipalPart(EvenLattice([[16, 8], [8, 16]]), 9, {})
    assert lift_weight(pp9) == F(9, 2)
    assert not is_singular_weight(pp9)


# -- congruence ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_congruence_passes_for_products_of_the_quotient(n):
    report = congruence_check(phi_n(n, 1))
    assert report.gcd_inner_products == 8
    assert report.q0_sum == 3 ** n
    assert report.residue == 0
    assert report.passes


def test_congruence_fails_on_gram_2_analogue():
    report = congruence_check(scalar_q0_series([[2]], 1, 1))
    assert report.gcd_inner_products == 2
    assert report.q0_sum == 3
    assert report.residue == 6
    assert not report.passes


def test_congruence_parity_blocks_odd_sums_when_8_does_not_divide():
    # an odd q^0 sum with N not divisible by 8 can never pass
    for gram in ([[2]], [[4]], [[6]]):
        for coset_coeff in (0, 1, 2):
            phi = scalar_q0_series(gram, 1, coset_coeff)
            total = 1 + 2 * coset_coeff
            report = congruence_check(phi)
            assert report.q0_sum == total
            assert not report.passes


def test_congruence_needs_q0_row():
    phi = phi04(2).truncate(0)
    with pytest.raises(PrecisionTooSmall):
        congruence_check(phi)


# -- divisibility criterion --------------------------------------------------------------


@pytest.mark.parametrize("gram, expected", [
    ([[16, 8], [8, 16]], True),
    ([[8, 0], [0, 8]], True),
    ([[8]], True),
    ([[2]], False),
    (E8_GRAM, False),
])
def test_divisibility_criterion_table(gram, expected):
    assert admits_half_integral_weight(EvenLattice(gram)) is expected


def test_e8_gram_is_unimodular():
    assert EvenLattice(E8_GRAM).det == 1


# -- Weyl data --------------------------------------------------------------------------


def test_weyl_rank1_sanity_value():
    # classical weight-5 input: q^0 part 10 + zeta + zeta^-1 on Gram [[2]]
    phi = scalar_q0_series([[2]], 10, 1)
    w = weyl_vector(phi, (1,))
    assert w.a == F(1, 2)
    assert w.c == F(1, 2)
    assert w.b == (F(1, 4),)
    assert phi.lattice.bilinear_value(w.b, (1,)) == F(1, 2)


def test_weyl_phi04():
    w = weyl_vector(phi04(1), (1,))
    assert (w.a, w.b, w.c) == (F(1, 8), (F(1, 16),), F(1, 8))


def test_weyl_zero_input():
    lat = EvenLattice([[8]])
    zero = JacobiSeries(lat, 0, 1, {}, q_den=1, form_class=WEAK_JACOBI)
    w = weyl_vector(zero, (1,))
    assert (w.a, w.b, w.c) == (0, (F(0),), 0)


def test_weyl_default_chamber_vector():
    assert default_chamber_vector(3) == (1, F(1, 10), F(1, 100))
    w = weyl_vector(phi04(1))
    assert (w.a, w.b, w.c) == (F(1, 8), (F(1, 16),), F(1, 8))


def test_weyl_non_generic_chamber():
    lat = EvenLattice([[8, 0], [0, 8]])
    phi = JacobiSeries(lat, 0, 1, {(F(0), (F(0), F(0))): 1,
                                   (F(0), (F(1, 8), F(0))): 1,
                                   (F(0), (F(-1, 8), F(0))): 1},
                       q_den=1, form_class=WEAK_JACOBI)
    with pytest.raises(NonGenericChamber):
        weyl_vector(phi, (0, 1))


def test_weyl_same_sign_pattern_same_data():
    phi = phi04(1)
    first = weyl_vector(phi, (1,))
    second = weyl_vector(phi, (7,))
    assert (first.a, first.b, first.c) == (second.a, second.b, second.c)


def test_weyl_flipped_chamber_flips_b():
    phi = phi04(1)
    plus = weyl_vector(phi, (1,))
    minus = weyl_vector(phi, (-1,))
    assert minus.a == plus.a and minus.c == plus.c
    assert minus.b == tuple(-x for x in plus.b)


def test_weyl_denominators_bounded():
    for phi in (phi04(1), scalar_q0_series([[2]], 10, 1)):
        w = weyl_vector(phi, (1,))
        lat = phi.lattice
        bound = 24 * lat.rank * lat.det
        assert bound % w.a.denominator == 0
        assert bound % w.c.denominator == 0


# -- product expansion ----------------------------------------------------------------------


def test_lift_expansion_grade_zero_layer():
    e = lift_expansion(phi04(16), 8, (1,))
    zero_layer = {k: v for k, v in e.coeffs.items() if k[0] == 0 and k[2] == 0}
    assert zero_layer == {(0, (F(0),), 0): 1, (0, (F(-1, 8),), 0): -1}


def test_lift_expansion_constant_is_one():
    e = lift_expansion(phi04(4), 4, (1,))
    assert e.coeffs[(0, (F(0),), 0)] == 1


def test_lift_expansion_matches_log_exp_route():
    p = phi04(9)
    a = lift_expansion(p, 6, (1,))
    b = lift_expansion_log_exp(p, 6, (1,))
    assert a.coeffs == b.coeffs
    assert a.weyl == b.weyl
    assert a.weight == b.weight == F(1, 2)
    assert a.holomorphic == "unknown"


@pytest.mark.parametrize("build, degree", [
    (lambda: phi_n(2, 9), 6),
    (lambda: phi04(36), 12),
    (lambda: phi_n(3, 4), 4),
], ids=["phi_2-degree-6", "phi04-degree-12", "phi_3-degree-4"])
def test_lift_routes_agree_at_larger_degrees(build, degree):
    phi = build()
    direct = lift_expansion(phi, degree)
    log_exp = lift_expansion_log_exp(phi, degree)
    assert direct.coeffs
    assert direct.coeffs == log_exp.coeffs
    assert direct.weyl == log_exp.weyl
    for expansion in (direct, log_exp):
        assert all(type(c) is int for c in expansion.coeffs.values())
        assert all(type(x) is F for (_, l, _) in expansion.coeffs for x in l)


@lru_cache(maxsize=None)
def cached_phi_n(factors, prec):
    return phi_n(factors, prec)


@pytest.mark.parametrize("factors, prec, degree", [(1, 16, 8), (2, 4, 4)],
                         ids=["phi_1-degree-8", "phi_2-degree-4"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lift_is_symmetric_in_n_and_m(factors, prec, degree, data):
    # c(nm, l) and the truncation by n + m are symmetric, and so is the
    # positivity condition away from n = m = 0; the two routes agree in
    # every generic chamber
    phi = cached_phi_n(factors, prec)
    w0 = data.draw(st.tuples(*[st.fractions(-10, 10, max_denominator=30)] * factors))
    try:
        expansions = (lift_expansion(phi, degree, w0), lift_expansion_log_exp(phi, degree, w0))
    except NonGenericChamber:
        assume(False)
    assert expansions[0].coeffs == expansions[1].coeffs
    assert expansions[0].weyl == expansions[1].weyl
    for expansion in expansions:
        assert expansion.coeffs
        for (n, l, m), c in expansion.coeffs.items():
            assert expansion.coeffs.get((m, l, n), 0) == c


def test_log_exp_route_checks_integrality(monkeypatch):
    # an exponent of 1/2 on a factor of degree 1 makes E_1 non-integral
    factors = lift._factors

    def with_half_power(phi, weyl, top):
        yield from factors(phi, weyl, top)
        yield 1, (0,), 0, F(1, 2)

    monkeypatch.setattr(lift, "_factors", with_half_power)
    with pytest.raises(SelfCheckFailed) as info:
        lift_expansion_log_exp(phi04(4), 4, (1,))
    assert info.value.check == "lift integrality"
    # the packed key carries n in its grade digit and m in a label digit
    assert str(info.value).endswith("non-integral coefficient -3/2 at n=1, m=0")


def test_lift_expansion_singular_weight_support():
    # weight 1/2 equals the singular weight for rank 1, so every monomial
    # must be isotropic after the Weyl shift: (n+A)(m+C) = Q(l+B)
    e = lift_expansion(phi04(16), 8, (1,))
    lat = e.lattice
    a, b, c = e.weyl.a, e.weyl.b, e.weyl.c
    assert e.coeffs
    for (n, l, m), coef in e.coeffs.items():
        assert coef != 0
        shifted = tuple(x + y for x, y in zip(l, b))
        assert (n + a) * (m + c) == lat.quadratic_value(shifted)


def test_lift_expansion_requires_input_precision():
    with pytest.raises(InsufficientInputPrecision):
        lift_expansion(phi04(3), 8, (1,))


def test_lift_expansion_requires_congruence():
    phi = scalar_q0_series([[2]], 1, 1)
    with pytest.raises(CongruenceFailed):
        lift_expansion(phi, 2, (1,))


def test_lift_expansion_unbounded_zero_grade():
    # passes the congruence (8 * 0 = 0) but has exponent -1 at grade zero
    lat = EvenLattice([[8]])
    phi = JacobiSeries(lat, 0, 1, {(F(0), (F(0),)): 2,
                                   (F(0), (F(1, 8),)): -1,
                                   (F(0), (F(-1, 8),)): -1},
                       q_den=1, form_class=WEAK_JACOBI)
    assert congruence_check(phi).passes
    with pytest.raises(UnboundedExpansion):
        lift_expansion(phi, 2, (1,))


def test_lift_expansion_non_generic_chamber_propagates():
    lat = EvenLattice([[8, 0], [0, 8]])
    phi = phi_n(2, 4)
    with pytest.raises(NonGenericChamber):
        lift_expansion(phi, 4, (0, 1))
    assert lat == phi.lattice


# -- principal part diagnostics ------------------------------------------------------------


def _example2_like_pp():
    lat = EvenLattice([[8, 0], [0, 8]])
    terms = {}
    for gamma, e, c in [
        ((F(1, 8), F(0)), F(-1, 16), 3), ((F(7, 8), F(0)), F(-1, 16), 3),
        ((F(1, 4), F(0)), F(-1, 4), 1), ((F(3, 4), F(0)), F(-1, 4), 1),
    ]:
        terms[(gamma, e)] = c
    return PrincipalPart(lat, 7, terms)


def test_validate_principal_part_passes():
    report = validate_principal_part(_example2_like_pp(), claimed_weight=F(7, 2))
    assert report.passed
    assert report.weight == F(7, 2)
    assert report.half_integral
    assert report.singular_weight == 1
    assert not report.is_singular


def test_validate_principal_part_flags_wrong_class():
    pp = _example2_like_pp()
    pp.terms[((F(1, 4), F(0)), F(-1, 8))] = pp.terms.pop(((F(1, 4), F(0)), F(-1, 4)))
    report = validate_principal_part(pp)
    assert not report.exponent_class_ok
    assert ((F(1, 4), F(0)), F(-1, 8)) in report.exponent_class_offenders


def test_validate_principal_part_flags_asymmetry():
    pp = _example2_like_pp()
    pp.terms[((F(1, 8), F(0)), F(-1, 16))] = 4
    report = validate_principal_part(pp)
    assert not report.symmetry_ok
    assert report.exponent_class_ok


def test_validate_principal_part_flags_wrong_weight():
    report = validate_principal_part(_example2_like_pp(), claimed_weight=F(9, 2))
    assert not report.weight_ok
    assert not report.passed
