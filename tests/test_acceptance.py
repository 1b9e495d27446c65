"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS line on success (run with -s to see them all).
Deeper facts about the underlying lifts (holomorphy of the bundled example
products, existence machinery) are out of scope by design; the checks below
are the oracle suite the package guarantees.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from borcherdskit.errors import SchemaViolation
from borcherdskit.io import parse_principal_part
from borcherdskit.lattice import EvenLattice
from borcherdskit.lift import (
    admits_half_integral_weight,
    congruence_check,
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
    phi04,
    phi_n,
    recompose,
    rescale_elliptic,
    theta_decompose,
    theta_sum,
    theta_triple_product,
)
from oracles import bilinear_value, q_mod1, q_row

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

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


def _pass(num, message):
    print(f"criterion {num}: PASS  {message}")


@pytest.fixture(scope="module")
def phi04_10():
    return phi04(10)


@pytest.fixture(scope="module")
def phi2_10():
    return phi_n(2, 10)


def test_criterion_1_theta_dual_formulas():
    left = theta_sum(20)
    right = theta_triple_product(20)
    assert left.coeffs == right.coeffs
    assert left.prec == right.prec == 20
    assert len(left.coeffs) == 12  # odd |n| <= 12
    _pass(1, "character sum and triple product agree exactly at precision 20")


def test_criterion_2_quotient_leading_term_and_oracle(phi04_10):
    assert q_row(phi04_10, 0) == {(F(1, 8),): 1, (F(0),): 1, (F(-1, 8),): 1}
    theta = theta_sum(10)
    product = phi04_10 * theta
    rescaled = rescale_elliptic(theta, 3)
    assert product.prec == 10
    assert product == rescaled
    assert product.coeffs == {k: c for k, c in rescaled.coeffs.items() if k[0] < 10}
    _pass(2, "q^0 part is zeta + 1 + 1/zeta and the quotient identity holds below q^10")


def test_criterion_3_decomposition_round_trip(phi04_10, phi2_10):
    for phi in (phi04_10, phi2_10):
        back = recompose(theta_decompose(phi), 10)
        assert back.prec == 10
        assert back.coeffs == phi.coeffs
    lat = phi2_10.lattice
    rng = random.Random(2024)
    keys = sorted(phi2_10.coeffs)
    checked = 0
    while checked < 100:
        n, l = keys[rng.randrange(len(keys))]
        lam = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        shifted_n = n + bilinear_value(lat, lam, l) + lat.quadratic_value(lam)
        if shifted_n >= phi2_10.prec or shifted_n < 0:
            continue
        shifted_l = tuple(a + b for a, b in zip(l, lam))
        assert phi2_10.coefficient(shifted_n, shifted_l) == phi2_10.coeffs[(n, l)]
        checked += 1
    _pass(3, "round trip exact at precision 10; shift invariance on 100 samples")


def test_criterion_4_congruence_reproduction():
    for n in (1, 2, 3, 4):
        report = congruence_check(phi_n(n, 1))
        assert report.gcd_inner_products == 8
        assert report.q0_sum == 3 ** n
        assert report.passes
    _pass(4, "8 * 3^N = 0 (mod 24) for N = 1..4")


def test_criterion_5_half_integral_weights():
    for n in (1, 2, 3, 4):
        pp = principal_part(theta_decompose(phi_n(n, 1)))
        assert lift_weight(pp) == F(1, 2)
        assert is_half_integral(pp)
        assert singular_weight(pp.lattice) == F(n, 2)
        assert is_singular_weight(pp) is (n == 1)
    _pass(5, "lift weight 1/2 for N = 1..4; only N = 1 sits at singular weight")


def test_criterion_6_divisibility_table():
    table = [
        ([[16, 8], [8, 16]], True),
        ([[8, 0], [0, 8]], True),
        ([[8]], True),
        ([[2]], False),
        (E8_GRAM, False),
    ]
    for gram, expected in table:
        assert admits_half_integral_weight(EvenLattice(gram)) is expected
    _pass(6, "inner-product divisibility verdicts match on all five lattices")


def _mutations(doc):
    """Every single-field mutation of a principal part document."""
    for idx in range(len(doc["terms"])):
        mutated = json.loads(json.dumps(doc))
        e = F(mutated["terms"][idx]["exp"])
        half = e / 2
        mutated["terms"][idx]["exp"] = f"{half.numerator}/{half.denominator}"
        yield f"terms[{idx}].exp halved", mutated

        mutated = json.loads(json.dumps(doc))
        mutated["terms"][idx]["c"] += 1
        yield f"terms[{idx}].c bumped", mutated

        mutated = json.loads(json.dumps(doc))
        g0 = (F(mutated["terms"][idx]["gamma"][0]) + F(1, 2)) % 1
        mutated["terms"][idx]["gamma"][0] = \
            str(g0.numerator) if g0.denominator == 1 else f"{g0.numerator}/{g0.denominator}"
        yield f"terms[{idx}].gamma shifted", mutated


def test_criterion_7_fixtures_validate_and_mutations_reject():
    spots = {
        "example1.json": (F(9, 2), ((F(1, 24), F(1, 24)), F(-1, 24), 4)),
        "example2.json": (F(7, 2), ((F(1, 8), F(0)), F(-1, 16), 3)),
    }
    for name, (weight, (gamma, exp, coeff)) in spots.items():
        doc = json.loads((FIXTURES / name).read_text())
        pp = parse_principal_part(doc)
        report = validate_principal_part(pp, claimed_weight=weight)
        assert report.passed
        assert report.weight == weight
        assert pp.coeffs[(gamma, exp)] == coeff
        assert q_mod1(pp.lattice, gamma) == -exp
        rejected = 0
        for label, mutated in _mutations(doc):
            try:
                bad = parse_principal_part(mutated)
            except SchemaViolation:
                rejected += 1
                continue
            bad_report = validate_principal_part(bad, claimed_weight=weight)
            assert not bad_report.passed, f"{name}: {label} was not rejected"
            rejected += 1
        assert rejected == 3 * len(doc["terms"])
    _pass(7, "both bundled principal parts validate; every single-field "
             "mutation is rejected")


def test_criterion_8_discriminant_groups():
    expected = [
        ([[16, 8], [8, 16]], (8, 24), 192),
        ([[8, 0], [0, 8]], (8, 8), 64),
    ]
    for gram, divisors, order in expected:
        disc = EvenLattice(gram).discriminant_group()
        assert disc.elementary_divisors == divisors
        assert disc.order == order
        oracle = tuple(int(x) for x in sympy_snf(Matrix(gram)).diagonal() if int(x) != 1)
        assert oracle == divisors
    _pass(8, "elementary divisors (8, 24) and (8, 8) confirmed against the "
             "independent Smith form oracle")


def test_criterion_9_expansion_pipelines_and_weyl_data():
    # gate: the rank-1 sanity value for the Weyl vector formula
    k2 = EvenLattice([[2]])
    sanity = JacobiSeries(k2, 0, 1, {(F(0), (F(0),)): 10,
                                     (F(0), (F(1, 2),)): 1,
                                     (F(0), (F(-1, 2),)): 1},
                          q_den=1, form_class=WEAK_JACOBI)
    w = weyl_vector(sanity, (1,))
    assert w.a == F(1, 2)
    assert w.c == F(1, 2)
    assert bilinear_value(k2, w.b, (1,)) == F(1, 2)

    phi = phi04(16)
    w = weyl_vector(phi, (1,))
    assert (w.a, w.b, w.c) == (F(1, 8), (F(1, 16),), F(1, 8))

    direct = lift_expansion(phi, 8, (1,))
    logexp = lift_expansion_log_exp(phi, 8, (1,))
    assert direct.coeffs == logexp.coeffs
    assert direct.coeffs
    assert all(isinstance(c, int) for c in direct.coeffs.values())
    assert direct.weyl == logexp.weyl
    _pass(9, "product and exp-log expansions agree at total degree 8 with "
             "integer coefficients; Weyl data (1/8, 1/16, 1/8)")
