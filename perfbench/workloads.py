"""Workloads of the benchmark: the inputs a seed makes, and the jobs of one pass.

A job calls borcherdskit only through the public functions of its modules
lattice, series, lift and io. It checks its results against the second route
the package already has (theta character sum vs triple product, direct vs
exp-log lift, recompose after theta_decompose, re-emission after parse) and
raises CheckFailed on a mismatch. It returns the canonical JSON text of every
output it made, keyed by an output id; the runner hashes those texts and
compares them with reference.json.

Jobs reach the package and the emit/parse helpers below through module
attributes looked up at call time, so that a traced run can wrap them.

Every workload ends with the same small canary job, phi_2 at precision 2 taken
through every layer. It costs about 1% of a pass and is the same on all three
workloads; it keeps every span of the traced run present on every workload, so
a layer metric that reads zero means a lost span, not an idle layer.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from borcherdskit import io, lift, series


class CheckFailed(Exception):
    """An independent route or a round trip disagreed."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def emit(emitter, obj) -> str:
    """Canonical JSON text of obj as written by emitter."""
    return io.canonical_dumps(emitter(obj))


def parse(parser, text):
    """Read a JSON text with one of the io parsers."""
    return parser(json.loads(text))


# Generic chamber vectors for the lift, one per lattice rank. Index 0 is the
# package default (1, 1/10, ...); 1 is the opposite chamber. On diag(8, 8) a
# vector (a, b) is generic when a, b != 0 and a != +-b.
CHAMBERS = (
    ((Fraction(1),), (Fraction(1), Fraction(1, 10))),
    ((Fraction(-1),), (Fraction(-1), Fraction(-1, 10))),
    ((Fraction(1, 3),), (Fraction(1, 7), Fraction(1))),
    ((Fraction(-2),), (Fraction(1), Fraction(-1, 3))),
)

# phi_build precisions, scaled down from theta 40 / phi04 24 / phi_3 8 /
# phi_4 6 so that a pass takes a few seconds while keeping the shares of its
# layers: direct products ~40%, emission ~30%, phi04 ~20%, theta routes ~10%.
THETA_PREC = 32
PHI04_PREC = 18
PHI3_PREC = 7
PHI4_PREC = 5
CANARY_PREC = 2

# Copies of fixtures/gram_ex1.json and fixtures/gram_ex2.json, and a lattice
# whose discriminant group lists 20 000 cosets that lattice-info never prints.
LATTICES = {
    "gram_ex1": [[16, 8], [8, 16]],
    "gram_ex2": [[8, 0], [0, 8]],
    "d20000": [[20000]],
}


class Inputs:
    """What a workload's set-up hands to its passes.

    series maps an input name to (canonical text, text with the terms in a
    seeded random order); only the shuffled text is handed to the parsers.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.chamber = self.rng.randrange(len(CHAMBERS))
        self.series: dict[str, tuple[str, str]] = {}
        self.lattices: dict[str, str] = {}
        self.sizes: dict[str, dict[str, int]] = {}

    def add_series(self, name: str, phi) -> None:
        doc = io.emit_series(phi)
        terms = list(doc["terms"])
        self.rng.shuffle(terms)
        canonical = io.canonical_dumps(doc)
        self.series[name] = (canonical, io.canonical_dumps(dict(doc, terms=terms)))
        self.sizes[name] = {"terms": len(terms), "bytes": len(canonical)}

    def add_lattice(self, name: str, gram) -> None:
        text = io.canonical_dumps({"gram": gram})
        self.lattices[name] = text
        self.sizes[name] = {"rank": len(gram), "bytes": len(text)}

    def w0(self, rank: int):
        return CHAMBERS[self.chamber][rank - 1]


def phi_power(n: int, prec):
    """phi_n built as phi04 and n - 1 chained direct products."""
    base = series.phi04(prec)
    acc = base
    for _ in range(n - 1):
        acc = series.direct_product(acc, base)
    return acc


def lattice_info(lat) -> dict:
    """The document the lattice-info command prints."""
    disc = lat.discriminant_group()
    return {
        "rank": lat.rank,
        "det": lat.det,
        "elementary_divisors": list(disc.elementary_divisors),
        "discriminant_order": disc.order,
        "gcd_inner_products": lat.gcd_inner_products(),
        "singular_weight": io.frac_str(lift.singular_weight(lat)),
        "divisible_by_8": lift.admits_half_integral_weight(lat),
    }


def read_series(inputs: Inputs, name: str):
    """Parse the shuffled text of an input and check that it re-emits to the
    canonical text byte for byte."""
    canonical, shuffled = inputs.series[name]
    phi = parse(io.parse_series, shuffled)
    check(emit(io.emit_series, phi) == canonical,
          f"{name}: re-emission after parse differs from the canonical text")
    return phi


def two_route_lift(phi, degree, w0):
    direct = lift.lift_expansion(phi, degree, w0)
    log_exp = lift.lift_expansion_log_exp(phi, degree, w0)
    check(direct.coeffs == log_exp.coeffs,
          f"degree {degree}: direct and exp-log expansions differ")
    check(direct.weyl == log_exp.weyl and direct.weight == log_exp.weight,
          f"degree {degree}: the two routes report different Weyl data or weight")
    return direct


def decompose_round_trip(phi, name):
    """theta_decompose phi and check that recompose gives phi back."""
    form = series.theta_decompose(phi)
    again = series.recompose(form, phi.prec)
    check(again.prec == phi.prec and again == phi,
          f"{name}: recompose(theta_decompose(x)) differs from x")
    return form


# -- jobs ---------------------------------------------------------------------


def job_theta_routes(inputs):
    text = emit(io.emit_series, series.theta_sum(THETA_PREC))
    check(emit(io.emit_series, series.theta_triple_product(THETA_PREC)) == text,
          "theta character sum differs from the triple product")
    return {f"theta.prec{THETA_PREC}": text}


def job_phi04(inputs):
    return {f"phi04.prec{PHI04_PREC}": emit(io.emit_series, series.phi04(PHI04_PREC))}


def job_phi3(inputs):
    return {f"phi_3.prec{PHI3_PREC}": emit(io.emit_series, phi_power(3, PHI3_PREC))}


def job_phi4(inputs):
    return {f"phi_4.prec{PHI4_PREC}": emit(io.emit_series, phi_power(4, PHI4_PREC))}


def lift_job(name, degree):
    def job(inputs):
        phi = read_series(inputs, name)
        w0 = inputs.w0(phi.lattice.rank)
        weyl = lift.weyl_vector(phi, w0)
        direct = two_route_lift(phi, degree, w0)
        check(direct.weyl == weyl, f"{name}: expansion carries other Weyl data")
        return {f"lift.{name}.deg{degree}.w0_{inputs.chamber}":
                emit(io.emit_expansion, direct)}
    return job


def decompose_job(name):
    def job(inputs):
        phi = read_series(inputs, name)
        form = decompose_round_trip(phi, name)
        pp = lift.principal_part(form)
        text = emit(io.emit_vvform, form)
        check(parse(io.parse_vvform, text) == form,
              f"{name}: parsed vvform differs from the in-memory form")
        return {f"decompose.{name}.vvform": text,
                f"decompose.{name}.principal_part": emit(io.emit_principal_part, pp)}
    return job


def lattice_info_job(name):
    def job(inputs):
        lat = parse(io.parse_lattice, inputs.lattices[name])
        return {f"lattice_info.{name}": emit(lattice_info, lat)}
    return job


def job_canary(inputs):
    name = f"phi_2.prec{CANARY_PREC}"
    text = emit(io.emit_series, phi_power(2, CANARY_PREC))
    check(text == inputs.series[name][0], f"{name}: built in the pass differs from set-up")
    phi = read_series(inputs, name)
    form = decompose_round_trip(phi, name)
    direct = two_route_lift(phi, 2, inputs.w0(2))
    return {f"canary.{name}": text,
            f"canary.{name}.vvform": emit(io.emit_vvform, form),
            f"canary.{name}.lift.deg2.w0_{inputs.chamber}": emit(io.emit_expansion, direct)}


# -- workloads ----------------------------------------------------------------


def setup_phi_build(inputs):
    inputs.sizes["phi_build"] = {"theta_prec": THETA_PREC, "phi04_prec": PHI04_PREC,
                                 "phi_3_prec": PHI3_PREC, "phi_4_prec": PHI4_PREC}


def setup_lift_two_routes(inputs):
    inputs.add_series("phi_1.prec16", series.phi_n(1, 16))
    inputs.add_series("phi_2.prec4", series.phi_n(2, 4))


def setup_decompose_diag8(inputs):
    inputs.add_series("phi_3.prec3", series.phi_n(3, 3))
    inputs.add_series("phi_4.prec1", series.phi_n(4, 1))
    for name, gram in LATTICES.items():
        inputs.add_lattice(name, gram)


# name -> (set-up, jobs of one pass)
WORKLOADS = {
    "phi_build": (setup_phi_build, [
        ("theta_routes", job_theta_routes),
        ("phi04", job_phi04),
        ("phi_3", job_phi3),
        ("phi_4", job_phi4),
        ("canary", job_canary),
    ]),
    "lift_two_routes": (setup_lift_two_routes, [
        ("lift.phi_1", lift_job("phi_1.prec16", 8)),
        ("lift.phi_2", lift_job("phi_2.prec4", 4)),
        ("canary", job_canary),
    ]),
    "decompose_diag8": (setup_decompose_diag8, [
        ("decompose.phi_3", decompose_job("phi_3.prec3")),
        ("decompose.phi_4", decompose_job("phi_4.prec1")),
        *((f"lattice_info.{name}", lattice_info_job(name)) for name in LATTICES),
        ("canary", job_canary),
    ]),
}


def make_inputs(workload: str, seed: int) -> Inputs:
    inputs = Inputs(seed)
    WORKLOADS[workload][0](inputs)
    inputs.add_series(f"phi_2.prec{CANARY_PREC}", series.phi_n(2, CANARY_PREC))
    return inputs
