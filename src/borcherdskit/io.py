"""Canonical JSON serialization for every file format the tools exchange.

Parsing is lenient about the order of list entries; emission is canonical:
terms are sorted, rationals are written as "p/q" in lowest terms with q > 0
(just "p" when the denominator is 1), and coefficients that may exceed 53
bits are written as strings. emit(parse(x)) is byte-identical for canonical
inputs, which the golden tests rely on.

Formats:
  lattice     {"gram": [[int, ...], ...]}
  series      {"gram": ..., "weight": "k/2", "q_den": D, "prec": "p/q",
               "form_class": "raw" | "weak_jacobi",
               "terms": [{"n": "a/b", "l": ["p/q", ...], "c": "int"}, ...]}
              terms sorted by (n, lex l)
  vvform      {"gram": ..., "weight": "k/2", "components": [
               {"gamma": [...], "prec": "p/q",
                "terms": [{"e": "a/b", "c": "int"}, ...]}, ...]}
              components sorted by lex gamma, terms by e
  principal   {"gram": ..., "constant_term": int, "terms": [
               {"gamma": [...], "exp": "-a/b", "c": int}, ...]}
              terms sorted by (exp, lex gamma)
  expansion   {"gram": ..., "weight": "k/2", "holomorphic": "unknown",
               "total_prec": "p/q", "weyl": {"A": ..., "B": [...], "C": ...,
               "w0": [...]}, "terms": [{"n": "a", "l": [...], "m": "b",
               "c": "int"}, ...]}  sorted by (n, m, lex l)
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaViolation
from .lattice import EvenLattice, Vector
from .lift import OrthogonalExpansion, PrincipalPart, WeylData
from .series import RAW, WEAK_JACOBI, JacobiSeries, VectorValuedForm


# -- scalars -------------------------------------------------------------------


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(value, path) -> Fraction:
    if isinstance(value, bool):
        raise SchemaViolation(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaViolation(f"{path}: {value!r} is not a rational p/q") from None
    raise SchemaViolation(f"{path}: expected a rational string, got {type(value).__name__}")


def parse_int(value, path) -> int:
    if isinstance(value, bool):
        raise SchemaViolation(f"{path}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise SchemaViolation(f"{path}: {value!r} is not an integer") from None
    raise SchemaViolation(f"{path}: expected an integer, got {type(value).__name__}")


def _expect_object(value, path, required, optional=()):
    if not isinstance(value, dict):
        raise SchemaViolation(f"{path}: expected an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise SchemaViolation(f"{path}.{key}: missing required field")
    for key in value:
        if key not in required and key not in optional:
            raise SchemaViolation(f"{path}.{key}: unknown field")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise SchemaViolation(f"{path}: expected a list, got {type(value).__name__}")
    return value


def parse_vector(value, path) -> Vector:
    return tuple(parse_frac(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(value, path)))


def _parse_lattice_vector(value, path, lattice: EvenLattice) -> Vector:
    """A vector with one entry per basis vector of lattice."""
    vec = parse_vector(value, path)
    if len(vec) != lattice.rank:
        raise SchemaViolation(
            f"{path}: vector has length {len(vec)}, lattice rank is {lattice.rank}")
    return vec


def emit_vector(vec) -> list[str]:
    return [frac_str(x) for x in vec]


def canonical_dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


# -- lattices -------------------------------------------------------------------


def parse_lattice(doc, path="$") -> EvenLattice:
    _expect_object(doc, path, required=("gram",))
    gram = _expect_list(doc["gram"], f"{path}.gram")
    rows = []
    for i, row in enumerate(gram):
        rows.append([parse_int(x, f"{path}.gram[{i}][{j}]")
                     for j, x in enumerate(_expect_list(row, f"{path}.gram[{i}]"))])
    return EvenLattice(rows)


def emit_lattice(lattice: EvenLattice) -> dict:
    return {"gram": [list(row) for row in lattice.gram]}


# -- Jacobi series -----------------------------------------------------------------


def parse_series(doc, path="$") -> JacobiSeries:
    _expect_object(doc, path, required=("gram", "weight", "q_den", "prec",
                                        "form_class", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    q_den = parse_int(doc["q_den"], f"{path}.q_den")
    prec = parse_frac(doc["prec"], f"{path}.prec")
    form_class = doc["form_class"]
    if form_class not in (RAW, WEAK_JACOBI):
        raise SchemaViolation(f"{path}.form_class: {form_class!r} is not a form class")
    coeffs = {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("n", "l", "c"))
        n = parse_frac(term["n"], f"{tpath}.n")
        l = _parse_lattice_vector(term["l"], f"{tpath}.l", lattice)
        if (n, l) in coeffs:
            raise SchemaViolation(f"{tpath}: duplicate term at n={frac_str(n)}")
        coeffs[(n, l)] = parse_int(term["c"], f"{tpath}.c")
    try:
        return JacobiSeries(lattice, weight, prec, coeffs, q_den=q_den,
                            form_class=form_class)
    except ValueError as exc:
        raise SchemaViolation(f"{path}: {exc}") from None


def emit_series(series: JacobiSeries) -> dict:
    return {
        **emit_lattice(series.lattice),
        "weight": frac_str(series.weight),
        "q_den": series.q_den,
        "prec": frac_str(series.prec),
        "form_class": series.form_class,
        "terms": [{"n": frac_str(n), "l": emit_vector(l), "c": str(c)}
                  for (n, l), c in series.support()],
    }


# -- vector-valued forms --------------------------------------------------------------


def parse_vvform(doc, path="$") -> VectorValuedForm:
    _expect_object(doc, path, required=("gram", "weight", "components"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    components = {}
    precisions = {}
    for i, comp in enumerate(_expect_list(doc["components"], f"{path}.components")):
        cpath = f"{path}.components[{i}]"
        _expect_object(comp, cpath, required=("gamma", "prec", "terms"))
        gamma = _parse_lattice_vector(comp["gamma"], f"{cpath}.gamma", lattice)
        if not lattice.is_dual_vector(gamma):
            raise SchemaViolation(f"{cpath}.gamma: not in the dual lattice")
        gamma = lattice.reduce_mod1(gamma)
        if gamma in components:
            raise SchemaViolation(f"{cpath}.gamma: duplicate component")
        fg = {}
        for j, term in enumerate(_expect_list(comp["terms"], f"{cpath}.terms")):
            tpath = f"{cpath}.terms[{j}]"
            _expect_object(term, tpath, required=("e", "c"))
            e = parse_frac(term["e"], f"{tpath}.e")
            if e in fg:
                raise SchemaViolation(f"{tpath}: duplicate exponent {frac_str(e)}")
            fg[e] = parse_int(term["c"], f"{tpath}.c")
        components[gamma] = fg
        precisions[gamma] = parse_frac(comp["prec"], f"{cpath}.prec")
    return VectorValuedForm(lattice, weight, components, precisions)


def emit_vvform(form: VectorValuedForm) -> dict:
    components = []
    for gamma in sorted(form.components):
        fg = form.components[gamma]
        components.append({
            "gamma": emit_vector(gamma),
            "prec": frac_str(form.precisions[gamma]),
            "terms": [{"e": frac_str(e), "c": str(fg[e])} for e in sorted(fg) if fg[e]],
        })
    return {
        **emit_lattice(form.lattice),
        "weight": frac_str(form.weight),
        "components": components,
    }


# -- principal parts --------------------------------------------------------------------


def parse_principal_part(doc, path="$") -> PrincipalPart:
    _expect_object(doc, path, required=("gram", "constant_term", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    constant = parse_int(doc["constant_term"], f"{path}.constant_term")
    terms = {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("gamma", "exp", "c"))
        gamma = _parse_lattice_vector(term["gamma"], f"{tpath}.gamma", lattice)
        if not lattice.is_dual_vector(gamma):
            raise SchemaViolation(f"{tpath}.gamma: not in the dual lattice")
        gamma = lattice.reduce_mod1(gamma)
        e = parse_frac(term["exp"], f"{tpath}.exp")
        if e >= 0:
            raise SchemaViolation(f"{tpath}.exp: {frac_str(e)} is not negative")
        if (gamma, e) in terms:
            raise SchemaViolation(f"{tpath}: duplicate term for this coset and exponent")
        terms[(gamma, e)] = parse_int(term["c"], f"{tpath}.c")
    return PrincipalPart(lattice, constant, terms)


def emit_principal_part(pp: PrincipalPart) -> dict:
    ordered = sorted(pp.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return {
        **emit_lattice(pp.lattice),
        "constant_term": pp.constant_term,
        "terms": [{"gamma": emit_vector(gamma), "exp": frac_str(e), "c": c}
                  for (gamma, e), c in ordered],
    }


# -- expansions -----------------------------------------------------------------------------


def emit_weyl(weyl: WeylData) -> dict:
    return {
        "A": frac_str(weyl.a),
        "B": emit_vector(weyl.b),
        "C": frac_str(weyl.c),
        "w0": emit_vector(weyl.chamber_vector),
    }


def parse_weyl(doc, path) -> WeylData:
    _expect_object(doc, path, required=("A", "B", "C", "w0"))
    return WeylData(
        a=parse_frac(doc["A"], f"{path}.A"),
        b=parse_vector(doc["B"], f"{path}.B"),
        c=parse_frac(doc["C"], f"{path}.C"),
        chamber_vector=parse_vector(doc["w0"], f"{path}.w0"),
    )


def parse_expansion(doc, path="$") -> OrthogonalExpansion:
    _expect_object(doc, path, required=("gram", "weight", "holomorphic",
                                        "total_prec", "weyl", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    total_prec = parse_frac(doc["total_prec"], f"{path}.total_prec")
    weyl = parse_weyl(doc["weyl"], f"{path}.weyl")
    coeffs = {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("n", "l", "m", "c"))
        n = parse_int(term["n"], f"{tpath}.n")
        m = parse_int(term["m"], f"{tpath}.m")
        l = _parse_lattice_vector(term["l"], f"{tpath}.l", lattice)
        if (n, l, m) in coeffs:
            raise SchemaViolation(f"{tpath}: duplicate monomial")
        coeffs[(n, l, m)] = parse_int(term["c"], f"{tpath}.c")
    return OrthogonalExpansion(lattice, weyl, weight, coeffs, total_prec,
                               holomorphic=str(doc["holomorphic"]))


def emit_expansion(exp: OrthogonalExpansion) -> dict:
    ordered = sorted(exp.coeffs.items(), key=lambda kv: (kv[0][0], kv[0][2], kv[0][1]))
    return {
        **emit_lattice(exp.lattice),
        "weight": frac_str(exp.weight),
        "holomorphic": exp.holomorphic,
        "total_prec": frac_str(exp.total_prec),
        "weyl": emit_weyl(exp.weyl),
        "terms": [{"n": str(n), "l": emit_vector(l), "m": str(m), "c": str(c)}
                  for (n, l, m), c in ordered],
    }


# -- file helpers -------------------------------------------------------------------------------


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: not valid JSON ({exc})") from None


def load_lattice(path) -> EvenLattice:
    return parse_lattice(load_json(path))


def load_series(path) -> JacobiSeries:
    return parse_series(load_json(path))


def load_principal_part(path) -> PrincipalPart:
    return parse_principal_part(load_json(path))
