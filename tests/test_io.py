"""Round-trip and schema tests for the canonical JSON formats.

The emitters sort integer-scaled keys and the parsers memoise rationals per
document. The oracles below are the emitters they replaced, which sorted
Fraction keys; random series, vector-valued forms, principal parts and
expansions on [[8]], [[16, 8], [8, 16]] and diag(8, 8), with negative labels
and mixed label denominators, must emit byte for byte as the oracles do.
parse_vvform and parse_series read on integers; the Fraction parsers they
replaced are kept as oracles, and mutated documents must give the same
result or the same message under both. parse_vvform reads a well-formed
component list by columns: that reader must read what its entry loop
reads, raise nothing, and not give up on an emitted document. canonical_dumps must write what
json.dumps(indent=2, ensure_ascii=True) writes, on random documents and on
every golden file, and write each Rows of an emitted document as json.dumps
writes the list of its rows. The parsers read plain trees: tree() turns an
emitted document into one.
"""

import json
import signal
import sys
import time
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from borcherdskit import io as kit_io
from borcherdskit.errors import NotInDualLattice, ResourceLimit, SchemaViolation
from borcherdskit.io import (
    _add_term,
    _columns,
    _entries,
    _expect_list,
    _expect_object,
    _Interned,
    _series_columns,
    _series_terms,
    _Strings,
    Rows,
    canonical_dumps,
    emit_expansion,
    emit_lattice,
    emit_principal_part,
    emit_series,
    emit_vector,
    emit_vvform,
    emit_weyl,
    frac_str,
    load_json,
    parse_expansion,
    parse_frac,
    parse_int,
    parse_lattice,
    parse_principal_part,
    parse_series,
    parse_vvform,
)
from borcherdskit.lattice import CosetMinima, EvenLattice
from borcherdskit.lift import (
    OrthogonalExpansion,
    PrincipalPart,
    WeylData,
    lift_expansion,
    principal_part,
)
from borcherdskit.series import (
    RAW,
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    _Packing,
    direct_product,
    phi04,
    phi_n,
    rescale_elliptic,
    theta_decompose,
    theta_sum,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def tree(doc):
    """An emitted document as the plain JSON tree that its file holds: the
    parsers read plain trees, and the Rows of an emitted document are read
    only, each access building fresh rows."""
    return json.loads(canonical_dumps(doc))


def test_frac_str_lowest_terms():
    assert frac_str(F(2, 4)) == "1/2"
    assert frac_str(F(-3, 9)) == "-1/3"
    assert frac_str(F(5)) == "5"
    assert frac_str(0) == "0"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.one_of(st.just(1), st.integers(1, 10 ** 4)))
@example(0, 0, 1)
@example(-6, 0, 4)
@example(7, -5, 12)
def test_strings_write_what_frac_str_writes(k, low, den):
    assert _Strings(den, low)[k] == frac_str(F(k - low, den))
    assert _Strings(den)[k] == frac_str(F(k, den))


def test_parse_frac_lenient_and_strict():
    assert parse_frac("2/4", "$") == F(1, 2)
    assert parse_frac(3, "$") == 3
    with pytest.raises(SchemaViolation, match=r"\$\.x"):
        parse_frac("3/4/5", "$.x")
    with pytest.raises(SchemaViolation):
        parse_frac("1/0", "$")
    with pytest.raises(SchemaViolation):
        parse_frac(True, "$")


def test_lattice_round_trip():
    doc = {"gram": [[8]]}
    k = parse_lattice(doc)
    assert k.rank == 1
    assert emit_lattice(k) == doc


def test_lattice_schema_paths():
    with pytest.raises(SchemaViolation, match=r"\$\.gram\[0\]\[1\]"):
        parse_lattice({"gram": [[8, "x"]]})
    with pytest.raises(SchemaViolation, match="unknown field"):
        parse_lattice({"gram": [[8]], "extra": 1})
    with pytest.raises(SchemaViolation, match="missing required field"):
        parse_lattice({})


def test_series_round_trip():
    p = phi04(3)
    doc = tree(emit_series(p))
    back = parse_series(doc)
    assert back.coeffs == p.coeffs
    assert back.prec == p.prec
    assert back.weight == p.weight
    assert back.q_den == p.q_den
    assert back.form_class == p.form_class
    assert emit_series(back) == doc


def test_series_parse_is_lenient_about_order():
    doc = emit_series(theta_sum(3))
    shuffled = dict(doc)
    shuffled["terms"] = list(reversed(doc["terms"]))
    back = parse_series(shuffled)
    assert emit_series(back) == doc


def test_series_rejects_duplicate_terms():
    doc = tree(emit_series(theta_sum(3)))
    doc["terms"] = doc["terms"] + [doc["terms"][0]]
    with pytest.raises(SchemaViolation, match="duplicate"):
        parse_series(doc)


def test_series_rejects_off_grid_exponent():
    doc = tree(emit_series(theta_sum(3)))
    doc["terms"][0]["n"] = "1/3"
    with pytest.raises(SchemaViolation):
        parse_series(doc)


def test_vvform_round_trip():
    vv = theta_decompose(phi04(4))
    doc = tree(emit_vvform(vv))
    back = parse_vvform(doc)
    assert back.components == vv.components
    assert back.prec == vv.prec
    assert back.weight == vv.weight
    assert emit_vvform(back) == doc


def test_principal_part_round_trip_fixtures():
    for name in ("example1.json", "example2.json"):
        raw = (FIXTURES / name).read_text(encoding="utf-8")
        pp = parse_principal_part(json.loads(raw))
        assert canonical_dumps(emit_principal_part(pp)) == raw


def test_principal_part_rejects_nonnegative_exponent():
    doc = json.loads((FIXTURES / "example2.json").read_text())
    doc["terms"][0]["exp"] = "1/4"
    with pytest.raises(SchemaViolation, match="not negative"):
        parse_principal_part(doc)


def test_principal_part_rejects_non_dual_gamma():
    doc = json.loads((FIXTURES / "example2.json").read_text())
    doc["terms"][0]["gamma"] = ["1/3", "0"]
    with pytest.raises(SchemaViolation, match="dual"):
        parse_principal_part(doc)


def test_principal_part_rejects_duplicate_terms():
    doc = json.loads((FIXTURES / "example2.json").read_text())
    doc["terms"].append(dict(doc["terms"][0]))
    with pytest.raises(SchemaViolation, match="duplicate"):
        parse_principal_part(doc)


def test_gram_fixtures_round_trip():
    for name in ("gram_ex1.json", "gram_ex2.json"):
        raw = (FIXTURES / name).read_text(encoding="utf-8")
        k = parse_lattice(json.loads(raw))
        assert canonical_dumps(emit_lattice(k)) == raw


def test_expansion_round_trip():
    e = lift_expansion(phi04(4), 4, (1,))
    doc = tree(emit_expansion(e))
    back = parse_expansion(doc)
    assert back == e
    assert back.coeffs == e.coeffs
    assert back.weyl == e.weyl
    assert back.total_prec == e.total_prec
    assert back.holomorphic == "unknown"
    assert emit_expansion(back) == doc


def _series_doc():
    return tree(emit_series(phi04(2)))


def _vvform_doc():
    return tree(emit_vvform(theta_decompose(phi04(2))))


def _principal_part_doc():
    return json.loads((FIXTURES / "example1.json").read_text())


def _expansion_doc():
    return tree(emit_expansion(lift_expansion(phi04(4), 4, (1,))))


@pytest.mark.parametrize("make_doc, parse, field, path", [
    (_series_doc, parse_series, ("terms", 0, "l"), r"\$\.terms\[0\]\.l:"),
    (_vvform_doc, parse_vvform, ("components", 0, "gamma"), r"\$\.components\[0\]\.gamma:"),
    (_principal_part_doc, parse_principal_part, ("terms", 0, "gamma"),
     r"\$\.terms\[0\]\.gamma:"),
    (_expansion_doc, parse_expansion, ("terms", 0, "l"), r"\$\.terms\[0\]\.l:"),
    (_expansion_doc, parse_expansion, ("weyl", "B"), r"\$\.weyl\.B:"),
    (_expansion_doc, parse_expansion, ("weyl", "w0"), r"\$\.weyl\.w0:"),
], ids=["series", "vvform", "principal_part", "expansion", "weyl-B", "weyl-w0"])
def test_wrong_length_vector_names_its_path(make_doc, parse, field, path):
    doc = make_doc()
    *parents, key = field
    node = doc
    for k in parents:
        node = node[k]
    node[key] = node[key] + ["0"]
    with pytest.raises(SchemaViolation, match=path + " vector has length"):
        parse(doc)


def test_expansion_holomorphic_must_be_a_string():
    doc = _expansion_doc()
    doc["holomorphic"] = 5
    with pytest.raises(SchemaViolation) as excinfo:
        parse_expansion(doc)
    assert str(excinfo.value) == "$.holomorphic: 5 is not a string"


def test_vvform_must_list_every_coset_once():
    doc = _vvform_doc()
    del doc["components"][3]
    with pytest.raises(SchemaViolation) as excinfo:
        parse_vvform(doc)
    assert str(excinfo.value) == "$.components: has 7 of 8 cosets"


def test_vvform_precisions_come_from_one_prec():
    doc = _vvform_doc()
    assert doc["components"][0]["gamma"] == ["0"]
    assert doc["components"][1]["prec"] == "31/16"
    doc["components"][1]["prec"] = "2"
    with pytest.raises(SchemaViolation) as excinfo:
        parse_vvform(doc)
    assert str(excinfo.value) == "$.components: the precisions are not P - min Q(gamma)"


def test_emit_vvform_refuses_huge_determinant_before_listing():
    form = VectorValuedForm(EvenLattice([[2 ** 70]]), F(-1, 2), {}, F(1))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="coset budget"):
        emit_vvform(form)
    assert time.perf_counter() - start < 1


def test_emit_vvform_refuses_unreduced_key():
    # the constructor reduces every gamma, so the key 9 = 8 * 9/8 is stored
    # past it
    form = VectorValuedForm._of(EvenLattice([[8]]), F(-1, 2), F(1), {(9,): {0: 1}}, 1)
    with pytest.raises(ValueError, match="not a reduced coset representative"):
        emit_vvform(form)


def test_vvform_refuses_a_gamma_that_det_does_not_clear():
    # the keys are det * gamma, so 1/16 on a lattice of det 8 has no key
    with pytest.raises(NotInDualLattice) as excinfo:
        VectorValuedForm(EvenLattice([[8]]), F(-1, 2), {(F(1, 16),): {F(0): 1}}, F(1))
    assert str(excinfo.value) == "(1/16) does not pair integrally with the lattice"


def test_vvform_reads_gammas_as_the_emitter_keys_them():
    lattice = EvenLattice([[16, 8], [8, 16]])
    # 192 clears the denominators of (1/192, 0), which is not dual
    with pytest.raises(NotInDualLattice) as excinfo:
        VectorValuedForm(lattice, -1, {(F(1, 192), F(0)): {F(-1): 1}}, 1)
    assert str(excinfo.value) == "(1/192, 0) does not pair integrally with the lattice"
    form = VectorValuedForm(lattice, -1, {(F(25, 24), F(1, 24)): {F(-1, 24): 1}}, 1)
    assert (form.terms, form.eden) == ({(8, 8): {-48: 1}}, 2 * 24 ** 2)
    assert form.components == {(F(1, 24), F(1, 24)): {F(-1, 24): 1}}
    assert parse_vvform(json.loads(canonical_dumps(emit_vvform(form)))) == form
    with pytest.raises(ValueError, match="share a coset"):
        VectorValuedForm(lattice, -1, {(F(25, 24), F(1, 24)): {F(-1, 24): 1},
                                       (F(1, 24), F(1, 24)): {}}, 1)


def test_emitted_vectors_are_sized_by_their_length():
    # list() of a map, which has no length, reserves 8 entries and keeps
    # them for a vector of 4 or more; every label and gamma list of a row
    # that an emitted Rows builds is built from a tuple, at ranks 1 to 3
    phi_3 = phi_n(3, 1)
    for rows, key in [(emit_series(phi04(2))["terms"], "l"), (emit_series(phi_3)["terms"], "l"),
                      (emit_vvform(theta_decompose(phi04(2)))["components"], "gamma"),
                      (emit_vvform(theta_decompose(phi_3))["components"], "gamma"),
                      (emit_expansion(lift_expansion(phi04(4), 4, (1,)))["terms"], "l")]:
        vectors = [row[key] for row in rows]
        assert vectors and all(sys.getsizeof(v) == sys.getsizeof(list(tuple(v)))
                               for v in vectors)


def test_load_json_reports_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaViolation, match="not valid JSON"):
        load_json(bad)


# -- canonical_dumps against json.dumps, kept as the oracle -----------------------------


def oracle_dumps(doc):
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII, a lone surrogate and
# a character outside the BMP, besides Hypothesis's own characters
SPECIAL = '"\\\x00\n\x1f\x7f\xe9\u2028\ud800\U0001f600'
CHARACTERS = st.one_of(st.characters(), st.sampled_from(SPECIAL))
STRINGS = st.text(CHARACTERS, max_size=8)
LEAVES = st.one_of(st.none(), st.booleans(), STRINGS, st.integers(-2**100, 2**100),
                   st.integers(-2**63, 2**63))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.dictionaries(STRINGS, children, max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DOCUMENTS)
@example({})
@example([])
@example({"": {}, "a": [], "b": [[]], "c": [{}]})
@example([SPECIAL, {SPECIAL: SPECIAL}])
@example([1, True, False, None, -2**100])
@example([[1, 2], ["a", "b"], [True, 2], ["a", 1]])
def test_canonical_dumps_matches_json_dumps(doc):
    assert canonical_dumps(doc) == oracle_dumps(doc)


GOLDEN_FILES = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.name for p in GOLDEN_FILES])
def test_canonical_dumps_rewrites_golden_file(path):
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    doc = json.loads(text)
    assert canonical_dumps(doc) == text == oracle_dumps(doc)


@pytest.mark.parametrize("doc, kind", [
    ((1, 2), "tuple"),
    (0.5, "float"),
    ({1}, "set"),
    ({"terms": [{"l": ("1/2",)}]}, "tuple"),
], ids=["tuple", "float", "set", "nested tuple"])
def test_canonical_dumps_rejects_other_types(doc, kind):
    with pytest.raises(TypeError, match=f"^canonical_dumps: cannot encode {kind}$"):
        canonical_dumps(doc)


def test_canonical_dumps_rejects_non_str_key():
    # the key reaches the json module's C string escaper, which raises
    with pytest.raises(TypeError, match="^first argument must be a string, not int$"):
        canonical_dumps({1: "a"})


# -- the row-table writer: lists of dicts with the same keys in the same order ---------


def first_unencodable(value):
    """The TypeError message of the recursive path for the first value of
    value, in document order, that canonical_dumps cannot encode: a key
    before its value, and the items of a list in order. None when there is
    none."""
    kind = type(value)
    if kind is dict:
        for key, x in value.items():
            if type(key) is not str:
                return f"first argument must be a string, not {type(key).__name__}"
            found = first_unencodable(x)
            if found:
                return found
        return None
    if kind is list:
        return next(filter(None, map(first_unencodable, value)), None)
    if kind in (str, int, bool, type(None)):
        return None
    return f"canonical_dumps: cannot encode {kind.__name__}"


def dumps_outcome(doc):
    try:
        return canonical_dumps(doc)
    except TypeError as exc:
        return ("TypeError", str(exc))


def oracle_dumps_outcome(doc):
    message = first_unencodable(doc)
    return oracle_dumps(doc) if message is None else ("TypeError", message)


# strings the escaper writes as they are, and keys with the braces of a
# format template
PLAIN = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
KEYS = st.one_of(STRINGS, PLAIN, st.sampled_from(["{", "}", "{}", "}{0}{", SPECIAL]))
CELLS = st.one_of(LEAVES, DOCUMENTS, st.lists(STRINGS, max_size=3),
                  st.floats(allow_nan=False), st.tuples(PLAIN))
# lists of rows or nothing, as in the terms of a vvform's components
TERMS = st.one_of(st.just([]), st.lists(st.fixed_dictionaries({"e": PLAIN, "c": PLAIN}),
                                        min_size=1, max_size=3))
# a column draws every cell from one of these; the last two mix empty and
# non-empty lists
COLUMNS = st.sampled_from([PLAIN, STRINGS, st.lists(PLAIN, min_size=1, max_size=4),
                           st.lists(STRINGS, min_size=1, max_size=4), CELLS,
                           st.lists(CELLS, max_size=3), TERMS])


@st.composite
def row_tables(draw):
    """A list of dicts with the same keys in the same order, on its own or
    one level down, where most columns hold values of one kind."""
    keys = draw(st.lists(KEYS, unique=True, max_size=4))
    columns = [draw(COLUMNS) for _ in keys]
    rows = [{key: draw(column) for key, column in zip(keys, columns)}
            for _ in range(draw(st.integers(1, 6)))]
    return draw(st.sampled_from([rows, {"rows": rows}, [rows, "x"]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row_tables())
@example([{"a": "1", "b": ["x"]}, {"b": ["y"], "a": "2"}])
@example([{"a": "1"}, {"a": "2", "b": "3"}])
@example([{"l": ["1", "2"]}, {"l": ["3", 4]}])
@example([{"{": "1", "}": ["{}"]}, {"{": "2", "}": ["}{"]}])
@example([{"a": "1", "l": [SPECIAL]}, {"a": SPECIAL, "l": ["x", "y"]}])
@example([{"a": "1", "l": ("x",)}, {"a": 0.5, "l": ["y"]}])
@example([{"a": "1", "l": ["x"]}, {"a": 0.5, "l": ("y",)}])
@example([{"a": "1"}, {1: "2"}])
@example([{1: "1"}, {1: "2"}])
@example([{"g": ["0"], "t": []}, {"g": ["1/8"], "t": [{"e": "0", "c": "1"}]}, {"g": ["1/4"], "t": []}])
@example([{"t": []}, {"t": ["x", 1, [], {}]}, {"t": [[]]}])
@example([{"t": []}, {"t": [0.5]}, {"t": [("x",)]}])
def test_row_tables_match_json_dumps(doc):
    # the same text as json.dumps, or the first error of the recursive path
    assert dumps_outcome(doc) == oracle_dumps_outcome(doc)


# -- the Fraction-sorting emitters, kept as oracles ------------------------------------


def oracle_emit_series(series):
    return {
        **emit_lattice(series.lattice),
        "weight": frac_str(series.weight),
        "q_den": series.q_den,
        "prec": frac_str(series.prec),
        "form_class": series.form_class,
        "terms": [{"n": frac_str(n), "l": emit_vector(l), "c": str(c)}
                  for (n, l), c in sorted(series.coeffs.items(), key=lambda item: item[0])],
    }


@cache
def oracle_coset_minima(lattice):
    """min Q on every coset as {gamma: Fraction}, one coset_minimum search
    per reduced representative, in sorted order."""
    return {gamma: lattice.coset_minimum(gamma)
            for gamma in lattice.discriminant_group().representatives}


def oracle_emit_vvform(form):
    """One entry per coset, with precision prec - min Q(gamma)."""
    lattice = form.lattice
    components = []
    for gamma, minimum in oracle_coset_minima(lattice).items():
        fg = form.components.get(gamma, {})
        components.append({
            "gamma": emit_vector(gamma),
            "prec": frac_str(form.prec - minimum),
            "terms": [{"e": frac_str(e), "c": str(fg[e])} for e in sorted(fg) if fg[e]],
        })
    return {
        **emit_lattice(form.lattice),
        "weight": frac_str(form.weight),
        "components": components,
    }


def oracle_emit_principal_part(pp):
    ordered = sorted(pp.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return {
        **emit_lattice(pp.lattice),
        "constant_term": pp.constant_term,
        "terms": [{"gamma": emit_vector(gamma), "exp": frac_str(e), "c": c}
                  for (gamma, e), c in ordered],
    }


def oracle_emit_expansion(exp):
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


def oracle_vector(value, path, rank):
    """A vector read by parse_frac entry by entry, with no cache."""
    vec = tuple(parse_frac(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(value, path)))
    if len(vec) != rank:
        raise SchemaViolation(f"{path}: vector has length {len(vec)}, lattice rank is {rank}")
    return vec


def oracle_parse_series(doc, path="$"):
    """The Fraction parser: terms keyed by (Fraction n, Fraction label), then
    the JacobiSeries constructor."""
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
        l = oracle_vector(term["l"], f"{tpath}.l", lattice.rank)
        if not _add_term(coeffs, (n, l), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate term at n={frac_str(n)}")
    try:
        return JacobiSeries(lattice, weight, prec, coeffs, q_den=q_den,
                            form_class=form_class)
    except ValueError as exc:
        raise SchemaViolation(f"{path}: {exc}") from None


def oracle_parse_vvform(doc, path="$"):
    """The Fraction parser: dual test, reduction and duplicates on Fraction
    vectors, and one Fraction sum per coset for the precision check."""
    _expect_object(doc, path, required=("gram", "weight", "components"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    components = {}
    precisions = []
    for i, comp in enumerate(_expect_list(doc["components"], f"{path}.components")):
        cpath = f"{path}.components[{i}]"
        _expect_object(comp, cpath, required=("gamma", "prec", "terms"))
        gamma = oracle_vector(comp["gamma"], f"{cpath}.gamma", lattice.rank)
        if not lattice.is_dual_vector(gamma):
            raise SchemaViolation(f"{cpath}.gamma: not in the dual lattice")
        gamma = lattice.reduce_mod1(gamma)
        size = len(components)
        components[gamma] = fg = {}
        if len(components) == size:
            raise SchemaViolation(f"{cpath}.gamma: duplicate component")
        for j, term in enumerate(_expect_list(comp["terms"], f"{cpath}.terms")):
            tpath = f"{cpath}.terms[{j}]"
            _expect_object(term, tpath, required=("e", "c"))
            e = parse_frac(term["e"], f"{tpath}.e")
            if not _add_term(fg, e, term["c"], f"{tpath}.c"):
                raise SchemaViolation(f"{tpath}: duplicate exponent {frac_str(e)}")
        precisions.append((gamma, parse_frac(comp["prec"], f"{cpath}.prec")))
    if len(components) != lattice.det:
        raise SchemaViolation(f"{path}.components: has {len(components)} of {lattice.det} cosets")
    minima = oracle_coset_minima(lattice)
    tops = [p + minima[gamma] for gamma, p in precisions]
    if any(top != tops[0] for top in tops):
        raise SchemaViolation(f"{path}.components: the precisions are not P - min Q(gamma)")
    return VectorValuedForm(lattice, weight, components, tops[0])


# -- random objects ---------------------------------------------------------------------

LATTICES = (EvenLattice([[8]]), EvenLattice([[16, 8], [8, 16]]),
            EvenLattice([[8, 0], [0, 8]]))
# reduced coset representatives: entries with denominators dividing 8 on
# [[8]] and diag(8, 8), and dividing 24 on [[16, 8], [8, 16]]
COSETS = {id(lat): lat.discriminant_group().representatives for lat in LATTICES}

lattices = st.sampled_from(LATTICES)
# numerators around zero over mixed denominators
rationals = st.builds(F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 8, 16, 24)))
coefficients = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)


def vectors(lattice):
    return st.tuples(*[rationals] * lattice.rank)


@st.composite
def jacobi_series(draw):
    lattice = draw(lattices)
    q_den = draw(st.sampled_from((1, 8)))
    exponent = st.integers(-3 * q_den, 6 * q_den).map(lambda k: F(k, q_den))
    coeffs = draw(st.dictionaries(st.tuples(exponent, vectors(lattice)), coefficients,
                                  max_size=20))
    weight = draw(st.sampled_from((F(0), F(1, 2), F(-3, 2))))
    prec = F(draw(st.integers(1, 7 * q_den)), q_den)
    return JacobiSeries(lattice, weight, prec, coeffs, q_den=q_den, form_class=RAW)


@st.composite
def vvform_maps(draw):
    """(lattice, components, prec): the Fraction map of a form on random
    cosets with one random precision. Coefficients may be zero and
    components empty."""
    lattice = draw(lattices)
    coset = st.sampled_from(COSETS[id(lattice)])
    gammas = draw(st.lists(coset, unique=True, max_size=8))
    components = {g: draw(st.dictionaries(rationals, coefficients, max_size=5)) for g in gammas}
    return lattice, components, draw(rationals)


def vvforms():
    """The forms of vvform_maps(); the constructor drops zero coefficients and
    empty components."""
    return vvform_maps().map(lambda d: VectorValuedForm(d[0], F(-d[0].rank, 2), d[1], d[2]))


@st.composite
def principal_parts(draw):
    lattice = draw(lattices)
    gamma = st.sampled_from(COSETS[id(lattice)])
    exp = st.builds(F, st.integers(-40, -1), st.sampled_from((1, 2, 8, 24)))
    terms = draw(st.dictionaries(st.tuples(gamma, exp), st.integers(-5, 5), max_size=12))
    return PrincipalPart(lattice, draw(st.integers(-5, 5)), terms)


@st.composite
def expansions(draw):
    lattice = draw(lattices)
    # total degree n + m below total_prec 5
    monomial = st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), vectors(lattice), st.integers(0, 4 - n)))
    coeffs = draw(st.dictionaries(monomial, coefficients, max_size=20))
    weyl = WeylData(draw(rationals), draw(vectors(lattice)), draw(rationals),
                    draw(vectors(lattice)))
    return OrthogonalExpansion(lattice, weyl, draw(rationals), coeffs, F(5))


def shuffled(data, doc, entries):
    doc = dict(doc)
    doc[entries] = data.draw(st.permutations(doc[entries]))
    return doc


# -- emitters against the oracles, parsers against the emitters ------------------------


@settings(max_examples=150, deadline=None)
@given(jacobi_series(), st.data())
def test_series_emit_matches_oracle_and_round_trips(series, data):
    doc = emit_series(series)
    assert canonical_dumps(doc) == canonical_dumps(oracle_emit_series(series))
    back = parse_series(json.loads(canonical_dumps(shuffled(data, doc, "terms"))))
    assert back == series
    assert (back.prec, back.q_den, back.form_class) == (series.prec, series.q_den, RAW)
    assert back.support() == series.support() == sorted(series.coeffs.items())


@settings(max_examples=100, deadline=None)
@given(vvforms())
# precisions on cosets with finer denominators than prec and every component
@example(VectorValuedForm(LATTICES[0], F(-1, 2), {(F(0),): {F(0): 1}}, F(1)))
def test_vvform_emit_matches_oracle(form):
    assert canonical_dumps(emit_vvform(form)) == canonical_dumps(oracle_emit_vvform(form))


@settings(max_examples=100, deadline=None)
@given(vvforms(), st.data())
def test_vvform_round_trips_shuffled(form, data):
    doc = emit_vvform(form)
    doc = shuffled(data, doc, "components")
    doc["components"] = [shuffled(data, comp, "terms") for comp in doc["components"]]
    assert parse_vvform(json.loads(canonical_dumps(doc))) == form


@settings(max_examples=100, deadline=None)
@given(principal_parts(), st.data())
def test_principal_part_emit_matches_oracle_and_round_trips(pp, data):
    doc = emit_principal_part(pp)
    assert canonical_dumps(doc) == canonical_dumps(oracle_emit_principal_part(pp))
    assert parse_principal_part(shuffled(data, doc, "terms")) == pp


@settings(max_examples=150, deadline=None)
@given(expansions(), st.data())
def test_expansion_emit_matches_oracle_and_round_trips(exp, data):
    doc = emit_expansion(exp)
    assert canonical_dumps(doc) == canonical_dumps(oracle_emit_expansion(exp))
    back = parse_expansion(shuffled(data, doc, "terms"))
    assert back == exp
    assert back.coeffs == exp.coeffs
    assert emit_expansion(back) == doc


@settings(max_examples=100, deadline=None)
@given(expansions(), st.integers(2, 3))
def test_expansion_equality_and_emission_ignore_the_label_denominator(exp, k):
    # the same expansion stored over k * den: unreduced integer labels
    finer = OrthogonalExpansion._of(
        exp.lattice, exp.weyl, exp.weight,
        {(n, m, tuple([k * x for x in l])): c for (n, m, l), c in exp.terms.items()},
        k * exp.den, exp.total_prec, exp.holomorphic)
    assert finer == exp and exp == finer
    assert finer.coeffs == exp.coeffs
    assert canonical_dumps(emit_expansion(finer)) == canonical_dumps(oracle_emit_expansion(exp))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vvform_maps(), st.integers(2, 3), st.data())
def test_vvform_integer_terms_match_the_fraction_map(drawn, k, data):
    lattice, components, prec = drawn
    weight = F(-lattice.rank, 2)
    form = VectorValuedForm(lattice, weight, components, prec)
    nonzero = {g: {e: c for e, c in fg.items() if c} for g, fg in components.items()}
    nonzero = {g: fg for g, fg in nonzero.items() if fg}
    assert form.components == nonzero
    assert all(all(fg.values()) for fg in form.terms.values())
    # the same form over k * eden, and as parsed
    finer = VectorValuedForm._of(
        lattice, weight, form.prec,
        {g: {k * e: c for e, c in fg.items()} for g, fg in form.terms.items()}, k * form.eden)
    text = canonical_dumps(emit_vvform(form))
    parsed = parse_vvform(json.loads(text))
    forms = [form, finer, parsed]
    for one in forms:
        assert one.components == nonzero
        assert all(one == other for other in forms)
        assert canonical_dumps(emit_vvform(one)) == text
    # one coefficient, one exponent or one gamma changed
    mutants = []
    if nonzero:
        g = data.draw(st.sampled_from(sorted(nonzero)))
        fg = nonzero[g]
        e = data.draw(st.sampled_from(sorted(fg)))
        rest = {x: c for x, c in fg.items() if x != e}
        mutants += [{**nonzero, g: {**fg, e: fg[e] + (1 if fg[e] != -1 else -1)}},
                    {**nonzero, g: {**rest, max(fg) + 1: fg[e]}}]
        cosets = [h for h in COSETS[id(lattice)] if h not in nonzero]
        if cosets:
            moved = {h: f for h, f in nonzero.items() if h != g}
            mutants.append({**moved, data.draw(st.sampled_from(cosets)): fg})
    for mutant in mutants:
        changed = VectorValuedForm(lattice, weight, mutant, prec)
        for one in forms:
            assert changed != one and one != changed
    # component and precision on reduced and unreduced gamma
    shift = tuple(data.draw(st.integers(-2, 2)) for _ in range(lattice.rank))
    for gamma in data.draw(st.lists(st.sampled_from(COSETS[id(lattice)]), max_size=3)):
        for v in (gamma, tuple(x + y for x, y in zip(gamma, shift))):
            for one in forms:
                assert one.component(v) == nonzero.get(gamma, {})
                assert one.precision(v) == one.prec - lattice.coset_minimum(gamma)


def test_empty_objects_emit_as_oracles():
    for lattice in LATTICES:
        series = JacobiSeries(lattice, 0, 1, {}, q_den=1, form_class=RAW)
        form = VectorValuedForm(lattice, -1, {}, F(1))
        pp = PrincipalPart(lattice, 0, {})
        zero = (F(0),) * lattice.rank
        exp = OrthogonalExpansion(lattice, WeylData(F(0), zero, F(0), zero), F(0), {}, F(1))
        for new, oracle, obj in ((emit_series, oracle_emit_series, series),
                                 (emit_vvform, oracle_emit_vvform, form),
                                 (emit_principal_part, oracle_emit_principal_part, pp),
                                 (emit_expansion, oracle_emit_expansion, exp)):
            assert canonical_dumps(new(obj)) == canonical_dumps(oracle(obj))


# -- Rows against json.dumps of the lists of their rows --------------------------------


def listed(doc):
    """An emitted document with each Rows in it replaced by the list of its
    rows, which json.dumps writes."""
    return {key: list(value) if isinstance(value, Rows) else value for key, value in doc.items()}


@st.composite
def packed_products(draw):
    """A direct product of two or three rescaled phi04, as in test_series:
    its terms stay on the product kernel's packed keys, so emit_series
    writes it from their digits."""
    factor = st.builds(rescale_elliptic, st.integers(1, 3).map(phi04),
                       st.sampled_from((1, 2, 3, 8)))
    product = direct_product(draw(factor), draw(factor))
    if draw(st.booleans()):
        product = direct_product(product, draw(factor))
    assert product._terms is None
    return product


EMISSIONS = st.one_of(
    st.tuples(st.just(emit_series), jacobi_series()),
    st.tuples(st.just(emit_series), packed_products()),
    st.tuples(st.just(emit_vvform), vvforms()),
    st.tuples(st.just(emit_expansion), expansions()),
    st.tuples(st.just(emit_principal_part), principal_parts()),
)


# no shrinking: each shrink step rebuilds products and runs the pure-Python
# json.dumps(indent=2), so a failure would take minutes to report
@settings(max_examples=300, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(EMISSIONS)
def test_rows_write_what_json_dumps_writes_of_their_rows(emission):
    emit, obj = emission
    doc = emit(obj)
    assert canonical_dumps(doc) == oracle_dumps(listed(doc))


def _emitted_rows():
    """(document, key of its Rows) for each emitter, each Rows of several
    rows, the vvform's with term lists both empty and not."""
    phi = phi_n(2, 3)
    packed = emit_series(phi)  # before theta_decompose decodes the terms of phi
    assert phi._terms is None
    form = theta_decompose(phi)
    return [(emit_series(phi04(3)), "terms"), (packed, "terms"), (emit_vvform(form), "components"),
            (emit_principal_part(principal_part(form)), "terms"),
            (emit_expansion(lift_expansion(phi04(4), 4, (1,))), "terms")]


@pytest.mark.parametrize("doc, key", _emitted_rows(),
                         ids=["series", "packed-series", "vvform", "principal_part", "expansion"])
def test_rows_are_a_sequence_of_fresh_rows(doc, key):
    rows = doc[key]
    assert type(rows) is Rows
    text = canonical_dumps(doc)
    rows_list = list(rows)
    assert len(rows) == len(rows_list) > 1
    assert rows == rows_list and rows_list == rows and not rows != rows_list
    assert rows[-1] == rows_list[-1] and rows[-len(rows)] == rows_list[0]
    assert rows[1:-1] == rows_list[1:-1] and list(reversed(rows)) == rows_list[::-1]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[index]
    # a row more or less, or one row changed, is unequal either way round
    for other in (rows_list[:-1], rows_list + rows_list[:1], rows_list[:-1] + [{}]):
        assert rows != other and other != rows
    assert rows != tuple(rows_list) and rows != {}
    # every access builds its rows afresh: changing them changes no dump
    for row in (rows[0], rows[-1], *rows):
        assert row is not rows[0]
        for value in row.values():
            if type(value) is list:
                for item in value:
                    if type(item) is dict:
                        item.clear()
                value.append("x")
        row.clear()
    assert canonical_dumps(doc) == text and rows == rows_list


# -- rows that share their heads ---------------------------------------------------------


DIAGONAL = [EvenLattice([[8 * (i == j) for j in range(rank)] for i in range(rank)])
            for rank in range(1, 5)]
ENTRIES = st.builds(F, st.integers(-20, 20), st.sampled_from((1, 2, 8)))
SHAPES = ("one row", "one head", "distinct heads", "free")


@st.composite
def shared_head_series(draw):
    """A tuple-keyed series of rank 1 to 4 whose rows, keyed by their heads
    (n, l[:-2]) and tails l[-2:], come in one of the shapes: a single row,
    every row under one head, every head distinct, or drawn freely."""
    lattice = draw(st.sampled_from(DIAGONAL))
    rank, q_den = lattice.rank, draw(st.sampled_from((1, 8)))
    head = st.tuples(st.integers(-3 * q_den, 6 * q_den).map(lambda k: F(k, q_den)),
                     st.tuples(*[ENTRIES] * max(rank - 2, 0)))
    tail = st.tuples(*[ENTRIES] * min(rank, 2))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "one row":
        rows = [(draw(head), draw(tail))]
    elif shape == "one head":
        h = draw(head)
        rows = [(h, t) for t in draw(st.lists(tail, min_size=2, max_size=12, unique=True))]
    elif shape == "distinct heads":
        rows = [(h, draw(tail)) for h in draw(st.lists(head, min_size=2, max_size=12, unique=True))]
    else:
        rows = draw(st.lists(st.tuples(head, tail), max_size=20, unique=True))
    nonzero = coefficients.filter(bool)
    coeffs = {(n, lead + rest): draw(nonzero) for (n, lead), rest in rows}
    return JacobiSeries(lattice, 0, 7, coeffs, q_den=q_den, form_class=RAW)


def _one_term(label):
    return JacobiSeries(EvenLattice([[8]]), 0, 3, {(F(0), (F(label, 8),)): 1})


# a factor of rank 1: phi04 rescaled, or one term, whose labels then are the
# same in every row of the product
FACTORS = st.one_of(
    st.builds(rescale_elliptic, st.integers(1, 2).map(phi04), st.sampled_from((1, 2, 3, 8))),
    st.integers(-3, 3).map(_one_term))


def _product(factors):
    product = factors[0]
    for factor in factors[1:]:
        product = direct_product(product, factor)
    assert product._terms is None
    return product


PACKED_FOUR = st.lists(FACTORS, min_size=4, max_size=4).map(_product)
# four factors of one term make one row; two of them first and two of
# grade 0 put every row under one head; two of them last leave every
# (n, l_0, l_1), and so every head, distinct
PACKED_SHAPES = {
    "one row": [_one_term(1), _one_term(-2), _one_term(3), _one_term(0)],
    "one head": [_one_term(1), _one_term(-1), phi04(1), rescale_elliptic(phi04(1), 3)],
    "distinct heads": [phi04(2), rescale_elliptic(phi04(2), 3), _one_term(1), _one_term(-1)],
}


def check_shared_heads(series):
    """The text and the rows of the emitted series against json.dumps of
    its rows, the rows of the parsed text and the Fraction-sorting oracle,
    which decodes the terms of a packed series, so it runs last."""
    doc = emit_series(series)
    rows = doc["terms"]
    assert type(rows) is Rows
    text = canonical_dumps(doc)
    assert text == oracle_dumps(listed(doc))
    assert list(rows) == json.loads(text)["terms"]
    assert text == canonical_dumps(oracle_emit_series(series))


# no shrinking, as in test_rows_write_what_json_dumps_writes_of_their_rows
@settings(max_examples=200, deadline=None, derandomize=True,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.one_of(shared_head_series(), PACKED_FOUR))
@example(_product(PACKED_SHAPES["one row"]))
@example(_product(PACKED_SHAPES["one head"]))
@example(_product(PACKED_SHAPES["distinct heads"]))
def test_rows_write_each_shared_head_once(series):
    check_shared_heads(series)


def test_packed_examples_have_their_shapes():
    sizes = {}
    for shape, factors in PACKED_SHAPES.items():
        heads, tails = emit_series(_product(factors))["terms"].heads
        sizes[shape] = len(heads), len(set(heads)), len(set(tails))
    assert sizes["one row"] == (1, 1, 1)
    rows, heads, tails = sizes["one head"]
    assert heads == 1 and tails == rows > 1
    rows, heads, tails = sizes["distinct heads"]
    assert heads == rows > 1 and tails == 1


def test_emitting_a_packed_series_decodes_no_key(monkeypatch):
    phi = phi_n(4, 2)

    def refuse(packing, packed):
        raise AssertionError("the packed terms were decoded")

    monkeypatch.setattr(_Packing, "unpack", refuse)
    doc = emit_series(phi)
    text = canonical_dumps(doc)
    assert text == (Path(__file__).resolve().parent / "golden" / "phi_n4_prec2.json").read_text()
    assert list(doc["terms"]) == json.loads(text)["terms"]
    assert phi._terms is None


# -- duplicates spelled differently, and parse_frac's messages ---------------------------


def _series(terms):
    return {"gram": [[8]], "weight": "0", "q_den": 1, "prec": "5",
            "form_class": "raw", "terms": terms}


def _vvform(components):
    return {"gram": [[8]], "weight": "-1/2", "components": components}


def _expansion(terms):
    zero = ["0"]
    return {"gram": [[8]], "weight": "0", "holomorphic": "unknown", "total_prec": "4",
            "weyl": {"A": "0", "B": zero, "C": "0", "w0": ["1"]}, "terms": terms}


@pytest.mark.parametrize("n, m", [(-1, 2), (0, -2), (1, 3), (-3, 40)],
                         ids=["negative-n", "negative-m", "total-degree", "negative-n-large-m"])
def test_expansion_monomials_lie_below_total_prec(n, m):
    # total_prec 4; the first term, of total degree 3, is the largest allowed
    doc = _expansion([{"n": "0", "l": ["0"], "m": "3", "c": "1"},
                      {"n": str(n), "l": ["0"], "m": m, "c": "1"}])
    with pytest.raises(SchemaViolation) as excinfo:
        parse_expansion(doc)
    assert str(excinfo.value) == f"$.terms[1]: monomial n={n}, m={m} is not in n, m >= 0, n + m < 4"


@pytest.mark.parametrize("parse, doc, message", [
    (parse_series, _series([{"n": "1", "l": ["1/2"], "c": "1"},
                            {"n": "1", "l": ["2/4"], "c": "1"}]),
     "$.terms[1]: duplicate term at n=1"),
    (parse_series, _series([{"n": "3", "l": ["0"], "c": "1"},
                            {"n": 3, "l": ["0"], "c": "2"}]),
     "$.terms[1]: duplicate term at n=3"),
    (parse_series, _series([{"n": "3", "l": [3], "c": "1"},
                            {"n": 3, "l": ["3"], "c": "x"}]),
     "$.terms[1]: duplicate term at n=3"),
    (parse_vvform, _vvform([{"gamma": ["1/8"], "prec": "1", "terms": []},
                            {"gamma": ["2/16"], "prec": "1", "terms": []}]),
     "$.components[1].gamma: duplicate component"),
    (parse_vvform, _vvform([{"gamma": ["1/8"], "prec": "1", "terms": [
        {"e": "-1/2", "c": "1"}, {"e": "-2/4", "c": "1"}]}]),
     "$.components[0].terms[1]: duplicate exponent -1/2"),
    (parse_principal_part, {"gram": [[8]], "constant_term": 0, "terms": [
        {"gamma": ["1/8"], "exp": "-1/16", "c": 1},
        {"gamma": ["9/8"], "exp": "-2/32", "c": "x"}]},
     "$.terms[1]: duplicate term for this coset and exponent"),
    (parse_expansion, _expansion([{"n": "1", "l": ["1/2"], "m": "0", "c": "1"},
                                  {"n": 1, "l": ["2/4"], "m": "0", "c": "1"}]),
     "$.terms[1]: duplicate monomial"),
], ids=["series-label", "series-int", "series-bad-c", "vvform-gamma",
        "vvform-exponent", "principal-part", "expansion"])
def test_duplicate_spelled_differently(parse, doc, message):
    with pytest.raises(SchemaViolation) as excinfo:
        parse(doc)
    assert str(excinfo.value) == message


def _second_label(entry, name, text):
    # "1" is in the memo when the second term is read, and True == 1
    doc = _series([{"n": "1", "l": ["1"], "c": "1"}, {"n": 1, "l": [entry], "c": "1"}])
    message = f"$.terms[1].l[0]: {text}"
    return pytest.param(parse_series, doc, message, id=f"{name}-{message}")


def _principal_part(gamma, exp):
    return {"gram": [[8]], "constant_term": 0, "terms": [
        {"gamma": ["1"], "exp": "-1", "c": 1}, {"gamma": gamma, "exp": exp, "c": 1}]}


def _weyl(b, w0):
    return dict(_expansion([]), weyl={"A": "0", "B": b, "C": "0", "w0": w0})


@pytest.mark.parametrize("parse, doc, message", [
    _second_label(True, "True", "expected a rational, got a boolean"),
    _second_label("1/0", "1/0", "'1/0' is not a rational p/q"),
    _second_label(0.5, "0.5", "expected a rational string, got float"),
    _second_label([1], "entry3", "expected a rational string, got list"),
    pytest.param(parse_principal_part, _principal_part([True], "-1"),
                 "$.terms[1].gamma[0]: expected a rational, got a boolean",
                 id="principal-part-gamma"),
    pytest.param(parse_principal_part, _principal_part(["1"], "1/0"),
                 "$.terms[1].exp: '1/0' is not a rational p/q", id="principal-part-exp"),
    pytest.param(parse_expansion, _expansion([{"n": "0", "l": ["1"], "m": "0", "c": "1"},
                                              {"n": "0", "l": [0.5], "m": "1", "c": "1"}]),
                 "$.terms[1].l[0]: expected a rational string, got float", id="expansion-l"),
    pytest.param(parse_expansion, _weyl(["1", True], ["1"]),
                 "$.weyl.B[1]: expected a rational, got a boolean", id="expansion-weyl-B"),
    pytest.param(parse_expansion, _weyl(["1"], [[1]]),
                 "$.weyl.w0[0]: expected a rational string, got list", id="expansion-weyl-w0"),
    pytest.param(parse_vvform, dict(_vvform([]), weight=True),
                 "$.weight: expected a rational, got a boolean", id="vvform-weight"),
    # a list shorter than det goes to the entry loop
    pytest.param(parse_vvform, _vvform([{"gamma": ["1"], "prec": "1", "terms": []},
                                        {"gamma": ["1/0"], "prec": "1", "terms": []}]),
                 "$.components[1].gamma[0]: '1/0' is not a rational p/q", id="vvform-gamma"),
])
def test_memoised_rationals_keep_parse_frac_messages(parse, doc, message):
    with pytest.raises(SchemaViolation) as excinfo:
        parse(doc)
    assert str(excinfo.value) == message


# -- parse_vvform on integer cosets against the Fraction parser -------------------------


def _outcome(parse, doc):
    """The parsed form, or the message of the SchemaViolation raised."""
    try:
        return parse(doc)
    except SchemaViolation as exc:
        return str(exc)


def _as_ints(doc):
    """doc with every integral gamma entry and precision written as a JSON
    integer, which parse_frac reads as well as a string."""
    for comp in doc["components"]:
        comp["gamma"] = [_int_or_str(x) for x in comp["gamma"]]
        comp["prec"] = _int_or_str(comp["prec"])
    return doc


def _int_or_str(value):
    x = F(value)
    return x.numerator if x.denominator == 1 else value


def _spelling(draw, value, shift=False):
    """value written another way: not in lowest terms, as a JSON integer when
    integral, and shifted by an integer when shift is set."""
    x = F(value) + (draw(st.integers(-2, 2)) if shift else 0)
    m = draw(st.sampled_from((1, 2, 3)))
    if x.denominator == 1 and m == 1 and draw(st.booleans()):
        return x.numerator
    return f"{x.numerator * m}/{x.denominator * m}"


# components of the wrong shape, which the column reader leaves to the entry loop
MALFORMED = ("not_dict", "missing_key", "extra_key", "renamed_key", "gamma_not_list",
             "gamma_length", "gamma_entry", "prec_other", "terms_not_list", "bad_term",
             "bad_e", "bad_c", "duplicate_e")


def _malformed(draw, comp, kind):
    """A copy of the well-formed component comp with one field of the wrong
    shape, or comp replaced by a value that is not a dict."""
    comp = dict(comp)
    odd = st.sampled_from((None, True, "x", "1/0", [], {}))  # neither rational nor integer
    if kind == "not_dict":
        return draw(st.sampled_from((None, comp["gamma"], [comp], comp["prec"])))
    if kind == "missing_key":
        del comp[draw(st.sampled_from(sorted(comp)))]
    elif kind == "extra_key":
        comp["gammas"] = comp["gamma"]
    elif kind == "renamed_key":
        comp["gammas"] = comp.pop(draw(st.sampled_from(sorted(comp))))
    elif kind == "gamma_not_list":
        comp["gamma"] = draw(st.sampled_from((None, "0", 0, {"0": "0"})))
    elif kind == "gamma_length":
        comp["gamma"] = draw(st.sampled_from((comp["gamma"][1:], comp["gamma"] + ["0"])))
    elif kind == "gamma_entry":
        gamma = comp["gamma"] = list(comp["gamma"])
        gamma[draw(st.integers(0, len(gamma) - 1))] = draw(odd)
    elif kind == "prec_other":
        comp["prec"] = draw(odd | st.just([comp["prec"]]))
    elif kind == "terms_not_list":
        comp["terms"] = draw(st.sampled_from((None, "", {}, {"e": "1", "c": "1"})))
    elif kind == "bad_term":
        comp["terms"] = comp["terms"] + [draw(st.sampled_from(
            ("1", None, [], {"e": "1"}, {"e": "1", "c": "1", "n": "1"})))]
    elif kind == "bad_e":
        comp["terms"] = comp["terms"] + [{"e": draw(odd), "c": "1"}]
    elif kind == "bad_c":
        comp["terms"] = comp["terms"] + [{"e": "7", "c": draw(odd | st.just("1/2"))}]
    else:  # the exponent of a term, spelled another way
        terms = comp["terms"] or [{"e": "1", "c": "2"}]
        e = terms[draw(st.integers(0, len(terms) - 1))]["e"]
        comp["terms"] = terms + [{"e": _spelling(draw, e), "c": "5"}]
    return comp


@st.composite
def vvform_documents(draw):
    """Emitted vvform documents with up to three mutations, then shuffled:
    respelled or unreduced gammas and precisions, duplicate and missing
    cosets, a gamma replaced by that of another coset, precisions off by
    one, gammas replaced by random vectors, most of them not dual, and
    integral values written as JSON integers. Half of them then get one
    component of the wrong shape (MALFORMED)."""
    form = draw(vvforms())
    doc = json.loads(canonical_dumps(emit_vvform(form)))
    comps = doc["components"]
    for kind in draw(st.lists(st.sampled_from(
            ("respell", "duplicate", "drop", "twin", "prec", "all_precs", "non_dual", "ints")),
            max_size=3)):
        comp = comps[draw(st.integers(0, len(comps) - 1))]
        if kind == "respell":
            comp["gamma"] = [_spelling(draw, x, shift=True) for x in comp["gamma"]]
            comp["prec"] = _spelling(draw, comp["prec"])
        elif kind == "duplicate":
            twin = dict(comp, gamma=[_spelling(draw, x, shift=True) for x in comp["gamma"]])
            comps.insert(draw(st.integers(0, len(comps))), twin)
        elif kind == "drop":
            comps.remove(comp)
        elif kind == "twin":  # as many entries as cosets, one of them twice
            other = draw(st.sampled_from(comps))
            comp["gamma"], comp["prec"] = list(other["gamma"]), other["prec"]
        elif kind == "prec":
            comp["prec"] = frac_str(F(comp["prec"]) + draw(st.sampled_from((-1, 1))))
        elif kind == "all_precs":
            for c in comps:
                c["prec"] = frac_str(F(c["prec"]) + 1)
        elif kind == "ints":
            _as_ints(doc)
        else:
            comp["gamma"] = emit_vector(draw(vectors(form.lattice)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(comps) - 1))
        comps[i] = _malformed(draw, comps[i], draw(st.sampled_from(MALFORMED)))
    doc["components"] = draw(st.permutations(comps))
    return doc


def _with_gamma(lattice, gamma):
    """The zero form's document on lattice with the gamma of its second
    component replaced."""
    doc = tree(emit_vvform(VectorValuedForm(lattice, F(-lattice.rank, 2), {}, F(1))))
    doc["components"][1]["gamma"] = gamma
    return doc


# 3 does not divide the group exponent 8; 24 divides the exponent of
# [[16, 8], [8, 16]], whose group is Z/8 x Z/24, but (1/24, 0) is not dual
NON_DUAL = [_with_gamma(LATTICES[0], ["1/3"]), _with_gamma(LATTICES[1], ["1/24", "0"])]


@pytest.mark.parametrize("doc", NON_DUAL, ids=["denominator", "pairing"])
def test_vvform_rejects_non_dual_gamma(doc):
    with pytest.raises(SchemaViolation) as excinfo:
        parse_vvform(doc)
    assert str(excinfo.value) == "$.components[1].gamma: not in the dual lattice"


@pytest.mark.parametrize("lattice, gamma", [(LATTICES[0], ["1/3"]),
                                            (LATTICES[1], ["1/24", "0"])],
                         ids=["denominator", "pairing"])
def test_principal_part_rejects_non_dual_gamma_by_message(lattice, gamma):
    # the gammas of NON_DUAL, in the second term of a principal part
    zero = ["0"] * lattice.rank
    doc = {"gram": [list(row) for row in lattice.gram], "constant_term": 0, "terms": [
        {"gamma": zero, "exp": "-1", "c": 1}, {"gamma": gamma, "exp": "-1", "c": 1}]}
    with pytest.raises(SchemaViolation) as excinfo:
        parse_principal_part(doc)
    assert str(excinfo.value) == "$.terms[1].gamma: not in the dual lattice"


def _diag8_doc(gammas, drop=None, twin=None):
    """The zero form's document on diag(8, 8), one entry per coset, with the
    gammas at the given indices replaced, the entry at index drop removed,
    and a copy of the first entry with its gamma shifted by (1, 2) inserted
    at index twin."""
    doc = tree(emit_vvform(VectorValuedForm(LATTICES[2], F(-1), {}, F(1))))
    comps = doc["components"]
    for i, gamma in gammas.items():
        comps[i]["gamma"] = gamma
    if drop is not None:
        del comps[drop]
    if twin is not None:
        comps.insert(twin, dict(comps[0], gamma=["1", "2"]))
    return doc


# (1/16, 0) has denominators dividing det = 64 but pairs to 1/2 with e_1: all
# det entries, so the coset table refuses it; det - 1 entries, so the gram test
# does; and det + 1 entries whose duplicate comes first
TABLE_ROUTE = _diag8_doc({63: ["1/16", "0"]})
GRAM_ROUTE = _diag8_doc({5: ["1/16", "0"]}, drop=9)
SHORT = _diag8_doc({}, drop=9)
DUPLICATE_FIRST = _diag8_doc({5: ["1/16", "0"]}, twin=1)
# det entries, the last a copy of the first
TWIN_LAST = _diag8_doc({}, drop=63, twin=64)
# JSON booleans where they equal the value they replace: bool is an int
# type in Python, but parse_frac refuses it
BOOL_GAMMA = _diag8_doc({0: [False, "0"]})
BOOL_PREC = _diag8_doc({})
BOOL_PREC["components"][0]["prec"] = True


def _with_zeros(whole_component):
    """The phi_2 vvform document and the constructor's form of it, with a
    zero coefficient added to the first nonzero component, or with every
    coefficient of that component set to zero."""
    form = theta_decompose(phi_n(2, 4))
    doc = tree(emit_vvform(form))
    comp = next(comp for comp in doc["components"] if comp["terms"])
    if whole_component:
        for term in comp["terms"]:
            term["c"] = "0"
    else:
        comp["terms"].append({"e": frac_str(F(comp["terms"][-1]["e"]) + 1), "c": "0"})
    components = {tuple(map(F, comp["gamma"])): {F(t["e"]): int(t["c"]) for t in comp["terms"]}
                  for comp in doc["components"]}
    return doc, VectorValuedForm(form.lattice, form.weight, components, form.prec)


ZERO_TERM, ZERO_COMPONENT = _with_zeros(False), _with_zeros(True)


@pytest.mark.parametrize("doc, form", [ZERO_TERM, ZERO_COMPONENT],
                         ids=["zero-term", "zero-component"])
def test_vvform_parse_drops_zero_coefficients(doc, form):
    parsed = parse_vvform(doc)
    assert parsed == form == oracle_parse_vvform(doc)
    assert all(all(fg.values()) for fg in parsed.components.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vvform_documents())
@example(ZERO_TERM[0])
@example(ZERO_COMPONENT[0])
@example(NON_DUAL[0])
@example(NON_DUAL[1])
@example(TABLE_ROUTE)
@example(GRAM_ROUTE)
@example(SHORT)
@example(DUPLICATE_FIRST)
def test_vvform_parse_matches_fraction_oracle(doc):
    assert _outcome(parse_vvform, doc) == _outcome(oracle_parse_vvform, doc)


@pytest.mark.parametrize("doc, message", [
    (TABLE_ROUTE, "$.components[63].gamma: not in the dual lattice"),
    (GRAM_ROUTE, "$.components[5].gamma: not in the dual lattice"),
    (SHORT, "$.components: has 63 of 64 cosets"),
    (DUPLICATE_FIRST, "$.components[1].gamma: duplicate component"),
], ids=["table", "gram", "short", "duplicate-first"])
def test_vvform_routes_report_the_first_error(doc, message):
    with pytest.raises(SchemaViolation) as excinfo:
        parse_vvform(doc)
    assert str(excinfo.value) == message


def _read(read, *args):
    """What a component reader returns, its terms keyed by the exponents
    themselves instead of their interned indices; None when it gives up."""
    ids = _Interned()
    out = read(*args, ids)
    if out is None:
        return None
    components, prec = out
    return {key: {ids.values[i]: c for i, c in fg.items()}
            for key, fg in components.items()}, prec


def _columns_of(doc):
    return _read(_columns, doc["components"], parse_lattice({"gram": doc["gram"]}))


def _entries_of(doc):
    return _read(_entries, doc["components"], "$", parse_lattice({"gram": doc["gram"]}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vvform_documents())
@example(ZERO_TERM[0])
@example(TABLE_ROUTE)
@example(DUPLICATE_FIRST)
@example(TWIN_LAST)
@example(BOOL_GAMMA)
@example(BOOL_PREC)
def test_column_reader_agrees_with_the_entry_loop(doc):
    # the reader raises nothing; what it reads, the loop reads the same
    read = _columns_of(doc)
    if read is not None:
        assert read == _entries_of(doc)


@settings(max_examples=100, deadline=None)
@given(vvforms(), st.booleans(), st.booleans(), st.data())
def test_column_reader_reads_emitted_documents(form, shuffle, ints, data):
    # a reader that always gave up would pass every other test
    doc = json.loads(canonical_dumps(emit_vvform(form)))
    if shuffle:
        doc = shuffled(data, doc, "components")
    if ints:
        doc = _as_ints(doc)
    read = _columns_of(doc)
    assert read is not None and read == _entries_of(doc)


PHI_2_VVFORM = canonical_dumps(emit_vvform(theta_decompose(phi_n(2, 4))))


@pytest.mark.parametrize("kind", MALFORMED)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_column_reader_leaves_malformed_components_to_the_loop(kind, data):
    doc = json.loads(PHI_2_VVFORM)
    comps = doc["components"]
    i = data.draw(st.integers(0, len(comps) - 1))
    comps[i] = _malformed(data.draw, comps[i], kind)
    assert _columns_of(doc) is None
    assert _outcome(parse_vvform, doc) == _outcome(oracle_parse_vvform, doc)


def test_column_reader_reads_4096_cosets():
    form = theta_decompose(phi_n(4, 1))
    doc = json.loads(canonical_dumps(emit_vvform(form)))
    doc["components"].reverse()
    read = _columns_of(doc)
    assert read is not None and read == _entries_of(doc)
    assert parse_vvform(doc) == form


def test_short_vvform_is_refused_without_listing_cosets():
    # 2^70 cosets: a document that lists fewer is refused without listing the
    # coset table, which it could never fill; a parse that lists it is
    # stopped after 1 s, before it can fill the memory
    doc = {"gram": [[2 ** 70]], "weight": "-1/2",
           "components": [{"gamma": ["0"], "prec": "1", "terms": []}]}

    def too_slow(signum, frame):
        raise TimeoutError("parse_vvform ran for 1 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(SchemaViolation) as excinfo:
            parse_vvform(doc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert str(excinfo.value) == "$.components: has 1 of 1180591620717411303424 cosets"


# -- parse_series on interned rationals against the Fraction parser ----------------------


def _series_outcome(parse, doc):
    """Every stored field of the parsed series, or the message of the
    SchemaViolation raised."""
    try:
        phi = parse(doc)
    except SchemaViolation as exc:
        return str(exc)
    return (phi.lattice, phi.weight, phi.prec, phi.q_den, phi.den, phi.form_class, phi.terms)


BAD_RATIONALS = ("1/0", "x", True, 0.5, [1], None, "0.5", "1e3", " 1/2 ", "+1/2")
BAD_COEFFICIENTS = ("x", "1/2", True, 1.5, None, [])


@st.composite
def series_documents(draw):
    """Emitted series documents with one to four mutations, then shuffled:
    respelled and unreduced rationals, duplicate terms spelled differently,
    exponents off the 1/q_den grid, labels of the wrong length, malformed
    rationals and coefficients, zero coefficients, and a weight or q_den the
    constructor refuses."""
    doc = json.loads(canonical_dumps(emit_series(draw(jacobi_series()))))
    terms = doc["terms"]
    # in this order, so that only well-formed rationals are respelled
    kinds = ("respell", "duplicate", "off_grid", "length", "zero_c", "header", "bad_rational",
             "bad_c")
    # duplicates drawn twice as often, so that one often precedes another error
    drawn = draw(st.lists(st.sampled_from(kinds + ("duplicate",)), min_size=1, max_size=4))
    for kind in sorted(drawn, key=kinds.index):
        if kind == "header":
            field, value = draw(st.sampled_from((("weight", "1/3"), ("q_den", 0),
                                                 ("q_den", 3), ("prec", "0"))))
            doc[field] = value
            continue
        if not terms:
            continue
        term = terms[draw(st.integers(0, len(terms) - 1))]
        if kind == "respell":
            term["n"] = _spelling(draw, term["n"])
            term["l"] = [_spelling(draw, x) for x in term["l"]]
        elif kind == "duplicate":
            twin = dict(term, n=_spelling(draw, term["n"]),
                        l=[_spelling(draw, x) for x in term["l"]],
                        c=draw(st.sampled_from((term["c"], "7", "x"))))
            terms.insert(draw(st.integers(0, len(terms))), twin)
        elif kind == "off_grid":
            term["n"] = frac_str(F(term["n"]) + F(1, 3 * doc["q_den"]))
        elif kind == "length":
            term["l"] = draw(st.sampled_from((term["l"][1:], term["l"] + ["0"])))
        elif kind == "bad_rational":
            bad = draw(st.sampled_from(BAD_RATIONALS))
            if draw(st.booleans()):
                term["n"] = bad
            else:
                term["l"] = [bad] + term["l"][1:]
        elif kind == "bad_c":
            term["c"] = draw(st.sampled_from(BAD_COEFFICIENTS))
        else:
            term["c"] = "0"
    doc["terms"] = draw(st.permutations(terms))
    return doc


def _weak(terms):
    return {"gram": [[8]], "weight": "0", "q_den": 1, "prec": "3",
            "form_class": WEAK_JACOBI, "terms": terms}


# a duplicate spelled differently before a malformed coefficient and before a
# label of the wrong length: the duplicate is the first error
DUPLICATE_BEFORE_BAD_C = _weak([{"n": "1", "l": ["1/2"], "c": "1"},
                                {"n": "2/2", "l": ["2/4"], "c": "1"},
                                {"n": "2", "l": ["0"], "c": "x"}])
DUPLICATE_BEFORE_LENGTH = _weak([{"n": "0", "l": ["1/8"], "c": "1"},
                                 {"n": "0", "l": ["2/16"], "c": "2"},
                                 {"n": "1", "l": ["0", "0"], "c": "1"}])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(series_documents())
@example(DUPLICATE_BEFORE_BAD_C)
@example(DUPLICATE_BEFORE_LENGTH)
# off the grid, but at or above prec, so the constructor drops the term
@example(_weak([{"n": "7/2", "l": ["0"], "c": "1"}, {"n": "1", "l": ["1/8"], "c": "2"}]))
# off the grid below prec with a zero coefficient, dropped too
@example(_weak([{"n": "1/2", "l": ["0"], "c": "0"}, {"n": "1", "l": ["1/8"], "c": "2"}]))
def test_series_parse_matches_fraction_oracle(doc):
    assert _series_outcome(parse_series, doc) == _series_outcome(oracle_parse_series, doc)


def test_series_parse_reports_the_first_error():
    for doc in (DUPLICATE_BEFORE_BAD_C, DUPLICATE_BEFORE_LENGTH):
        with pytest.raises(SchemaViolation) as excinfo:
            parse_series(doc)
        assert str(excinfo.value) == f"$.terms[1]: duplicate term at n={doc['terms'][0]['n']}"


def test_vvform_io_reads_integer_minima():
    # diag(8)^4: 4096 cosets, 81 of them nonzero
    form = theta_decompose(phi_n(4, 1))
    # the minima are the integer record only: there is no Fraction view to build
    minima = form.lattice.coset_minima()
    assert type(minima) is CosetMinima and minima._fields == ("gden", "qden", "table")
    with pytest.raises(TypeError):
        minima[(F(0),) * 4]
    doc = emit_vvform(form)
    assert len(doc["components"]) == 4096
    back = parse_vvform(json.loads(canonical_dumps(doc)))
    assert back == form and len(back.components) == 81
    assert emit_vvform(back) == doc


# -- one grammar for rationals, and the series column reader ------------------------------


# spellings that Fraction(str) reads but that are not "p/q" or "p" in ASCII digits
NOT_P_OVER_Q = ("0.5", "1e3", " 1/2 ", "1_000", "+1/2", "\u0663", "1/2\n", "-0.25e1", "1/+2",
                "")


@pytest.mark.parametrize("text", NOT_P_OVER_Q)
def test_parse_frac_reads_p_over_q_only(text):
    with pytest.raises(SchemaViolation) as excinfo:
        parse_frac(text, "$.x")
    assert str(excinfo.value) == f"$.x: {text!r} is not a rational p/q"


def test_parse_frac_reads_unreduced_negative_and_integer_values():
    assert parse_frac("2/4", "$") == F(1, 2)
    assert parse_frac("-3", "$") == -3
    assert parse_frac("-6/4", "$") == F(-3, 2)
    assert parse_frac(0, "$") == 0 and type(parse_frac(0, "$")) is F


@pytest.mark.parametrize("text", NOT_P_OVER_Q)
def test_every_reader_refuses_what_parse_frac_refuses(text):
    # both readers of parse_series and both of parse_vvform: the column
    # readers leave the document to the loops, which give parse_frac's message
    for field, path in (("n", "$.terms[1].n"), ("l", "$.terms[1].l[0]")):
        doc = json.loads(canonical_dumps(emit_series(phi_n(1, 2))))
        doc["terms"][1][field] = [text] if field == "l" else text
        assert _series_columns(doc["terms"], 1) is None
        assert _series_outcome(parse_series, doc) == f"{path}: {text!r} is not a rational p/q"
    for field, path in (("gamma", "$.components[1].gamma[0]"), ("prec", "$.components[1].prec")):
        doc = json.loads(PHI_2_VVFORM)
        comp = doc["components"][1]
        comp[field] = [text] + comp["gamma"][1:] if field == "gamma" else text
        assert _columns_of(doc) is None
        assert _outcome(parse_vvform, doc) == f"{path}: {text!r} is not a rational p/q"


def _series_read(read, terms, rank):
    """What a series term reader returns, keyed by the rationals themselves
    instead of their interned indices; None when it gives up."""
    out = read(terms, rank) if read is _series_columns else read(terms, "$", rank)
    if out is None:
        return None
    ns, flat, cs, values = out
    labels = zip(*[iter(flat)] * rank)
    return [((values[n], tuple(values[x] for x in l)), c) for n, l, c in zip(ns, labels, cs)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(series_documents())
@example(DUPLICATE_BEFORE_BAD_C)
@example(DUPLICATE_BEFORE_LENGTH)
def test_series_column_reader_agrees_with_the_term_loop(doc):
    # the reader raises nothing; what it reads, the loop reads the same, in
    # the same order
    rank = len(doc["gram"])
    read = _series_read(_series_columns, doc["terms"], rank)
    if read is not None:
        assert read == _series_read(_series_terms, doc["terms"], rank)


@pytest.mark.parametrize("path", [p for p in GOLDEN_FILES if p.name.startswith("phi_")],
                         ids=lambda p: p.name)
def test_canonical_series_never_enters_the_term_loop(path, monkeypatch):
    doc = load_json(path)
    expected = _series_outcome(oracle_parse_series, doc)

    def refuse(*args):
        raise AssertionError("a canonical series document went through the term loop")

    monkeypatch.setattr(kit_io, "_series_terms", refuse)
    assert _series_outcome(parse_series, doc) == expected
    # reversed terms, and integral rationals written as JSON integers
    doc["terms"].reverse()
    for term in doc["terms"]:
        term["n"] = _int_or_str(term["n"])
        term["l"] = [_int_or_str(x) for x in term["l"]]
    assert _series_outcome(parse_series, doc) == expected


@settings(max_examples=100, deadline=None)
@given(jacobi_series(), st.data())
def test_series_column_reader_reads_emitted_documents(series, data):
    # a reader that always gave up would pass every other test
    doc = shuffled(data, json.loads(canonical_dumps(emit_series(series))), "terms")
    rank = series.lattice.rank
    read = _series_read(_series_columns, doc["terms"], rank)
    assert read is not None and read == _series_read(_series_terms, doc["terms"], rank)


def test_interned_hashes_each_new_rational_once(monkeypatch):
    # Fraction.__hash__ runs in Python: a new value is hashed once to intern
    # it, a string seen before is not parsed or hashed as a Fraction at all
    hashed = []
    fraction_hash = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
    ids = _Interned()
    indices = [ids.of(value, "$") for value in ("1/2", "2/4", "1/2", 3, "-1/3", "3")]
    assert indices == [0, 0, 0, 1, 2, 1]
    assert ids.values == [F(1, 2), F(3), F(-1, 3)]
    assert hashed == [F(1, 2), F(1, 2), F(3), F(-1, 3), F(3)]
