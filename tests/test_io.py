"""Round-trip and schema tests for the canonical JSON formats."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from borcherdskit.errors import SchemaViolation
from borcherdskit.io import (
    canonical_dumps,
    emit_expansion,
    emit_lattice,
    emit_principal_part,
    emit_series,
    emit_vvform,
    frac_str,
    load_json,
    parse_expansion,
    parse_frac,
    parse_lattice,
    parse_principal_part,
    parse_series,
    parse_vvform,
)
from borcherdskit.lift import lift_expansion
from borcherdskit.series import phi04, theta_decompose, theta_sum

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_frac_str_lowest_terms():
    assert frac_str(F(2, 4)) == "1/2"
    assert frac_str(F(-3, 9)) == "-1/3"
    assert frac_str(F(5)) == "5"
    assert frac_str(0) == "0"


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
    doc = emit_series(p)
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
    doc = emit_series(theta_sum(3))
    doc["terms"] = doc["terms"] + [doc["terms"][0]]
    with pytest.raises(SchemaViolation, match="duplicate"):
        parse_series(doc)


def test_series_rejects_off_grid_exponent():
    doc = emit_series(theta_sum(3))
    doc["terms"][0]["n"] = "1/3"
    with pytest.raises(SchemaViolation):
        parse_series(doc)


def test_vvform_round_trip():
    vv = theta_decompose(phi04(4))
    doc = emit_vvform(vv)
    back = parse_vvform(doc)
    assert back.components == vv.components
    assert back.precisions == vv.precisions
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
    doc = emit_expansion(e)
    back = parse_expansion(doc)
    assert back.coeffs == e.coeffs
    assert back.weyl == e.weyl
    assert back.total_prec == e.total_prec
    assert back.holomorphic == "unknown"
    assert emit_expansion(back) == doc


def _series_doc():
    return emit_series(phi04(2))


def _vvform_doc():
    return emit_vvform(theta_decompose(phi04(2)))


def _principal_part_doc():
    return json.loads((FIXTURES / "example1.json").read_text())


def _expansion_doc():
    return emit_expansion(lift_expansion(phi04(4), 4, (1,)))


@pytest.mark.parametrize("make_doc, parse, field, path", [
    (_series_doc, parse_series, ("terms", "l"), r"\$\.terms\[0\]\.l:"),
    (_vvform_doc, parse_vvform, ("components", "gamma"), r"\$\.components\[0\]\.gamma:"),
    (_principal_part_doc, parse_principal_part, ("terms", "gamma"), r"\$\.terms\[0\]\.gamma:"),
    (_expansion_doc, parse_expansion, ("terms", "l"), r"\$\.terms\[0\]\.l:"),
], ids=["series", "vvform", "principal_part", "expansion"])
def test_wrong_length_vector_names_its_path(make_doc, parse, field, path):
    doc = make_doc()
    entries, key = field
    doc[entries][0][key] = doc[entries][0][key] + ["0"]
    with pytest.raises(SchemaViolation, match=path + " vector has length"):
        parse(doc)


def test_load_json_reports_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaViolation, match="not valid JSON"):
        load_json(bad)
