"""Byte-identical CLI output on a fixed corpus.

Each file under tests/golden/ is the stdout of one command, recorded before
the emitters and parsers moved onto integer keys; the lattice-info, criterion
and congruence files were recorded before canonical_dumps stopped calling
json.dumps, the rank-3 lift file, whose monomials carry four integer
digits, before the product kernel packed its keys into ints, and the rank-3
principal part before parse_series read its terms on integer keys; the
rank-2 weyl and lift files with the chamber vector (1, -1/3) were recorded
before the Weyl data and the chamber test moved onto integers, and before
the lift applied the factors of one high degree in one pass; the rank-4
series file, the first whose rows share label entries before the last two,
before emit_series wrote the text of each shared head once.
The commands run in-process through cli.main; a command that
reads a series gets another corpus file on stdin, so the corpus also pins
parse -> compute -> emit.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from borcherdskit.cli import main
from borcherdskit.io import Rows, canonical_dumps, emit_principal_part, emit_vvform, parse_vvform
from borcherdskit.lift import OrthogonalExpansion, PrincipalPart, principal_part
from borcherdskit.series import (
    JacobiSeries,
    VectorValuedForm,
    _Packing,
    phi_n,
    recompose,
    theta_decompose,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLE1 = str(ROOT / "fixtures" / "example1.json")
EXAMPLE2 = str(ROOT / "fixtures" / "example2.json")
GRAM_EX1 = str(ROOT / "fixtures" / "gram_ex1.json")
GRAM_EX2 = str(ROOT / "fixtures" / "gram_ex2.json")

# (file, argv, file piped to stdin or None)
CORPUS = [
    ("phi_n1_prec16.json", ["phi", "--n", "1", "--prec", "16"], None),
    ("phi_n2_prec4.json", ["phi", "--n", "2", "--prec", "4"], None),
    ("phi_n3_prec3.json", ["phi", "--n", "3", "--prec", "3"], None),
    ("phi_n4_prec2.json", ["phi", "--n", "4", "--prec", "2"], None),
    ("decompose_phi_n2_prec4.json", ["decompose"], "phi_n2_prec4.json"),
    ("decompose_phi_n3_prec3.json", ["decompose"], "phi_n3_prec3.json"),
    ("principal_part_phi_n2_prec4.json", ["principal-part"], "phi_n2_prec4.json"),
    ("principal_part_phi_n3_prec3.json", ["principal-part"], "phi_n3_prec3.json"),
    ("weyl_phi_n2_prec4.json", ["weyl"], "phi_n2_prec4.json"),
    ("weyl_phi_n2_prec4_w0skew.json", ["weyl", "--w0", "1,-1/3"], "phi_n2_prec4.json"),
    ("lift_phi_n1_prec16_deg8.json", ["lift", "--prec", "8"], "phi_n1_prec16.json"),
    ("lift_phi_n2_prec4_deg4.json", ["lift", "--prec", "4"], "phi_n2_prec4.json"),
    ("lift_phi_n2_prec4_deg4_w0skew.json", ["lift", "--prec", "4", "--w0", "1,-1/3"],
     "phi_n2_prec4.json"),
    ("lift_phi_n3_prec3_deg2.json", ["lift", "--prec", "2"], "phi_n3_prec3.json"),
    ("validate_pp_example1.json", ["validate-pp", EXAMPLE1, "--format", "json"], None),
    ("lattice_info_gram_ex1.json", ["lattice-info", GRAM_EX1, "--format", "json"], None),
    ("criterion_gram_ex2.json", ["criterion", GRAM_EX2, "--format", "json"], None),
    ("congruence_phi_n2_prec4.json", ["congruence", "--format", "json"], "phi_n2_prec4.json"),
]


def read(name):
    with open(GOLDEN / name, encoding="utf-8", newline="") as handle:
        return handle.read()


@pytest.mark.parametrize("name, argv, stdin", CORPUS, ids=[c[0] for c in CORPUS])
def test_cli_output_is_byte_identical(name, argv, stdin, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO((GOLDEN / stdin).read_bytes()), encoding="utf-8"))
    assert main(argv) == 0
    assert capsys.readouterr().out == read(name)


def test_cli_runs_on_the_standard_library_alone():
    # -S leaves site-packages off sys.path, so a package import of anything
    # outside the standard library, sympy or hypothesis say, fails here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cli(argv, stdin=None):
        result = subprocess.run([sys.executable, "-S", "-m", "borcherdskit", *argv],
                                input=stdin, capture_output=True, env=env)
        assert result.returncode == 0, result.stderr
        return result.stdout

    series = cli(["phi", "--n", "2", "--prec", "4"])
    assert series == (GOLDEN / "phi_n2_prec4.json").read_bytes()
    for name, argv in [("decompose_phi_n2_prec4.json", ["decompose"]),
                       ("principal_part_phi_n2_prec4.json", ["principal-part"]),
                       ("lift_phi_n2_prec4_deg4.json", ["lift", "--prec", "4"])]:
        assert cli(argv, series) == (GOLDEN / name).read_bytes()


def test_lift_writes_integer_terms(capsys, monkeypatch):
    def refuse(expansion):
        raise AssertionError("the Fraction view of the expansion was built")

    monkeypatch.setattr(OrthogonalExpansion, "coeffs", property(refuse))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO((GOLDEN / "phi_n2_prec4.json").read_bytes()), encoding="utf-8"))
    assert main(["lift", "--prec", "4"]) == 0
    assert capsys.readouterr().out == read("lift_phi_n2_prec4_deg4.json")


@pytest.mark.parametrize("name, command", [
    ("decompose_phi_n3_prec3.json", "decompose"),
    ("principal_part_phi_n3_prec3.json", "principal-part"),
])
def test_decomposition_reads_integer_terms(name, command, capsys, monkeypatch):
    def refuse(series):
        raise AssertionError("the Fraction view of the series was built")

    monkeypatch.setattr(JacobiSeries, "coeffs", property(refuse))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO((GOLDEN / "phi_n3_prec3.json").read_bytes()), encoding="utf-8"))
    assert main([command]) == 0
    assert capsys.readouterr().out == read(name)


@pytest.fixture
def no_components_view(monkeypatch):
    """Fail the test if the Fraction view of a vector-valued form is built."""
    def refuse(form):
        raise AssertionError("the Fraction view of the form was built")

    monkeypatch.setattr(VectorValuedForm, "components", property(refuse))


@pytest.mark.parametrize("name, command", [
    ("decompose_phi_n3_prec3.json", "decompose"),
    ("principal_part_phi_n3_prec3.json", "principal-part"),
])
def test_decomposition_builds_no_fraction_components(name, command, capsys, monkeypatch,
                                                     no_components_view):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO((GOLDEN / "phi_n3_prec3.json").read_bytes()), encoding="utf-8"))
    assert main([command]) == 0
    assert capsys.readouterr().out == read(name)


def test_decomposition_round_trip_builds_no_fraction_components(no_components_view):
    # the round trip of the decompose benchmark: recompose, emission, parse
    # and ==, and the principal part
    phi = phi_n(3, 3)
    form = theta_decompose(phi)
    assert recompose(form, phi.prec) == phi
    text = canonical_dumps(emit_vvform(form))
    assert text == read("decompose_phi_n3_prec3.json")
    assert parse_vvform(json.loads(text)) == form
    assert canonical_dumps(emit_principal_part(principal_part(form))) == read(
        "principal_part_phi_n3_prec3.json")


def test_principal_parts_build_no_fraction_view(capsys, monkeypatch):
    # principal-part and validate-pp run on the integer keys of a part;
    # validate-pp builds Fractions for its offenders only
    def refuse(pp):
        raise AssertionError("the Fraction view of the principal part was built")

    monkeypatch.setattr(PrincipalPart, "coeffs", property(refuse))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO((GOLDEN / "phi_n3_prec3.json").read_bytes()), encoding="utf-8"))
    assert main(["principal-part"]) == 0
    assert capsys.readouterr().out == read("principal_part_phi_n3_prec3.json")
    assert main(["validate-pp", EXAMPLE1, "--format", "json"]) == 0
    assert capsys.readouterr().out == read("validate_pp_example1.json")
    # example2.json has no golden file: its report, written canonically
    assert main(["validate-pp", EXAMPLE2, "--format", "json"]) == 0
    assert capsys.readouterr().out == canonical_dumps({
        "exponent_classes_ok": True, "exponent_class_offenders": [], "symmetry_ok": True,
        "symmetry_offenders": [], "weight_ok": True, "weight": "7/2", "half_integral": True,
        "singular_weight": "1", "is_singular": False, "passed": True})


def test_phi_writes_from_packed_keys(capsys, monkeypatch):
    # phi04 and its self-check decode packings of rank 1; every packing of a
    # higher rank that the phi command makes is a direct product's, and none
    # of them may be decoded
    unpack = _Packing.unpack

    def refuse(packing, packed):
        if len(packing.shifts) > 1:
            raise AssertionError("the packed terms of a direct product were decoded")
        return unpack(packing, packed)

    monkeypatch.setattr(_Packing, "unpack", refuse)
    assert main(["phi", "--n", "3", "--prec", "3"]) == 0
    out, err = capsys.readouterr()
    assert out == read("phi_n3_prec3.json")
    assert err == "phi_3 to precision 3: 495 terms\n"
    phi = phi_n(3, 3, budget=495)
    assert repr(phi) == "JacobiSeries(weight=0, rank=3, terms=495, prec=3, weak_jacobi)"
    assert not phi.is_zero() and phi.term_count() == 495


@pytest.mark.parametrize("name, argv, stdin", [
    ("phi_n3_prec3.json", ["phi", "--n", "3", "--prec", "3"], None),
    ("decompose_phi_n2_prec4.json", ["decompose"], "phi_n2_prec4.json"),
    ("lift_phi_n2_prec4_deg4.json", ["lift", "--prec", "4"], "phi_n2_prec4.json"),
], ids=["phi", "decompose", "lift"])
def test_cli_writes_rows_without_building_them(name, argv, stdin, capsys, monkeypatch):
    # canonical_dumps writes the columns of an emitted Rows; reading a row,
    # by index or by iteration, would build it
    def refuse(rows, *args):
        raise AssertionError("a row of an emitted Rows was built")

    monkeypatch.setattr(Rows, "__iter__", refuse)
    monkeypatch.setattr(Rows, "__getitem__", refuse)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO((GOLDEN / stdin).read_bytes()), encoding="utf-8"))
    assert main(argv) == 0
    assert capsys.readouterr().out == read(name)


def test_rank_5_decomposition_is_byte_identical(capsys, monkeypatch):
    # 32 768 cosets, too large a file for the corpus: its digest is pinned,
    # and the file parsed, with its components in order and reversed, is
    # written back the same
    assert main(["phi", "--n", "5", "--prec", "1"]) == 0
    series = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(series.encode()), encoding="utf-8"))
    assert main(["decompose"]) == 0
    text = capsys.readouterr().out
    assert len(text) == 5_008_852
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a93648f2a6c137da98be8c3649808da6b4283b1877b5c2f0452dae2a41856c9c")
    doc = json.loads(text)
    assert canonical_dumps(emit_vvform(parse_vvform(doc))) == text
    doc["components"].reverse()
    assert canonical_dumps(emit_vvform(parse_vvform(doc))) == text


def test_corpus_lists_every_file():
    assert sorted(name for name, _, _ in CORPUS) == sorted(p.name for p in GOLDEN.iterdir())
