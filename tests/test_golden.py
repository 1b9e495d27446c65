"""Byte-identical CLI output on a fixed corpus.

Each file under tests/golden/ is the stdout of one command, recorded before
the emitters and parsers moved onto integer keys; the lattice-info, criterion
and congruence files were recorded before canonical_dumps stopped calling
json.dumps, the rank-3 lift file, whose monomials carry four integer
digits, before the product kernel packed its keys into ints, and the rank-3
principal part before parse_series read its terms on integer keys.
The commands run in-process through cli.main; a command that
reads a series gets another corpus file on stdin, so the corpus also pins
parse -> compute -> emit.
"""

import io
import sys
from pathlib import Path

import pytest

from borcherdskit.cli import main
from borcherdskit.lift import OrthogonalExpansion
from borcherdskit.series import JacobiSeries, _Packing, phi_n

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLE1 = str(ROOT / "fixtures" / "example1.json")
GRAM_EX1 = str(ROOT / "fixtures" / "gram_ex1.json")
GRAM_EX2 = str(ROOT / "fixtures" / "gram_ex2.json")

# (file, argv, file piped to stdin or None)
CORPUS = [
    ("phi_n1_prec16.json", ["phi", "--n", "1", "--prec", "16"], None),
    ("phi_n2_prec4.json", ["phi", "--n", "2", "--prec", "4"], None),
    ("phi_n3_prec3.json", ["phi", "--n", "3", "--prec", "3"], None),
    ("decompose_phi_n2_prec4.json", ["decompose"], "phi_n2_prec4.json"),
    ("decompose_phi_n3_prec3.json", ["decompose"], "phi_n3_prec3.json"),
    ("principal_part_phi_n2_prec4.json", ["principal-part"], "phi_n2_prec4.json"),
    ("principal_part_phi_n3_prec3.json", ["principal-part"], "phi_n3_prec3.json"),
    ("weyl_phi_n2_prec4.json", ["weyl"], "phi_n2_prec4.json"),
    ("lift_phi_n1_prec16_deg8.json", ["lift", "--prec", "8"], "phi_n1_prec16.json"),
    ("lift_phi_n2_prec4_deg4.json", ["lift", "--prec", "4"], "phi_n2_prec4.json"),
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


def test_corpus_lists_every_file():
    assert sorted(name for name, _, _ in CORPUS) == sorted(p.name for p in GOLDEN.iterdir())
