"""CLI behavior: formats, exit codes, pipes and determinism."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borcherdskit.cli import main
from borcherdskit.io import parse_expansion, parse_principal_part, parse_series
from borcherdskit.series import DEFAULT_BUDGET

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def byte_stdin(text):
    """A text stream over the UTF-8 bytes of text, with the .buffer the CLI
    reads stdin from."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", byte_stdin(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_text_output(capsys):
    code, out, _ = run_cli(capsys, ["criterion", str(FIXTURES / "gram_ex1.json")])
    assert code == 0
    assert out == "8 | gcd: true\n"


def test_criterion_false_case(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2]]}))
    code, out, _ = run_cli(capsys, ["criterion", str(path)])
    assert code == 0
    assert out == "8 | gcd: false\n"


def test_criterion_json_format(capsys):
    code, out, _ = run_cli(capsys, ["criterion", str(FIXTURES / "gram_ex2.json"),
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"gcd_inner_products": 8, "divisible_by_8": True}


def test_validate_pp_passes_on_fixtures(capsys):
    for name, weight in (("example1.json", "9/2"), ("example2.json", "7/2")):
        code, out, _ = run_cli(capsys, ["validate-pp", str(FIXTURES / name),
                                        "--weight", weight])
        assert code == 0
        assert f"all checks pass, weight {weight}" in out


def test_validate_pp_rejects_corrupted_fixture(capsys, tmp_path):
    doc = json.loads((FIXTURES / "example2.json").read_text())
    for term in doc["terms"]:
        if term["gamma"] == ["1/4", "0"]:
            term["exp"] = "-1/8"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, ["validate-pp", str(bad)])
    assert code == 1
    assert "FAILED" in out
    assert "1/4" in out


def test_phi_emits_parseable_series(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "3"])
    assert code == 0
    series = parse_series(json.loads(out))
    assert series.weight == 0
    assert series.prec == 3


def test_phi_pipe_into_congruence(capsys, monkeypatch):
    code, series_json, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "6"])
    assert code == 0
    code, out, _ = run_cli(capsys, ["congruence"], stdin_text=series_json,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert "N=8, sum=3, residue 0" in out


def test_shell_pipe_end_to_end():
    result = subprocess.run(
        f"{sys.executable} -m borcherdskit phi --n 1 --prec 6 2>/dev/null | "
        f"{sys.executable} -m borcherdskit congruence",
        shell=True, capture_output=True, text=True, cwd=str(FIXTURES.parent))
    assert result.returncode == 0
    assert "N=8, sum=3, residue 0" in result.stdout


def test_package_import_skips_dataclasses_and_inspect():
    # every CLI process pays for the package import; -S keeps the modules
    # that site loads out of sys.modules
    code = "import sys, borcherdskit; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cli_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["phi", "--n", "2", "--prec", "3"])
    _, second, _ = run_cli(capsys, ["phi", "--n", "2", "--prec", "3"])
    assert first == second


def test_decompose_and_principal_part_pipeline(capsys, monkeypatch):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "4"])
    code, vv_out, _ = run_cli(capsys, ["decompose"], stdin_text=series_json,
                              monkeypatch=monkeypatch)
    assert code == 0
    assert len(json.loads(vv_out)["components"]) == 8
    code, pp_out, _ = run_cli(capsys, ["principal-part"], stdin_text=series_json,
                              monkeypatch=monkeypatch)
    assert code == 0
    pp = parse_principal_part(json.loads(pp_out))
    assert pp.constant_term == 1


def test_weyl_command(capsys, monkeypatch):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "1"])
    code, out, _ = run_cli(capsys, ["weyl", "--w0", "1", "--format", "text"],
                           stdin_text=series_json, monkeypatch=monkeypatch)
    assert code == 0
    assert out == "A = 1/8, B = (1/16), C = 1/8\n"


def test_lift_command_writes_file(capsys, monkeypatch, tmp_path):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "4"])
    out_path = tmp_path / "expansion.json"
    code, out, _ = run_cli(capsys, ["lift", "--prec", "4", "--w0", "1",
                                    "--out", str(out_path)],
                           stdin_text=series_json, monkeypatch=monkeypatch)
    assert code == 0
    assert "weight 1/2" in out
    expansion = parse_expansion(json.loads(out_path.read_text()))
    assert expansion.holomorphic == "unknown"


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, ["criterion", "no-such-file.json"])
    assert code == 2
    assert "error (criterion)" in err


def test_invalid_json_is_io_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, ["criterion", str(bad)])
    assert code == 2


INVALID_UTF8 = b'{"gram": [[8\xff]]}'
DEEP = b"[" * 100_000 + b"]" * 100_000


# (name, argv with {file} for the input file, input bytes, via stdin,
#  PYTHONIOENCODING or None, message on stderr)
UNREADABLE = [
    ("utf8-file", ["lattice-info", "{file}"], INVALID_UTF8, False, None,
     "in.json: not valid UTF-8"),
    ("deep-file", ["lattice-info", "{file}"], DEEP, False, None,
     "in.json: JSON nested too deeply to read"),
    ("deep-stdin", ["decompose"], DEEP, True, None, "stdin: JSON nested too deeply to read"),
    # stdin is decoded as strict UTF-8 whatever the locale and PYTHONIOENCODING
    ("utf8-stdin", ["decompose"], INVALID_UTF8, True, None, "stdin: not valid UTF-8"),
    ("utf8-stdin-strict", ["decompose"], INVALID_UTF8, True, "utf-8:strict",
     "stdin: not valid UTF-8"),
]


@pytest.mark.parametrize("argv, data, via_stdin, encoding, message",
                         [case[1:] for case in UNREADABLE], ids=[case[0] for case in UNREADABLE])
def test_unreadable_input_is_schema_error(tmp_path, argv, data, via_stdin, encoding, message):
    # a fresh process, so that an uncaught exception shows as a traceback
    path = tmp_path / "in.json"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    result = subprocess.run(
        [sys.executable, "-m", "borcherdskit", *(a.format(file=path) for a in argv)],
        input=data if via_stdin else None, capture_output=True, env=env)
    err = result.stderr.decode("utf-8", "replace")
    assert result.returncode == 2, err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("data", [b'{"gram": [[8]], "x\xff": 1}', b'{"gram": [[8]]}\xff'],
                         ids=["in-key", "trailing"])
def test_invalid_utf8_reads_alike_from_file_and_stdin_under_c_locale(tmp_path, data):
    # under the C locale Python decodes sys.stdin with surrogateescape, which
    # would hand the stray byte on to the JSON parser as a lone surrogate
    path = tmp_path / "in.json"
    path.write_bytes(data)
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(LC_ALL="C", PYTHONPATH=str(FIXTURES.parent / "src"))
    errors = []
    for argv, stdin in ((["lattice-info", str(path)], None), (["lattice-info", "-"], data)):
        result = subprocess.run([sys.executable, "-m", "borcherdskit", *argv],
                                input=stdin, capture_output=True, env=env)
        err = result.stderr.decode("utf-8", "replace")
        assert result.returncode == 2, err
        errors.append(err)
    from_file, from_stdin = errors
    assert from_stdin.startswith("error (lattice-info): stdin: not valid UTF-8 (")
    assert from_file.replace(str(path), "stdin") == from_stdin


def test_domain_error_exit_code(capsys, tmp_path):
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"gram": [[1]]}))
    code, _, err = run_cli(capsys, ["criterion", str(odd)])
    assert code == 1
    assert "NotEven" in err


def test_lattice_info_large_determinant(capsys, tmp_path):
    # the 2 * 10^9 cosets are never listed
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2000000000]]}))
    code, out, _ = run_cli(capsys, ["lattice-info", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["elementary_divisors"] == [2000000000]
    assert doc["discriminant_order"] == 2000000000


def test_failed_self_check_exit_code(capsys, monkeypatch):
    def wrong_smith_form(matrix):
        return [1] * len(matrix), None, None

    monkeypatch.setattr("borcherdskit.lattice.smith_normal_form", wrong_smith_form)
    code, out, err = run_cli(capsys, ["lattice-info", str(FIXTURES / "gram_ex1.json")])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "error (lattice-info): self-check 'Smith product' failed" in err
    assert "Traceback" not in err


def test_block_count_mismatch_exit_code(capsys, tmp_path, monkeypatch):
    # [[16, 8], [8, 16]] is one block; split in two it yields 16 * 16 cosets
    # against a determinant of 192
    monkeypatch.setattr("borcherdskit.lattice._blocks", lambda gram: [[0], [1]])
    path = tmp_path / "series.json"
    path.write_text(json.dumps({
        "gram": [[16, 8], [8, 16]], "weight": "0", "q_den": 1, "prec": "1",
        "form_class": "weak_jacobi", "terms": [{"n": "0", "l": ["0", "0"], "c": "1"}]}))
    code, out, err = run_cli(capsys, ["decompose", str(path)])
    assert code == 3
    assert out == ""
    assert "self-check 'coset count' failed: 256 coset minima, expected 192" in err


def test_prec_beyond_terms_fails_fast(capsys, tmp_path):
    # the window claims every coefficient below q^(10^6), but the terms stop
    # at q^2; the witness search stops at the first missing witness
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "2", "--prec", "2"])
    doc = json.loads(series_json)
    doc["prec"] = "1000000"
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    for command in ("decompose", "principal-part"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [command, str(path)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert "ShiftInvarianceViolated" in err


def _phi_2_doc(capsys):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "2", "--prec", "4"])
    return json.loads(series_json)


def test_huge_degree_zero_exponent_fails_fast(capsys, tmp_path):
    # 2^70 - 1 is a multiple of 3, so 8 * sum_l c(0, l) stays 0 mod 24 and
    # the input reaches the binomial expansion of the degree-zero factor
    doc = _phi_2_doc(capsys)
    [term] = [t for t in doc["terms"] if t["n"] == "0" and t["l"] == ["-1/8", "-1/8"]]
    term["c"] = str(2 ** 70)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["lift", "--prec", "4", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "ResourceLimit" in err
    assert f"exceed the {DEFAULT_BUDGET}-term budget" in err


def test_huge_phi_precision_fails_fast():
    # for n = 1 the first quotient by 1 - q zeta would have a row at every
    # grade up to 10^30; its term count is known before those rows are
    # built, and it is over the default budget. A fresh process, so that a
    # refusal after the work would not leave its terms in this one
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "borcherdskit", "phi", "--n", "1", "--prec", str(10 ** 30)],
        capture_output=True, text=True, env=env)
    assert time.perf_counter() - start < 10
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"product exceeded the {DEFAULT_BUDGET}-coefficient budget" in result.stderr


def test_degree_zero_product_is_predicted_before_work(capsys, tmp_path):
    # 1502 binomials are far under the term budget, but each of the 358 terms
    # of the product meets all of them, at up to 1501 bits each; with 10^6 in
    # place of 1501 the work grows about 400 000-fold
    doc = _phi_2_doc(capsys)
    [term] = [t for t in doc["terms"] if t["n"] == "0" and t["l"] == ["-1/8", "-1/8"]]
    term["c"] = "1501"
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["lift", "--prec", "4", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "ResourceLimit" in err
    assert f"on 358 terms exceed the {DEFAULT_BUDGET}-term budget" in err


def test_huge_determinant_fails_fast(capsys, tmp_path):
    # the dense decomposition would hold one component per coset, 8 * 2^70
    doc = _phi_2_doc(capsys)
    doc["gram"][1][1] = 2 ** 70
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    for command in ("decompose", "principal-part"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, [command, str(path)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert "ResourceLimit" in err
        assert f"exceeds the {DEFAULT_BUDGET}-coset budget" in err


def test_wrong_length_gamma_is_schema_error(capsys, tmp_path):
    doc = json.loads((FIXTURES / "example1.json").read_text())
    doc["terms"][0]["gamma"].append("0")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["validate-pp", str(bad)])
    assert code == 2
    assert out == ""
    assert "$.terms[0].gamma: vector has length 3, lattice rank is 2" in err


def test_insufficient_precision_is_domain_error(capsys, monkeypatch):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "2"])
    code, _, err = run_cli(capsys, ["lift", "--prec", "8"],
                           stdin_text=series_json, monkeypatch=monkeypatch)
    assert code == 1
    assert "InsufficientInputPrecision" in err


def test_bad_prec_flag_is_schema_error(capsys):
    code, _, err = run_cli(capsys, ["phi", "--n", "1", "--prec", "zero"])
    assert code == 2
    code, _, err = run_cli(capsys, ["phi", "--n", "1", "--prec", "-3"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["phi", "--n", "1", "--prec", "x"], "--prec: 'x' is not a rational p/q"),
    (["phi", "--n", "1", "--prec", "1/0"], "--prec: '1/0' is not a rational p/q"),
    (["phi", "--n", "1", "--prec", "0"], "--prec: 0 is not positive"),
    (["lift", "--prec", "x"], "--prec: 'x' is not a rational p/q"),
], ids=["phi-x", "phi-zero-denominator", "phi-zero", "lift-x"])
def test_bad_prec_flag_message(capsys, monkeypatch, argv, message):
    # lift reads its series before it reads --prec
    series_json = (FIXTURES.parent / "tests" / "golden" / "phi_n1_prec16.json").read_text()
    code, out, err = run_cli(capsys, argv, stdin_text=series_json, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == f"error ({argv[0]}): {message}\n"


def test_w0_of_wrong_length_is_schema_error(capsys, monkeypatch):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "1", "--prec", "16"])
    for argv in (["weyl", "--w0", "1,2"], ["lift", "--prec", "8", "--w0", "1,2"]):
        code, out, err = run_cli(capsys, argv, stdin_text=series_json,
                                 monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert f"error ({argv[0]}): --w0: '1,2' has 2 entries, lattice rank is 1" in err


def test_messages_write_vectors_as_rationals(capsys, monkeypatch):
    _, series_json, _ = run_cli(capsys, ["phi", "--n", "2", "--prec", "4"])
    code, out, err = run_cli(capsys, ["weyl", "--w0", "1,1"], stdin_text=series_json,
                             monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err == ("error (weyl): NonGenericChamber: chamber vector (1, 1) pairs to zero "
                   "with supported label (-1/8, 1/8)\n")


# spellings that Fraction(str) reads but that are not "p/q" or "p" in ASCII digits
NOT_P_OVER_Q = ("1e0", "0.5", " 1/2 ", "1_000", "+1/2", "\u0663", "1/2\n")


@pytest.mark.parametrize("text", NOT_P_OVER_Q)
def test_flags_read_rationals_as_p_over_q_only(capsys, monkeypatch, text):
    series_json = (FIXTURES.parent / "tests" / "golden" / "phi_n1_prec16.json").read_text()
    cases = [(["phi", "--n", "1", "--prec", text], f"--prec: {text!r} is not a rational p/q"),
             (["weyl", "--w0", text], f"--w0: {text!r} is not a comma-separated rational vector"),
             (["lift", "--prec", "8", "--w0", text],
              f"--w0: {text!r} is not a comma-separated rational vector"),
             (["validate-pp", str(FIXTURES / "example1.json"), "--weight", text],
              f"--weight: {text!r} is not a rational")]
    for argv, message in cases:
        code, out, err = run_cli(capsys, argv, stdin_text=series_json, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"error ({argv[0]}): {message}\n")


def test_flags_still_read_unreduced_and_negative_rationals(capsys, monkeypatch):
    series_json = (FIXTURES.parent / "tests" / "golden" / "phi_n1_prec16.json").read_text()
    assert run_cli(capsys, ["phi", "--n", "1", "--prec", "4/2"])[0] == 0
    for w0 in ("-3", "2/4", "-2/4"):
        code, out, _ = run_cli(capsys, ["weyl", f"--w0={w0}", "--format", "text"],
                               stdin_text=series_json, monkeypatch=monkeypatch)
        assert code == 0 and out.startswith("A = ")


def test_bad_n_budget_weight_flags(capsys):
    assert run_cli(capsys, ["phi", "--n", "0", "--prec", "2"])[0] == 2
    assert run_cli(capsys, ["phi", "--n", "1", "--prec", "2", "--budget", "0"])[0] == 2
    code, _, _ = run_cli(capsys, ["validate-pp", str(FIXTURES / "example1.json"),
                                  "--weight", "nine"])
    assert code == 2


def test_json_summary_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, ["phi", "--n", "1", "--prec", "2"])
    assert code == 0
    json.loads(out)  # stdout is pure JSON
    assert "phi_1" in err
