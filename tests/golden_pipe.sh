#!/usr/bin/env bash
# The installed console script, reading stdin, against the golden corpus, and
# golden files parsed and written back by the installed package. Run it from
# the root of a checkout in which borcherds-kit and python are on PATH:
#
#     bash tests/golden_pipe.sh
#
# Every line must pass with cmp; the first difference stops the script. It
# exits 2 before the first line when python cannot import borcherdskit or
# borcherds-kit is not on PATH.
set -euo pipefail
if ! python -c 'import borcherdskit' 2> /dev/null; then
  echo "golden_pipe.sh: python cannot import borcherdskit; run 'pip install -e .' or set PYTHONPATH=src" >&2
  exit 2
fi
if ! command -v borcherds-kit > /dev/null; then
  echo "golden_pipe.sh: borcherds-kit is not on PATH; run 'pip install -e .'" >&2
  exit 2
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
roundtrip() {  # roundtrip KIND FILE [CANONICAL]: io.emit_KIND(io.parse_KIND(FILE)) must be CANONICAL, by default FILE
  python -c 'import sys; from borcherdskit import io; kind = sys.argv[1]; sys.stdout.write(io.canonical_dumps(getattr(io, "emit_" + kind)(getattr(io, "parse_" + kind)(io.load_json(sys.argv[2])))))' "$1" "$2" | cmp - "${3:-$2}"
}
borcherds-kit phi --n 1 --prec 16 | cmp - tests/golden/phi_n1_prec16.json
borcherds-kit phi --n 2 --prec 4 | cmp - tests/golden/phi_n2_prec4.json
borcherds-kit phi --n 3 --prec 3 | cmp - tests/golden/phi_n3_prec3.json
borcherds-kit phi --n 4 --prec 2 | cmp - tests/golden/phi_n4_prec2.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit weyl | cmp - tests/golden/weyl_phi_n2_prec4.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit weyl --w0 1,-1/3 | cmp - tests/golden/weyl_phi_n2_prec4_w0skew.json
borcherds-kit validate-pp fixtures/example1.json --format json | cmp - tests/golden/validate_pp_example1.json
borcherds-kit lattice-info fixtures/gram_ex1.json --format json | cmp - tests/golden/lattice_info_gram_ex1.json
borcherds-kit criterion fixtures/gram_ex2.json --format json | cmp - tests/golden/criterion_gram_ex2.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit congruence --format json | cmp - tests/golden/congruence_phi_n2_prec4.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit decompose | cmp - tests/golden/decompose_phi_n2_prec4.json
borcherds-kit phi --n 3 --prec 3 | borcherds-kit decompose | cmp - tests/golden/decompose_phi_n3_prec3.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit principal-part | cmp - tests/golden/principal_part_phi_n2_prec4.json
borcherds-kit phi --n 3 --prec 3 | borcherds-kit principal-part | cmp - tests/golden/principal_part_phi_n3_prec3.json
borcherds-kit phi --n 1 --prec 16 | borcherds-kit lift --prec 8 | cmp - tests/golden/lift_phi_n1_prec16_deg8.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit lift --prec 4 | cmp - tests/golden/lift_phi_n2_prec4_deg4.json
borcherds-kit phi --n 2 --prec 4 | borcherds-kit lift --prec 4 --w0 1,-1/3 | cmp - tests/golden/lift_phi_n2_prec4_deg4_w0skew.json
borcherds-kit phi --n 3 --prec 3 | borcherds-kit lift --prec 2 | cmp - tests/golden/lift_phi_n3_prec3_deg2.json
# a 4096-coset vvform read and written back
borcherds-kit phi --n 4 --prec 1 | borcherds-kit decompose > "$tmp/decompose_phi_n4_prec1.json"
roundtrip vvform "$tmp/decompose_phi_n4_prec1.json"
# the same file with its components in reverse order is written back canonical
python -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["components"].reverse(); json.dump(doc, sys.stdout)' "$tmp/decompose_phi_n4_prec1.json" > "$tmp/reversed.json"
roundtrip vvform "$tmp/reversed.json" "$tmp/decompose_phi_n4_prec1.json"
# a 32768-coset vvform, with its components reversed, is written back canonical
borcherds-kit phi --n 5 --prec 1 | borcherds-kit decompose > "$tmp/decompose_phi_n5_prec1.json"
python -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["components"].reverse(); json.dump(doc, sys.stdout)' "$tmp/decompose_phi_n5_prec1.json" > "$tmp/reversed.json"
roundtrip vvform "$tmp/reversed.json" "$tmp/decompose_phi_n5_prec1.json"
# series files and a rank-3 expansion file read and written back
for f in tests/golden/phi_n1_prec16.json tests/golden/phi_n2_prec4.json tests/golden/phi_n3_prec3.json \
         tests/golden/phi_n4_prec2.json; do
  roundtrip series "$f"
done
roundtrip expansion tests/golden/lift_phi_n3_prec3_deg2.json
# principal parts read and written back: the bundled fixtures and the goldens
for f in fixtures/example1.json fixtures/example2.json \
         tests/golden/principal_part_phi_n2_prec4.json tests/golden/principal_part_phi_n3_prec3.json; do
  roundtrip principal_part "$f"
done
# phi_4 as the CLI writes it from packed keys is written back the same from
# the parsed tuple keys
borcherds-kit phi --n 4 --prec 3 > "$tmp/phi4.json"
roundtrip series "$tmp/phi4.json"
