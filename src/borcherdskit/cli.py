"""Command-line front end.

Commands that produce data (phi, decompose, principal-part, weyl, lift)
print canonical JSON on stdout by default so they can be piped; commands
that check something (lattice-info, congruence, criterion, validate-pp)
print a short text report by default. Both groups accept --format json|text.
With --out PATH the selected format goes to the file and a one-line summary
to stdout; without it, the summary accompanying JSON output goes to stderr
so pipes stay clean.

Exit codes: 0 success, 1 domain error or failed validation, 2 I/O or parse
error, 3 failed internal self-check (a defect in the package, reported as one
line naming the check). Nothing is randomized and no floating point is used,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from . import io as kit_io
from .errors import BorcherdsKitError, SchemaViolation, SelfCheckFailed
from .lattice import vector_str
from .lift import (
    admits_half_integral_weight,
    congruence_check,
    lift_expansion,
    lift_weight,
    principal_part,
    singular_weight,
    validate_principal_part,
    weyl_vector,
)
from .series import DEFAULT_BUDGET, phi_n, theta_decompose


def _parse_prec(text):
    value = kit_io.parse_frac(text, "--prec")
    if value <= 0:
        raise SchemaViolation(f"--prec: {value} is not positive")
    return value


def _parse_w0(text, rank):
    if text is None:
        return None
    try:
        w0 = tuple(kit_io.parse_frac(part, "--w0") for part in text.split(","))
    except SchemaViolation:
        raise SchemaViolation(f"--w0: {text!r} is not a comma-separated rational vector") from None
    if len(w0) != rank:
        raise SchemaViolation(f"--w0: {text!r} has {len(w0)} entries, lattice rank is {rank}")
    return w0


def _read_input_doc(path):
    if path in (None, "-"):
        return kit_io.read_json(sys.stdin.buffer, "stdin")
    return kit_io.load_json(path)


def _write(args, doc, text_lines):
    """Emit the result in the requested format and channel."""
    payload = kit_io.canonical_dumps(doc) if args.format == "json" \
        else "\n".join(text_lines) + "\n"
    summary = text_lines[0] if text_lines else ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(summary)
    else:
        sys.stdout.write(payload)
        if args.format == "json" and summary:
            print(summary, file=sys.stderr)


# -- command handlers ------------------------------------------------------------


def _cmd_lattice_info(args):
    lattice = kit_io.parse_lattice(_read_input_doc(args.input))
    disc = lattice.discriminant_group()
    criterion = admits_half_integral_weight(lattice)
    doc = {
        "rank": lattice.rank,
        "det": lattice.det,
        "elementary_divisors": list(disc.elementary_divisors),
        "discriminant_order": disc.order,
        "gcd_inner_products": lattice.gcd_inner_products(),
        "singular_weight": kit_io.frac_str(singular_weight(lattice)),
        "divisible_by_8": criterion,
    }
    lines = [
        f"rank {lattice.rank}, det {lattice.det}",
        "elementary divisors: " + " ".join(str(d) for d in disc.elementary_divisors),
        f"discriminant order: {disc.order}",
        f"gcd of inner products: {lattice.gcd_inner_products()}",
        f"singular weight: {kit_io.frac_str(singular_weight(lattice))}",
        f"8 | gcd: {str(criterion).lower()}",
    ]
    _write(args, doc, lines)
    return 0


def _cmd_phi(args):
    if args.n < 1:
        raise SchemaViolation(f"--n: {args.n} is not a positive integer")
    if args.budget < 1:
        raise SchemaViolation(f"--budget: {args.budget} is not a positive integer")
    series = phi_n(args.n, _parse_prec(args.prec), budget=args.budget)
    lines = [f"phi_{args.n} to precision {args.prec}: {series.term_count()} terms"]
    _write(args, kit_io.emit_series(series), lines)
    return 0


def _cmd_decompose(args):
    series = kit_io.parse_series(_read_input_doc(args.input))
    form = theta_decompose(series)
    lines = [f"theta decomposition: {form.lattice.det} components, {len(form.terms)} nonzero"]
    _write(args, kit_io.emit_vvform(form), lines)
    return 0


def _cmd_principal_part(args):
    series = kit_io.parse_series(_read_input_doc(args.input))
    pp = principal_part(theta_decompose(series))
    lines = [f"constant term {pp.constant_term}, {len(pp.terms)} negative terms, "
             f"lift weight {kit_io.frac_str(lift_weight(pp))}"]
    _write(args, kit_io.emit_principal_part(pp), lines)
    return 0


def _cmd_congruence(args):
    series = kit_io.parse_series(_read_input_doc(args.input))
    report = congruence_check(series)
    doc = {
        "N": report.gcd_inner_products,
        "sum": report.q0_sum,
        "residue": report.residue,
        "passes": report.passes,
    }
    lines = [f"N={report.gcd_inner_products}, sum={report.q0_sum}, "
             f"residue {report.residue}, passes: {str(report.passes).lower()}"]
    _write(args, doc, lines)
    return 0


def _cmd_criterion(args):
    lattice = kit_io.parse_lattice(_read_input_doc(args.input))
    result = admits_half_integral_weight(lattice)
    doc = {
        "gcd_inner_products": lattice.gcd_inner_products(),
        "divisible_by_8": result,
    }
    _write(args, doc, [f"8 | gcd: {str(result).lower()}"])
    return 0


def _cmd_weyl(args):
    series = kit_io.parse_series(_read_input_doc(args.input))
    weyl = weyl_vector(series, _parse_w0(args.w0, series.lattice.rank))
    doc = kit_io.emit_weyl(weyl)
    lines = [f"A = {kit_io.frac_str(weyl.a)}, B = {vector_str(weyl.b)}, "
             f"C = {kit_io.frac_str(weyl.c)}"]
    _write(args, doc, lines)
    return 0


def _cmd_lift(args):
    series = kit_io.parse_series(_read_input_doc(args.input))
    expansion = lift_expansion(series, _parse_prec(args.prec),
                               _parse_w0(args.w0, series.lattice.rank))
    lines = [f"product expansion to total degree {args.prec}: "
             f"{len(expansion.terms)} monomials, weight "
             f"{kit_io.frac_str(expansion.weight)}, holomorphic: {expansion.holomorphic}"]
    _write(args, kit_io.emit_expansion(expansion), lines)
    return 0


def _cmd_validate_pp(args):
    pp = kit_io.parse_principal_part(_read_input_doc(args.input))
    if args.weight is None:
        claimed = None
    else:
        try:
            claimed = kit_io.parse_frac(args.weight, "--weight")
        except SchemaViolation:
            raise SchemaViolation(f"--weight: {args.weight!r} is not a rational") from None
    report = validate_principal_part(pp, claimed_weight=claimed)
    doc = {
        "exponent_classes_ok": report.exponent_class_ok,
        "exponent_class_offenders": [
            {"gamma": kit_io.emit_vector(g), "exp": kit_io.frac_str(e)}
            for g, e in report.exponent_class_offenders],
        "symmetry_ok": report.symmetry_ok,
        "symmetry_offenders": [
            {"gamma": kit_io.emit_vector(g), "exp": kit_io.frac_str(e)}
            for g, e in report.symmetry_offenders],
        "weight_ok": report.weight_ok,
        "weight": kit_io.frac_str(report.weight),
        "half_integral": report.half_integral,
        "singular_weight": kit_io.frac_str(report.singular_weight),
        "is_singular": report.is_singular,
        "passed": report.passed,
    }
    lines = []
    if report.passed:
        lines.append(f"all checks pass, weight {kit_io.frac_str(report.weight)}")
    else:
        lines.append("validation FAILED")
    lines.append(f"exponent classes: {'ok' if report.exponent_class_ok else 'FAILED'}")
    for gamma, e in report.exponent_class_offenders:
        lines.append(f"  exponent {kit_io.frac_str(e)} at gamma={vector_str(gamma)} "
                     "is not in the -Q(gamma) + Z class")
    lines.append(f"symmetry under negation: {'ok' if report.symmetry_ok else 'FAILED'}")
    for gamma, e in report.symmetry_offenders:
        lines.append(f"  coefficient at gamma={vector_str(gamma)}, "
                     f"exp {kit_io.frac_str(e)} differs from its negative")
    lines.append(f"weight {kit_io.frac_str(report.weight)} "
                 f"(half-integral: {str(report.half_integral).lower()}), "
                 f"singular weight {kit_io.frac_str(report.singular_weight)}, "
                 f"is singular: {str(report.is_singular).lower()}")
    if claimed is not None and not report.weight_ok:
        lines.append(f"  claimed weight {kit_io.frac_str(claimed)} does not match")
    _write(args, doc, lines)
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------------


def _add_common(parser, default_format, with_input=True, input_required=False):
    if with_input:
        if input_required:
            parser.add_argument("input", help="path to the input JSON file")
        else:
            parser.add_argument("input", nargs="?", default=None,
                                help="input JSON file (default: stdin)")
    parser.add_argument("--format", choices=("json", "text"), default=default_format)
    parser.add_argument("--out", default=None, help="write the result to this path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borcherds-kit",
        description="Exact-arithmetic toolkit for Borcherds products built "
                    "from Jacobi forms of lattice index.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="rank, determinant, discriminant "
                                            "group and divisibility data")
    _add_common(p, "text", input_required=True)
    p.set_defaults(handler=_cmd_lattice_info)

    p = sub.add_parser("phi", help="weight-0 input form on diag(8, ..., 8)")
    p.add_argument("--n", type=int, required=True, help="number of factors")
    p.add_argument("--prec", required=True, help="q-precision (rational)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="coefficient-count budget")
    _add_common(p, "json", with_input=False)
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("decompose", help="theta decomposition of a series")
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("principal-part", help="negative tail and constant term")
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_principal_part)

    p = sub.add_parser("congruence", help="mod-24 congruence on the q^0 row")
    _add_common(p, "text")
    p.set_defaults(handler=_cmd_congruence)

    p = sub.add_parser("criterion", help="are all inner products divisible by 8")
    _add_common(p, "text", input_required=True)
    p.set_defaults(handler=_cmd_criterion)

    p = sub.add_parser("weyl", help="Weyl vector (A, B, C) of a series")
    p.add_argument("--w0", default=None, help="chamber vector, e.g. 1,1/10")
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_weyl)

    p = sub.add_parser("lift", help="truncated product expansion")
    p.add_argument("--prec", required=True, help="total degree bound (rational)")
    p.add_argument("--w0", default=None, help="chamber vector, e.g. 1,1/10")
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("validate-pp", help="diagnostics for a principal part file")
    p.add_argument("--weight", default=None, help="claimed weight, e.g. 9/2")
    _add_common(p, "text", input_required=True)
    p.set_defaults(handler=_cmd_validate_pp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaViolation, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except SelfCheckFailed as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 3
    except BorcherdsKitError as exc:
        print(f"error ({args.command}): {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
