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

The nine commands are declared in one table, _COMMANDS. Each handler takes
the parsed arguments and the input document and returns (document, lines):
the JSON document and the text report, whose first line is the summary;
validate-pp also returns its exit code. main reads the input, writes the
result and maps exceptions to exit codes, once for every command.
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


def _cmd_lattice_info(args, data):
    lattice = kit_io.parse_lattice(data)
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
    return doc, [
        f"rank {lattice.rank}, det {lattice.det}",
        "elementary divisors: " + " ".join(str(d) for d in disc.elementary_divisors),
        f"discriminant order: {disc.order}",
        f"gcd of inner products: {lattice.gcd_inner_products()}",
        f"singular weight: {kit_io.frac_str(singular_weight(lattice))}",
        f"8 | gcd: {str(criterion).lower()}",
    ]


def _cmd_phi(args, _):
    if args.n < 1:
        raise SchemaViolation(f"--n: {args.n} is not a positive integer")
    if args.budget < 1:
        raise SchemaViolation(f"--budget: {args.budget} is not a positive integer")
    series = phi_n(args.n, _parse_prec(args.prec), budget=args.budget)
    return kit_io.emit_series(series), [
        f"phi_{args.n} to precision {args.prec}: {series.term_count()} terms"]


def _cmd_decompose(args, data):
    form = theta_decompose(kit_io.parse_series(data))
    return kit_io.emit_vvform(form), [
        f"theta decomposition: {form.lattice.det} components, {len(form.terms)} nonzero"]


def _cmd_principal_part(args, data):
    pp = principal_part(theta_decompose(kit_io.parse_series(data)))
    return kit_io.emit_principal_part(pp), [
        f"constant term {pp.constant_term}, {len(pp.terms)} negative terms, "
        f"lift weight {kit_io.frac_str(lift_weight(pp))}"]


def _cmd_congruence(args, data):
    report = congruence_check(kit_io.parse_series(data))
    doc = {"N": report.gcd_inner_products, "sum": report.q0_sum,
           "residue": report.residue, "passes": report.passes}
    return doc, [f"N={report.gcd_inner_products}, sum={report.q0_sum}, "
                 f"residue {report.residue}, passes: {str(report.passes).lower()}"]


def _cmd_criterion(args, data):
    lattice = kit_io.parse_lattice(data)
    result = admits_half_integral_weight(lattice)
    doc = {"gcd_inner_products": lattice.gcd_inner_products(), "divisible_by_8": result}
    return doc, [f"8 | gcd: {str(result).lower()}"]


def _cmd_weyl(args, data):
    series = kit_io.parse_series(data)
    weyl = weyl_vector(series, _parse_w0(args.w0, series.lattice.rank))
    return kit_io.emit_weyl(weyl), [
        f"A = {kit_io.frac_str(weyl.a)}, B = {vector_str(weyl.b)}, "
        f"C = {kit_io.frac_str(weyl.c)}"]


def _cmd_lift(args, data):
    series = kit_io.parse_series(data)
    expansion = lift_expansion(series, _parse_prec(args.prec),
                               _parse_w0(args.w0, series.lattice.rank))
    return kit_io.emit_expansion(expansion), [
        f"product expansion to total degree {args.prec}: "
        f"{expansion.term_count()} monomials, weight "
        f"{kit_io.frac_str(expansion.weight)}, holomorphic: {expansion.holomorphic}"]


def _offenders(pairs):
    return [{"gamma": kit_io.emit_vector(g), "exp": kit_io.frac_str(e)} for g, e in pairs]


def _cmd_validate_pp(args, data):
    pp = kit_io.parse_principal_part(data)
    claimed = None
    if args.weight is not None:
        try:
            claimed = kit_io.parse_frac(args.weight, "--weight")
        except SchemaViolation:
            raise SchemaViolation(f"--weight: {args.weight!r} is not a rational") from None
    report = validate_principal_part(pp, claimed_weight=claimed)
    doc = {
        "exponent_classes_ok": report.exponent_class_ok,
        "exponent_class_offenders": _offenders(report.exponent_class_offenders),
        "symmetry_ok": report.symmetry_ok,
        "symmetry_offenders": _offenders(report.symmetry_offenders),
        "weight_ok": report.weight_ok,
        "weight": kit_io.frac_str(report.weight),
        "half_integral": report.half_integral,
        "singular_weight": kit_io.frac_str(report.singular_weight),
        "is_singular": report.is_singular,
        "passed": report.passed,
    }
    lines = [f"all checks pass, weight {kit_io.frac_str(report.weight)}" if report.passed
             else "validation FAILED",
             f"exponent classes: {'ok' if report.exponent_class_ok else 'FAILED'}"]
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
    return doc, lines, 0 if report.passed else 1


# -- parser ------------------------------------------------------------------------

_W0 = ("--w0", {"default": None, "help": "chamber vector, e.g. 1,1/10"})

# name, help, handler, default format, input (None: none, "stdin": a file that
# defaults to stdin, "file": a required file; "-" reads stdin in both), then
# the command's own flags, which precede --format and --out in --help
_COMMANDS = (
    ("lattice-info", "rank, determinant, discriminant group and divisibility data",
     _cmd_lattice_info, "text", "file"),
    ("phi", "weight-0 input form on diag(8, ..., 8)", _cmd_phi, "json", None,
     ("--n", {"type": int, "required": True, "help": "number of factors"}),
     ("--prec", {"required": True, "help": "q-precision (rational)"}),
     ("--budget", {"type": int, "default": DEFAULT_BUDGET,
                   "help": "coefficient-count budget"})),
    ("decompose", "theta decomposition of a series", _cmd_decompose, "json", "stdin"),
    ("principal-part", "negative tail and constant term", _cmd_principal_part, "json",
     "stdin"),
    ("congruence", "mod-24 congruence on the q^0 row", _cmd_congruence, "text", "stdin"),
    ("criterion", "are all inner products divisible by 8", _cmd_criterion, "text", "file"),
    ("weyl", "Weyl vector (A, B, C) of a series", _cmd_weyl, "json", "stdin", _W0),
    ("lift", "truncated product expansion", _cmd_lift, "json", "stdin",
     ("--prec", {"required": True, "help": "total degree bound (rational)"}), _W0),
    ("validate-pp", "diagnostics for a principal part file", _cmd_validate_pp, "text",
     "file", ("--weight", {"default": None, "help": "claimed weight, e.g. 9/2"})),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="borcherds-kit",
        description="Exact-arithmetic toolkit for Borcherds products built "
                    "from Jacobi forms of lattice index.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, default_format, source, *flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        if source == "file":
            p.add_argument("input", help="path to the input JSON file")
        elif source == "stdin":
            p.add_argument("input", nargs="?", default=None,
                           help="input JSON file (default: stdin)")
        p.add_argument("--format", choices=("json", "text"), default=default_format)
        p.add_argument("--out", default=None, help="write the result to this path")
        p.set_defaults(handler=handler, source=source)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.source is None:
            data = None
        elif args.input in (None, "-"):
            data = kit_io.read_json(sys.stdin.buffer, "stdin")
        else:
            data = kit_io.load_json(args.input)
        doc, lines, *status = args.handler(args, data)
        _write(args, doc, lines)
        return status[0] if status else 0
    except (BorcherdsKitError, OSError) as exc:
        code = 2 if isinstance(exc, (SchemaViolation, OSError)) \
            else 3 if isinstance(exc, SelfCheckFailed) else 1
        named = f"{type(exc).__name__}: " if code == 1 else ""
        print(f"error ({args.command}): {named}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
