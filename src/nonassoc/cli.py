"""Command-line front end: loads structure documents, runs the matching
checkers and builders, and prints stable PASS/FAIL reports.

Exit codes: 0 all checks passed, 1 violations found, 2 malformed input or
usage error.  Output is deterministic byte-for-byte for identical inputs.
No construction logic lives here; every command composes library calls.

A command runs with the cyclic garbage collector paused, and `main` then
restores the state it found.  What a command builds holds no reference
cycles (int-keyed dicts, tuples, lists of ints), so reference counting
frees all of it, and the collector would only sweep, over and over, the
list or tuple that a large table holds per product entry.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import documents
from .bowtie import bowtie_whq, verify_canonical_iso
from .factorizations import (
    FactorizationCandidate,
    canonical_factorization,
    check_exact_factorization,
    enumerate_factorizations,
)
from .hopf import check_whq, derived_property_suite, magma_of_quasigroupoid
from .linalg import GFElement
from .matched_pairs import (
    MatchedPair,
    check_matched_pair,
    double_cross_product,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    theta_identity_report,
)
from .quasigroupoids import (
    Quasigroupoid,
    _validated,
    check_action_on_set,
    check_quasigroupoid,
    derived_identity_suite,
)
from .quasigroups import FiniteQuasigroup, derived_inverse_suite, is_associative
from .reports import (
    AXIOMS,
    InvalidStructureError,
    StructureError,
    StructureReport,
    format_report,
    report_as_document,
)


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (Fraction, GFElement)):
        return str(value)
    return value


def _undeclared_tag(declared, only) -> str | None:
    """The error for an --only tag that no tag list in `declared` holds, a
    usage error: the filter would otherwise pass whatever the reports found."""
    if only is not None and not any(only in tags for tags in declared):
        return f"no report of this command declares the tag {only!r}"
    return None


def _print_reports(reports: list[StructureReport], args, only: str | None) -> int:
    """Print the reports, filtered to the tag `only`, in the --format of
    `args`, and return the exit code."""
    error = _undeclared_tag([r.axioms for r in reports], only)
    if error is not None:
        raise StructureError(error)
    violations = sum(len(r.shown(only).violations) for r in reports)
    if args.format == "machine":
        payload = {
            "reports": [_jsonable(report_as_document(r, only)) for r in reports],
            "ok": violations == 0,
        }
        sys.stdout.write(documents.emit(payload))
    else:
        for report in reports:
            sys.stdout.write(format_report(report, only))
        if len(reports) > 1:
            verdict = "PASS" if violations == 0 else "FAIL"
            sys.stdout.write(f"OVERALL {verdict} {violations} violations\n")
    return 0 if violations == 0 else 1


def _load(path: str, kind: str | None = None, command: str = ""):
    """The structure the document at `path` holds, read in the order
    docs/file-format.md gives: `documents.parse` checks the envelope; for a
    command that takes one `kind`, the kind comes next, so that no command
    reads the body of a document it cannot use; then the reader of the kind
    checks the schema as it builds the structure, and the laws last."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise documents.SchemaError(f"document is not UTF-8 text: {exc.reason}") from exc
    doc = documents.parse(text)
    if kind is not None and doc["kind"] != kind:
        raise StructureError(f"{command} expects a {kind} document")
    return getattr(documents, "doc_to_" + doc["kind"].replace("-", "_"))(doc)


def _write_output(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _checker_reports(path: str, suite: bool) -> list[StructureReport]:
    try:
        value = _load(path)
    except InvalidStructureError as exc:  # the report of a quasigroup's broken laws
        return [exc.report]
    if isinstance(value, FiniteQuasigroup):
        reports = [StructureReport.of("quasigroup")]  # the reader raised on any violation
        if suite:
            derived = derived_inverse_suite(value)
            associative, witness = is_associative(value)
            derived.notes.append(
                "associative" if associative else f"nonassociative, witness {witness}"
            )
            reports.append(derived)
        return reports
    if isinstance(value, Quasigroupoid):
        report = check_quasigroupoid(value)
        reports = [report]
        if suite and report.ok:
            reports.append(derived_identity_suite(value))
        return reports
    if isinstance(value, tuple):  # an action: quasigroup, points, psi
        return [check_action_on_set(*value)]
    if isinstance(value, MatchedPair):
        report = check_matched_pair(value)
        reports = [report]
        if suite and report.ok:
            c = canonical_factorization(value)
            fact = check_exact_factorization(c)
            reports.append(matched_pair_identity_suite(value))
            reports.append(mixed_associativity_suite(c, fact))
            reports.append(theta_identity_report(c, fact))
        return reports
    if isinstance(value, FactorizationCandidate):
        _validated(value.b)  # A and H, wide and closed in B, are then quasigroupoids
        return [check_exact_factorization(value)]
    report = check_whq(value)
    reports = [report]
    if suite and report.ok:
        reports.append(derived_property_suite(value))
    return reports


def cmd_validate(args) -> int:
    return _print_reports(_checker_reports(args.file, suite=False), args, args.only)


def cmd_suite(args) -> int:
    return _print_reports(_checker_reports(args.file, suite=True), args, args.only)


def cmd_check_whq(args) -> int:
    return _print_reports([check_whq(_load(args.file, "whq", "check-whq"))], args, args.only)


def cmd_build(args) -> int:
    if args.what == "magma":
        q = _validated(_load(args.file, "quasigroupoid", "build magma"))
        out = documents.whq_to_doc(magma_of_quasigroupoid(q), args.field)
    else:
        mp = _load(args.file, "matched-pair", f"build {args.what}")
        if args.what == "dcp":
            out = documents.quasigroupoid_to_doc(double_cross_product(mp))
        else:
            out = documents.whq_to_doc(bowtie_whq(mp), args.field)
    _write_output(documents.emit(out), args)
    return 0


def cmd_factorize(args) -> int:
    q = _validated(_load(args.file, "quasigroupoid", "factorize"))
    found = enumerate_factorizations(q, args.max_arrows)
    if args.format == "machine":
        sys.stdout.write(documents.emit([documents.factorization_to_doc(c) for c in found]))
    else:
        for i, c in enumerate(found):
            sys.stdout.write(
                f"factorization {i}: A={list(c.ia.arrow_map)} H={list(c.ih.arrow_map)}\n"
            )
        sys.stdout.write(f"PASS {len(found)} factorizations\n")
    return 0


def cmd_check_iso(args) -> int:
    mp = _load(args.file, "matched-pair", "check-iso")
    return _print_reports([verify_canonical_iso(mp)], args, args.only)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonassoc",
        description="Validate and build finite nonassociative structures.",
    )
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    parser.add_argument("--only", metavar="TAG", default=None,
                        help="restrict reporting to one axiom tag")
    parser.add_argument("--field", default="Q", metavar="Q|GF<p>",
                        help="scalar field tag for emitted linear structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the checker matching the document kind")
    p.add_argument("file")

    p = sub.add_parser("suite", help="run every applicable identity suite")
    p.add_argument("file")

    p = sub.add_parser("check-whq", help="verify the weak Hopf quasigroup axioms")
    p.add_argument("file")

    p = sub.add_parser("build", help="emit a derived structure document")
    p.add_argument("what", choices=("dcp", "magma", "bowtie"))
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("factorize", help="enumerate exact factorizations")
    p.add_argument("file")
    p.add_argument("--max-arrows", type=int, default=12)

    p = sub.add_parser("check-iso", help="verify the canonical linear isomorphism")
    p.add_argument("file")
    return parser


_PARSER = None  # build_parser(), built by the first call of main


def main(argv=None) -> int:
    global _PARSER
    with documents._collector_paused():
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
        # the command's function is looked up by name on each call, so a
        # replaced cmd_* function takes effect with the parser already built
        command = globals()["cmd_" + args.command.replace("-", "_")]
        try:
            # a tag that no report declares is refused before any document is read
            error = _undeclared_tag(AXIOMS.values(), args.only)
            if error is not None:
                raise StructureError(error)
            return command(args)
        except InvalidStructureError as exc:
            # a component breaks its laws: its report is printed whole
            error = _undeclared_tag([exc.report.axioms], args.only)
            if error is None:
                return _print_reports([exc.report], args, None)
        except (StructureError, OSError) as exc:
            error = str(exc)
        except MemoryError:
            error = "out of memory"
        sys.stderr.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
