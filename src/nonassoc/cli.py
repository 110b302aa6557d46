"""Command-line front end: loads structure documents, runs the matching
checkers and builders, and prints stable PASS/FAIL reports.

Exit codes: 0 all checks passed, 1 violations found, 2 malformed input or
usage error.  Output is deterministic byte-for-byte for identical inputs.
No construction logic lives here; every command composes library calls.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import documents
from .bowtie import bowtie_whq, verify_canonical_iso
from .factorizations import (
    canonical_factorization,
    check_exact_factorization,
    enumerate_factorizations,
)
from .hopf import check_whq, derived_property_suite, magma_of_quasigroupoid
from .linalg import GFElement
from .matched_pairs import (
    check_matched_pair,
    double_cross_product,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    theta_identity_report,
)
from .quasigroupoids import check_action_on_set, check_quasigroupoid, derived_identity_suite
from .quasigroups import check_quasigroup, derived_inverse_suite, is_associative, quasigroup
from .reports import (
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


def _print_reports(reports: list[StructureReport], args) -> int:
    violations = 0
    for report in reports:
        violations += len(
            [v for v in report.violations if args.only is None or v.axiom == args.only]
        )
    if args.format == "machine":
        payload = {
            "reports": [_jsonable(report_as_document(r, args.only)) for r in reports],
            "ok": violations == 0,
        }
        sys.stdout.write(documents.emit(payload))
    else:
        for report in reports:
            sys.stdout.write(format_report(report, args.only))
        if len(reports) > 1:
            verdict = "PASS" if violations == 0 else "FAIL"
            sys.stdout.write(f"OVERALL {verdict} {violations} violations\n")
    return 0 if violations == 0 else 1


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return documents.parse(handle.read())


def _write_output(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _checker_reports(doc: dict, suite: bool) -> list[StructureReport]:
    kind = doc["kind"]
    if kind == "quasigroup":
        report = check_quasigroup(doc["table"], doc["identity"])
        reports = [report]
        if suite and report.ok:
            q = quasigroup(doc["table"], doc["identity"], doc.get("names"))
            derived = derived_inverse_suite(q)
            associative, witness = is_associative(q)
            derived.notes.append(
                "associative" if associative else f"nonassociative, witness {witness}"
            )
            reports.append(derived)
        return reports
    if kind == "quasigroupoid":
        q = documents.doc_to_quasigroupoid(doc)
        report = check_quasigroupoid(q)
        reports = [report]
        if suite and report.ok:
            reports.append(derived_identity_suite(q))
        return reports
    if kind == "action":
        q, points, psi = documents.doc_to_action(doc)
        return [check_action_on_set(q, points, psi)]
    if kind == "matched-pair":
        mp = documents.doc_to_matched_pair(doc)
        report = check_matched_pair(mp)
        reports = [report]
        if suite and report.ok:
            c = canonical_factorization(mp)
            fact = check_exact_factorization(c)
            reports.append(matched_pair_identity_suite(mp))
            reports.append(mixed_associativity_suite(c, fact))
            reports.append(theta_identity_report(c, fact))
        return reports
    if kind == "factorization":
        return [check_exact_factorization(documents.doc_to_factorization(doc))]
    if kind == "whq":
        d = documents.doc_to_whq(doc)
        report = check_whq(d)
        reports = [report]
        if suite and report.ok:
            reports.append(derived_property_suite(d, report))
        return reports
    raise StructureError(f"no checker for kind {kind!r}")


def cmd_validate(args) -> int:
    return _print_reports(_checker_reports(_load(args.file), suite=False), args)


def cmd_suite(args) -> int:
    return _print_reports(_checker_reports(_load(args.file), suite=True), args)


def cmd_check_whq(args) -> int:
    doc = _load(args.file)
    if doc["kind"] != "whq":
        raise StructureError("check-whq expects a whq document")
    return _print_reports(_checker_reports(doc, suite=False), args)


def cmd_build(args) -> int:
    doc = _load(args.file)
    if args.what == "dcp":
        if doc["kind"] != "matched-pair":
            raise StructureError("build dcp expects a matched-pair document")
        mp = documents.doc_to_matched_pair(doc)
        out = documents.quasigroupoid_to_doc(double_cross_product(mp))
    elif args.what == "magma":
        if doc["kind"] != "quasigroupoid":
            raise StructureError("build magma expects a quasigroupoid document")
        q = documents.doc_to_quasigroupoid(doc)
        report = check_quasigroupoid(q)
        if not report.ok:
            raise InvalidStructureError(report)
        out = documents.whq_to_doc(magma_of_quasigroupoid(q), args.field)
    else:
        if doc["kind"] != "matched-pair":
            raise StructureError("build bowtie expects a matched-pair document")
        mp = documents.doc_to_matched_pair(doc)
        out = documents.whq_to_doc(bowtie_whq(mp), args.field)
    _write_output(documents.emit(out), args)
    return 0


def cmd_factorize(args) -> int:
    doc = _load(args.file)
    if doc["kind"] != "quasigroupoid":
        raise StructureError("factorize expects a quasigroupoid document")
    q = documents.doc_to_quasigroupoid(doc)
    report = check_quasigroupoid(q)
    if not report.ok:
        raise InvalidStructureError(report)
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
    doc = _load(args.file)
    if doc["kind"] != "matched-pair":
        raise StructureError("check-iso expects a matched-pair document")
    mp = documents.doc_to_matched_pair(doc)
    return _print_reports([verify_canonical_iso(mp)], args)


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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("suite", help="run every applicable identity suite")
    p.add_argument("file")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("check-whq", help="verify the weak Hopf quasigroup axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_whq)

    p = sub.add_parser("build", help="emit a derived structure document")
    p.add_argument("what", choices=("dcp", "magma", "bowtie"))
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("factorize", help="enumerate exact factorizations")
    p.add_argument("file")
    p.add_argument("--max-arrows", type=int, default=12)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("check-iso", help="verify the canonical linear isomorphism")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_iso)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidStructureError as exc:
        sys.stdout.write(format_report(exc.report))
        return 1
    except (StructureError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
