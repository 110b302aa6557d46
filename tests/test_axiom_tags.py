"""The table of axiom tags, `reports.AXIOMS`, and the one rule of `--only`.

The table is compared with the benchmark's expectations in
`perfbench/workloads.py`, an independent literal copy of the tags of its
twelve subjects, imported read-only the way `perfbench/run.py` finds it:
with the `perfbench` directory first on `sys.path`.

Over the stored golden CLI outputs, every report declares exactly its
subject's entry and records violations only of tags it declares.  On every
golden input that fails (each has at most 48 arrows), the CLI runs once per
tag its reports declare, in both formats: the human and the machine output
show the same violations, and the exit code is 1 exactly when one is shown.
"""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from nonassoc.reports import AXIOMS, StructureReport, Violation, format_report, report_as_document
from tests.test_golden_cli import CASES, golden_documents, golden_path, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FAIL_LINE = re.compile(r"^FAIL axiom=(\S+) ", re.M)
SUMMARY = re.compile(r"^(PASS|FAIL) (\d+) violations$", re.M)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _machine(text: str) -> tuple[int, dict]:
    """The exit code and the payload of a stored or fresh machine run."""
    first, _, body = text.partition("\n")
    return int(first.removeprefix("exit ")), json.loads(body)


def _reporting_goldens(fmt: str) -> list[Path]:
    return [golden_path(name, command, f) for name, command, f in CASES
            if f == fmt and command != "factorize"]


def test_the_table_matches_the_benchmark_expectations(workloads):
    assert len(workloads.AXIOMS) == 12
    for subject, tags in workloads.AXIOMS.items():
        assert AXIOMS[subject] == tags, subject


def test_every_golden_report_declares_its_subjects_entry():
    reports, paths = 0, _reporting_goldens("machine")
    for path in paths:
        for report in _machine(path.read_text(encoding="utf-8"))[1]["reports"]:
            assert report["axioms"] == list(AXIOMS[report["subject"]]), path.name
            for v in report["violations"]:
                assert v["axiom"] in report["axioms"], (path.name, v)
            reports += 1
    for path in _reporting_goldens("human"):
        for block in path.read_text(encoding="utf-8").split("\n== ")[1:]:
            subject = block.split("\n", 1)[0]
            tags = re.findall(r"^(?:PASS|FAIL) axiom=(\S+)", block, re.M)
            assert set(tags) <= set(AXIOMS[subject]), path.name
            fails = len(FAIL_LINE.findall(block))
            assert SUMMARY.search(block).groups() == ("FAIL" if fails else "PASS", str(fails))
    assert reports > len(paths)


def test_a_violation_of_an_undeclared_tag_is_counted_in_both_forms():
    report = StructureReport("scratch", ("a",))
    report.fail("b", (0,))
    assert format_report(report) == "== scratch\nPASS axiom=a\nFAIL 1 violations\n"
    assert report_as_document(report)["ok"] is False
    assert report.shown("a").violations == [] and report.shown("b").violations == report.violations


FAILING = {
    name: command
    for name, command, fmt in CASES
    if fmt == "machine" and _machine(golden_path(name, command, fmt).read_text())[0] == 1
}


@pytest.fixture(scope="module")
def documents():
    return golden_documents()


@pytest.mark.parametrize("name", sorted(FAILING))
def test_only_shows_the_same_violations_in_both_forms(name, documents, tmp_path):
    command = FAILING[name]
    _, stored = _machine(golden_path(name, command, "machine").read_text(encoding="utf-8"))
    tags = dict.fromkeys(t for r in stored["reports"] for t in r["axioms"])
    codes = set()
    for tag in tags:
        human = run_cli(tmp_path, name, documents[name], ["--only", tag, command])
        code, payload = _machine(
            run_cli(tmp_path, name, documents[name], ["--format", "machine", "--only", tag, command])
        )
        shown = [v for r in payload["reports"] for v in r["violations"]]
        lines = [Violation(v["axiom"], tuple(v["witness"]), v["detail"]).line() for v in shown]
        assert [line for line in human.splitlines() if line.startswith("FAIL axiom=")] == lines
        assert {v["axiom"] for v in shown} <= {tag}
        assert human.startswith(f"exit {code}\n") and code == (1 if shown else 0), tag
        assert payload["ok"] == (not shown)
        codes.add(code)
    assert codes == {0, 1}
