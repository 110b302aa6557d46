"""Violation reporting shared by every checker in the package.

Checkers never raise on a broken law: they record one `Violation` per
failing instance and keep going, so a report doubles as a regression
diagnostic.  Exceptions are reserved for inputs that cannot even be
interpreted as a candidate structure (bad indices, mismatched bases,
wrong dimensions).

`AXIOMS` maps each report subject to the tags its report declares, in
report order; composite entries are built from their parts' entries.
`StructureReport.shown` is the one rule of what `--only` shows, and
`StructureReport.require` the one rule of admission: a constructor that
validates its input raises `InvalidStructureError` through it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

AXIOMS: dict[str, tuple[str, ...]] = {
    "quasigroup": ("identity", "inverse"),
    "quasigroup derived identities": ("inv-involutive", "inv-antihom"),
    "quasigroup action": ("action-unit", "action-mult"),
    "quasigroupoid": ("prod-domain", "a1", "a2-1", "a2-2", "a2-3"),
    "quasigroupoid derived identities": tuple(f"E-{i}" for i in range(1, 7)),
    "quasigroupoid morphism": ("b1", "b2", "b3", "b4"),
    "left action": ("c1", "c2", "c3"),
    "right action": ("d1", "d2", "d3"),
    "matched pair identities": tuple(f"P-{i}" for i in range(1, 11)),
    "mixed associativity": ("HAA", "HHA", "HAH", "AHA", "AAH", "AHH"),
    "theta map": ("theta-identity",),
    "weak Hopf quasigroup": (
        "magma-unit", "coalg1", "coalg2", "d1", "d2", "d3", *(f"d4-{i}" for i in range(1, 8)),
    ),
    "weak Hopf quasigroup derived properties": (
        "conv-unit", "proj-unit", "proj-counit", "antipode-unit", "antipode-counit",
        "antimult", "anticomult", "conv-idem", "proj-idem", "bar-images",
        "cocomm-bars", "target-assoc", "source-assoc",
    ),
    "weak Hopf quasigroup morphism": ("coalg-counit", "coalg-coprod", "mkl1", "mkl2", "mkl3", "mkl4"),
    "linearized action module laws": ("left-unit", "left-assoc", "right-unit", "right-assoc"),
}
# composite reports: the tags of their parts, in the order they are checked
AXIOMS["matched pair"] = (*AXIOMS["left action"], *AXIOMS["right action"], "e1", "e2", "e3")
AXIOMS["matched pair morphism"] = (
    "base-agree",
    *(f"{side}-{tag}" for side in ("gamma", "omega") for tag in AXIOMS["quasigroupoid morphism"]),
    "mp-left", "mp-right",
)
AXIOMS["exact factorization"] = ("mono-A", "mono-H", *AXIOMS["mixed associativity"], "theta-bijective")
AXIOMS["canonical isomorphism"] = (
    "bijective",
    *AXIOMS["weak Hopf quasigroup morphism"],
    *(f"oracle-{part}" for part in ("unit", "product", "counit", "coproduct", "antipode")),
)


class StructureError(ValueError):
    """Input is malformed or violates a checker precondition."""


class DimensionMismatch(StructureError):
    """Linear-map shapes are incompatible."""


class BoundExceeded(StructureError):
    """A guarded brute-force search was asked to exceed its size bound."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str = ""

    def line(self) -> str:
        inner = ",".join(str(part) for part in self.witness)
        text = f"FAIL axiom={self.axiom} witness=({inner})"
        if self.detail:
            text += f" {self.detail}"
        return text


@dataclass
class StructureReport:
    """Outcome of one checker run: the axioms swept and every violation found."""

    subject: str
    axioms: tuple[str, ...] = ()
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @classmethod
    def of(cls, subject: str) -> "StructureReport":
        """An empty report declaring the tags `AXIOMS` gives its subject."""
        return cls(subject, AXIOMS[subject])

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_for(self, axiom: str) -> list[Violation]:
        return [v for v in self.violations if v.axiom == axiom]

    def failed_axioms(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for v in self.violations:
            seen.setdefault(v.axiom, None)
        return tuple(seen)

    def fail(self, axiom: str, witness: tuple, detail: str = "") -> None:
        self.violations.append(Violation(axiom, witness, detail))

    def require(self) -> "StructureReport":
        """This report when it found no violation; otherwise raise
        `InvalidStructureError` carrying it."""
        if self.violations:
            raise InvalidStructureError(self)
        return self

    def shown(self, only: str | None) -> "StructureReport":
        """What `--only only` shows of this report: the tag, if declared,
        its violations and no notes; the whole report when `only` is None."""
        if only is None:
            return self
        tags = (only,) if only in self.axioms else ()
        return StructureReport(self.subject, tags, self.violations_for(only))


class InvalidStructureError(StructureError):
    """Eager validation failed; carries the offending report."""

    def __init__(self, report: StructureReport):
        self.report = report
        failed = ", ".join(report.failed_axioms())
        super().__init__(f"{report.subject}: violations in {failed}")


def format_report(report: StructureReport, only: str | None = None) -> str:
    """Stable, diff-friendly text: one PASS/FAIL line per check and a summary.

    `only` restricts output (and the summary count) to a single axiom tag,
    as `StructureReport.shown` decides.
    """
    shown = report.shown(only)
    lines = [f"== {report.subject}"]
    for tag in shown.axioms:
        bad = shown.violations_for(tag)
        if not bad:
            lines.append(f"PASS axiom={tag}")
        lines.extend(v.line() for v in bad)
    lines.extend(f"note: {note}" for note in shown.notes)
    verdict = "FAIL" if shown.violations else "PASS"
    lines.append(f"{verdict} {len(shown.violations)} violations")
    return "\n".join(lines) + "\n"


def report_as_document(report: StructureReport, only: str | None = None) -> dict:
    """Machine-readable mirror of `format_report` (consumed by the CLI)."""
    shown = report.shown(only)
    return {
        "subject": report.subject,
        "axioms": list(shown.axioms),
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
            for v in shown.violations
        ],
        "notes": list(shown.notes),
        "ok": shown.ok,
    }
