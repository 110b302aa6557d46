"""Seeded inputs, job lists and expected verdicts for the benchmark workloads.

Every structure is made by the library's own constructors and then
relabelled by permutations drawn from the workload seed (loop elements,
base objects and arrows).  The seed also picks which entry each corrupted
copy alters, always inside a class of entries on which the verdict does not
depend.  The program sees only the generated documents, and every expected
outcome below is invariant under the seed, so each seed is checked against
the same fixed expectations.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("whq-grouplike", "whq-dual", "mp-twosided", "small-catalogue")

# Axiom tags of each report, keyed by its subject line.
AXIOMS = {
    "quasigroup": ("identity", "inverse"),
    "quasigroup derived identities": ("inv-involutive", "inv-antihom"),
    "quasigroupoid": ("prod-domain", "a1", "a2-1", "a2-2", "a2-3"),
    "quasigroupoid derived identities": ("E-1", "E-2", "E-3", "E-4", "E-5", "E-6"),
    "matched pair": ("c1", "c2", "c3", "d1", "d2", "d3", "e1", "e2", "e3"),
    "matched pair identities": tuple(f"P-{i}" for i in range(1, 11)),
    "mixed associativity": ("HAA", "HHA", "HAH", "AHA", "AAH", "AHH"),
    "theta map": ("theta-identity",),
    "weak Hopf quasigroup": (
        "magma-unit", "coalg1", "coalg2", "d1", "d2", "d3",
        "d4-1", "d4-2", "d4-3", "d4-4", "d4-5", "d4-6", "d4-7",
    ),
    "weak Hopf quasigroup derived properties": (
        "conv-unit", "proj-unit", "proj-counit", "antipode-unit", "antipode-counit",
        "antimult", "anticomult", "conv-idem", "proj-idem", "bar-images",
        "cocomm-bars", "target-assoc", "source-assoc",
    ),
    "canonical isomorphism": (
        "bijective", "coalg-counit", "coalg-coprod", "mkl1", "mkl2", "mkl3", "mkl4",
        "oracle-unit", "oracle-product", "oracle-counit", "oracle-coproduct",
        "oracle-antipode",
    ),
    "exact factorization": (
        "mono-A", "mono-H", "HAA", "HHA", "HAH", "AHA", "AAH", "AHH", "theta-bijective",
    ),
}

# (configurations checked, failures) of AHH with swapped right-hand factors,
# from the mixed-associativity note; an isomorphism invariant.
AHH_SWAPPED = {
    "discrete-right pair(z2,2)": (8, 0),
    "discrete-right coarse(2)": (4, 0),
    "discrete-right pair(m12,2)": (48, 0),
    "action-left z2 flip": (8, 6),
    "action-left z3 translation": (27, 24),
    "one-object z2": (2, 0),
    "one-object m12": (12, 0),
    "two-sided m6": (5184, 1944),
    "two-sided m8": (9216, 3456),
}

# pair_quasigroupoid(M12, m) sizes of the ROADMAP ladder: 48, 108, 192 arrows
LADDER = (2, 3, 4)

# Number of exact factorizations `factorize` finds on each 12-arrow input.
FACTORIZATIONS = {"M12": 2, "D6": 36, "pair(C3,2)": 8, "coarse(3)": 2}

# Axioms a corrupted copy must fail; every other axiom must pass.
SWAPPED_ANTIPODE = {"d4-1", "d4-2", "d4-3"}
SWAPPED_ANTIPODE_ONE_OBJECT = SWAPPED_ANTIPODE | {"d4-4", "d4-5", "d4-6", "d4-7"}
LEFT_UNIT_BROKEN = {"c2", "c3", "e1", "e2", "e3"}
ROW_SWAPPED = {"inverse"}

WHQ = ("weak Hopf quasigroup", "weak Hopf quasigroup derived properties")
MP_SUITE = ("matched pair", "matched pair identities", "mixed associativity", "theta map")


@dataclass
class Outcome:
    """What one job returned: a CLI exit code or a library call's value."""

    value: object
    stdout: str
    error: str | None  # traceback, when the job raised
    seconds: float


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[Outcome], str | None]  # None when the outcome is right


@dataclass
class Workload:
    jobs: list[Job]
    largest: tuple[str, ...]  # the top rung's jobs, whose summed time is largest_s
    # (arrows, job timing check_whq, job timing verify_canonical_iso or
    # None) for each rung that `hopf.check_whq.exponent` is fitted over
    ladder: list[tuple[int, str, str | None]] = field(default_factory=list)
    # jobs that only traced runs make and run after the traced pass
    traced_jobs: Callable[[], list[Job]] | None = None


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

_AHH_NOTE = re.compile(
    r"AHH with swapped right-hand factors "
    r"(?:fails at (\d+)/(\d+) configurations|holds at all (\d+) configurations)"
)


def parse_reports(text: str) -> tuple[list[dict], str | None]:
    """Split human CLI output into reports: subject, per-axiom outcome, notes."""
    reports, overall = [], None
    for line in text.splitlines():
        if line.startswith("== "):
            reports.append({"subject": line[3:], "axioms": {}, "fails": 0, "notes": [], "summary": None})
        elif line.startswith("OVERALL "):
            overall = line
        elif not reports:
            raise ValueError(f"output before the first report: {line!r}")
        elif line.startswith(("PASS axiom=", "FAIL axiom=")):
            verdict, rest = line.split(" axiom=", 1)
            tag = rest.split(" ", 1)[0]
            axioms = reports[-1]["axioms"]
            axioms[tag] = "FAIL" if "FAIL" in (verdict, axioms.get(tag)) else "PASS"
            reports[-1]["fails"] += verdict == "FAIL"
        elif line.startswith("note: "):
            reports[-1]["notes"].append(line[6:])
        elif re.fullmatch(r"(PASS|FAIL) \d+ violations", line):
            reports[-1]["summary"] = line
        else:
            raise ValueError(f"unexpected line: {line!r}")
    return reports, overall


def _cli_failure(out: Outcome, code: int) -> str | None:
    if out.error:
        return "raised:\n" + out.error
    if out.value != code:
        return f"exit code {out.value}, expected {code}"
    return None


def expect_reports(code: int, sections, ahh=None, associative=None):
    """Exit code, then each report in order: `sections` lists (subject,
    axioms that must FAIL); the subject's other known axioms, and any axiom
    the table does not know yet, must PASS.  `ahh` is the expected
    (checked, failures) AHH-swapped count; `associative` the expected
    associativity note of a quasigroup suite."""

    def check(out: Outcome) -> str | None:
        problem = _cli_failure(out, code)
        if problem:
            return problem
        try:
            reports, overall = parse_reports(out.stdout)
        except ValueError as exc:
            return str(exc)
        if [r["subject"] for r in reports] != [s for s, _ in sections]:
            return f"reports {[r['subject'] for r in reports]}"
        total = 0
        for report, (subject, failing) in zip(reports, sections):
            outcome = report["axioms"]
            missing = set(AXIOMS[subject]) - set(outcome)
            if missing:
                return f"{subject}: axioms {sorted(missing)} not reported"
            failed = {tag for tag, v in outcome.items() if v == "FAIL"}
            if failed != set(failing):
                return f"{subject}: failed {sorted(failed)}, expected {sorted(failing)}"
            fails = report["fails"]
            if report["summary"] != f"{'FAIL' if fails else 'PASS'} {fails} violations":
                return f"{subject}: summary {report['summary']!r} after {fails} FAIL lines"
            total += fails
        if len(reports) > 1:
            verdict = "FAIL" if total else "PASS"
            if overall != f"OVERALL {verdict} {total} violations":
                return f"overall line {overall!r}"
        notes = " | ".join(n for r in reports for n in r["notes"])
        if ahh is not None:
            match = _AHH_NOTE.search(notes)
            if not match:
                return "no AHH-swapped note"
            found = (
                (int(match[3]), 0) if match[3] else (int(match[2]), int(match[1]))
            )
            if found != ahh:
                return f"AHH-swapped (checked, failures) {found}, expected {ahh}"
        if associative is not None:
            first = notes.split(",", 1)[0]
            if first != ("associative" if associative else "nonassociative"):
                return f"associativity note {notes!r}"
        return None

    return check


def expect_document(path: Path, kind: str, size_field: str, size: int, same_as: Path | None = None):
    """A build job wrote `path`: a `kind` document of the given size, byte
    for byte equal to `same_as` when given."""

    def check(out: Outcome) -> str | None:
        problem = _cli_failure(out, 0)
        if problem:
            return problem
        if out.stdout:
            return "build wrote to stdout"
        data = path.read_bytes()
        doc = json.loads(data)
        if doc.get("kind") != kind or doc.get(size_field) != size:
            return f"{path.name}: kind {doc.get('kind')} {size_field} {doc.get(size_field)}"
        if same_as is not None and data != same_as.read_bytes():
            return f"{path.name} differs from {same_as.name}"
        return None

    return check


def expect_factorizations(count: int):
    def check(out: Outcome) -> str | None:
        problem = _cli_failure(out, 0)
        if problem:
            return problem
        lines = out.stdout.splitlines()
        listed = [line for line in lines if line.startswith("factorization ")]
        if lines[-1:] != [f"PASS {count} factorizations"] or len(listed) != count:
            return f"factorize printed {lines[-1:]} and {len(listed)} factorizations"
        return None

    return check


def expect_exact_factorization(out: Outcome) -> str | None:
    if out.error:
        return "raised:\n" + out.error
    report = out.value
    missing = set(AXIOMS["exact factorization"]) - set(report.axioms)
    if missing or report.violations:
        return f"exact factorization: missing {sorted(missing)}, failed {report.failed_axioms()}"
    return None


def expect_all_ok(out: Outcome) -> str | None:
    if out.error:
        return "raised:\n" + out.error
    failed = [f"{r.subject}: {r.failed_axioms()}" for r in out.value if not r.ok]
    return "; ".join(failed) or None


def expect_reconstruction(n_a: int, n_h: int, n_mixed: int, n_b: int):
    def check(out: Outcome) -> str | None:
        if out.error:
            return "raised:\n" + out.error
        mp, gamma = out.value
        shape = (mp.a.n_arrows, mp.h.n_arrows, len(mp.left.table), len(mp.right.table))
        if shape != (n_a, n_h, n_mixed, n_mixed):
            return f"reconstructed (A, H, left, right) sizes {shape}"
        if sorted(gamma.arrow_map) != list(range(n_b)):
            return "reconstructed isomorphism is not a bijection onto the ambient arrows"
        return None

    return check


# ---------------------------------------------------------------------------
# seeded relabelling
# ---------------------------------------------------------------------------


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _permuted(names, p):
    if not names:
        return names
    out = [None] * len(p)
    for old, new in enumerate(p):
        out[new] = names[old]
    return tuple(out)


def relabel_quasigroup(na, q, rng):
    p = _perm(rng, q.order)
    table = [[0] * q.order for _ in range(q.order)]
    for u, row in enumerate(q.table):
        for v, w in enumerate(row):
            table[p[u]][p[v]] = p[w]
    names = _permuted(tuple(q.name(u) for u in range(q.order)), p)
    return na.quasigroup(table, p[q.identity], names)


def relabel_quasigroupoid(na, q, rng, objects=None):
    """Isomorphic copy under an object permutation (drawn unless given) and
    a drawn arrow permutation; returns the copy and the arrow permutation."""
    obj = objects or _perm(rng, q.n_objects)
    arr = _perm(rng, q.n_arrows)
    k = q.n_arrows
    src, tgt, inv = [0] * k, [0] * k, [0] * k
    for a in range(k):
        src[arr[a]] = obj[q.src[a]]
        tgt[arr[a]] = obj[q.tgt[a]]
        inv[arr[a]] = arr[q.inv[a]]
    unit = [0] * q.n_objects
    for x, e in enumerate(q.unit):
        unit[obj[x]] = arr[e]
    copy = na.Quasigroupoid(
        n_objects=q.n_objects,
        src=tuple(src),
        tgt=tuple(tgt),
        unit=tuple(unit),
        inv=tuple(inv),
        prod={(arr[a], arr[b]): arr[c] for (a, b), c in q.prod.items()},
        object_names=_permuted(q.object_names, obj),
        arrow_names=_permuted(q.arrow_names, arr),
    )
    return copy, arr


def relabel_matched_pair(na, mp, rng):
    obj = _perm(rng, mp.a.n_objects)
    a, pa = relabel_quasigroupoid(na, mp.a, rng, obj)
    h, ph = relabel_quasigroupoid(na, mp.h, rng, obj)
    left = {(ph[x], pa[y]): pa[v] for (x, y), v in mp.left.table.items()}
    right = {(ph[x], pa[y]): ph[v] for (x, y), v in mp.right.table.items()}
    return na.matched_pair(a, h, left, right)


def function_algebra(na, g):
    """K^G: e_g e_h = [g = h] e_g, delta(e_g) = sum over ab = g of e_a (x) e_b,
    eps(e_g) = [g = 1], S(e_g) = e_{g^-1}, unit the sum of all e_g."""
    n = g.order
    coproduct_cols = [{} for _ in range(n)]
    for a in range(n):
        for b in range(n):
            coproduct_cols[g.mul(a, b)][a * n + b] = 1
    return na.MagmaCoalgebra(
        n,
        {x: 1 for x in range(n)},
        na.LinearMap.from_basis(n * n, n, lambda t: t // n if t // n == t % n else None),
        na.LinearMap.from_basis(n, 1, lambda x: 0 if x == g.identity else None),
        na.LinearMap.from_cols(n, n * n, coproduct_cols),
        na.LinearMap.from_basis(n, n, g.inv),
        tuple(g.name(x) for x in range(n)),
    )


def swap_antipode_columns(doc: dict, i: int, j: int) -> dict:
    swap = {i: j, j: i}
    bad = dict(doc)
    bad["antipode"] = sorted([swap.get(col, col), k, c] for col, k, c in doc["antipode"])
    return bad


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Env:
    """The freshly imported package, the seeded generator and the work
    directory of one set-up."""

    def __init__(self, na, rng: random.Random, workdir: Path):
        self.na, self.rng, self.workdir = na, rng, workdir

    def write(self, name: str, doc: dict) -> Path:
        path = self.workdir / name
        path.write_text(self.na.documents.emit(doc), encoding="utf-8")
        return path

    def cli(self, name: str, argv, check) -> Job:
        argv = [str(a) for a in argv]
        return Job(name, lambda: self.na.cli.main(argv), check)


def _whq_grouplike(env: _Env, smallest: bool) -> Workload:
    na, rng = env.na, env.rng
    jobs = []
    for m in (1,) if smallest else (1, 2):
        # m = 1 is the one-object M12: every pair of arrows composes
        label = f"m{m}"
        base = na.pair_quasigroupoid(relabel_quasigroup(na, na.moufang_loop_12(), rng), m)
        mp = relabel_matched_pair(na, na.mp_discrete_right(base), rng)
        dcp = na.double_cross_product(mp)
        n, one_object = dcp.n_arrows, dcp.n_objects == 1
        magma_doc = na.documents.whq_to_doc(na.magma_of_quasigroupoid(dcp))
        others = [x for x in range(n) if x not in dcp.unit]
        i = rng.choice(others)
        j = rng.choice([
            x for x in others
            if x != i and (one_object or (dcp.src[x] != dcp.src[i] and dcp.tgt[x] != dcp.tgt[i]))
        ])
        mp_path = env.write(f"{label}-mp.json", na.documents.matched_pair_to_doc(mp))
        swapped = env.write(f"{label}-swapped.json", swap_antipode_columns(magma_doc, i, j))
        dcp_path, magma, bowtie = (env.workdir / f"{label}-{w}.json" for w in ("dcp", "magma", "bowtie"))
        failing = SWAPPED_ANTIPODE_ONE_OBJECT if one_object else SWAPPED_ANTIPODE
        jobs += [
            env.cli(f"{label} build dcp", ["build", "dcp", mp_path, "-o", dcp_path],
                    expect_document(dcp_path, "quasigroupoid", "arrows", n)),
            env.cli(f"{label} build magma", ["build", "magma", dcp_path, "-o", magma],
                    expect_document(magma, "whq", "dim", n)),
            env.cli(f"{label} build bowtie", ["build", "bowtie", mp_path, "-o", bowtie],
                    expect_document(bowtie, "whq", "dim", n, same_as=magma)),
            env.cli(f"{label} suite", ["suite", magma],
                    expect_reports(0, [(s, ()) for s in WHQ])),
            env.cli(f"{label} check-iso", ["check-iso", mp_path],
                    expect_reports(0, [("canonical isomorphism", ())])),
            env.cli(f"{label} check-whq swapped", ["check-whq", swapped],
                    expect_reports(1, [("weak Hopf quasigroup", failing)])),
        ]
    ladder = [(12 * m * m, f"ladder m{m}", f"ladder m{m}") for m in LADDER]
    top = tuple(job.name for job in jobs[-6:])
    return Workload(jobs, top, ladder, traced_jobs=lambda: _roadmap_ladder(na, rng))


def _roadmap_ladder(na, rng) -> list[Job]:
    """The ROADMAP's size ladder as library calls on in-memory magmas.

    Documents carry Fraction scalars, which make `check_whq` about twenty
    times slower through the CLI than on these integer-coefficient magmas;
    at 108 and 192 arrows the CLI path would not fit a run, so traced runs
    time the ladder here, the way the ROADMAP's baseline was taken."""
    jobs = []
    for m in LADDER:
        loop = relabel_quasigroup(na, na.moufang_loop_12(), rng)
        mp = relabel_matched_pair(na, na.mp_discrete_right(na.pair_quasigroupoid(loop, m)), rng)
        magma = na.magma_of_quasigroupoid(na.double_cross_product(mp))

        def call(magma=magma, mp=mp):
            return na.check_whq(magma), na.derived_property_suite(magma), na.verify_canonical_iso(mp)

        jobs.append(Job(f"ladder m{m}", call, expect_all_ok))
    return jobs


def _whq_dual(env: _Env, smallest: bool) -> Workload:
    na, rng = env.na, env.rng
    groups = [("S3", lambda: na.symmetric_group(3))]
    if not smallest:
        groups += [
            ("D6", lambda: na.dihedral_group(6)),
            ("Q8xC2", lambda: na.direct_product(na.quaternion_group(), na.cyclic_group(2))),
        ]
    jobs, ladder = [], []
    for label, make in groups:
        g = relabel_quasigroup(na, make(), rng)
        doc = na.documents.whq_to_doc(function_algebra(na, g))
        i, j = rng.sample([x for x in range(g.order) if x != g.identity], 2)
        path = env.write(f"K{label}.json", doc)
        swapped = env.write(f"K{label}-swapped.json", swap_antipode_columns(doc, i, j))
        jobs += [
            env.cli(f"K^{label} suite", ["suite", path], expect_reports(0, [(s, ()) for s in WHQ])),
            env.cli(f"K^{label} check-whq swapped", ["check-whq", swapped],
                    expect_reports(1, [("weak Hopf quasigroup", SWAPPED_ANTIPODE)])),
        ]
        ladder.append((g.order, f"K^{label} suite", None))
    return Workload(jobs, tuple(job.name for job in jobs[-2:]), ladder)


def _mp_twosided(env: _Env, smallest: bool) -> Workload:
    na, rng = env.na, env.rng
    jobs = []
    for m in (6,) if smallest else (6, 8):
        label = f"m{m}"
        loop = relabel_quasigroup(na, na.moufang_loop_12(), rng)
        plain = na.pair_quasigroupoid(loop, m)
        b, arr = relabel_quasigroupoid(na, plain, rng)

        def arrow(a, x, y):  # pair_quasigroupoid's arrow numbering
            return (a * m + x) * m + y

        coarse = tuple(sorted(arr[arrow(loop.identity, x, y)] for x in range(m) for y in range(m)))
        bundle = tuple(sorted(arr[arrow(a, x, x)] for a in range(loop.order) for x in range(m)))
        candidate = na.FactorizationCandidate(
            b, na.sub_quasigroupoid(b, coarse)[1], na.sub_quasigroupoid(b, bundle)[1]
        )
        mp, _ = na.reconstruct_matched_pair(candidate)
        mp_doc = na.documents.matched_pair_to_doc(mp)
        y = rng.randrange(mp.a.n_arrows)
        e = mp.h.unit[mp.a.tgt[y]]
        z = rng.choice([x for x in range(mp.a.n_arrows) if x != y and mp.a.tgt[x] == mp.a.tgt[y]])
        bad = dict(mp_doc)
        bad["left"] = [[h, a, z if (h, a) == (e, y) else v] for h, a, v in mp_doc["left"]]

        fact = env.write(f"{label}-fact.json", na.documents.factorization_to_doc(candidate))
        mp_path = env.write(f"{label}-mp.json", mp_doc)
        bad_path = env.write(f"{label}-bad.json", bad)
        dcp_path = env.workdir / f"{label}-dcp.json"

        def factorization(path=fact):
            return na.documents.doc_to_factorization(na.documents.parse(path.read_text(encoding="utf-8")))

        n_b, n_a, n_h = b.n_arrows, m * m, loop.order * m
        jobs += [
            Job(f"{label} check_exact_factorization",
                lambda f=factorization: na.check_exact_factorization(f()),
                expect_exact_factorization),
            Job(f"{label} reconstruct_matched_pair",
                lambda f=factorization: na.reconstruct_matched_pair(f()),
                expect_reconstruction(n_a, n_h, n_h * m, n_b)),
            env.cli(f"{label} suite mp", ["suite", mp_path],
                    expect_reports(0, [(s, ()) for s in MP_SUITE], ahh=AHH_SWAPPED[f"two-sided {label}"])),
            env.cli(f"{label} build dcp", ["build", "dcp", mp_path, "-o", dcp_path],
                    expect_document(dcp_path, "quasigroupoid", "arrows", n_b)),
            env.cli(f"{label} suite dcp", ["suite", dcp_path],
                    expect_reports(0, [("quasigroupoid", ()), ("quasigroupoid derived identities", ())])),
            env.cli(f"{label} validate bad", ["validate", bad_path],
                    expect_reports(1, [("matched pair", LEFT_UNIT_BROKEN)])),
        ]
    return Workload(jobs, tuple(job.name for job in jobs[-6:]))


def matched_pair_family(na):
    """The matched pairs the test suite sweeps: both canonical families, one
    nonassociative member and two one-object cases."""
    z2, z3, m12 = na.cyclic_group(2), na.cyclic_group(3), na.moufang_loop_12()
    return {
        "discrete-right pair(z2,2)": na.mp_discrete_right(na.pair_quasigroupoid(z2, 2)),
        "discrete-right coarse(2)": na.mp_discrete_right(na.coarse_groupoid(2)),
        "discrete-right pair(m12,2)": na.mp_discrete_right(na.pair_quasigroupoid(m12, 2)),
        "action-left z2 flip": na.mp_action_left(z2, 2, [[0, 1], [1, 0]]),
        "action-left z3 translation": na.mp_action_left(z3, 3, lambda a, x: (a + x) % 3),
        "one-object z2": na.mp_discrete_right(na.quasigroup_as_quasigroupoid(z2)),
        "one-object m12": na.mp_discrete_right(na.quasigroup_as_quasigroupoid(m12)),
    }


def _small_catalogue(env: _Env, smallest: bool) -> Workload:
    na, rng = env.na, env.rng
    jobs = []
    for i, (label, mp) in enumerate(matched_pair_family(na).items()):
        path = env.write(f"family{i}.json", na.documents.matched_pair_to_doc(relabel_matched_pair(na, mp, rng)))
        jobs += [
            env.cli(f"{label} suite", ["suite", path],
                    expect_reports(0, [(s, ()) for s in MP_SUITE], ahh=AHH_SWAPPED[label])),
            env.cli(f"{label} check-iso", ["check-iso", path],
                    expect_reports(0, [("canonical isomorphism", ())])),
        ]
    for label, make in (
        ("M12", lambda: na.quasigroup_as_quasigroupoid(na.moufang_loop_12())),
        ("D6", lambda: na.quasigroup_as_quasigroupoid(na.dihedral_group(6))),
        ("pair(C3,2)", lambda: na.pair_quasigroupoid(na.cyclic_group(3), 2)),
        ("coarse(3)", lambda: na.coarse_groupoid(3)),
    ):
        q, _ = relabel_quasigroupoid(na, make(), rng)
        path = env.write(f"factorize-{label}.json", na.documents.quasigroupoid_to_doc(q))
        jobs.append(env.cli(f"factorize {label}", ["factorize", path],
                            expect_factorizations(FACTORIZATIONS[label])))
    for label, make, associative in (
        ("M12", na.moufang_loop_12, False),
        ("M(S4,2)", lambda: na.chein_double(na.symmetric_group(4)), False),
        ("Q8", na.quaternion_group, True),
    ):
        doc = na.documents.quasigroup_to_doc(relabel_quasigroup(na, make(), rng))
        path = env.write(f"quasigroup-{label}.json", doc)
        jobs.append(env.cli(f"{label} suite", ["suite", path],
                            expect_reports(0, [("quasigroup", ()), ("quasigroup derived identities", ())],
                                           associative=associative)))
        if label == "M12":
            others = [x for x in range(doc["order"]) if x != doc["identity"]]
            u = rng.choice(others)
            v, w = rng.sample(others, 2)
            bad = dict(doc, table=[list(row) for row in doc["table"]])
            bad["table"][u][v], bad["table"][u][w] = bad["table"][u][w], bad["table"][u][v]
            bad_path = env.write("quasigroup-M12-bad.json", bad)
            jobs.append(env.cli("M12 validate bad", ["validate", bad_path],
                                expect_reports(1, [("quasigroup", ROW_SWAPPED)])))
    return Workload(jobs, ("factorize M12",))


_BUILDERS = {
    "whq-grouplike": _whq_grouplike,
    "whq-dual": _whq_dual,
    "mp-twosided": _mp_twosided,
    "small-catalogue": _small_catalogue,
}


def build(name: str, na, seed: int, workdir: Path, smallest: bool) -> Workload:
    """Write the workload's input documents for `seed` into `workdir` and
    return its jobs.  `na` is the imported `nonassoc` package;
    `smallest` keeps only the first rung."""
    rng = random.Random(f"{name}/{seed}")
    return _BUILDERS[name](_Env(na, rng, Path(workdir)), smallest)
