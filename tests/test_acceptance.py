"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  All equality assertions are exact (integer/rational arithmetic);
the only tolerances are the stated wall-clock budgets.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from nonassoc import (
    canonical_factorization,
    check_exact_factorization,
    check_matched_pair,
    check_morphism,
    check_quasigroupoid,
    check_whq,
    coarse_groupoid,
    cyclic_group,
    derived_identity_suite,
    derived_property_suite,
    discrete_groupoid,
    double_cross_product,
    enumerate_factorizations,
    from_quasigroup_action,
    inclusion_a,
    inclusion_h,
    is_hopf_quasigroup,
    is_isomorphism,
    magma_of_quasigroupoid,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    mp_discrete_right,
    pair_quasigroupoid,
    projections,
    pullback_quasigroupoid,
    quasigroup_as_quasigroupoid,
    reconstruct_matched_pair,
    theta_identity_report,
    verify_canonical_iso,
)
from nonassoc.documents import emit, matched_pair_to_doc, quasigroupoid_to_doc, whq_to_doc
from tests import negative_fixtures
from tests.conftest import FLIP, z3_translation


def verdict(number, ok, detail=""):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def builder_instances(z2, z3, m12):
    z4 = cyclic_group(4)
    trivial = [[x for x in range(4)] for _ in range(12)]
    return {
        "one-object z5": quasigroup_as_quasigroupoid(cyclic_group(5)),
        "one-object m12": quasigroup_as_quasigroupoid(m12),
        "action z2 flip": from_quasigroup_action(z2, 2, FLIP),
        "action z3 translation": from_quasigroup_action(z3, 3, z3_translation),
        "action z4 translation": from_quasigroup_action(z4, 4, lambda a, x: (a + x) % 4),
        "action m12 trivial": from_quasigroup_action(m12, 4, trivial),
        "pair z2 x2": pair_quasigroupoid(z2, 2),
        "pair z3 x3": pair_quasigroupoid(z3, 3),
        "pair m12 x3": pair_quasigroupoid(m12, 3),
        "pullback identity": pullback_quasigroupoid(coarse_groupoid(2), 2, [0, 1]),
        "pullback doubling": pullback_quasigroupoid(coarse_groupoid(2), 3, [0, 0, 1]),
        "pullback of point": pullback_quasigroupoid(discrete_groupoid(1), 4, [0, 0, 0, 0]),
        "coarse 1": coarse_groupoid(1),
        "coarse 3": coarse_groupoid(3),
        "coarse 4": coarse_groupoid(4),
        "discrete 1": discrete_groupoid(1),
        "discrete 4": discrete_groupoid(4),
    }


def test_criterion_1_quasigroupoid_soundness(z2, z3, m12):
    slowest = 0.0
    ok = True
    for name, q in builder_instances(z2, z3, m12).items():
        start = time.perf_counter()
        checked = check_quasigroupoid(q)
        derived = derived_identity_suite(q)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        ok = ok and checked.ok and derived.ok and elapsed < 1.0
    verdict(1, ok, f"17 builder instances, slowest {slowest:.3f}s < 1s")


def test_criterion_2_matched_pair_theorem_suite(mp_family):
    start = time.perf_counter()
    ok = len(mp_family) >= 5
    printed_outcomes = []
    for name, mp in mp_family.items():
        ok = ok and check_matched_pair(mp).ok
        ok = ok and matched_pair_identity_suite(mp).ok
        c = canonical_factorization(mp)
        fact = check_exact_factorization(c)
        mixed = mixed_associativity_suite(c, fact)
        ok = ok and mixed.ok
        printed_outcomes.append(
            (name, mixed.data["AHH-swapped"]["failures"], mixed.data["AHH-swapped"]["checked"])
        )
        ok = ok and theta_identity_report(c, fact).ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    swapped = "; ".join(f"{n}: {f}/{c} swapped-AHH failures" for n, f, c in printed_outcomes)
    verdict(2, ok, f"{len(mp_family)} pairs in {elapsed:.2f}s < 5s; {swapped}")


def test_criterion_3_double_cross_product_validity(mp_family):
    ok = True
    for name, mp in mp_family.items():
        dcp = double_cross_product(mp)
        ok = ok and check_quasigroupoid(dcp).ok
        for incl in (inclusion_a(mp, dcp), inclusion_h(mp, dcp)):
            ok = ok and check_morphism(incl).ok
            ok = ok and len(set(incl.arrow_map)) == len(incl.arrow_map)
    verdict(3, ok, f"{len(mp_family)} products with monic inclusions")


def test_criterion_4_exact_factorization_round_trip(mp_family):
    ok = True
    for name, mp in mp_family.items():
        candidate = canonical_factorization(mp)
        ok = ok and check_exact_factorization(candidate).ok
        rebuilt, gamma = reconstruct_matched_pair(candidate)
        ok = ok and rebuilt.left.table == mp.left.table
        ok = ok and rebuilt.right.table == mp.right.table
        ok = ok and is_isomorphism(gamma) and check_morphism(gamma).ok
    found = enumerate_factorizations(discrete_groupoid(2))
    ok = ok and [(c.ia.arrow_map, c.ih.arrow_map) for c in found] == [((0, 1), (0, 1))]
    found = enumerate_factorizations(coarse_groupoid(2))
    shapes = [(c.ia.arrow_map, c.ih.arrow_map) for c in found]
    ok = ok and shapes == [((0, 3), (0, 1, 2, 3)), ((0, 1, 2, 3), (0, 3))]
    verdict(4, ok, "round trips exact; enumerations match expected lists")


def criterion_5_structures(z2, z3, m12, mp_family):
    structures = dict(builder_instances(z2, z3, m12))
    for name, mp in mp_family.items():
        structures[f"dcp {name}"] = double_cross_product(mp, check=False)
        structures[f"a of {name}"] = mp.a
        structures[f"h of {name}"] = mp.h
    return {name: q for name, q in structures.items() if q.n_arrows <= 50}


def test_criterion_5_weak_hopf_axioms(z2, z3, m12, mp_family):
    start = time.perf_counter()
    structures = criterion_5_structures(z2, z3, m12, mp_family)
    largest = max(q.n_arrows for q in structures.values())
    ok = largest >= 48  # the M(S3,2)-based product is in range
    for name, q in structures.items():
        d = magma_of_quasigroupoid(q)
        report = check_whq(d)
        ok = ok and report.ok
        ok = ok and derived_property_suite(d).ok
        pi_l, pi_r, _, _ = projections(d)
        for b in range(q.n_arrows):
            ok = ok and pi_l.cols[b] == {q.unit[q.tgt[b]]: 1}
            ok = ok and pi_r.cols[b] == {q.unit[q.src[b]]: 1}
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(
        5, ok,
        f"{len(structures)} magmas up to {largest} arrows in {elapsed:.2f}s < 10s",
    )


def test_criterion_6_main_theorem_oracle_equivalence(mp_family):
    ok = True
    for name, mp in mp_family.items():
        report = verify_canonical_iso(mp)
        ok = ok and report.ok
    verdict(6, ok, f"{len(mp_family)} isomorphisms, structure constants equal exactly")


def test_criterion_7_quasigroup_corollary(z2, m12):
    ok = True
    for q in (z2, m12):
        mp = mp_discrete_right(quasigroup_as_quasigroupoid(q))
        source = magma_of_quasigroupoid(double_cross_product(mp))
        from nonassoc import bowtie_whq

        target = bowtie_whq(mp)
        ok = ok and is_hopf_quasigroup(source) and is_hopf_quasigroup(target)
        ok = ok and verify_canonical_iso(mp).ok
    verdict(7, ok, "one-object cases are Hopf and isomorphic")


def test_criterion_8_negative_path_coverage():
    outcomes = negative_fixtures.collect()
    ok = set(outcomes) == set(negative_fixtures.ALL_TAGS)
    for key, (report, tag) in outcomes.items():
        fired = report.violations_for(tag)
        ok = ok and bool(fired)
    verdict(8, ok, f"{len(outcomes)} corrupted fixtures all rejected with witnesses")


def run_cli_batch(tmp_path: Path) -> bytes:
    z3 = cyclic_group(3)
    from nonassoc import mp_action_left

    mp = mp_action_left(z3, 3, z3_translation)
    mp_path = tmp_path / "mp.json"
    mp_path.write_text(emit(matched_pair_to_doc(mp)))
    coarse_path = tmp_path / "coarse.json"
    coarse_path.write_text(emit(quasigroupoid_to_doc(coarse_groupoid(2))))
    whq_path = tmp_path / "whq.json"
    whq_path.write_text(emit(whq_to_doc(magma_of_quasigroupoid(coarse_groupoid(2)))))
    commands = [
        ["suite", str(mp_path)],
        ["validate", str(coarse_path)],
        ["suite", str(whq_path)],
        ["check-iso", str(mp_path)],
        ["factorize", str(coarse_path)],
        ["build", "dcp", str(mp_path)],
        ["build", "bowtie", str(mp_path)],
        ["--format", "machine", "suite", str(mp_path)],
    ]
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    blob = b""
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "nonassoc"] + command,
            capture_output=True,
            check=False,
            env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        blob += proc.stdout
    return blob


def test_criterion_9_cli_determinism(tmp_path):
    first = run_cli_batch(tmp_path)
    second = run_cli_batch(tmp_path)
    ok = first == second and len(first) > 0
    verdict(9, ok, f"{len(first)} report bytes identical across runs")
