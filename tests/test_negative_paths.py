"""Mutation testing of the checkers: every axiom tag must be rejected, with
a usable witness, on at least one corrupted fixture."""

import pytest

from nonassoc import magma_of_quasigroupoid, coarse_groupoid
from tests import negative_fixtures


@pytest.fixture(scope="module")
def outcomes():
    return negative_fixtures.collect()


def test_matrix_covers_every_tag(outcomes):
    assert set(outcomes) == set(negative_fixtures.ALL_TAGS)


@pytest.mark.parametrize("key", negative_fixtures.ALL_TAGS)
def test_corruption_is_rejected(outcomes, key):
    report, tag = outcomes[key]
    assert not report.ok
    bad = report.violations_for(tag)
    assert bad, f"{key}: expected tag {tag}, got {report.failed_axioms()}"
    assert all(isinstance(v.witness, tuple) for v in bad)


@pytest.mark.parametrize("tag", ["magma-unit", "coalg1", "coalg2"])
def test_a_failed_precondition_skips_the_axiom_sweep(outcomes, tag):
    report, _ = outcomes[f"whq/{tag}"]
    assert report.failed_axioms() == (tag,)
    assert report.notes == ["preconditions failed; axiom sweep skipped"]


def test_d2_witness_reevaluates_to_the_discrepancy(outcomes):
    # recompute one reported d2 witness directly from the corrupted data
    report, _ = outcomes["whq/d2"]
    kc = magma_of_quasigroupoid(coarse_groupoid(2))
    witness = report.violations_for("d2")[0].witness
    h, k, l = witness
    # the corrupted structure dropped the product of arrows 1 and 2
    def mul(i, j):
        if (i, j) == (1, 2):
            return {}
        return kc.mul_basis(i, j)

    def eps_of(vec):
        return sum(vec.values())

    e1 = sum(c * eps_of(mul(m, l)) for m, c in mul(h, k).items())
    e2 = sum(c * eps_of(mul(h, m)) for m, c in mul(k, l).items())
    e3 = eps_of(mul(h, k)) * eps_of(mul(k, l))
    assert not (e1 == e2 == e3)


def test_left_action_c1_witness_names_the_pair(outcomes):
    report, _ = outcomes["action/c1"]
    assert (0, 1) in {v.witness for v in report.violations_for("c1")}


def test_a2_1_witness_is_the_broken_arrow(outcomes):
    report, _ = outcomes["qgpd/a2-1"]
    assert (1,) in {v.witness for v in report.violations_for("a2-1")}


def test_a1_witness_is_the_broken_object(outcomes):
    report, _ = outcomes["qgpd/a1"]
    assert (0,) in {v.witness for v in report.violations_for("a1")}
