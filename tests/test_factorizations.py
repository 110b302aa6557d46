import dataclasses

import pytest

from nonassoc import (
    BoundExceeded,
    FactorizationCandidate,
    QgpdMorphism,
    canonical_factorization,
    check_exact_factorization,
    check_matched_pair,
    check_morphism,
    coarse_groupoid,
    discrete_groupoid,
    double_cross_product,
    enumerate_factorizations,
    identity_morphism,
    is_isomorphism,
    mp_discrete_right,
    quasigroup_as_quasigroupoid,
    reconstruct_matched_pair,
    sub_quasigroupoid,
)
from nonassoc import factorizations
from nonassoc.matched_pairs import MIXED_LAWS
from tests.conftest import two_sided_factorization


def test_canonical_factorization_passes(mp_family):
    for name, mp in mp_family.items():
        report = check_exact_factorization(canonical_factorization(mp))
        assert report.ok, (name, report.failed_axioms())


def test_full_overlap_fails_bijectivity(coarse2):
    ident = identity_morphism(coarse2)
    candidate = FactorizationCandidate(coarse2, ident, ident)
    report = check_exact_factorization(candidate)
    assert not report.ok
    bad = report.violations_for("theta-bijective")
    assert bad
    # 8 fibered pairs against 4 ambient arrows: there must be collisions
    assert any("collides" in v.detail for v in bad)


def test_identity_component_factorization(coarse2):
    _, incl_units = sub_quasigroupoid(coarse2, tuple(sorted(coarse2.unit)))
    candidate = FactorizationCandidate(coarse2, incl_units, identity_morphism(coarse2))
    report = check_exact_factorization(candidate)
    assert report.ok
    # theta(id(t(h)), h) = h
    theta = report.data["theta"]
    for h in range(coarse2.n_arrows):
        a_index = incl_units.arrow_map.index(coarse2.unit[coarse2.tgt[h]])
        assert theta[(a_index, h)] == h


def test_reconstruction_round_trip(mp_family):
    for name, mp in mp_family.items():
        candidate = canonical_factorization(mp)
        rebuilt, gamma = reconstruct_matched_pair(candidate)
        assert rebuilt.left.table == mp.left.table, name
        assert rebuilt.right.table == mp.right.table, name
        assert check_matched_pair(rebuilt).ok, name
        assert check_morphism(gamma).ok, name
        assert is_isomorphism(gamma), name


def test_reconstruction_recovers_discrete_right_actions(coarse2):
    mp = mp_discrete_right(coarse2)
    rebuilt, _ = reconstruct_matched_pair(canonical_factorization(mp))
    a = mp.a
    for (x, y), value in rebuilt.left.table.items():
        assert value == y  # phi_A(x, a) = a
    for (x, y), value in rebuilt.right.table.items():
        assert value == a.src[y]  # phi_H(x, a) = src(a)


def test_enumerate_discrete_two_points():
    found = enumerate_factorizations(discrete_groupoid(2))
    assert len(found) == 1
    assert found[0].ia.arrow_map == (0, 1)
    assert found[0].ih.arrow_map == (0, 1)


def test_enumerate_coarse_two_points(coarse2):
    found = enumerate_factorizations(coarse2)
    shapes = [(c.ia.arrow_map, c.ih.arrow_map) for c in found]
    identities = (0, 3)
    everything = (0, 1, 2, 3)
    assert (identities, everything) in shapes
    assert (everything, identities) in shapes
    assert len(found) == 2


def test_enumerate_contains_canonical_candidate(z2):
    mp = mp_discrete_right(quasigroup_as_quasigroupoid(z2))
    dcp = double_cross_product(mp)
    found = enumerate_factorizations(dcp)
    shapes = [(c.ia.arrow_map, c.ih.arrow_map) for c in found]
    canonical = canonical_factorization(mp)
    assert (canonical.ia.arrow_map, canonical.ih.arrow_map) in shapes


def test_enumeration_builds_each_substructure_once(m12, monkeypatch):
    """The one-object M12 has 24 closed arrow subsets, so 576 candidate
    pairs, 2 of them exact factorizations."""
    calls = []

    def counted(b, arrows):
        calls.append(arrows)
        return sub_quasigroupoid(b, arrows)

    monkeypatch.setattr(factorizations, "sub_quasigroupoid", counted)
    found = enumerate_factorizations(quasigroup_as_quasigroupoid(m12))
    assert len(found) == 2
    assert len(calls) == len(set(calls)) == 24


def test_enumeration_bound_is_enforced():
    with pytest.raises(BoundExceeded):
        enumerate_factorizations(coarse_groupoid(2), max_arrows=3)


def test_theta_restricted_to_unit_pairs_is_inclusion(mp_family):
    for name, mp in mp_family.items():
        candidate = canonical_factorization(mp)
        report = check_exact_factorization(candidate)
        theta = report.data["theta"]
        a, h = candidate.ia.source, candidate.ih.source
        for p in range(a.n_arrows):
            pair = (p, h.unit[a.src[p]])
            assert theta[pair] == candidate.ia.arrow_map[p], name


@pytest.mark.parametrize("name,counts", [
    ("two-sided m2", (96, 576, 576, 96, 96, 576)),
    ("two-sided m3", (324, 1296, 1296, 324, 324, 1296)),
    ("one-object m12", (144, 12, 12, 144, 144, 12)),
])
def test_each_mixed_law_evaluates_configurations(mp_family, name, counts):
    """`data["evaluated"]` counts, per mixed law, the configurations where
    at least one side is defined; on an exact factorization that is every
    configuration of the law."""
    if name.startswith("two-sided"):
        c = two_sided_factorization(int(name[-1]))
    else:
        c = canonical_factorization(mp_family[name])
    report = check_exact_factorization(c)
    assert report.ok
    assert report.data["evaluated"] == dict(zip(MIXED_LAWS, counts))


def test_configurations_with_neither_side_defined_are_not_counted(coarse2):
    """coarse(2) factors through itself twice, so each law sweeps its 16
    composable triples.  Without the product 1*2, both sides are undefined
    at (0, 1, 2), (1, 2, 0) and (1, 3, 2), one side at (1, 2, 1) and
    (2, 1, 2)."""
    ident = identity_morphism(coarse2)
    full = check_exact_factorization(FactorizationCandidate(coarse2, ident, ident))
    prod = dict(coarse2.prod)
    del prod[(1, 2)]
    b = dataclasses.replace(coarse2, prod=prod)
    incl = QgpdMorphism(coarse2, b, ident.obj_map, ident.arrow_map)
    broken = check_exact_factorization(FactorizationCandidate(b, incl, incl))
    assert full.data["evaluated"] == dict.fromkeys(MIXED_LAWS, 16)
    assert broken.data["evaluated"] == dict.fromkeys(MIXED_LAWS, 13)
    assert [v.witness for v in broken.violations_for("HAA")] == [(1, 2, 1), (2, 1, 2)]
