import dataclasses
import random

import pytest

from nonassoc import (
    BoundExceeded,
    FactorizationCandidate,
    QgpdMorphism,
    Quasigroupoid,
    StructureError,
    canonical_factorization,
    chein_double,
    check_exact_factorization,
    check_matched_pair,
    check_morphism,
    coarse_groupoid,
    cyclic_group,
    dihedral_group,
    direct_product,
    discrete_groupoid,
    double_cross_product,
    enumerate_factorizations,
    identity_morphism,
    is_isomorphism,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    quaternion_group,
    reconstruct_matched_pair,
    sub_quasigroupoid,
    symmetric_group,
    verify_canonical_iso,
)
from nonassoc import cli, factorizations
from nonassoc.documents import emit, quasigroupoid_to_doc
from nonassoc.matched_pairs import MIXED_LAWS
from tests import reference_factorizations as brute
from tests.conftest import two_sided_factorization
from tests.test_builders import relabelled, renumbering


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


@pytest.mark.parametrize("arrows,fault", [
    ((0,), "must contain every identity arrow"),
    ((0, 1, 3), "not closed under the inverse map at 1"),
])
def test_sub_quasigroupoid_refuses_a_subset_that_is_not_closed(coarse2, arrows, fault):
    """The fault is `closure_fault`'s, not the arrow the lookup missed."""
    assert factorizations.closure_fault(coarse2, set(arrows)) == fault
    with pytest.raises(StructureError) as raised:
        sub_quasigroupoid(coarse2, arrows)
    assert type(raised.value) is StructureError
    assert str(raised.value) == fault

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


# every catalogue input of at most 18 arrows
CATALOGUE = {
    "M12": lambda: quasigroup_as_quasigroupoid(moufang_loop_12()),
    "D6": lambda: quasigroup_as_quasigroupoid(dihedral_group(6)),
    "Q8": lambda: quasigroup_as_quasigroupoid(quaternion_group()),
    "Q8xC2": lambda: quasigroup_as_quasigroupoid(direct_product(quaternion_group(), cyclic_group(2))),
    "pair(C3,2)": lambda: pair_quasigroupoid(cyclic_group(3), 2),
    "pair(C2,3)": lambda: pair_quasigroupoid(cyclic_group(2), 3),
    "coarse(3)": lambda: coarse_groupoid(3),
    "coarse(4)": lambda: coarse_groupoid(4),
    "discrete(3)": lambda: discrete_groupoid(3),
}


@pytest.mark.parametrize("name,checked,exact", [
    ("M12", 56, 2),
    ("D6", 36, 36),
])
def test_enumeration_checks_only_the_pairs_that_can_be_exact(name, checked, exact, monkeypatch):
    """Of the 576 pairs of M12's closed subsets and the 256 of D6's, only
    those that meet in the identity and have 12 fibered pairs reach the
    verdict; no inclusion of a closed subset is checked as a morphism, as
    each is monic by construction."""
    calls, morphisms = [], []
    verdict = factorizations._is_exact

    def counted(c):
        calls.append(c)
        return verdict(c)

    def counted_morphism(f):
        morphisms.append(f)
        return check_morphism(f)

    monkeypatch.setattr(factorizations, "_is_exact", counted)
    monkeypatch.setattr(factorizations, "check_morphism", counted_morphism)
    found = enumerate_factorizations(CATALOGUE[name]())
    assert (len(calls), len(found)) == (checked, exact)
    if name == "M12":
        assert morphisms == []


def swapped_entry(b: Quasigroupoid, seed: int) -> Quasigroupoid:
    """b with the values of two product entries, drawn by `seed`, swapped."""
    rng = random.Random(seed)
    prod = dict(b.prod)
    entries = sorted(prod)
    while True:
        p, q = rng.sample(entries, 2)
        if prod[p] != prod[q]:
            break
    prod[p], prod[q] = prod[q], prod[p]
    return dataclasses.replace(b, prod=prod)


@pytest.mark.parametrize("name", CATALOGUE)
@pytest.mark.parametrize("variant", ["input", "renumbered", "swapped"])
def test_verdict_agrees_with_the_full_report(name, variant):
    """Every inclusion of a closed subset is monic, and the enumerator's
    verdict, which stops at the first violation and sweeps neither mono-A
    nor mono-H, is the full report's `ok` on every ordered pair of closed
    subsets, prefiltered or not: on the input, on a renumbering of its
    arrows, and with one product entry swapped."""
    b = CATALOGUE[name]()
    if variant == "renumbered":
        b = relabelled(b, renumbering(b.n_arrows, 0))
    elif variant == "swapped":
        b = swapped_entry(b, 0)
    inclusions = [sub_quasigroupoid(b, arrows)[1] for arrows in factorizations.closed_arrow_subsets(b)]
    monic = [
        check_morphism(incl).ok and len(set(incl.arrow_map)) == len(incl.arrow_map)
        for incl in inclusions
    ]
    assert all(monic)
    verdicts = []
    for i, ia in enumerate(inclusions):
        for j, ih in enumerate(inclusions):
            c = FactorizationCandidate(b, ia, ih)
            verdict = factorizations._is_exact(c)
            assert verdict == check_exact_factorization(c).ok, (i, j)
            verdicts.append(verdict)
    assert any(verdicts) or variant == "swapped"


@pytest.mark.parametrize("name", CATALOGUE)
@pytest.mark.parametrize("seed", [None, 0])
def test_enumeration_equals_the_brute_force(name, seed):
    """Closure finds the subsets that trying every subset finds, and the
    pruned pairs hide no factorization: both lists equal the brute force's,
    in order, on the input and on a renumbering of its arrows."""
    b = CATALOGUE[name]()
    if seed is not None:
        b = relabelled(b, renumbering(b.n_arrows, seed))
    subsets = factorizations.closed_arrow_subsets(b)
    assert subsets == brute.closed_arrow_subsets(b)

    def shapes(found):
        return [(c.ia.arrow_map, c.ih.arrow_map) for c in found]

    found = enumerate_factorizations(b, max_arrows=18)
    assert shapes(found) == shapes(brute.enumerate_factorizations(b))
    assert found


@pytest.mark.parametrize("seed", range(20))
def test_closed_subsets_need_no_law_of_the_ambient_table(seed):
    """On a random partial table and inverse map, where neither cancels nor
    inverts the other, closure still finds the subsets `closure_fault`
    passes: it closes under xy and yx apart, and under the inverse."""
    rng = random.Random(seed)
    n = 7
    b = Quasigroupoid(
        n_objects=1,
        src=(0,) * n,
        tgt=(0,) * n,
        unit=(0,),
        inv=tuple(rng.randrange(n) for _ in range(n)),
        prod={(x, y): rng.randrange(n) for x in range(n) for y in range(n) if rng.random() < 0.3},
    )
    assert factorizations.closed_arrow_subsets(b) == brute.closed_arrow_subsets(b)


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


# every catalogue input of at most 24 arrows with a nontrivial factorization
ROUND_TRIPS = {
    "M12": 2,
    "D6": 36,
    "Q8xC2": 18,
    "S4": 70,
    "pair(C3,2)": 8,
    "coarse(3)": 2,
}


@pytest.mark.parametrize("name,count", ROUND_TRIPS.items())
def test_every_factorization_round_trips(name, count):
    """The paper's three theorems over every exact factorization up to 24
    arrows: each rebuilds a matched pair, whose double cross product maps
    isomorphically onto B, and whose canonical isomorphism is certified."""
    if name == "S4":
        b = quasigroup_as_quasigroupoid(symmetric_group(4))
    else:
        b = CATALOGUE[name]()
    found = enumerate_factorizations(b, max_arrows=24)
    assert len(found) == count
    for k, c in enumerate(found):
        mp, gamma = reconstruct_matched_pair(c)
        assert check_matched_pair(mp).ok, k
        assert check_morphism(gamma).ok, k
        assert is_isomorphism(gamma), k
        assert verify_canonical_iso(mp).ok, k


FORTY_EIGHT = {
    "pair(M12,2)": (lambda: pair_quasigroupoid(moufang_loop_12(), 2), 10),
    "M(S4,2)": (lambda: quasigroup_as_quasigroupoid(chein_double(symmetric_group(4))), 2),
}


@pytest.mark.parametrize("name", FORTY_EIGHT)
def test_enumeration_at_48_arrows(name):
    """10 exact factorizations of pair(M12, 2) and 2 of M(S4, 2), each
    passing the full check."""
    make, count = FORTY_EIGHT[name]
    b = make()
    assert b.n_arrows == 48
    found = enumerate_factorizations(b, 48)
    assert len(found) == count
    for c in found:
        assert check_exact_factorization(c).ok


def test_factorize_at_48_arrows(tmp_path, capsys):
    path = tmp_path / "pair-m12-2.json"
    path.write_text(emit(quasigroupoid_to_doc(FORTY_EIGHT["pair(M12,2)"][0]())), encoding="utf-8")
    code = cli.main(["factorize", str(path), "--max-arrows", "48"])
    assert code == 0
    assert capsys.readouterr().out.endswith("PASS 10 factorizations\n")
