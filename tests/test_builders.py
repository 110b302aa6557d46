"""The builders against their references (`tests/reference_builders.py`),
which built dicts keyed by pairs and swept their own results.

Each builder must return the structure of its reference field for field:
the same names, and the rows of every product and action table, and the
entries of every row, in the same order.  Each reference checks its result
(`check_quasigroupoid`, or `check_matched_pair` through `matched_pair`),
so on this grid the comparison also proves what the builders now trust:
every construction returns a quasigroupoid, or a matched pair.  The
relabelled inputs number their arrows so that targets do not increase with
the arrow, which the row order of the action tables must follow.
"""

import dataclasses
import random
from itertools import product

import pytest

from nonassoc import (
    FactorizationCandidate,
    InvalidStructureError,
    QgpdMorphism,
    Quasigroupoid,
    canonical_factorization,
    check_action_on_set,
    check_exact_factorization,
    check_matched_pair,
    check_morphism,
    check_quasigroup,
    check_quasigroupoid,
    coarse_groupoid,
    cyclic_group,
    discrete_groupoid,
    from_quasigroup_action,
    magma_functor,
    matched_pair,
    matched_pairs,
    moufang_loop_12,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
    pullback_quasigroupoid,
    quasigroup,
    quasigroup_as_quasigroupoid,
    quaternion_group,
    quasigroupoids,
    reconstruct_matched_pair,
    sub_quasigroupoid,
    symmetric_group,
)
from nonassoc.factorizations import closed_arrow_subsets
from nonassoc.quasigroupoids import PairTable
from tests import reference_builders as ref
from tests.conftest import (
    corrupted_matched_pairs,
    two_sided_factorization,
    two_sided_pair,
    z3_translation,
)


def _layout(value):
    """Every field of a structure, recursively, with each table as its rows
    in order, each row as its entries in order."""
    if isinstance(value, PairTable):
        return [(x, list(row.items())) for x, row in value.rows.items()]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__, [(f.name, _layout(getattr(value, f.name))) for f in fields]
    if isinstance(value, tuple):
        return [_layout(v) for v in value]
    return value


def assert_same(got, expected):
    assert got == expected
    assert _layout(got) == _layout(expected)


def relabelled_quasigroup(q, identity):
    """q with its elements renumbered so that `identity` is its identity."""
    new = list(range(q.order))
    new[q.identity], new[identity] = identity, q.identity
    table = [[0] * q.order for _ in range(q.order)]
    for u, row in enumerate(q.table):
        for v, w in enumerate(row):
            table[new[u]][new[v]] = new[w]
    return quasigroup(table, identity)


def renumbering(n: int, seed: int) -> list[int]:
    """A random order of 0..n-1: the new arrow j is the old arrow old[j]."""
    old = list(range(n))
    random.Random(seed).shuffle(old)
    return old


def relabelled(q: Quasigroupoid, old: list[int]) -> Quasigroupoid:
    """q with its arrows renumbered: the new arrow j is the old arrow old[j]."""
    new = {x: j for j, x in enumerate(old)}
    return Quasigroupoid(
        n_objects=q.n_objects,
        src=tuple(q.src[x] for x in old),
        tgt=tuple(q.tgt[x] for x in old),
        unit=tuple(new[e] for e in q.unit),
        inv=tuple(new[q.inv[x]] for x in old),
        prod={(new[x], new[y]): new[v] for (x, y), v in q.prod.items()},
        object_names=q.object_names,
        arrow_names=tuple(q.arrow_name(x) for x in old),
    )


QUASIGROUPS = {
    "C1": cyclic_group(1),
    "C2": cyclic_group(2),
    "C3": cyclic_group(3),
    "S3": symmetric_group(3),
    "Q8": quaternion_group(),
    "M12": moufang_loop_12(),
}
C2_LAST = relabelled_quasigroup(cyclic_group(2), 1)  # the identity is element 1
C3_LAST = relabelled_quasigroup(cyclic_group(3), 2)


def involutions(n):
    return [p for p in product(range(n), repeat=n) if all(p[p[x]] == x for x in range(n))]


def c2_actions():
    """C2, and C2 with its identity last, acting by every involution of 1..3
    points."""
    for n in (1, 2, 3):
        for flip in involutions(n):
            yield cyclic_group(2), n, [list(range(n)), list(flip)]
            yield C2_LAST, n, [list(flip), list(range(n))]


def relabelled_components():
    """Quasigroupoids whose arrows are numbered by decreasing target, in a
    random order within each target."""
    out = []
    for seed, q in enumerate([
        coarse_groupoid(3),
        pair_quasigroupoid(cyclic_group(2), 2),
        pair_quasigroupoid(moufang_loop_12(), 2),
        pullback_quasigroupoid(coarse_groupoid(2), 3, [1, 0, 1]),
    ]):
        rng = random.Random(seed)
        out.append(relabelled(q, sorted(range(q.n_arrows), key=lambda x: (-q.tgt[x], rng.random()))))
    for q in out:
        assert check_quasigroupoid(q).ok
        assert list(dict.fromkeys(q.tgt)) == sorted(set(q.tgt), reverse=True)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_discrete_and_coarse_groupoids(n):
    assert_same(discrete_groupoid(n), ref.discrete_groupoid(n))
    assert_same(coarse_groupoid(n), ref.coarse_groupoid(n))


@pytest.mark.parametrize("name", QUASIGROUPS)
def test_quasigroups_and_pair_quasigroupoids(name):
    q = QUASIGROUPS[name]
    assert_same(quasigroup_as_quasigroupoid(q), ref.quasigroup_as_quasigroupoid(q))
    for m in (1, 2, 3):
        assert_same(pair_quasigroupoid(q, m), ref.pair_quasigroupoid(q, m))


def test_action_quasigroupoids():
    cases = list(c2_actions())
    assert len(cases) == 2 * (1 + 2 + 4)
    cases += [(cyclic_group(3), 3, z3_translation), (C3_LAST, 3, [list(r) for r in C3_LAST.table])]
    for q, n, psi in cases:
        assert_same(from_quasigroup_action(q, n, psi), ref.from_quasigroup_action(q, n, psi))


def test_pullbacks_along_every_surjection():
    seen = 0
    for base in (coarse_groupoid(2), pair_quasigroupoid(cyclic_group(2), 2)):
        for n in (2, 3, 4):
            for pi in product(range(2), repeat=n):
                if set(pi) == {0, 1}:
                    got = pullback_quasigroupoid(base, n, pi)
                    assert_same(got, ref.pullback_quasigroupoid(base, n, pi))
                    seen += 1
    assert seen == 2 * (2 + 6 + 14)


@pytest.mark.parametrize(
    "b", [quasigroup_as_quasigroupoid(moufang_loop_12()), pair_quasigroupoid(cyclic_group(2), 2)],
    ids=["M12", "pair(C2,2)"],
)
def test_substructures_on_every_closed_subset(b):
    subsets = closed_arrow_subsets(b)
    assert len(subsets) > 5
    for arrows in subsets:
        assert_same(sub_quasigroupoid(b, arrows), ref.sub_quasigroupoid(b, arrows))


def test_the_families_on_relabelled_inputs():
    for a in relabelled_components():
        assert_same(mp_discrete_right(a), ref.mp_discrete_right(a))
    for q, n, psi in list(c2_actions()) + [(C3_LAST, 3, [list(r) for r in C3_LAST.table])]:
        assert_same(mp_action_left(q, n, psi), ref.mp_action_left(q, n, psi))


def _relabelled_factorization(c, seed):
    """The factorization c carried along a random renumbering of its ambient
    arrows, its components taken as the substructures on the images."""
    old = renumbering(c.b.n_arrows, seed)
    b = relabelled(c.b, old)
    new = {x: j for j, x in enumerate(old)}

    def carried(incl):
        return sub_quasigroupoid(b, tuple(sorted(new[x] for x in incl.arrow_map)))[1]

    return FactorizationCandidate(b, carried(c.ia), carried(c.ih))


def test_reconstruction_on_relabelled_factorizations(mp_family):
    pairs = list(mp_family.values()) + [mp_discrete_right(a) for a in relabelled_components()]
    cases = [two_sided_factorization(2)] + [canonical_factorization(mp) for mp in pairs]
    cases += [_relabelled_factorization(c, seed) for seed, c in enumerate(cases)]
    for c in cases:
        assert_same(reconstruct_matched_pair(c), ref.reconstruct_matched_pair(c))


@pytest.fixture()
def checked(monkeypatch):
    """The structures given to `check_quasigroupoid` and `check_matched_pair`
    while the fixture is in use."""
    calls = []

    def recording(module, name):
        original = getattr(module, name)

        def record(value):
            calls.append((name, value))
            return original(value)

        monkeypatch.setattr(module, name, record)

    recording(quasigroupoids, "check_quasigroupoid")
    recording(matched_pairs, "check_matched_pair")
    return calls


def test_the_builders_check_their_inputs_and_not_their_results(checked):
    q = moufang_loop_12()
    for build in (
        lambda: discrete_groupoid(3),
        lambda: coarse_groupoid(3),
        lambda: quasigroup_as_quasigroupoid(q),
        lambda: pair_quasigroupoid(q, 2),
        lambda: from_quasigroup_action(cyclic_group(3), 3, z3_translation),
        lambda: mp_action_left(cyclic_group(3), 3, z3_translation),
    ):
        build()
        assert checked == []
    base = coarse_groupoid(2)
    pullback_quasigroupoid(base, 3, [0, 1, 1])
    mp_discrete_right(base)
    assert checked == [("check_quasigroupoid", base)] * 2


@pytest.mark.parametrize("base", [coarse_groupoid(2), pair_quasigroupoid(cyclic_group(2), 2)])
def test_an_invalid_input_raises_its_own_report(base):
    broken = dataclasses.replace(base, inv=(1,) + base.inv[1:])
    report = check_quasigroupoid(broken)
    assert not report.ok
    for build in (lambda q: pullback_quasigroupoid(q, 3, [0, 1, 1]), mp_discrete_right):
        with pytest.raises(InvalidStructureError) as raised:
            build(broken)
        assert raised.value.report == report



def _admission_cases():
    """site -> (the constructor on a broken input, its checker on that input),
    one for each constructor that admits its input through
    `StructureReport.require`."""
    table, z2, flip_unit = [[0, 0], [1, 1]], cyclic_group(2), [[1, 0], [0, 1]]
    coarse = coarse_groupoid(2)
    broken_q = dataclasses.replace(coarse, inv=(1,) + coarse.inv[1:])
    broken_mp = corrupted_matched_pairs(two_sided_pair(2))["right-changed"]
    _, identities = sub_quasigroupoid(coarse, tuple(sorted(coarse.unit)))
    not_exact = FactorizationCandidate(coarse, identities, identities)
    not_morphism = QgpdMorphism(coarse, coarse, (0, 1), (3, 1, 2, 0))
    return {
        "quasigroup": (lambda: quasigroup(table, 0), lambda: check_quasigroup(table, 0)),
        "_validated": (
            lambda: quasigroupoids._validated(broken_q), lambda: check_quasigroupoid(broken_q)
        ),
        "from_quasigroup_action": (
            lambda: from_quasigroup_action(z2, 2, flip_unit),
            lambda: check_action_on_set(z2, 2, flip_unit),
        ),
        "matched_pair": (
            lambda: matched_pair(
                broken_mp.a, broken_mp.h, broken_mp.left.table, broken_mp.right.table
            ),
            lambda: check_matched_pair(broken_mp),
        ),
        "validated_components": (
            lambda: matched_pairs.validated_components(broken_mp),
            lambda: check_matched_pair(broken_mp),
        ),
        "reconstruct_matched_pair": (
            lambda: reconstruct_matched_pair(not_exact),
            lambda: check_exact_factorization(not_exact),
        ),
        "magma_functor": (
            lambda: magma_functor(not_morphism), lambda: check_morphism(not_morphism)
        ),
    }


@pytest.mark.parametrize("site", list(_admission_cases()))
def test_each_admission_site_raises_its_checkers_report(site):
    """A constructor refuses a broken input with the whole report of its
    checker on that input, every violation in order."""
    build, check = _admission_cases()[site]
    expected = check().violations
    assert expected
    with pytest.raises(InvalidStructureError) as raised:
        build()
    assert raised.value.report.violations == expected
