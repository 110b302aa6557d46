import dataclasses

import pytest

from nonassoc import (
    QgpdMorphism,
    StructureError,
    check_action_on_set,
    check_morphism,
    check_quasigroupoid,
    coarse_groupoid,
    compose_morphisms,
    cyclic_group,
    derived_identity_suite,
    discrete_groupoid,
    from_quasigroup_action,
    identity_morphism,
    is_isomorphism,
    mp_discrete_right,
    pair_quasigroupoid,
    pullback_quasigroupoid,
    quasigroup_as_quasigroupoid,
)
from tests.conftest import z3_translation


def structural_fields(q):
    return (q.n_objects, q.src, q.tgt, q.unit, q.inv, q.prod)


def test_discrete_groupoid_is_valid():
    q = discrete_groupoid(3)
    assert check_quasigroupoid(q).ok
    assert q.n_arrows == 3
    assert all(q.compose(x, x) == x for x in range(3))


def test_coarse_groupoid_shape_and_inverse():
    q = coarse_groupoid(2)
    assert q.n_arrows == 4
    arrow_01 = 0 * 2 + 1
    assert q.arrow_name(q.inv[arrow_01]) == "(1,0)"
    assert derived_identity_suite(q).ok
    # inv is the flip, hence involutive
    assert all(q.inv[q.inv[a]] == a for a in range(4))


def test_coarse_singleton_equals_discrete_singleton():
    assert structural_fields(coarse_groupoid(1)) == structural_fields(discrete_groupoid(1))


def test_corrupted_inverse_breaks_cancellation():
    q = coarse_groupoid(2)
    arrow_01 = 1
    bad_inv = list(q.inv)
    bad_inv[arrow_01] = arrow_01
    bad = dataclasses.replace(q, inv=tuple(bad_inv))
    report = check_quasigroupoid(bad)
    assert not report.ok
    assert any(arrow_01 in v.witness for v in report.violations_for("a2-3"))


def test_derived_identities_pass_on_valid_structures(z2, z3, m12):
    structures = [
        discrete_groupoid(4),
        coarse_groupoid(3),
        quasigroup_as_quasigroupoid(m12),
        from_quasigroup_action(z3, 3, z3_translation),
        pair_quasigroupoid(z2, 2),
    ]
    for q in structures:
        assert check_quasigroupoid(q).ok
        assert derived_identity_suite(q).ok


def test_action_checker(z3, m12):
    trivial = [[x for x in range(4)] for _ in range(12)]
    assert check_action_on_set(m12, 4, trivial).ok
    assert check_action_on_set(z3, 3, z3_translation).ok
    # left translation of a nonassociative loop on itself is not an action
    report = check_action_on_set(m12, 12, lambda a, x: m12.mul(a, x))
    assert not report.ok
    assert report.violations_for("action-mult")


def test_action_table_shape_is_checked(z3):
    with pytest.raises(StructureError):
        check_action_on_set(z3, 3, [[0, 1, 2]])


@pytest.mark.parametrize(
    "build",
    [
        discrete_groupoid,
        coarse_groupoid,
        lambda n: pair_quasigroupoid(cyclic_group(2), n),
        lambda n: from_quasigroup_action(cyclic_group(2), n, lambda a, x: x),
        lambda n: from_quasigroup_action(cyclic_group(2), n, [[0], [1]]),  # no action either
    ],
    ids=["discrete", "coarse", "pair", "action", "action, bad table"],
)
def test_every_builder_rejects_an_empty_base(build):
    """With no points there is no object: each builder raises at once,
    before it looks at its action."""
    with pytest.raises(StructureError, match="^empty base$"):
        build(0)


def test_action_quasigroupoid_flip(z2):
    b = from_quasigroup_action(z2, 2, [[0, 1], [1, 0]])
    assert b.n_arrows == 4
    assert check_quasigroupoid(b).ok


def test_action_quasigroupoid_trivial_point_recovers_one_object(z2):
    b = from_quasigroup_action(z2, 1, [[0], [0]])
    q = quasigroup_as_quasigroupoid(z2)
    assert structural_fields(b) == structural_fields(q)


def test_action_quasigroupoid_translation_targets(z3):
    b = from_quasigroup_action(z3, 3, z3_translation)
    assert b.n_arrows == 9
    for a in range(3):
        for x in range(3):
            assert b.tgt[a * 3 + x] == (a + x) % 3
            assert b.src[a * 3 + x] == x


def test_pair_quasigroupoid_products(z2, m12):
    t = pair_quasigroupoid(z2, 2)
    assert t.n_objects == 2 and t.n_arrows == 8

    def arrow(a, x, y):
        return (a * 2 + x) * 2 + y

    # (a,x,y) * (b,y,r) = (a.b, x, r)
    assert t.compose(arrow(1, 0, 1), arrow(1, 1, 0)) == arrow(0, 0, 0)
    assert t.compose(arrow(1, 0, 1), arrow(0, 0, 1)) is None
    big = pair_quasigroupoid(m12, 3)
    assert big.n_arrows == 108


def test_pair_quasigroupoid_single_point_recovers_one_object(z2):
    t = pair_quasigroupoid(z2, 1)
    q = quasigroup_as_quasigroupoid(z2)
    assert structural_fields(t) == structural_fields(q)


def test_pullback_identity_is_isomorphic():
    q = coarse_groupoid(2)
    p = pullback_quasigroupoid(q, 2, [0, 1])
    assert p.n_arrows == q.n_arrows
    # triple (p, a, r) with identity projection forces p = tgt(a), r = src(a)
    arrow_map = []
    for i in range(p.n_arrows):
        name = p.arrow_name(i)
        inner = name.split(",", 1)[1].rsplit(",", 1)[0]
        arrow_map.append(q.arrow_names.index(inner))
    f = QgpdMorphism(p, q, (0, 1), tuple(arrow_map))
    assert check_morphism(f).ok
    assert is_isomorphism(f)


def test_pullback_of_point_matches_coarse():
    point = discrete_groupoid(1)
    p = pullback_quasigroupoid(point, 2, [0, 0])
    c = coarse_groupoid(2)
    assert p.n_arrows == 4
    # arrows are (p, 0, r); map them to coarse arrows (p, r)
    f_map = []
    for i in range(4):
        name = p.arrow_name(i)
        left, right = name[1], name[-2]
        f_map.append(int(left) * 2 + int(right))
    f = QgpdMorphism(p, c, (0, 1), tuple(f_map))
    assert check_morphism(f).ok
    assert is_isomorphism(f)


def test_pullback_doubling_one_object_has_nine_arrows():
    p = pullback_quasigroupoid(coarse_groupoid(2), 3, [0, 0, 1])
    assert p.n_arrows == 9
    assert check_quasigroupoid(p).ok


def test_pullback_requires_surjection():
    with pytest.raises(StructureError):
        pullback_quasigroupoid(coarse_groupoid(2), 2, [0, 0])


def test_identity_morphism_is_iso():
    q = coarse_groupoid(2)
    f = identity_morphism(q)
    assert check_morphism(f).ok
    assert is_isomorphism(f)


def test_inclusion_into_double_cross_product_is_mono_not_iso(z2):
    from nonassoc import double_cross_product, inclusion_a

    mp = mp_discrete_right(pair_quasigroupoid(z2, 2))
    dcp = double_cross_product(mp)
    ia = inclusion_a(mp, dcp)
    report = check_morphism(ia)
    assert report.ok
    assert len(set(ia.arrow_map)) == mp.a.n_arrows
    # here H is the 2-object discrete groupoid, so the inclusion cannot be onto
    assert not is_isomorphism(ia) or dcp.n_arrows == mp.a.n_arrows


def test_swapping_arrows_breaks_source_compatibility():
    q = coarse_groupoid(2)
    arrow_map = [0, 2, 1, 3]  # exchange (0,1) and (1,0)
    f = QgpdMorphism(q, q, (0, 1), tuple(arrow_map))
    report = check_morphism(f)
    assert not report.ok
    assert report.violations_for("b1")


def test_morphism_composition_associative_and_valid():
    d = discrete_groupoid(2)
    c = coarse_groupoid(2)
    include = QgpdMorphism(d, c, (0, 1), (0, 3))  # objects to identity arrows
    swap = QgpdMorphism(c, c, (1, 0), (3, 2, 1, 0))
    assert check_morphism(include).ok
    assert check_morphism(swap).ok
    composed = compose_morphisms(swap, include)
    assert check_morphism(composed).ok
    left = compose_morphisms(swap, compose_morphisms(swap, include))
    right = compose_morphisms(compose_morphisms(swap, swap), include)
    assert left.arrow_map == right.arrow_map and left.obj_map == right.obj_map


def test_composition_mismatch_raises():
    d = discrete_groupoid(2)
    c = coarse_groupoid(2)
    include = QgpdMorphism(d, c, (0, 1), (0, 3))
    with pytest.raises(StructureError):
        compose_morphisms(include, include)


def test_one_object_case_has_single_object(z2, m12):
    q = quasigroup_as_quasigroupoid(m12)
    assert q.n_objects == 1 and q.n_arrows == 12
    tiny = quasigroup_as_quasigroupoid(cyclic_group(1))
    assert tiny.n_objects == 1 and tiny.n_arrows == 1


def test_coarse_and_discrete_products_are_associative():
    # wherever either triple product is defined, so is the other, and they
    # agree: the builders really produce groupoids
    for q in (coarse_groupoid(3), discrete_groupoid(3)):
        for a in range(q.n_arrows):
            for b in range(q.n_arrows):
                for c in range(q.n_arrows):
                    left = q.compose(a, q.compose(b, c))
                    right = q.compose(q.compose(a, b), c)
                    assert left == right


def test_randomized_builders_validate():
    import random

    rng = random.Random(20240817)
    for _ in range(20):
        n_points = rng.randint(1, 4)
        base_kind = rng.choice(["coarse", "discrete", "pair"])
        if base_kind == "coarse":
            q = coarse_groupoid(rng.randint(1, 3))
        elif base_kind == "discrete":
            q = discrete_groupoid(rng.randint(1, 4))
        else:
            q = pair_quasigroupoid(cyclic_group(rng.randint(1, 4)), rng.randint(1, 2))
        # a random surjection onto the base
        pi = list(range(q.n_objects)) + [
            rng.randrange(q.n_objects) for _ in range(rng.randint(0, 2))
        ]
        rng.shuffle(pi)
        p = pullback_quasigroupoid(q, len(pi), pi)
        assert check_quasigroupoid(p).ok
        assert derived_identity_suite(p).ok
