import pytest

from nonassoc import (
    FactorizationCandidate,
    InvalidStructureError,
    LeftAction,
    MatchedPair,
    MpMorphism,
    QgpdMorphism,
    RightAction,
    StructureError,
    canonical_factorization,
    check_exact_factorization,
    check_left_action,
    check_matched_pair,
    check_morphism,
    check_mp_morphism,
    check_quasigroupoid,
    check_right_action,
    compose_mp_morphisms,
    dcp_pairs,
    double_cross_product,
    identity_morphism,
    inclusion_a,
    inclusion_h,
    matched_pair,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    mixed_pairs,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    sub_quasigroupoid,
    theta,
    theta_identity_report,
)
from nonassoc.quasigroupoids import PairTable
from tests import reference_sweeps as ref
from tests.conftest import two_sided_pair, z3_translation


def checked_factorization(mp):
    """The canonical factorization of mp and its exact-factorization report,
    the two arguments of the theta and mixed associativity views."""
    c = canonical_factorization(mp)
    return c, check_exact_factorization(c)


def test_trivial_left_action_on_discrete_base(coarse2):
    mp = mp_discrete_right(coarse2)
    assert check_left_action(mp.left).ok
    assert check_right_action(mp.right).ok


def test_left_action_of_coarse_by_projection_fails_c1(coarse2):
    # keeping each arrow fixed under a coarse actor violates the target law
    table = {
        (x, y): y
        for x in range(coarse2.n_arrows)
        for y in range(coarse2.n_arrows)
        if coarse2.src[x] == coarse2.tgt[y]
    }
    action = LeftAction(coarse2, coarse2, table)
    report = check_left_action(action)
    assert not report.ok
    assert report.violations_for("c1")


def test_family_members_are_matched(mp_family):
    for name, mp in mp_family.items():
        assert check_matched_pair(mp).ok, name


def test_perturbing_left_action_breaks_compatibility(coarse2):
    mp = mp_discrete_right(coarse2)
    table = dict(mp.left.table)
    # send one non-identity arrow somewhere else with the same target
    (x, y) = next(
        (x, y) for (x, y) in table if y not in set(coarse2.unit)
    )
    replacement = next(
        b
        for b in range(coarse2.n_arrows)
        if b != y and coarse2.tgt[b] == coarse2.tgt[y]
    )
    table[(x, y)] = replacement
    bad = MatchedPair(
        mp.a, mp.h, LeftAction(mp.h, mp.a, table), mp.right
    )
    report = check_matched_pair(bad)
    assert not report.ok
    assert report.violations_for("e2") or report.violations_for("c3")


def test_identity_suite_passes_and_is_not_vacuous(mp_family):
    for name, mp in mp_family.items():
        report = matched_pair_identity_suite(mp)
        assert report.ok, name
        evaluated = report.data["evaluated"]
        assert all(count > 0 for count in evaluated.values()), (name, evaluated)


def test_identity_suite_specific_values(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    a, h = mp.a, mp.h
    for x in range(h.n_arrows):
        # P-1: acting on the identity at the source gives the identity at the target
        assert mp.phi_a(x, a.unit[h.src[x]]) == a.unit[h.tgt[x]]
    for (x, y) in mixed_pairs(h, a):
        # P-3: inverse of the action is the action of the twisted pair
        assert a.inv[mp.phi_a(x, y)] == mp.phi_a(mp.phi_h(x, y), a.inv[y])


def test_double_cross_product_discrete_right_is_untwisted(coarse2):
    mp = mp_discrete_right(coarse2)
    dcp = double_cross_product(mp)
    pairs = dcp_pairs(mp)
    assert dcp.n_arrows == coarse2.n_arrows  # each arrow pairs with its source
    index = {pq: i for i, pq in enumerate(pairs)}
    for (p, x) in pairs:
        for (q, y) in pairs:
            if coarse2.src[p] != coarse2.tgt[q]:
                continue
            product = dcp.compose(index[(p, x)], index[(q, y)])
            assert pairs[product] == (coarse2.compose(p, q), y)


def test_double_cross_product_action_left_formulas(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    dcp = double_cross_product(mp)
    pairs = dcp_pairs(mp)
    index = {pq: i for i, pq in enumerate(pairs)}
    h = mp.h

    def b_arrow(a, x):
        return a * 3 + x

    # product (y,(a,x)) . (x,(b,t)) = (y, (a.b, t))
    for (y1, g1) in pairs:
        for (y2, g2) in pairs:
            if dcp.src[index[(y1, g1)]] != dcp.tgt[index[(y2, g2)]]:
                continue
            a1, x1 = divmod(g1, 3)
            a2, x2 = divmod(g2, 3)
            product = dcp.compose(index[(y1, g1)], index[(y2, g2)])
            assert pairs[product] == (y1, b_arrow((a1 + a2) % 3, x2))
    # inverse (y,(a,x)) -> (psi(a^-1, y), (a^-1, y))
    for (y, g) in pairs:
        a, x = divmod(g, 3)
        ainv = (-a) % 3
        expected = (z3_translation(ainv, y), b_arrow(ainv, y))
        assert pairs[dcp.inv[index[(y, g)]]] == expected


def test_dcp_validates_and_inclusions_are_mono(mp_family):
    for name, mp in mp_family.items():
        dcp = double_cross_product(mp)
        assert check_quasigroupoid(dcp).ok, name
        for incl in (inclusion_a(mp, dcp), inclusion_h(mp, dcp)):
            assert check_morphism(incl).ok, name
            assert len(set(incl.arrow_map)) == len(incl.arrow_map), name


def test_inclusions_send_identities_to_identities(coarse2):
    mp = mp_discrete_right(coarse2)
    dcp = double_cross_product(mp)
    ia, ih = inclusion_a(mp, dcp), inclusion_h(mp, dcp)
    pairs = dcp_pairs(mp)
    for x in range(mp.a.n_objects):
        assert ia.arrow_map[mp.a.unit[x]] == dcp.unit[x]
        assert ih.arrow_map[mp.h.unit[x]] == dcp.unit[x]
        # i^H sends x to (id_A(x), x) in the discrete-right family
        assert pairs[ih.arrow_map[x]] == (mp.a.unit[x], x)


def test_theta_is_identity(mp_family):
    for name, mp in mp_family.items():
        c, fact = checked_factorization(mp)
        assert theta_identity_report(c, fact).ok, name
        mapping = theta(c, fact)
        assert all(image == pair for pair, image in mapping.items()), name


def test_mixed_associativity_holds_and_swapped_variant_is_recorded(mp_family):
    saw_swapped_failure = False
    for name, mp in mp_family.items():
        report = mixed_associativity_suite(*checked_factorization(mp))
        assert report.ok, name
        recorded = report.data["AHH-swapped"]
        assert recorded["checked"] > 0, name
        if recorded["failures"]:
            saw_swapped_failure = True
            assert recorded["first_witness"] is not None
    # the as-printed ordering genuinely fails somewhere in the family
    assert saw_swapped_failure


def test_swapped_ahh_fails_on_noncommutative_one_object_case(m12):
    # trivial action on one point: the second component is the whole loop,
    # so exchanging the last two factors reorders a noncommutative product
    mp = mp_action_left(m12, 1, [[0]] * 12)
    report = mixed_associativity_suite(*checked_factorization(mp))
    assert report.ok
    assert report.data["AHH-swapped"]["failures"] > 0


def test_mixed_associativity_reports_the_factorization_violations(m12):
    # subloops {e, 1} and {e, 2, 6, 8} of M12: their mixed products do not
    # associate, so the factorization check fails HHA, HAH and AHH
    b = quasigroup_as_quasigroupoid(m12)
    c = FactorizationCandidate(
        b, sub_quasigroupoid(b, (0, 1))[1], sub_quasigroupoid(b, (0, 2, 6, 8))[1]
    )
    fact = check_exact_factorization(c)
    mixed = mixed_associativity_suite(c, fact)
    assert mixed.failed_axioms() == ("HHA", "HAH", "AHH")
    assert mixed.violations == [v for v in fact.violations if v.axiom != "theta-bijective"]


def _swapped_ahh_by_compose(c):
    """The AHH-swapped record as the definition reads it: p (g x) against
    (p x) g through `compose`, at every (p, g) in the mixed pairs and every
    x of H after g."""
    b, ia, ih, h = c.b, c.ia.arrow_map, c.ih.arrow_map, c.ih.source
    configs = [
        (p, g, x) for p, g in mixed_pairs(c.ia.source, h)
        for x in range(h.n_arrows) if h.src[g] == h.tgt[x]
    ]
    failures = [
        (p, g, x) for p, g, x in configs
        if b.compose(ia[p], b.compose(ih[g], ih[x])) != b.compose(b.compose(ia[p], ih[x]), ih[g])
    ]
    return {
        "checked": len(configs),
        "failures": len(failures),
        "first_witness": failures[0] if failures else None,
    }


def test_swapped_ahh_rows_equal_the_composite_reading(mp_family, m12):
    """The record and the note of the AHH-swapped reading, read from the
    stored rows, equal those of the definition, on the family, a
    two-sided pair, the one-object M12 and a candidate that is not exact."""
    b = quasigroup_as_quasigroupoid(m12)
    cases = {
        name: checked_factorization(mp)
        for name, mp in {
            **mp_family,
            "two-sided m2": two_sided_pair(2),
            "one-object m12": mp_action_left(m12, 1, [[0]] * 12),
        }.items()
    }
    c = FactorizationCandidate(b, sub_quasigroupoid(b, (0, 1))[1], sub_quasigroupoid(b, (0, 2, 6, 8))[1])
    cases["m12 subloops"] = (c, check_exact_factorization(c))
    seen = set()
    for name, (c, fact) in cases.items():
        report = mixed_associativity_suite(c, fact)
        expected = _swapped_ahh_by_compose(c)
        assert report.data["AHH-swapped"] == expected, name
        checked, failures, first = expected.values()
        note = (
            f"AHH with swapped right-hand factors fails at {failures}/{checked} "
            f"configurations, first witness {first}" if failures
            else f"AHH with swapped right-hand factors holds at all {checked} configurations"
        )
        assert report.notes == [note], name
        seen.add(failures > 0)
    assert seen == {True, False}


def test_matched_pair_constructor_validates(coarse2):
    mp = mp_discrete_right(coarse2)
    bad_left = dict(mp.left.table)
    key = next(iter(bad_left))
    bad_left[key] = coarse2.inv[bad_left[key]] if bad_left[key] not in set(coarse2.unit) else bad_left[key]
    # rebuilding with a simply impossible action value fails eagerly
    target = next(k for k, v in bad_left.items() if v not in set(coarse2.unit))
    bad_left[target] = coarse2.n_arrows - 1 - bad_left[target]
    if bad_left == mp.left.table:
        pytest.skip("perturbation collapsed")
    with pytest.raises(InvalidStructureError):
        matched_pair(mp.a, mp.h, bad_left, mp.right.table)


def test_mp_morphism_identity_and_composition(coarse2):
    mp = mp_discrete_right(coarse2)
    ident = MpMorphism(mp, mp, identity_morphism(mp.a), identity_morphism(mp.h))
    assert check_mp_morphism(ident).ok
    swap_a = QgpdMorphism(mp.a, mp.a, (1, 0), (3, 2, 1, 0))
    swap_h = QgpdMorphism(mp.h, mp.h, (1, 0), (1, 0))
    twisted = MpMorphism(mp, mp, swap_a, swap_h)
    assert check_mp_morphism(twisted).ok
    composed = compose_mp_morphisms(twisted, twisted)
    assert check_mp_morphism(composed).ok
    assert composed.gamma.arrow_map == identity_morphism(mp.a).arrow_map


def test_mp_morphism_with_incompatible_base_swap_fails(coarse2):
    mp = mp_discrete_right(coarse2)
    swap_h = QgpdMorphism(mp.h, mp.h, (1, 0), (1, 0))
    broken = MpMorphism(mp, mp, identity_morphism(mp.a), swap_h)
    report = check_mp_morphism(broken)
    assert not report.ok
    tags = report.failed_axioms()
    assert "base-agree" in tags
    assert "mp-left" in tags or "mp-right" in tags


def test_action_left_requires_a_real_action(m12):
    with pytest.raises(InvalidStructureError):
        mp_action_left(m12, 12, lambda a, x: m12.mul(a, x))


def quasigroupoid_inverse_candidates(q, arrow):
    """All arrows satisfying both cancellation laws against `arrow`,
    computed directly from the axioms (independent of q.inv)."""
    found = []
    for w in range(q.n_arrows):
        if q.src[w] != q.tgt[arrow] or q.tgt[w] != q.src[arrow]:
            continue
        left_ok = all(
            q.compose(w, q.compose(arrow, b)) == b
            for b in range(q.n_arrows)
            if q.composable(arrow, b)
        )
        right_ok = all(
            q.compose(q.compose(c, arrow), w) == c
            for c in range(q.n_arrows)
            if q.composable(c, arrow)
        )
        if left_ok and right_ok:
            found.append(w)
    return found


def test_dcp_inverse_is_the_unique_cancellation_inverse(z2, z3):
    # the inverse computed through the actions agrees with the only arrow
    # satisfying the cancellation laws, so the formula is forced
    for mp in (
        mp_discrete_right(pair_quasigroupoid(z2, 2)),
        mp_action_left(z3, 3, z3_translation),
    ):
        dcp = double_cross_product(mp)
        for arrow in range(dcp.n_arrows):
            assert quasigroupoid_inverse_candidates(dcp, arrow) == [dcp.inv[arrow]]


def test_the_identity_suite_refuses_a_table_as_check_matched_pair_does(coarse2):
    """A value past the last arrow, or a mixed pair without a value, is
    refused by the action constructor, on either side, with a plain
    StructureError, so neither check_matched_pair nor the identity suite
    is ever given the table; the reference action checkers refuse the same
    table with the same message."""
    mp = mp_discrete_right(coarse2)
    sides = (("left", LeftAction, mp.left.table, coarse2.n_arrows),
             ("right", RightAction, mp.right.table, mp.h.n_arrows))
    for kind, action, table, n in sides:
        key = sorted(table)[0]
        past = {**table, key: n}
        missing = {k: v for k, v in table.items() if k != key}
        for bad, message in ((past, f"{kind} action value {n} out of range"),
                             (missing, f"{kind} action domain mismatch")):
            with pytest.raises(StructureError, match=message) as raised:
                action(mp.h, mp.a, bad)
            assert type(raised.value) is StructureError
            unchecked = ref.UncheckedAction(mp.h, mp.a, PairTable.of(bad))
            with pytest.raises(StructureError) as expected:
                getattr(ref, f"check_{kind}_action")(unchecked)
            assert str(raised.value) == str(expected.value)
