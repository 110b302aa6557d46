"""The kill set: one small failing input for each failure branch that no
other test reaches, with the exact violations it must produce.

A branch that never fires in the suite can be deleted or inverted without a
test noticing.  Each test here fails one such branch on purpose and pins
its witnesses and details, computed by hand or read off the input.  Derived
and theorem tags (E-1, E-2, E-5, inv-involutive, inv-antihom,
theta-identity) hold on every structure that passes its axioms, so their
sweeps are called directly on a structure that is broken upstream.  An
element never has two inverse-property inverses (the proof is in the
docstring of `check_quasigroup`), so that case has no branch to fail; its
test checks the claim on every table of order 3.

The derived tags of the weak Hopf quasigroup suite are not covered yet.
"""

import dataclasses
from itertools import product

from nonassoc import (
    FactorizationCandidate,
    MpMorphism,
    QgpdMorphism,
    Quasigroupoid,
    check_action_on_set,
    check_exact_factorization,
    check_morphism,
    check_mp_morphism,
    check_quasigroup,
    coarse_groupoid,
    cyclic_group,
    derived_identity_suite,
    derived_inverse_suite,
    enumerate_factorizations,
    identity_morphism,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc.matched_pairs import theta_identity_report
from nonassoc.reports import Violation
from tests.conftest import corrupted_matched_pairs, two_sided_pair


def test_derived_identities_fail_on_a_broken_inverse_map():
    """coarse(2) with inv(1) = 1, where arrow 1 goes from object 1 to 0:
    the inverse of 1 has the wrong ends (E-1, E-2), and 2, whose inverse is
    still 1, is not the inverse of its inverse (E-5)."""
    coarse = coarse_groupoid(2)
    assert (coarse.src[1], coarse.tgt[1], coarse.inv[2]) == (1, 0, 1)
    report = derived_identity_suite(dataclasses.replace(coarse, inv=(0, 1, 1, 3)))
    assert report.violations_for("E-1") == [Violation("E-1", (1,))]
    assert report.violations_for("E-2") == [Violation("E-2", (1,))]
    assert report.violations_for("E-5") == [Violation("E-5", (2,))]


def test_derived_inverse_identities_fail_on_a_wrong_inverse_table():
    """Z3 with the inverse table (0, 2, 2): inv(inv(1)) = 2, and
    inv(uv) = inv(v)inv(u) fails wherever u and v are both nonzero."""
    z3 = cyclic_group(3)
    report = derived_inverse_suite(dataclasses.replace(z3, inverse=(0, 2, 2)))
    assert report.violations_for("inv-involutive") == [Violation("inv-involutive", (1,))]
    assert report.violations_for("inv-antihom") == [
        Violation("inv-antihom", pair) for pair in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]


def test_no_table_of_order_three_has_two_inverses():
    """`check_quasigroup` reports only missing inverses: on every table of
    order 3, no element has two inverse-property inverses, and the `inverse`
    violations are exactly the elements with none, as found here directly."""
    n = 3
    for flat in product(range(n), repeat=n * n):
        table = [flat[u * n:(u + 1) * n] for u in range(n)]
        found = [
            [w for w in range(n)
             if all(table[w][table[u][v]] == v == table[table[v][u]][w] for v in range(n))]
            for u in range(n)
        ]
        assert all(len(ws) <= 1 for ws in found)
        assert check_quasigroup(table, 0).violations_for("inverse") == [
            Violation("inverse", (u,), "no inverse-property inverse")
            for u, ws in enumerate(found) if not ws
        ]


def test_action_unit_fails_where_the_identity_moves_a_point():
    report = check_action_on_set(cyclic_group(2), 2, [[1, 0], [0, 1]])
    assert report.violations_for("action-unit") == [
        Violation("action-unit", (0,), "psi(e,0)=1"),
        Violation("action-unit", (1,), "psi(e,1)=0"),
    ]


def test_theta_is_not_the_identity_off_a_double_cross_product():
    """An exact factorization of pair(Z2, 2) whose ambient arrows are not
    numbered as the mixed pairs of its components: theta sends each pair to
    the arrow it names in pair(Z2, 2), and four of those land elsewhere."""
    c = next(
        c for c in enumerate_factorizations(pair_quasigroupoid(cyclic_group(2), 2))
        if c.ia.arrow_map == (0, 3) and c.ih.arrow_map == tuple(range(8))
    )
    fact = check_exact_factorization(c)
    assert fact.ok
    assert theta_identity_report(c, fact).violations == [
        Violation("theta-identity", (0, 4), "image=(1, 2)"),
        Violation("theta-identity", (0, 5), "image=(1, 3)"),
        Violation("theta-identity", (1, 2), "image=(0, 4)"),
        Violation("theta-identity", (1, 3), "image=(0, 5)"),
    ]


def test_mp_morphism_folds_each_component_report_under_its_side():
    """gamma swaps the identity arrows of coarse(2) and omega swaps the two
    arrows of the discrete groupoid, keeping the objects: every violation of
    each component's own morphism report appears, in order, under
    gamma-<tag> or omega-<tag>."""
    mp = mp_discrete_right(coarse_groupoid(2))
    gamma = QgpdMorphism(mp.a, mp.a, (0, 1), (3, 1, 2, 0))
    omega = QgpdMorphism(mp.h, mp.h, (0, 1), (1, 0))
    report = check_mp_morphism(MpMorphism(mp, mp, gamma, omega))
    for side, f in (("gamma", gamma), ("omega", omega)):
        own = check_morphism(f).violations
        assert own
        folded = [v for v in report.violations if v.axiom.startswith(side + "-")]
        assert folded == [Violation(f"{side}-{v.axiom}", v.witness, v.detail) for v in own]


def test_mp_morphism_reports_an_action_value_that_is_not_intertwined():
    """The identity maps from the two-sided pair reconstructed from
    pair(M12, 2) to a copy with one action value changed: the action fails
    to commute exactly at the changed entry, where both sides are defined."""
    mp = two_sided_pair(2)
    ident = (identity_morphism(mp.a), identity_morphism(mp.h))
    for suffix, tag, side in (("left-unit-broken", "mp-left", "left"),
                              ("right-changed", "mp-right", "right")):
        broken = corrupted_matched_pairs(mp)[suffix]
        before, after = getattr(mp, side).table, getattr(broken, side).table
        changed = [
            Violation(tag, key, f"lhs={before[key]} rhs={after[key]}")
            for key in before if before[key] != after[key]
        ]
        assert len(changed) == 1
        assert check_mp_morphism(MpMorphism(mp, broken, *ident)).violations == changed


def test_mono_fails_on_a_morphism_that_is_not_injective():
    """pair(Z2, 2) -> coarse(2), (a, x, y) -> (x, y), is a morphism, two to
    one on arrows."""
    coarse = coarse_groupoid(2)
    quotient = QgpdMorphism(pair_quasigroupoid(cyclic_group(2), 2), coarse, (0, 1),
                            tuple(i % 4 for i in range(8)))
    assert check_morphism(quotient).ok
    report = check_exact_factorization(
        FactorizationCandidate(coarse, quotient, identity_morphism(coarse))
    )
    assert report.violations_for("mono-A") == [Violation("mono-A", (), "arrow map not injective")]
    assert report.violations_for("mono-H") == []


def test_theta_bijective_fails_on_images_that_meet_outside_the_identities():
    """Both components are the arrows {e, z} of one object, with no products
    (so each inclusion is a morphism), inside an ambient table on
    {e, z, w1, w2} where z*e = w1 breaks the unit law.  theta sends the four
    pairs to e, z, w1, w2, and every mixed law holds, but the two images
    share z."""
    two = Quasigroupoid(1, (0, 0), (0, 0), (0,), (0, 1), {})
    ambient = Quasigroupoid(1, (0,) * 4, (0,) * 4, (0,), (0, 1, 2, 3), {
        (x, y): v
        for x, row in enumerate([[0, 1, 2, 3], [2, 3, 0, 1], [2, 3, 0, 0], [0, 1, 0, 0]])
        for y, v in enumerate(row)
    })
    incl = QgpdMorphism(two, ambient, (0,), (0, 1))
    report = check_exact_factorization(FactorizationCandidate(ambient, incl, incl))
    assert report.violations == [
        Violation("theta-bijective", (0, 1), "component images meet outside the identity arrows")
    ]
    assert report.data["theta"] == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
