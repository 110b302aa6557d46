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

The derived tags of the weak Hopf quasigroup suite are consequences of the
axioms, so they fail only on structures that break an earlier law.  The
suite needs d4-1 and d4-2, since `projections` refuses a structure where
they fail; proj-unit, proj-idem, antipode-counit, anticomult and bar-images
fail on small structures where those two hold.  cocomm-bars cannot fail
where d4-1 and d4-2 hold, so its check runs on a structure that breaks them,
with `projections` replaced by one that skips the agreement check.  The
delta(1) test of `is_hopf_quasigroup` is the only one of its tests that
fails on its input.
"""

import dataclasses
from itertools import product

import pytest

from nonassoc import (
    FactorizationCandidate,
    LinearMap,
    MagmaCoalgebra,
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
    derived_property_suite,
    enumerate_factorizations,
    identity_morphism,
    is_hopf_quasigroup,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc import hopf
from nonassoc.matched_pairs import theta_identity_report
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import StructureError, StructureReport, Violation
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


def one_dimensional(counit, antipode) -> MagmaCoalgebra:
    """The span of e with ee = e, unit e and delta(e) = e (x) e, where
    eps(e) and S(e) are the given multiples of 1 and of e."""
    return MagmaCoalgebra(
        1, {0: 1}, PairTable({0: {0: {0: 1}}}), LinearMap.from_cols(1, 1, [{0: counit}]),
        [[(0, 0, 1)]], LinearMap.from_cols(1, 1, [{0: antipode}]),
    )


def test_derived_properties_fail_on_a_doubled_counit_and_antipode():
    """eps(e) = 2 and S(e) = 2e: both projections are the convolution e -> 2e
    and both unit-coproduct forms eps(e) e = 2e, so d4-1 and d4-2 hold while
    coalg2 fails.  Every projection P = 2 id has P(1) = 2 and P o P = 4 id,
    eps o S = 4 eps, delta(S(e)) = 2 e (x) e against (S x S) delta(e) = 4 e (x) e,
    and S(ee) = 2e against S(e)S(e) = 4e."""
    d = one_dimensional(2, 2)
    assert hopf.check_whq(d).failed_axioms() == ("coalg2",)
    report = derived_property_suite(d)
    expected = [("conv-unit", ("PiL*id",)), ("conv-unit", ("id*PiR",))]
    for tag in ("PiL", "PiR", "barL", "barR"):
        expected += [("proj-unit", (tag,)), ("proj-counit", (tag,)), ("proj-idem", (tag,))]
    expected += [
        ("antipode-unit", ()), ("antipode-counit", ()), ("antimult", (0, 0)),
        ("anticomult", ()), ("conv-idem", ("PiL",)), ("conv-idem", ("PiR",)),
    ]
    assert [(v.axiom, v.witness) for v in report.violations] == expected
    assert report.violations_for("antimult")[0].detail == "lhs={0: 2} rhs={0: 4}"


def test_bar_images_fail_where_only_the_barred_forms_are_nonzero():
    """Basis e0, e1 with unit e0, the one nonzero product e1e0 = e0,
    eps(e0) = 1, eps(e1) = 0, delta(e0) = e0 (x) e1, delta(e1) = 0 and S = 0.
    The convolution projections are 0, and so are PiL(h) = eps(e0 h) e1 and
    PiR(h) = eps(h e1) e0, so d4-1 and d4-2 hold; but barL(e0) = eps(e1e0) e0
    = e0 and barR(e1) = eps(e1e0) e1 = e1."""
    d = MagmaCoalgebra(
        2, {0: 1}, PairTable({1: {0: {0: 1}}}), LinearMap.from_cols(2, 1, [{0: 1}, {}]),
        [[(0, 1, 1)], []], LinearMap.from_cols(2, 2, [{}, {}]),
    )
    pi_l, pi_r, bar_l, bar_r = hopf.projections(d)
    assert (pi_l.cols, pi_r.cols, bar_l.cols, bar_r.cols) == (({}, {}), ({}, {}), ({0: 1}, {}), ({}, {1: 1}))
    assert derived_property_suite(d).violations_for("bar-images") == [
        Violation("bar-images", ("barL-vs-PiR",)),
        Violation("bar-images", ("barR-vs-PiL",)),
    ]


def test_cocommutative_bars_fail_where_the_projections_disagree(monkeypatch):
    """eps(e) = 1 and S(e) = 2e: the convolution projections are e -> 2e and
    every unit-coproduct form is e -> e, so d4-1 and d4-2 fail and
    `projections` refuses the structure.  On a cocommutative coalgebra each
    barred form equals its plain twin, so cocomm-bars fails only where d4-1
    or d4-2 does; the suite runs here on the convolution projections and the
    barred forms, with the agreement check skipped."""
    d = one_dimensional(1, 2)
    with pytest.raises(StructureError):
        hopf.projections(d)
    monkeypatch.setattr(hopf, "projections", lambda d: (*d.convolution_projections, *d.projection_formulas[2:]))
    assert derived_property_suite(d).violations_for("cocomm-bars") == [
        Violation("cocomm-bars", ("L",)),
        Violation("cocomm-bars", ("R",)),
    ]


def test_is_hopf_quasigroup_fails_on_a_unit_that_does_not_split():
    """K x K: orthogonal idempotents e0, e1 with unit e0 + e1, each
    group-like, eps(e0) = 1 and eps(e1) = 0.  eps(1) = 1, the counit is
    multiplicative and d1 holds, but delta(1) = e0 (x) e0 + e1 (x) e1 is not
    1 (x) 1."""
    d = MagmaCoalgebra(
        2, {0: 1, 1: 1}, PairTable({0: {0: {0: 1}}, 1: {1: {1: 1}}}),
        LinearMap.from_cols(2, 1, [{0: 1}, {}]), [[(0, 0, 1)], [(1, 1, 1)]], LinearMap.identity(2),
    )
    assert d.eps_vec(d.unit) == 1
    assert all(d.eps_vec(d.mul_basis(i, j)) == d.eps(i) * d.eps(j) for i in range(2) for j in range(2))
    report = StructureReport("d1")
    hopf._law_d1(d, report)
    assert report.ok
    assert d.delta_vec(d.unit) == {(0, 0): 1, (1, 1): 1}
    assert not is_hopf_quasigroup(d)
