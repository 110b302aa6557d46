import dataclasses
import random

import pytest

from nonassoc import (
    LinearMap,
    bowtie,
    bowtie_whq,
    canonical_iso,
    check_whq,
    check_whq_morphism,
    dcp_pairs,
    double_cross_product,
    hopf,
    is_cocommutative,
    is_hopf_quasigroup,
    linearized_actions,
    magma_of_quasigroupoid,
    matched_pairs,
    mixed_pairs,
    module_law_report,
    mp_action_left,
    mp_discrete_right,
    nabla_phi,
    phi_map,
    projections,
    quasigroup_as_quasigroupoid,
    verify_canonical_iso,
)
from nonassoc.linalg import vec_equal
from nonassoc.quasigroupoids import PairTable, Quasigroupoid
from nonassoc.reports import StructureError, format_report
from tests import reference_bowtie
from tests.conftest import coproduct_map, product_map, two_sided_pair, z3_translation


def test_linearized_action_unit_law(z3):
    # acting by the unit of K[H] (the sum of identity arrows) fixes every arrow
    mp = mp_action_left(z3, 3, z3_translation)
    a, h = mp.a, mp.h
    na = a.n_arrows
    phi_ka, _ = linearized_actions(mp)
    for y in range(na):
        acted = {}
        for obj in range(h.n_objects):
            col = phi_ka.cols[h.unit[obj] * na + y]
            for i, c in col.items():
                acted[i] = acted.get(i, 0) + c
        assert acted == {y: 1}


def test_linearized_action_zero_on_non_composable(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    a, h = mp.a, mp.h
    na = a.n_arrows
    phi_ka, phi_kh = linearized_actions(mp)
    composable = set(mixed_pairs(h, a))
    for x in range(h.n_arrows):
        for y in range(na):
            col = phi_ka.cols[x * na + y]
            if (x, y) in composable:
                assert col == {mp.phi_a(x, y): 1}
            else:
                assert col == {}
            col = phi_kh.cols[x * na + y]
            if (x, y) in composable:
                assert col == {mp.phi_h(x, y): 1}
            else:
                assert col == {}


def test_module_laws_hold(mp_family):
    for name, mp in mp_family.items():
        assert module_law_report(mp).ok, name


def test_phi_map_and_nabla_phi(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows
    phi = phi_map(mp)
    composable = set(mixed_pairs(h, a))
    for x in range(nh):
        for y in range(na):
            col = phi.cols[x * na + y]
            if (x, y) in composable:
                assert col == {mp.phi_a(x, y) * nh + mp.phi_h(x, y): 1}
            else:
                assert col == {}
    grad = nabla_phi(mp)
    assert grad @ grad == grad
    assert grad.rank() == len(dcp_pairs(mp))
    for p in range(na):
        for q in range(nh):
            col = grad.cols[p * nh + q]
            if a.src[p] == h.tgt[q]:
                assert col == {p * nh + q: 1}
            else:
                assert col == {}


def test_bowtie_unit_is_sum_of_paired_identities(coarse2):
    mp = mp_discrete_right(coarse2)
    d = bowtie_whq(mp)
    pairs = dcp_pairs(mp)
    expected = {
        pairs.index((mp.a.unit[x], mp.h.unit[x])): 1 for x in range(mp.a.n_objects)
    }
    assert d.unit == expected


def test_bowtie_projections_match_endpoint_identities(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    d = bowtie_whq(mp)
    pairs = dcp_pairs(mp)
    pi_l, pi_r, _, _ = projections(d)
    a, h = mp.a, mp.h
    for i, (p, q) in enumerate(pairs):
        target_object = a.tgt[p]
        source_object = h.src[q]
        l_index = pairs.index((a.unit[target_object], h.unit[target_object]))
        r_index = pairs.index((a.unit[source_object], h.unit[source_object]))
        assert pi_l.cols[i] == {l_index: 1}
        assert pi_r.cols[i] == {r_index: 1}


def test_bowtie_product_in_discrete_right_family(coarse2):
    mp = mp_discrete_right(coarse2)
    d = bowtie_whq(mp)
    pairs = dcp_pairs(mp)
    a = mp.a
    for i, (p, x) in enumerate(pairs):
        for j, (q, y) in enumerate(pairs):
            col = d.mul_basis(i, j)
            if a.src[p] == a.tgt[q]:  # x = src(p) must match tgt of q
                expected = pairs.index((a.compose(p, q), y))
                assert col == {expected: 1}
            else:
                assert col == {}


def test_bowtie_passes_whq_and_is_cocommutative(mp_family):
    for name, mp in mp_family.items():
        d = bowtie_whq(mp)
        assert check_whq(d).ok, name
        assert is_cocommutative(d), name


def test_canonical_iso_dimensions_and_morphism(mp_family):
    for name, mp in mp_family.items():
        f = canonical_iso(mp)
        assert f.dom == len(dcp_pairs(mp)), name
        source = magma_of_quasigroupoid(double_cross_product(mp))
        target = bowtie_whq(mp)
        assert source.dim == f.dom == target.dim, name
        assert check_whq_morphism(f, source, target).ok, name


def test_canonical_iso_full_verification(mp_family):
    for name, mp in mp_family.items():
        report = verify_canonical_iso(mp)
        assert report.ok, (name, report.failed_axioms())


def test_antipodes_agree_coefficientwise(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    source = magma_of_quasigroupoid(double_cross_product(mp))
    target = bowtie_whq(mp)
    assert source.antipode == target.antipode
    assert source.product == target.product
    assert vec_equal(source.unit, target.unit)


def test_one_object_corollary_is_hopf(z2, m12):
    for q in (z2, m12):
        mp = mp_discrete_right(quasigroup_as_quasigroupoid(q))
        source = magma_of_quasigroupoid(double_cross_product(mp))
        target = bowtie_whq(mp)
        assert is_hopf_quasigroup(source)
        assert is_hopf_quasigroup(target)
        assert verify_canonical_iso(mp).ok


def _phi_with_two_columns_swapped(phi_map):
    """phi_map, but with the first nonzero column of Phi exchanged with the
    first nonzero column that has another image."""

    def swapped(mp):
        phi = phi_map(mp)
        nonzero = [t for t, col in enumerate(phi.cols) if col]
        i = nonzero[0]
        j = next(t for t in nonzero if phi.cols[t] != phi.cols[i])
        cols = list(phi.cols)
        cols[i], cols[j] = cols[j], cols[i]
        return LinearMap(phi.dom, phi.cod, tuple(cols))

    return swapped


def test_oracle_sees_a_corrupted_pairing_map(mp_family, monkeypatch):
    # the linear route reads the actions only through Phi, so corrupting Phi
    # after validation must show against the combinatorial route
    monkeypatch.setattr(bowtie, "phi_map", _phi_with_two_columns_swapped(bowtie.phi_map))
    for name, mp in mp_family.items():
        failed = verify_canonical_iso(mp).failed_axioms()
        assert {"mkl4", "oracle-product", "oracle-antipode"} <= set(failed), (name, failed)


def _morphism_and_iso_reports(mp):
    """Everything check_whq_morphism of the canonical isomorphism, between
    structures built afresh, and verify_canonical_iso show for mp."""
    source = magma_of_quasigroupoid(double_cross_product(mp))
    reports = (
        check_whq_morphism(canonical_iso(mp), source, bowtie._bowtie_whq(mp)),
        verify_canonical_iso(mp),
    )
    return [(r.subject, r.axioms, r.violations, r.notes, format_report(r), r.data) for r in reports]


def test_morphism_kernel_leaves_the_reports_unchanged(mp_family, monkeypatch):
    """The reports with the group-like kernel equal those with every
    structure's `_group_like` patched to None, on correct pairs and with a
    corrupted pairing map, whose mkl4 failure the kernel finds first."""
    pairs = {**mp_family, "two-sided m2": two_sided_pair(2)}
    decided = []
    mkl4_holds = hopf._mkl4_holds
    monkeypatch.setattr(hopf, "_mkl4_holds", lambda *args: decided.append(mkl4_holds(*args)) or decided[-1])
    for corrupted in (False, True):
        with monkeypatch.context() as m:
            if corrupted:
                m.setattr(bowtie, "phi_map", _phi_with_two_columns_swapped(bowtie.phi_map))
            for name, mp in pairs.items():
                decided.clear()
                fast = _morphism_and_iso_reports(mp)
                assert decided == [not corrupted] * 2, (name, corrupted)
                with monkeypatch.context() as slow:
                    slow.setattr(hopf, "_group_like", lambda d: None)
                    assert _morphism_and_iso_reports(mp) == fast, (name, corrupted)
                assert decided == [not corrupted] * 2, (name, corrupted)  # not reached without tables
                assert [any(v.axiom == "mkl4" for v in r[2]) for r in fast] == [corrupted] * 2, name


def test_canonical_iso_at_192_arrows_forms_no_nabla_column(monkeypatch):
    calls = []
    nabla_col = hopf._nabla_col
    monkeypatch.setattr(hopf, "_nabla_col", lambda *args: calls.append(args) or nabla_col(*args))
    mp = two_sided_pair(4)
    assert len(dcp_pairs(mp)) == 192
    assert verify_canonical_iso(mp).ok
    assert calls == []


def test_canonical_iso_builds_no_kernel_columns(monkeypatch):
    """The morphism kernel reads the group-like products by row only, so
    certifying the isomorphism never transposes them; `check_whq` does."""
    read = []
    columns = hopf.MagmaCoalgebra.group_like_cols.func
    monkeypatch.setattr(hopf.MagmaCoalgebra, "group_like_cols", property(lambda d: read.append(d) or columns(d)))
    mp = two_sided_pair(2)
    assert verify_canonical_iso(mp).ok
    assert read == []
    assert check_whq(magma_of_quasigroupoid(double_cross_product(mp))).ok
    assert read


def test_bowtie_uses_no_combinatorial_product(mp_family, monkeypatch):
    expected = {
        name: magma_of_quasigroupoid(double_cross_product(mp)) for name, mp in mp_family.items()
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("the linear route used the combinatorial product")

    monkeypatch.setattr(Quasigroupoid, "compose", forbidden)
    monkeypatch.setattr(matched_pairs, "double_cross_product", forbidden)
    for module in (bowtie, matched_pairs):
        monkeypatch.setattr(module, "_dcp_fill", forbidden)
    with pytest.raises(AssertionError):
        mp_family["one-object z2"].a.compose(0, 0)
    for name, mp in mp_family.items():
        d = bowtie._bowtie_whq(mp)
        assert d == expected[name], name
        assert d.basis_names == expected[name].basis_names, name


def _composite_module_laws(mp):
    """Which associativity module laws hold, decided on the whole composite
    maps on K[H] (x) K[H] (x) K[A] and K[H] (x) K[A] (x) K[A]: the
    reference for `module_law_report`."""
    phi_ka, phi_kh = linearized_actions(mp)
    mu_a, mu_h = magma_of_quasigroupoid(mp.a), magma_of_quasigroupoid(mp.h)
    ident_a, ident_h = LinearMap.identity(mp.a.n_arrows), LinearMap.identity(mp.h.n_arrows)
    return {
        "left-assoc": phi_ka @ ident_h.tensor(phi_ka)
        == phi_ka @ product_map(mu_h.product, mu_h.dim).tensor(ident_a),
        "right-assoc": phi_kh @ phi_kh.tensor(ident_a)
        == phi_kh @ ident_h.tensor(product_map(mu_a.product, mu_a.dim)),
    }


def _corrupted_actions(mp):
    """Copies of mp, unchecked, with one value of the left or of the right
    action table moved to the next arrow, at each of the first two entries."""
    out = []
    for side, target in (("left", mp.a), ("right", mp.h)):
        action = getattr(mp, side)
        if target.n_arrows == 1:
            continue
        for key, v in sorted(action.table.items())[:2]:
            table = {**action.table, key: (v + 1) % target.n_arrows}
            out.append(dataclasses.replace(mp, **{side: dataclasses.replace(action, table=table)}))
    return out


def _build_outcome(build, mp):
    """What a build of the linearized double cross product shows: its
    constants, with the order of their entries and their scalars' types,
    or the error it raised."""
    try:
        d = build(mp)
    except StructureError as exc:
        return "raised", str(exc)
    return "built", d.dim, repr(list(d.product.items())), repr(d.antipode.cols), repr(d.unit), d.basis_names


def _phi_with_terms_added(mp, rng):
    """Phi of mp with one to three terms, of coefficient 1, -1 or 2, added
    at random places, some of them where Phi is zero."""
    phi = phi_map(mp)
    cols = [dict(col) for col in phi.cols]
    for _ in range(rng.randint(1, 3)):
        col = cols[rng.randrange(phi.dom)]
        u = rng.randrange(phi.cod)
        col[u] = col.get(u, 0) + rng.choice((1, -1, 2))
    return LinearMap.from_cols(phi.dom, phi.cod, cols)


def test_the_carrier_indexed_build_equals_the_reference(mp_family, monkeypatch):
    """The products added onto carrier indices and the antipode formed
    column by column give the constants of the tensor-space build of
    `tests/reference_bowtie.py`, entry order included, or raise the same
    `double cross product not closed` error at the same context: on the
    family, on corrupted action tables, and on pairing maps with added
    terms (read through `bowtie.phi_map`)."""
    rng = random.Random(22)
    pairs = {**mp_family, "two-sided m2": two_sided_pair(2)}
    seen = {"built": 0, "product": 0, "antipode": 0}
    for name, mp in pairs.items():
        cases = [(case, None) for case in [mp, *_corrupted_actions(mp)]]
        cases += [(mp, _phi_with_terms_added(mp, rng)) for _ in range(12)]
        for case, phi in cases:
            with monkeypatch.context() as m:
                if phi is not None:
                    m.setattr(bowtie, "phi_map", lambda pair, phi=phi: phi)
                expected = _build_outcome(reference_bowtie.bowtie_whq, case)
                assert _build_outcome(bowtie._bowtie_whq, case) == expected, name
            if expected[0] == "built":
                seen["built"] += 1
            else:
                seen[expected[1].split("'")[1]] += 1
    assert min(seen.values()) >= 10, seen


def test_module_law_report_agrees_with_the_composite_maps(mp_family):
    verdicts = set()
    for name, mp in mp_family.items():
        for case in [mp, *_corrupted_actions(mp)]:
            expected = _composite_module_laws(case)
            report = module_law_report(case)
            for tag, holds in expected.items():
                assert (tag not in report.failed_axioms()) == holds, (name, tag)
                verdicts.add((tag, holds))
            assert all(v.witness == () for v in report.violations if v.axiom in expected)
    assert verdicts == {(tag, holds) for tag in ("left-assoc", "right-assoc") for holds in (True, False)}


def _changed(tag, d):
    """d with the structure constant behind an oracle tag changed: the unit
    coefficient of the first identity doubled, eps(0) = 2, or the leg
    0 (x) 1 added to delta(0)."""
    if tag == "oracle-unit":
        first = min(d.unit)
        return dataclasses.replace(d, unit={**d.unit, first: 2})
    if tag == "oracle-counit":
        counit = LinearMap.from_basis(d.dim, 1, lambda i: {0: 2 if i == 0 else 1})
        return dataclasses.replace(d, counit=counit)
    cols = list(coproduct_map(d.coproduct, d.dim).cols)
    cols[0] = {**cols[0], 1: 1}
    return dataclasses.replace(d, coproduct=LinearMap.from_cols(d.dim, d.dim * d.dim, cols))


def _oracle_failures(monkeypatch, mp, change):
    """The oracle-* violations of `verify_canonical_iso(mp)` when the
    linearized side is replaced by change(linearized side)."""
    build = bowtie._bowtie_whq
    monkeypatch.setattr(bowtie, "_bowtie_whq", lambda pair: change(build(pair)))
    report = verify_canonical_iso(mp)
    return [(v.axiom, v.witness, v.detail) for v in report.violations if v.axiom.startswith("oracle-")]


@pytest.mark.parametrize("tag", ["oracle-unit", "oracle-counit", "oracle-coproduct"])
def test_each_oracle_tag_fails_when_its_constant_differs(z3, monkeypatch, tag):
    mp = mp_action_left(z3, 3, z3_translation)
    failures = _oracle_failures(monkeypatch, mp, lambda d: _changed(tag, d))
    assert {axiom for axiom, _, _ in failures} == {tag}


def test_oracle_product_fails_at_a_product_only_one_side_stores(z3, monkeypatch):
    """The linearized side gains a product on a pair the combinatorial side
    multiplies to zero: the witness is the pair's index h * n + k in the
    tensor square, and the zero side prints as {}."""
    mp = mp_action_left(z3, 3, z3_translation)
    source = magma_of_quasigroupoid(double_cross_product(mp))
    n = source.dim
    h, k = next((h, k) for h in range(n) for k in range(n) if not source.mul_basis(h, k))

    def with_extra_product(d):
        rows = {x: dict(row) for x, row in d.product.rows.items()}
        rows.setdefault(h, {})[k] = {0: 1}
        return dataclasses.replace(d, product=PairTable(rows))

    failures = _oracle_failures(monkeypatch, mp, with_extra_product)
    assert failures == [("oracle-product", (h * n + k,), "{} vs {0: 1}")]


def test_bijective_fails_on_a_non_injective_or_non_basis_map(z3, monkeypatch):
    """`bijective` holds when the map sends each basis vector to one basis
    vector with coefficient 1 and no two to the same one: a non-injective
    basis map and a map with a two-term column each fail it, with a report
    and no exception."""
    mp = mp_action_left(z3, 3, z3_translation)
    n = len(dcp_pairs(mp))
    identity = [{j: 1} for j in range(n)]
    merged = identity[:1] + identity[:1] + identity[2:]  # basis vectors 0 and 1 both to 0
    summed = identity[:1] + [{0: 1, 2: 1}] + identity[2:]  # column 1 = column 0 + column 2
    for cols in (identity, merged, summed):
        f = LinearMap(n, n, tuple(cols))
        with monkeypatch.context() as m:
            m.setattr(bowtie, "canonical_iso", lambda pair: f)
            report = verify_canonical_iso(mp)
        assert ("bijective" in report.failed_axioms()) == (cols is not identity)
