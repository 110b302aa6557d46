import dataclasses
from itertools import permutations

from nonassoc import (
    LinearMap,
    hopf,
    check_whq,
    check_whq_morphism,
    coarse_groupoid,
    compose_morphisms,
    derived_property_suite,
    discrete_groupoid,
    double_cross_product,
    from_quasigroup_action,
    identity_morphism,
    inclusion_a,
    inclusion_h,
    is_cocommutative,
    is_commutative,
    is_hopf_quasigroup,
    magma_functor,
    magma_of_quasigroupoid,
    mp_discrete_right,
    nabla,
    pair_quasigroupoid,
    projections,
    quasigroup_as_quasigroupoid,
    span_equal,
)
from nonassoc.linalg import vec_equal
from nonassoc.quasigroupoids import QgpdMorphism
from tests.conftest import FLIP


def small_structures(z2, z3, m12):
    return {
        "discrete(2)": discrete_groupoid(2),
        "coarse(2)": coarse_groupoid(2),
        "one-object z2": quasigroup_as_quasigroupoid(z2),
        "one-object m12": quasigroup_as_quasigroupoid(m12),
        "flip action": from_quasigroup_action(z2, 2, FLIP),
        "pair(z2,2)": pair_quasigroupoid(z2, 2),
    }


def test_quasigroupoid_magmas_are_weak_hopf_quasigroups(z2, z3, m12):
    for name, q in small_structures(z2, z3, m12).items():
        d = magma_of_quasigroupoid(q)
        report = check_whq(d)
        assert report.ok, (name, report.failed_axioms())
        assert is_cocommutative(d), name


def test_group_algebra_is_hopf(z2):
    d = magma_of_quasigroupoid(quasigroup_as_quasigroupoid(z2))
    assert check_whq(d).ok
    assert is_hopf_quasigroup(d)
    assert is_commutative(d)


def test_corrupted_antipode_is_rejected(coarse2):
    d = magma_of_quasigroupoid(coarse2)
    bad_antipode = LinearMap.from_basis(4, 4, lambda i: 0 if i == 1 else d.antipode.cols[i])
    bad = dataclasses.replace(d, antipode=bad_antipode)
    report = check_whq(bad)
    assert not report.ok
    tags = report.failed_axioms()
    assert "d4-3" in tags or "d4-4" in tags


def test_projections_on_quasigroupoid_magma(coarse2):
    d = magma_of_quasigroupoid(coarse2)
    pi_l, pi_r, bar_l, bar_r = projections(d)
    for b in range(4):
        assert pi_l.cols[b] == {coarse2.unit[coarse2.tgt[b]]: 1}
        assert pi_r.cols[b] == {coarse2.unit[coarse2.src[b]]: 1}
    # cocommutative: the barred versions coincide with the plain ones
    assert bar_l == pi_l and bar_r == pi_r
    assert vec_equal(pi_l(d.unit), d.unit)


def test_projections_collapse_in_the_one_object_case(m12):
    d = magma_of_quasigroupoid(quasigroup_as_quasigroupoid(m12))
    pi_l, pi_r, _, _ = projections(d)
    unit_after_counit = LinearMap.from_basis(
        d.dim, d.dim, lambda j: {i: c * d.eps(j) for i, c in d.unit.items()}
    )
    assert pi_l == unit_after_counit
    assert pi_r == unit_after_counit


def test_derived_property_suite_passes(z2, z3, m12):
    for name, q in small_structures(z2, z3, m12).items():
        d = magma_of_quasigroupoid(q)
        report = derived_property_suite(d)
        assert report.ok, (name, report.failed_axioms())


def test_antipode_antimultiplicative_matches_loop_inverse(m12):
    # oracle on the underlying loop: (uv)^-1 = v^-1 u^-1 at all 144 pairs
    for u in range(12):
        for v in range(12):
            assert m12.inv(m12.mul(u, v)) == m12.mul(m12.inv(v), m12.inv(u))
    d = magma_of_quasigroupoid(quasigroup_as_quasigroupoid(m12))
    for u in range(12):
        for v in range(12):
            lhs = d.antipode(d.mul_basis(u, v))
            rhs = d.mul_vec(d.antipode.cols[v], d.antipode.cols[u])
            assert vec_equal(lhs, rhs)


def test_antipode_on_coarse_reverses_paths(coarse2):
    d = magma_of_quasigroupoid(coarse2)

    def arrow(x, y):
        return x * 2 + y

    lhs = d.antipode(d.mul_basis(arrow(0, 1), arrow(1, 0)))
    rhs = d.mul_vec({arrow(0, 1): 1}, {arrow(1, 0): 1})
    assert vec_equal(lhs, rhs)  # both are the identity at 0
    assert d.antipode.cols[arrow(0, 1)] == {arrow(1, 0): 1}


def test_target_subalgebra_is_spanned_by_identities(z2, z3, m12):
    for name, q in small_structures(z2, z3, m12).items():
        d = magma_of_quasigroupoid(q)
        pi_l, _, _, _ = projections(d)
        identity_vectors = [{q.unit[x]: 1} for x in range(q.n_objects)]
        assert span_equal(pi_l.cols, identity_vectors, d.dim), name


def test_magma_structure_constants(coarse2):
    d = magma_of_quasigroupoid(discrete_groupoid(2))
    assert d.dim == 2
    assert d.unit == {0: 1, 1: 1}
    assert d.mul_basis(0, 0) == {0: 1}
    assert d.mul_basis(0, 1) == {}
    dcp = double_cross_product(mp_discrete_right(pair_quasigroupoid_z2()))
    assert check_whq(magma_of_quasigroupoid(dcp)).ok


def pair_quasigroupoid_z2():
    from nonassoc import cyclic_group

    return pair_quasigroupoid(cyclic_group(2), 2)


def test_nabla_keeps_composable_tensors(coarse2):
    d = magma_of_quasigroupoid(coarse2)
    grad = nabla(d)
    n = d.dim
    for a in range(n):
        for b in range(n):
            col = grad.cols[a * n + b]
            if coarse2.src[a] == coarse2.tgt[b]:
                assert col == {a * n + b: 1}
            else:
                assert col == {}
    assert grad @ grad == grad


def test_nabla_is_identity_in_the_one_object_case(z2):
    d = magma_of_quasigroupoid(quasigroup_as_quasigroupoid(z2))
    assert nabla(d) == LinearMap.identity(d.dim * d.dim)


def test_whq_morphism_identity_and_inclusions(z2):
    mp = mp_discrete_right(pair_quasigroupoid(z2, 2))
    dcp = double_cross_product(mp)
    big = magma_of_quasigroupoid(dcp)
    assert check_whq_morphism(LinearMap.identity(big.dim), big, big).ok
    for incl in (inclusion_a(mp, dcp), inclusion_h(mp, dcp)):
        f = magma_functor(incl)
        small = magma_of_quasigroupoid(incl.source)
        report = check_whq_morphism(f, small, big)
        assert report.ok, report.failed_axioms()
        assert len({min(col) for col in f.cols}) == f.dom  # injective on basis


def test_product_law_needs_nabla():
    # collapsing two objects to one maps the non-composable pair (0, 1) to a
    # composable one, so the plain product law fails where the
    # nabla-corrected one holds
    collapse = QgpdMorphism(discrete_groupoid(2), discrete_groupoid(1), (0, 0), (0, 0))
    f = magma_functor(collapse)
    small = magma_of_quasigroupoid(discrete_groupoid(2))
    big = magma_of_quasigroupoid(discrete_groupoid(1))
    with_nabla = big.product @ f.tensor(f) @ nabla(small)
    without = big.product @ f.tensor(f)
    assert f @ small.product == with_nabla
    assert f @ small.product != without
    assert without.cols[0 * 2 + 1] == {0: 1}  # the offending pair
    assert check_whq_morphism(f, small, big).ok


def test_morphism_check_builds_no_map_on_the_tensor_square(monkeypatch):
    # the inclusion of A into pair(Z2, 2)'s discrete-right double cross
    # product; every map built has at most one column per basis vector, and
    # each structure's convolution projections are built once
    mp = mp_discrete_right(pair_quasigroupoid_z2())
    dcp = double_cross_product(mp)
    incl = inclusion_a(mp, dcp)
    f = magma_functor(incl)
    small, big = magma_of_quasigroupoid(incl.source), magma_of_quasigroupoid(dcp)
    domains, built = [], []
    post_init = LinearMap.__post_init__

    def recording(self):
        domains.append(self.dom)
        post_init(self)

    convolution_projections = hopf._convolution_projections

    def counting(d):
        built.append(id(d))
        return convolution_projections(d)

    monkeypatch.setattr(LinearMap, "__post_init__", recording)
    monkeypatch.setattr(hopf, "_convolution_projections", counting)
    assert check_whq_morphism(f, small, big).ok
    assert max(domains) == big.dim
    assert built == [id(small), id(big)]


def test_magma_functor_is_functorial(coarse2):
    d2 = discrete_groupoid(2)
    include = QgpdMorphism(d2, coarse2, (0, 1), (0, 3))
    swap = QgpdMorphism(coarse2, coarse2, (1, 0), (3, 2, 1, 0))
    assert magma_functor(identity_morphism(coarse2)) == LinearMap.identity(4)
    composed = magma_functor(compose_morphisms(swap, include))
    assert composed == magma_functor(swap) @ magma_functor(include)


def test_hopf_classification(z2, m12):
    km = magma_of_quasigroupoid(quasigroup_as_quasigroupoid(m12))
    assert is_hopf_quasigroup(km)
    assert not is_commutative(km)
    assert is_cocommutative(km)
    kc = magma_of_quasigroupoid(coarse_groupoid(2))
    assert not is_hopf_quasigroup(kc)  # the unit is a sum of two group-likes


def sweedler_four_dim():
    """The classical 4-dimensional Hopf algebra on basis 1, g, x, gx with
    g^2 = 1, x^2 = 0, xg = -gx: associative, neither commutative nor
    cocommutative, with a two-term coproduct on x.  Exercises the checker
    away from group-like coalgebras and 0/1 structure constants."""
    one, g, x, gx = range(4)
    mul = {
        (one, one): {one: 1}, (one, g): {g: 1}, (one, x): {x: 1}, (one, gx): {gx: 1},
        (g, one): {g: 1}, (g, g): {one: 1}, (g, x): {gx: 1}, (g, gx): {x: 1},
        (x, one): {x: 1}, (x, g): {gx: -1}, (x, x): {}, (x, gx): {},
        (gx, one): {gx: 1}, (gx, g): {x: -1}, (gx, x): {}, (gx, gx): {},
    }
    product = LinearMap.from_cols(16, 4, [mul[(i, j)] for i in range(4) for j in range(4)])
    coproduct = LinearMap.from_cols(
        4,
        16,
        [
            {one * 4 + one: 1},
            {g * 4 + g: 1},
            {x * 4 + one: 1, g * 4 + x: 1},
            {gx * 4 + g: 1, one * 4 + gx: 1},
        ],
    )
    counit = LinearMap.from_cols(4, 1, [{0: 1}, {0: 1}, {}, {}])
    antipode = LinearMap.from_cols(4, 4, [{one: 1}, {g: 1}, {gx: -1}, {x: 1}])
    from nonassoc import MagmaCoalgebra

    return MagmaCoalgebra(
        4, {one: 1}, product, counit, coproduct, antipode, ("1", "g", "x", "gx")
    )


def test_sweedler_hopf_algebra_passes_all_sweeps():
    d = sweedler_four_dim()
    report = check_whq(d)
    assert report.ok, report.failed_axioms()
    assert not is_cocommutative(d)
    assert not is_commutative(d)
    assert is_hopf_quasigroup(d)
    derived = derived_property_suite(d)
    assert derived.ok, derived.failed_axioms()
    pi_l, pi_r, bar_l, bar_r = projections(d)
    # Hopf case: all four projections collapse onto the span of the unit
    for mapping in (pi_l, pi_r, bar_l, bar_r):
        for i in range(4):
            assert mapping.cols[i] == ({0: d.eps(i)} if d.eps(i) else {})


def test_antipode_unique_among_basis_permutations(z2):
    from nonassoc import cyclic_group

    candidates = {
        "discrete(3)": discrete_groupoid(3),
        "coarse(2)": coarse_groupoid(2),
        "flip action": from_quasigroup_action(z2, 2, FLIP),
        "one-object z6": quasigroup_as_quasigroupoid(cyclic_group(6)),
    }
    for name, q in candidates.items():
        d = magma_of_quasigroupoid(q)
        n = d.dim
        true_map = tuple(min(d.antipode.cols[i]) for i in range(n))
        for perm in permutations(range(n)):
            trial = dataclasses.replace(
                d, antipode=LinearMap.from_basis(n, n, lambda i: perm[i])
            )
            if check_whq(trial).ok:
                assert perm == true_map, name
