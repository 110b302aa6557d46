from fractions import Fraction

import pytest

from nonassoc import (
    DimensionMismatch,
    LinearMap,
    PrimeField,
    StructureError,
    coarse_groupoid,
    convolution,
    discrete_groupoid,
    free_coalgebra,
    magma_of_quasigroupoid,
    span_basis,
    span_equal,
    twist,
)
from nonassoc.linalg import GFElement, RATIONALS, field_by_name, vec_equal


def test_twist_involution():
    assert twist(3, 2) @ twist(2, 3) == LinearMap.identity(6)
    assert twist(2, 3) @ twist(3, 2) == LinearMap.identity(6)


def test_twist_2x2_swaps_middle_indices():
    t = twist(2, 2)
    assert t.cols[0] == {0: 1}
    assert t.cols[1] == {2: 1}
    assert t.cols[2] == {1: 1}
    assert t.cols[3] == {3: 1}


def test_twist_with_one_dimensional_factor_is_identity():
    for n in range(1, 5):
        assert twist(1, n) == LinearMap.identity(n)
        assert twist(n, 1) == LinearMap.identity(n)


def test_free_coalgebra_laws_up_to_dimension_64():
    for n in range(1, 65):
        delta, counit = free_coalgebra(n)
        ident = LinearMap.identity(n)
        left = counit.tensor(ident) @ delta  # lands in 1*n = n
        right = ident.tensor(counit) @ delta
        assert left == ident
        assert right == ident
        assert delta.tensor(ident) @ delta == ident.tensor(delta) @ delta


def test_convolution_unit_law():
    # with a group-like coalgebra, convolving against unit-after-counit
    # leaves the other factor alone
    kb = magma_of_quasigroupoid(coarse_groupoid(2))
    n = kb.dim
    unit_after_counit = LinearMap.from_basis(n, n, lambda j: dict(kb.unit))
    ident = LinearMap.identity(n)
    assert convolution(unit_after_counit, ident, kb.coproduct, kb.product) == ident
    assert convolution(ident, unit_after_counit, kb.coproduct, kb.product) == ident


def test_convolution_of_identity_and_antipode_on_discrete():
    kb = magma_of_quasigroupoid(discrete_groupoid(2))
    ident = LinearMap.identity(kb.dim)
    assert convolution(ident, kb.antipode, kb.coproduct, kb.product) == ident


def test_convolution_of_identity_and_antipode_on_coarse():
    kb = magma_of_quasigroupoid(coarse_groupoid(2))
    ident = LinearMap.identity(kb.dim)
    target = convolution(ident, kb.antipode, kb.coproduct, kb.product)
    # arrow x*2+y is (x, y); id * antipode collapses it onto (x, x)
    for x in range(2):
        for y in range(2):
            assert target.cols[x * 2 + y] == {x * 2 + x: 1}


def test_compose_add_scale_tensor():
    f = LinearMap.from_cols(2, 2, [{0: 1, 1: 2}, {1: 3}])
    ident = LinearMap.identity(2)
    assert ident @ f == f
    assert f @ ident == f
    assert ident.tensor(LinearMap.identity(3)) == LinearMap.identity(6)
    assert (f + f.scale(-1)).is_zero()


def test_shape_mismatch_raises():
    f = LinearMap.identity(2)
    g = LinearMap.identity(3)
    with pytest.raises(DimensionMismatch):
        f @ g
    with pytest.raises(DimensionMismatch):
        f + g


def test_exact_fraction_arithmetic():
    f = LinearMap.from_cols(1, 1, [{0: Fraction(1, 3)}])
    g = LinearMap.from_cols(1, 1, [{0: Fraction(1, 6)}])
    assert (f + g).cols[0] == {0: Fraction(1, 2)}
    third = LinearMap.from_cols(1, 1, [{0: Fraction(1, 3)}])
    assert (f + g + f.scale(-1) + g.scale(-1) + third).cols[0] == {0: Fraction(1, 3)}


def test_span_basis_and_rank():
    vectors = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
    basis = span_basis(vectors, 2)
    assert len(basis) == 2
    assert span_equal(vectors, [{0: 1}, {1: 1}], 2)
    assert not span_equal([{0: 1}], [{1: 1}], 2)
    f = LinearMap.from_cols(3, 2, [{0: 1}, {0: 2}, {1: 5}])
    assert f.rank() == 2


def test_prime_field_arithmetic():
    gf5 = PrimeField(5)
    a = gf5(3)
    assert a + a == gf5(1)
    assert a * a == gf5(4)
    assert -a == gf5(2)
    assert a - 1 == gf5(2)
    assert bool(gf5(0)) is False
    assert gf5.from_string("1/2") == gf5(3)
    assert a.inverse() * a == gf5(1)


def test_prime_field_rejects_composites():
    with pytest.raises(StructureError):
        PrimeField(6)


def test_field_lookup():
    assert field_by_name("Q") is RATIONALS
    assert field_by_name("GF7").p == 7
    for bad in ("R", "GF", "GFx", "GF 5", "GF\u00b2", "GF4"):
        with pytest.raises(StructureError):
            field_by_name(bad)


def test_prime_field_modulus_is_below_2_to_31():
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    assert field_by_name("GF0002147483647").p == 2**31 - 1
    for p in (2**31, 2**61 - 1):
        with pytest.raises(StructureError, match="not below 2\\^31"):
            PrimeField(p)
    for bad in ("GF2147483648", "GF2305843009213693951", "GF" + "7" * 5000):
        with pytest.raises(StructureError, match="not below 2\\^31"):
            field_by_name(bad)


def test_gf_vectors_in_maps():
    gf3 = PrimeField(3)
    f = LinearMap.from_cols(1, 1, [{0: gf3(2)}])
    assert (f + f).cols[0] == {0: gf3(1)}
    assert (f + f + f).is_zero()


def test_vec_equal_ignores_representation():
    assert vec_equal({0: Fraction(2, 2)}, {0: 1})
    assert not vec_equal({0: 1}, {1: 1})
    assert not vec_equal({0: GFElement(1, 3)}, {0: 2})
