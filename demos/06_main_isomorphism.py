"""The main verification: linearizing a matched pair and forming the double
cross product of the two magmas gives the same weak Hopf quasigroup as
linearizing the combinatorial double cross product.

Both sides are built independently over the same composable-pair basis:
route one from the arrow table of the combinatorial double cross product,
route two only from the pairing map Phi, its idempotent nabla_Phi and the
magmas of the two components.  So the comparison is a literal
coefficientwise equality of structure constants between two code paths,
plus the morphism laws for the connecting map.
"""

from nonassoc import (
    bowtie_whq,
    canonical_iso,
    check_whq,
    check_whq_morphism,
    cyclic_group,
    dcp_pairs,
    double_cross_product,
    format_report,
    is_hopf_quasigroup,
    linearized_actions,
    magma_of_quasigroupoid,
    module_law_report,
    moufang_loop_12,
    mp_action_left,
    mp_discrete_right,
    nabla_phi,
    quasigroup_as_quasigroupoid,
    verify_canonical_iso,
)

z3 = cyclic_group(3)
mp = mp_action_left(z3, 3, lambda a, x: (a + x) % 3)

# the action tables as linear maps on the tensor square; they satisfy the
# unital module laws exactly
phi_a, phi_h = linearized_actions(mp)
print("module laws:", module_law_report(mp).ok)

# the idempotent cutting out the composable tensors has rank equal to the
# number of composable pairs -- the dimension both constructions share
grad = nabla_phi(mp)
print("rank of the composability idempotent:", grad.rank(),
      "=", len(dcp_pairs(mp)), "composable pairs")

# route one: combinatorial double cross product, then the arrow-basis magma
route_one = magma_of_quasigroupoid(double_cross_product(mp))
# route two: (muA (x) muH) o (id (x) Phi (x) id) on the image of nabla_Phi
route_two = bowtie_whq(mp)
print("route one passes the axioms:", check_whq(route_one).ok)
print("route two passes the axioms:", check_whq(route_two).ok)

# the canonical map is a basis bijection; with the shared enumeration it is
# the identity on indices, and all structure constants agree exactly
f = canonical_iso(mp)
print("connecting map satisfies the morphism laws:",
      check_whq_morphism(f, route_one, route_two).ok)
print("products equal:", route_one.product == route_two.product)
print("antipodes equal:", route_one.antipode == route_two.antipode)
print()
print(format_report(verify_canonical_iso(mp)))

# the one-object corollary: for loops both routes are honest Hopf quasigroups
loop_mp = mp_discrete_right(quasigroup_as_quasigroupoid(moufang_loop_12()))
print("one-object case:",
      "hopf(route one) =", is_hopf_quasigroup(magma_of_quasigroupoid(double_cross_product(loop_mp))),
      " hopf(route two) =", is_hopf_quasigroup(bowtie_whq(loop_mp)),
      " isomorphic =", verify_canonical_iso(loop_mp).ok)
