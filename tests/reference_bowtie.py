"""The linearized double cross product as it was built before its products
were added straight onto carrier indices, kept as the oracle for
`tests/test_bowtie.py`.

Each product is summed as tensors c (p pa) (x) (ph q) in K[A] (x) K[H] and
then restricted to the carrier, the image of nabla_phi, raising
`double cross product not closed` where it leaves it; the antipode is the
composite Phi o (lambdaH (x) lambdaA) o tau, restricted the same way.  Phi
is read through `bowtie.phi_map`, so a patched pairing map reaches both
constructions.  It does not validate its input.
"""

from nonassoc import bowtie
from nonassoc.hopf import MagmaCoalgebra, magma_of_quasigroupoid
from nonassoc.linalg import LinearMap, free_coalgebra, vec_add_into, vec_tensor
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import StructureError
from tests.conftest import twist


def bowtie_whq(mp) -> MagmaCoalgebra:
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows
    phi = bowtie.phi_map(mp)
    grad = bowtie.nabla_phi(mp)
    mu_a, mu_h = magma_of_quasigroupoid(a), magma_of_quasigroupoid(h)
    basis = [t for t, col in enumerate(grad.cols) if col]
    index = {t: i for i, t in enumerate(basis)}
    n = len(basis)

    def restricted(vec: dict, context) -> dict:
        if any(t not in index for t in vec):
            raise StructureError(f"double cross product not closed at {context}")
        return {index[t]: c for t, c in vec.items()}

    acting: list = [[] for _ in range(nh)]
    for t, image in enumerate(phi.cols):
        if image:
            acting[t // na].append((t % na, image))
    by_a: list = [[] for _ in range(na)]
    for j, t in enumerate(basis):
        by_a[t // nh].append((j, t % nh))
    products: list = []
    for i, s in enumerate(basis):
        p, g = divmod(s, nh)
        for b, image in acting[g]:
            for j, q in by_a[b]:
                out: dict = {}
                for u, c in image.items():
                    pa, ph = divmod(u, nh)
                    vec_add_into(out, vec_tensor(mu_a.mul_basis(p, pa), mu_h.mul_basis(ph, q), nh), c)
                if out:
                    products.append((i, j, restricted(out, ("product", (p, g), (b, q)))))
    product = PairTable.from_triples(products)
    flipped_inverse = phi @ mu_h.antipode.tensor(mu_a.antipode) @ twist(na, nh)
    antipode = LinearMap.from_basis(
        n, n, lambda i: restricted(flipped_inverse.cols[basis[i]], ("antipode", divmod(basis[i], nh)))
    )
    unit = restricted(grad(vec_tensor(mu_a.unit, mu_h.unit, nh)), ("unit",))
    coproduct, counit = free_coalgebra(n)
    names = tuple(f"({a.arrow_name(t // nh)},{h.arrow_name(t % nh)})" for t in basis)
    return MagmaCoalgebra(n, unit, product, counit, coproduct, antipode, names)
