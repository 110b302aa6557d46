"""Linearization of a matched pair: the action maps as linear maps on the
tensor square, the pairing map Phi (`phi_map`) and its idempotent
`nabla_phi`, and the double cross product K[A] bowtie K[H] that the paper's
last theorem builds from them, with the magmas of A and H:

* product (muA (x) muH) o (id (x) Phi (x) id), stored as the rows of its
  nonzero values like every `MagmaCoalgebra` product,
* antipode Phi o (lambdaH (x) lambdaA) o tau, lambda the magma antipodes,
* unit nabla_phi(1A (x) 1H), and the group-like coproduct and counit,

on the image of nabla_phi, whose basis is the composable pairs (a, h) in the
order of `matched_pairs.dcp_pairs`.  Each product of basis vectors is
summed term by term from the nonzero terms of Phi and the stored products
of the two magmas, straight onto the indices of that basis; each antipode
column is Phi at lambdaH(h) (x) lambdaA(a), read from one column of Phi
per pair of antipode terms, so no map on the tensor space is composed.
No formula of the combinatorial double cross product is used, so
`verify_canonical_iso` compares two code paths: the morphism laws, then
the stored constants of the two sides as whole tables, and pair by pair
only where the tables differ, at the pairs either side stores.

Only `bowtie_whq` and `verify_canonical_iso`, whose results are trusted
without a further check, validate the matched pair (`validated_components`,
once per call).  The linear pieces `linearized_actions`, `phi_map`,
`nabla_phi` and `canonical_iso` are defined for any action tables whose
values are arrows, and `module_law_report`, a checker, validates nothing.
"""

from __future__ import annotations

from .hopf import MagmaCoalgebra, _basis_indices, check_whq_morphism, magma_of_quasigroupoid
from .linalg import LinearMap, free_coalgebra, vec_add_into, vec_equal, vec_tensor
from .matched_pairs import MatchedPair, _dcp_fill, dcp_pairs, validated_components
from .quasigroupoids import EMPTY, PairTable, transposed_rows
from .reports import StructureError, StructureReport


def linearized_actions(mp: MatchedPair) -> tuple[LinearMap, LinearMap]:
    """The two action tables as linear maps on K[H] (x) K[A]: composable
    pairs act, everything else is sent to zero."""
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows

    def left_col(t):
        x, y = t // na, t % na
        return mp.phi_a(x, y)  # None (zero) when not composable

    def right_col(t):
        x, y = t // na, t % na
        return mp.phi_h(x, y)

    return (
        LinearMap.from_basis(nh * na, na, left_col),
        LinearMap.from_basis(nh * na, nh, right_col),
    )


def phi_map(mp: MatchedPair) -> LinearMap:
    """h (x) a -> phiA(h,a) (x) phiH(h,a) on composable pairs, zero otherwise:
    the two linearized actions tensored column by column."""
    left, right = linearized_actions(mp)
    nh = right.cod
    return LinearMap.from_basis(
        left.dom, left.cod * nh, lambda t: vec_tensor(left.cols[t], right.cols[t], nh)
    )


def nabla_phi(mp: MatchedPair) -> LinearMap:
    """Idempotent on K[A] (x) K[H] keeping exactly the composable tensors,
    whose image carries the double cross product."""
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows

    def col(t):
        p, q = t // nh, t % nh
        return t if a.src[p] == h.tgt[q] else None

    return LinearMap.from_basis(na * nh, na * nh, col)


def bowtie_whq(mp: MatchedPair) -> MagmaCoalgebra:
    """K[A] bowtie K[H], built as the module docstring states, from a
    matched pair it validates first (`validated_components`)."""
    validated_components(mp)
    return _bowtie_whq(mp)


def _bowtie_whq(mp: MatchedPair) -> MagmaCoalgebra:
    """`bowtie_whq` of a validated pair.  The product is evaluated only at
    the pairs of basis tensors that Phi acts on.  A value outside the image
    of nabla_phi raises StructureError."""
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows
    phi = phi_map(mp)
    grad = nabla_phi(mp)
    mu_a, mu_h = magma_of_quasigroupoid(a), magma_of_quasigroupoid(h)
    basis = [t for t, col in enumerate(grad.cols) if col]  # a (x) h at a * nh + h
    index = {t: i for i, t in enumerate(basis)}
    n = len(basis)

    def not_closed(context) -> StructureError:
        return StructureError(f"double cross product not closed at {context}")

    def restricted(vec: dict, context) -> dict:
        """vec, a tensor in the image of nabla_phi, on the carrier basis."""
        if any(t not in index for t in vec):
            raise not_closed(context)
        return {index[t]: c for t, c in vec.items()}

    acting: list = [[] for _ in range(nh)]  # acting[g]: (b, the terms of Phi(g (x) b)) where nonzero
    for t, image in enumerate(phi.cols):
        if image:
            acting[t // na].append((t % na, [(*divmod(u, nh), c) for u, c in image.items()]))
    by_a: list = [[] for _ in range(na)]  # by_a[b]: (j, q) for the pairs j = (b, q)
    for j, t in enumerate(basis):
        by_a[t // nh].append((j, t % nh))
    rows_a, rows_h = mu_a.product.rows, mu_h.product.rows
    products: list = []  # (i, j, ij) where the product of basis vectors i and j is nonzero
    for i, s in enumerate(basis):
        p, g = divmod(s, nh)
        row_p = rows_a.get(p, EMPTY)
        for b, terms in acting[g]:
            for j, q in by_a[b]:
                # the sum of c (p pa) (x) (ph q) over the terms c pa (x) ph of
                # Phi(g (x) b), added term by term on the carrier indices, and
                # by tensor index wherever it leaves the carrier
                out: dict = {}
                off: dict = {}
                for pa, ph, c in terms:
                    left, right = row_p.get(pa), rows_h.get(ph, EMPTY).get(q)
                    if left is None or right is None:
                        continue
                    for va, ca in left.items():
                        for vh, ch in right.items():
                            t = va * nh + vh
                            k = index.get(t)
                            acc, key = (off, t) if k is None else (out, k)
                            value = acc.get(key, 0) + c * (ca * ch)
                            if value:
                                acc[key] = value
                            else:
                                acc.pop(key, None)
                if off:
                    raise not_closed(("product", (p, g), (b, q)))
                if out:
                    products.append((i, j, out))
    product = PairTable.from_triples(products)
    anti_a, anti_h = mu_a.antipode.cols, mu_h.antipode.cols

    def antipode_col(i: int) -> dict:
        """Phi(lambdaH(h) (x) lambdaA(a)) for the pair a (x) h at basis[i]."""
        p, q = divmod(basis[i], nh)
        col: dict = {}
        for x, cx in anti_h[q].items():
            for y, cy in anti_a[p].items():
                vec_add_into(col, phi.cols[x * na + y], cx * cy)
        return restricted(col, ("antipode", (p, q)))

    antipode = LinearMap.from_basis(n, n, antipode_col)
    unit = restricted(grad(vec_tensor(mu_a.unit, mu_h.unit, nh)), ("unit",))
    coproduct, counit = free_coalgebra(n)
    # same naming as the double cross product arrows, so emitted documents of
    # the two constructions agree byte for byte
    names = tuple(f"({a.arrow_name(t // nh)},{h.arrow_name(t % nh)})" for t in basis)
    return MagmaCoalgebra(n, unit, product, counit, coproduct, antipode, names)


def canonical_iso(mp: MatchedPair) -> LinearMap:
    """The basis bijection (a,g) -> a (x) g from the magma of the
    combinatorial double cross product to the linearized one.  Because both
    sides enumerate the same composable pairs, the map is the identity on
    indices; `verify_canonical_iso` certifies it is an isomorphism."""
    return LinearMap.identity(len(dcp_pairs(mp)))


def verify_canonical_iso(mp: MatchedPair) -> StructureReport:
    """Certify the canonical isomorphism: the map is bijective, satisfies
    the weak-Hopf-quasigroup morphism laws between the two constructions,
    and transports every structure constant onto its counterpart exactly
    (unit, product, counit, coproduct, antipode).  The matched pair is
    validated once, then both constructions are built from it; they have
    one dimension, or `check_whq_morphism` raises DimensionMismatch."""
    validated_components(mp)
    source = magma_of_quasigroupoid(_dcp_fill(mp))
    target = _bowtie_whq(mp)
    f = canonical_iso(mp)
    report = StructureReport(
        "canonical isomorphism",
        axioms=(
            "bijective",
            "coalg-counit", "coalg-coprod", "mkl1", "mkl2", "mkl3", "mkl4",
            "oracle-unit", "oracle-product", "oracle-counit",
            "oracle-coproduct", "oracle-antipode",
        ),
    )
    # a map that sends each basis vector to one basis vector with
    # coefficient 1 has as its rank the number of distinct images
    image = _basis_indices(f.cols)
    rank = f.rank() if image is None else len(set(image))
    if source.dim != target.dim or rank != source.dim:
        report.fail("bijective", (source.dim, target.dim))
    morphism = check_whq_morphism(f, source, target)
    for v in morphism.violations:
        report.fail(v.axiom, v.witness, v.detail)
    if not vec_equal(source.unit, target.unit):
        report.fail("oracle-unit", (), f"{source.unit} vs {target.unit}")
    # Equal stored tables agree at every pair, so the witness sweeps below
    # run only on tables that differ.  The products are compared at every
    # pair stored on either side, in increasing (h, k), witnessed by the
    # index h * n + k of h (x) k.
    n = source.dim
    if source.product.rows != target.product.rows:
        for h, k in sorted({*source.product, *target.product}):
            left, right = source.mul_basis(h, k), target.mul_basis(h, k)
            if not vec_equal(left, right):
                report.fail("oracle-product", (h * n + k,), f"{dict(left)} vs {dict(right)}")
    for tag, left, right in (
        ("oracle-counit", source.counit, target.counit),
        ("oracle-coproduct", source.coproduct, target.coproduct),
        ("oracle-antipode", source.antipode, target.antipode),
    ):
        if left.cols == right.cols:
            continue
        for j in range(left.dom):
            if not vec_equal(left.cols[j], right.cols[j]):
                report.fail(tag, (j,), f"{left.cols[j]} vs {right.cols[j]}")
    return report


def module_law_report(mp: MatchedPair) -> StructureReport:
    """The linearized actions are unital module structures: acting by the
    unit is the identity, and acting twice equals acting by a product."""
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows
    phi_ka, phi_kh = linearized_actions(mp)
    unit_a = {a.unit[x]: 1 for x in range(a.n_objects)}
    unit_h = {h.unit[x]: 1 for x in range(h.n_objects)}
    report = StructureReport(
        "linearized action module laws",
        axioms=("left-unit", "left-assoc", "right-unit", "right-assoc"),
    )
    for y in range(na):
        image = phi_ka(vec_tensor(unit_h, {y: 1}, na))
        if not vec_equal(image, {y: 1}):
            report.fail("left-unit", (y,), f"phi(1,a)={image}")
    for x in range(nh):
        image = phi_kh(vec_tensor({x: 1}, unit_a, na))
        if not vec_equal(image, {x: 1}):
            report.fail("right-unit", (x,), f"phi(h,1)={image}")
    # Both sides of each associativity law send a basis tensor to a basis
    # tensor or to zero, so they are compared as the dicts of their nonzero
    # values, at the tensors where either side can be nonzero.
    left, right = mp.left.table, mp.right.table
    left_by, right_by = left.rows, right.rows
    left_on, right_on = transposed_rows(left_by, left_by), transposed_rows(right_by, right_by)
    nested = {(x, g, y): w for (g, y), z in left.items() for x, w in left_on.get(z, EMPTY).items()}
    product = {
        (x, g, y): w for (x, g), k in h.prod.items() for y, w in left_by.get(k, EMPTY).items()
    }
    if nested != product:  # h.(g.a) = (hg).a on h (x) g (x) a
        report.fail("left-assoc", ())
    nested = {
        (x, y, b): w for (x, y), k in right.items() for b, w in right_by.get(k, EMPTY).items()
    }
    product = {
        (x, y, b): w for (y, b), c in a.prod.items() for x, w in right_on.get(c, EMPTY).items()
    }
    if nested != product:  # (h.a).b = h.(ab) on h (x) a (x) b
        report.fail("right-assoc", ())
    return report
