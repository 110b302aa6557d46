"""Linearization of a matched pair: the action maps as linear maps on the
tensor square, the pairing map Phi (`phi_map`) and its idempotent
`nabla_phi`, and the double cross product K[A] bowtie K[H] that the paper's
last theorem builds from them, with the magmas of A and H:

* product (muA (x) muH) o (id (x) Phi (x) id),
* antipode Phi o (lambdaH (x) lambdaA) o tau, lambda the magma antipodes,
* unit nabla_phi(1A (x) 1H), and the group-like coproduct and counit,

on the image of nabla_phi, whose basis is the composable pairs (a, h) in the
order of `matched_pairs.dcp_pairs`.  No formula of the combinatorial double
cross product is used, so `verify_canonical_iso` compares two code paths.
"""

from __future__ import annotations

from .hopf import MagmaCoalgebra, check_whq_morphism, magma_of_quasigroupoid
from .linalg import LinearMap, free_coalgebra, twist, vec_add_into, vec_equal, vec_tensor
from .matched_pairs import (
    MatchedPair,
    check_matched_pair,
    dcp_pairs,
    double_cross_product,
)
from .reports import InvalidStructureError, StructureError, StructureReport


def _require_valid(mp: MatchedPair, check: bool) -> None:
    if check:
        report = check_matched_pair(mp)
        if not report.ok:
            raise InvalidStructureError(report)


def linearized_actions(mp: MatchedPair, check: bool = True) -> tuple[LinearMap, LinearMap]:
    """The two action tables as linear maps on K[H] (x) K[A]: composable
    pairs act, everything else is sent to zero."""
    _require_valid(mp, check)
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


def phi_map(mp: MatchedPair, check: bool = True) -> LinearMap:
    """h (x) a -> phiA(h,a) (x) phiH(h,a) on composable pairs, zero otherwise:
    the two linearized actions tensored column by column."""
    left, right = linearized_actions(mp, check)
    nh = right.cod
    return LinearMap.from_basis(
        left.dom, left.cod * nh, lambda t: vec_tensor(left.cols[t], right.cols[t], nh)
    )


def nabla_phi(mp: MatchedPair, check: bool = True) -> LinearMap:
    """Idempotent on K[A] (x) K[H] keeping exactly the composable tensors,
    whose image carries the double cross product."""
    _require_valid(mp, check)
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows

    def col(t):
        p, q = t // nh, t % nh
        return t if a.src[p] == h.tgt[q] else None

    return LinearMap.from_basis(na * nh, na * nh, col)


def bowtie_whq(mp: MatchedPair, check: bool = True) -> MagmaCoalgebra:
    """K[A] bowtie K[H], built as the module docstring states.  The product
    is evaluated only at the pairs of basis tensors that Phi acts on.  A
    value outside the image of nabla_phi raises StructureError."""
    _require_valid(mp, check)
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows
    phi = phi_map(mp, check=False)
    grad = nabla_phi(mp, check=False)
    mu_a, mu_h = magma_of_quasigroupoid(a), magma_of_quasigroupoid(h)
    basis = [t for t, col in enumerate(grad.cols) if col]  # a (x) h at a * nh + h
    index = {t: i for i, t in enumerate(basis)}
    n = len(basis)

    def restricted(vec: dict, context) -> dict:
        """vec, a tensor in the image of nabla_phi, on the carrier basis."""
        if any(t not in index for t in vec):
            raise StructureError(f"double cross product not closed at {context}")
        return {index[t]: c for t, c in vec.items()}

    acting: list = [[] for _ in range(nh)]  # acting[g]: (b, Phi(g (x) b)) where nonzero
    for t, image in enumerate(phi.cols):
        if image:
            acting[t // na].append((t % na, image))
    by_a: list = [[] for _ in range(na)]  # by_a[b]: (j, q) for the pairs j = (b, q)
    for j, t in enumerate(basis):
        by_a[t // nh].append((j, t % nh))
    cols: list = [{} for _ in range(n * n)]
    for i, s in enumerate(basis):
        p, g = divmod(s, nh)
        for b, image in acting[g]:
            for j, q in by_a[b]:
                out: dict = {}
                for u, c in image.items():
                    pa, ph = divmod(u, nh)
                    vec_add_into(out, vec_tensor(mu_a.mul_basis(p, pa), mu_h.mul_basis(ph, q), nh), c)
                cols[i * n + j] = restricted(out, ("product", (p, g), (b, q)))
    product = LinearMap(n * n, n, tuple(cols))
    flipped_inverse = phi @ mu_h.antipode.tensor(mu_a.antipode) @ twist(na, nh)
    antipode = LinearMap.from_basis(
        n, n, lambda i: restricted(flipped_inverse.cols[basis[i]], ("antipode", divmod(basis[i], nh)))
    )
    unit = restricted(grad(vec_tensor(mu_a.unit, mu_h.unit, nh)), ("unit",))
    coproduct, counit = free_coalgebra(n)
    # same naming as the double cross product arrows, so emitted documents of
    # the two constructions agree byte for byte
    names = tuple(f"({a.arrow_name(t // nh)},{h.arrow_name(t % nh)})" for t in basis)
    return MagmaCoalgebra(n, unit, product, counit, coproduct, antipode, names)


def canonical_iso(mp: MatchedPair, check: bool = True) -> LinearMap:
    """The basis bijection (a,g) -> a (x) g from the magma of the
    combinatorial double cross product to the linearized one.  Because both
    sides enumerate the same composable pairs, the map is the identity on
    indices; `verify_canonical_iso` certifies it is an isomorphism."""
    _require_valid(mp, check)
    return LinearMap.identity(len(dcp_pairs(mp)))


def verify_canonical_iso(mp: MatchedPair, check: bool = True) -> StructureReport:
    """Certify the canonical isomorphism: the map is bijective, satisfies
    the weak-Hopf-quasigroup morphism laws between the two constructions,
    and transports every structure constant onto its counterpart exactly
    (unit, product, counit, coproduct, antipode)."""
    _require_valid(mp, check)
    source = magma_of_quasigroupoid(double_cross_product(mp, check=False))
    target = bowtie_whq(mp, check=False)
    f = canonical_iso(mp, check=False)
    report = StructureReport(
        "canonical isomorphism",
        axioms=(
            "bijective",
            "coalg-counit", "coalg-coprod", "mkl1", "mkl2", "mkl3", "mkl4",
            "oracle-unit", "oracle-product", "oracle-counit",
            "oracle-coproduct", "oracle-antipode",
        ),
    )
    if source.dim != target.dim or f.rank() != source.dim:
        report.fail("bijective", (source.dim, target.dim))
    morphism = check_whq_morphism(f, source, target)
    for v in morphism.violations:
        report.fail(v.axiom, v.witness, v.detail)
    if not vec_equal(source.unit, target.unit):
        report.fail("oracle-unit", (), f"{source.unit} vs {target.unit}")
    for tag, left, right in (
        ("oracle-product", source.product, target.product),
        ("oracle-counit", source.counit, target.counit),
        ("oracle-coproduct", source.coproduct, target.coproduct),
        ("oracle-antipode", source.antipode, target.antipode),
    ):
        if left.dom != right.dom or left.cod != right.cod:
            report.fail(tag, (), "shape mismatch")
            continue
        for j in range(left.dom):
            if not vec_equal(left.cols[j], right.cols[j]):
                report.fail(tag, (j,), f"{left.cols[j]} vs {right.cols[j]}")
    return report


def module_law_report(mp: MatchedPair, check: bool = True) -> StructureReport:
    """The linearized actions are unital module structures: acting by the
    unit is the identity, and acting twice equals acting by a product."""
    _require_valid(mp, check)
    a, h = mp.a, mp.h
    na, nh = a.n_arrows, h.n_arrows
    phi_ka, phi_kh = linearized_actions(mp, check=False)
    mu_a, mu_h = magma_of_quasigroupoid(a), magma_of_quasigroupoid(h)
    report = StructureReport(
        "linearized action module laws",
        axioms=("left-unit", "left-assoc", "right-unit", "right-assoc"),
    )
    for y in range(na):
        image = phi_ka(vec_tensor(mu_h.unit, {y: 1}, na))
        if not vec_equal(image, {y: 1}):
            report.fail("left-unit", (y,), f"phi(1,a)={image}")
    for x in range(nh):
        image = phi_kh(vec_tensor({x: 1}, mu_a.unit, na))
        if not vec_equal(image, {x: 1}):
            report.fail("right-unit", (x,), f"phi(h,1)={image}")
    # Both sides of each associativity law send a basis tensor to a basis
    # tensor or to zero, so they are compared as the dicts of their nonzero
    # values, at the tensors where either side can be nonzero.
    left, right = mp.left.table, mp.right.table
    left_on, left_by = _entries_by(left, 1), _entries_by(left, 0)
    nested = {(x, g, y): w for (g, y), z in left.items() for x, w in left_on.get(z, ())}
    product = {(x, g, y): w for (x, g), k in h.prod.items() for y, w in left_by.get(k, ())}
    if nested != product:  # h.(g.a) = (hg).a on h (x) g (x) a
        report.fail("left-assoc", ())
    right_by, right_on = _entries_by(right, 0), _entries_by(right, 1)
    nested = {(x, y, b): w for (x, y), k in right.items() for b, w in right_by.get(k, ())}
    product = {(x, y, b): w for (y, b), c in a.prod.items() for x, w in right_on.get(c, ())}
    if nested != product:  # (h.a).b = h.(ab) on h (x) a (x) b
        report.fail("right-assoc", ())
    return report


def _entries_by(table: dict, side: int) -> dict:
    """The entries (x, y) -> v of an action table as lists of (other index,
    v), keyed by x (side 0) or by y (side 1)."""
    out: dict = {}
    for key, v in table.items():
        out.setdefault(key[side], []).append((key[1 - side], v))
    return out
