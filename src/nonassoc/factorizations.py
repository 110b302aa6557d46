"""Exact factorizations of a quasigroupoid: two wide subquasigroupoids whose
mixed products associate and whose pointwise product map is a bijection onto
the ambient arrow set.

`reconstruct_matched_pair` inverts that product map to recover the actions,
giving the round trip: matched pair -> double cross product -> canonical
factorization -> the same matched pair.

`check_exact_factorization` is the only implementation of the mixed
associativity sweeps and of theta: on the canonical factorization of a
matched pair, `matched_pairs.mixed_associativity_suite` and
`matched_pairs.theta_identity_report` are views of its report.

The fibered triples of the six mixed laws, the products of a substructure
and the closure test of an arrow subset are enumerated through the endpoint
index of `quasigroupoids` (`matching_arrows`), in lexicographic order, never
by filtering all pairs of arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matched_pairs import (
    MIXED_LAWS,
    LeftAction,
    MatchedPair,
    RightAction,
    check_matched_pair,
    dcp_pairs,
    double_cross_product,
    inclusion_a,
    inclusion_h,
    mixed_pairs,
)
from .quasigroupoids import QgpdMorphism, Quasigroupoid, check_morphism, matching_arrows
from .reports import (
    BoundExceeded,
    InvalidStructureError,
    StructureError,
    StructureReport,
)


@dataclass(frozen=True)
class FactorizationCandidate:
    b: Quasigroupoid
    ia: QgpdMorphism  # a-component into b, identity on objects
    ih: QgpdMorphism  # h-component into b, identity on objects


def canonical_factorization(mp: MatchedPair) -> FactorizationCandidate:
    """The factorization of the double cross product by its two inclusions."""
    dcp = double_cross_product(mp, check=False)
    return FactorizationCandidate(dcp, inclusion_a(mp, dcp), inclusion_h(mp, dcp))


def _require_identity_objects(f: QgpdMorphism, which: str) -> None:
    if f.obj_map != tuple(range(f.source.n_objects)):
        raise StructureError(f"object map of {which} is not the identity")


def check_exact_factorization(c: FactorizationCandidate) -> StructureReport:
    """Conditions on [A, H] inside B:

    - both inclusions are injective quasigroupoid morphisms with identity
      object maps (tags mono-A / mono-H);
    - the six mixed associativity laws hold for the ambient product (tags
      HAA..AHH, AHH in the order-matched reading); a configuration where one
      side is defined and the other is not counts as a violation, and
      configurations where neither side is defined are skipped;
    - theta(a, h) = iA(a) * iH(h) is a bijection from the fibered pairs onto
      the ambient arrows (tag theta-bijective).

    On success, `report.data["theta"]` maps each fibered (a, h) to its
    ambient arrow, and a note records that the two arrow images meet exactly
    in the identity arrows (a consequence of bijectivity, kept as a derived
    check rather than an axiom).
    """
    b, ia, ih = c.b, c.ia, c.ih
    if ia.target != b or ih.target != b:
        raise StructureError("inclusions do not land in the ambient structure")
    if ia.source.n_objects != b.n_objects or ih.source.n_objects != b.n_objects:
        raise StructureError("base mismatch between components and ambient structure")
    _require_identity_objects(ia, "iA")
    _require_identity_objects(ih, "iH")

    report = StructureReport(
        "exact factorization",
        axioms=("mono-A", "mono-H", *MIXED_LAWS, "theta-bijective"),
    )
    for tag, incl in (("mono-A", ia), ("mono-H", ih)):
        sub = check_morphism(incl)
        for v in sub.violations:
            report.fail(tag, v.witness, f"{v.axiom}: {v.detail}".rstrip(": "))
        if len(set(incl.arrow_map)) != len(incl.arrow_map):
            report.fail(tag, (), "arrow map not injective")

    a, h = ia.source, ih.source
    fa, fh = ia.arrow_map, ih.arrow_map

    prod = b.prod

    def assoc(tag, configs, triple):
        for cfg in configs:
            u, v, w = triple(*cfg)
            vw, uv = prod.get((v, w)), prod.get((u, v))
            lhs = None if vw is None else prod.get((u, vw))
            rhs = None if uv is None else prod.get((uv, w))
            if lhs is None and rhs is None:
                continue
            if lhs != rhs:
                report.fail(tag, cfg, f"lhs={lhs} rhs={rhs}")

    ha = mixed_pairs(h, a)
    ah = mixed_pairs(a, h)
    aa = list(a.composable_pairs())
    hh = list(h.composable_pairs())
    # x_y[i] lists the arrows j of the second structure with src(i) = tgt(j),
    # so each law's triples are a join of its two fibered pairs on the middle
    m = b.n_objects
    a_a = matching_arrows(a.src, a.tgt, m)
    a_h = matching_arrows(a.src, h.tgt, m)
    h_a = matching_arrows(h.src, a.tgt, m)
    h_h = matching_arrows(h.src, h.tgt, m)

    assoc("HAA", [(g, p, q) for (g, p) in ha for q in a_a[p]],
          lambda g, p, q: (fh[g], fa[p], fa[q]))
    assoc("HHA", [(g, x, p) for (g, x) in hh for p in h_a[x]],
          lambda g, x, p: (fh[g], fh[x], fa[p]))
    assoc("HAH", [(x, p, f) for (x, p) in ha for f in a_h[p]],
          lambda x, p, f: (fh[x], fa[p], fh[f]))
    assoc("AHA", [(q, x, p) for (q, x) in ah for p in h_a[x]],
          lambda q, x, p: (fa[q], fh[x], fa[p]))
    assoc("AAH", [(p, q, g) for (p, q) in aa for g in a_h[q]],
          lambda p, q, g: (fa[p], fa[q], fh[g]))
    assoc("AHH", [(p, g, x) for (p, g) in ah for x in h_h[g]],
          lambda p, g, x: (fa[p], fh[g], fh[x]))

    theta = {}
    image = {}
    for (p, q) in ah:
        val = b.compose(fa[p], fh[q])
        if val is None:
            report.fail("theta-bijective", (p, q), "theta undefined")
            continue
        theta[(p, q)] = val
        if val in image:
            report.fail(
                "theta-bijective",
                (p, q),
                f"collides with {image[val]} at arrow {val}",
            )
        else:
            image[val] = (p, q)
    for arrow in range(b.n_arrows):
        if arrow not in image:
            report.fail("theta-bijective", (arrow,), "ambient arrow not reached")

    report.data["theta"] = theta
    if report.ok:
        overlap = sorted(set(fa) & set(fh))
        identities = sorted(b.unit)
        report.notes.append(
            f"arrow images intersect in {overlap}, identity arrows {identities}"
        )
        if overlap != identities:
            report.fail("theta-bijective", tuple(overlap),
                        "component images meet outside the identity arrows")
    return report


def reconstruct_matched_pair(
    c: FactorizationCandidate, check: bool = True
) -> tuple[MatchedPair, QgpdMorphism]:
    """Recover the actions from an exact factorization and the isomorphism
    (identity on objects, theta on arrows) from the rebuilt double cross
    product onto the ambient structure.

    For each mixed pair, iH(h) * iA(a) is matched through the inverse of
    theta to the unique (a', h') with iA(a') * iH(h') equal to it.
    """
    fact_report = check_exact_factorization(c)
    if check and not fact_report.ok:
        raise InvalidStructureError(fact_report)
    theta = fact_report.data["theta"]
    theta_inv = {arrow: pair for pair, arrow in theta.items()}
    b, ia, ih = c.b, c.ia, c.ih
    a, h = ia.source, ih.source
    left, right = {}, {}
    for (x, y) in mixed_pairs(h, a):
        mixed = b.compose(ih.arrow_map[x], ia.arrow_map[y])
        if mixed is None or mixed not in theta_inv:
            raise StructureError(
                f"cannot invert theta at mixed pair ({x},{y}): image {mixed}"
            )
        left[(x, y)], right[(x, y)] = theta_inv[mixed]
    mp = MatchedPair(a, h, LeftAction(h, a, left), RightAction(h, a, right))
    mp_report = check_matched_pair(mp)
    if check and not mp_report.ok:
        raise InvalidStructureError(mp_report)
    dcp = double_cross_product(mp, check=False)
    pairs = dcp_pairs(mp)
    gamma = QgpdMorphism(
        dcp,
        b,
        tuple(range(b.n_objects)),
        tuple(theta[pair] for pair in pairs),
    )
    return mp, gamma


# ---------------------------------------------------------------------------
# brute-force enumeration at tiny sizes
# ---------------------------------------------------------------------------


def closed_arrow_subsets(b: Quasigroupoid) -> list[tuple[int, ...]]:
    """Arrow subsets containing every identity, closed under the inverse map
    and under the product wherever both factors lie inside; ordered by size
    then lexicographically."""
    identities = set(b.unit)
    others = sorted(set(range(b.n_arrows)) - identities)
    after = matching_arrows(b.src, b.tgt, b.n_objects)
    subsets = []
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            chosen = identities | set(extra)
            if any(b.inv[x] not in chosen for x in chosen):
                continue
            closed = all(
                b.prod[(x, y)] in chosen
                for x in chosen
                for y in after[x]
                if y in chosen
            )
            if closed:
                subsets.append(tuple(sorted(chosen)))
    return subsets


def sub_quasigroupoid(
    b: Quasigroupoid, arrows: tuple[int, ...]
) -> tuple[Quasigroupoid, QgpdMorphism]:
    """The wide substructure on a closed arrow subset, with its inclusion.

    Raises StructureError when b has no product entry on a composable pair
    inside the subset."""
    index = {arrow: i for i, arrow in enumerate(arrows)}
    src = tuple(b.src[x] for x in arrows)
    tgt = tuple(b.tgt[x] for x in arrows)
    unit = tuple(index[b.unit[o]] for o in range(b.n_objects))
    inv = tuple(index[b.inv[x]] for x in arrows)
    prod = {}
    for i, after in enumerate(matching_arrows(src, tgt, b.n_objects)):
        x = arrows[i]
        for j in after:
            y = arrows[j]
            if (x, y) not in b.prod:
                raise StructureError(f"product missing on composable pair ({x},{y})")
            prod[(i, j)] = index[b.prod[(x, y)]]
    sub = Quasigroupoid(
        n_objects=b.n_objects,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=prod,
        object_names=b.object_names,
        arrow_names=tuple(b.arrow_name(x) for x in arrows),
    )
    incl = QgpdMorphism(sub, b, tuple(range(b.n_objects)), arrows)
    return sub, incl


def enumerate_factorizations(
    b: Quasigroupoid, max_arrows: int = 12
) -> list[FactorizationCandidate]:
    """All exact factorizations of b over pairs of closed arrow subsets.

    Exponential in the arrow count, so guarded by `max_arrows`; candidate
    order is deterministic (subset order from `closed_arrow_subsets`, the
    a-component varying slowest).
    """
    if b.n_arrows > max_arrows:
        raise BoundExceeded(
            f"{b.n_arrows} arrows exceeds the enumeration bound {max_arrows}"
        )
    subsets = closed_arrow_subsets(b)
    found = []
    for arrows_a in subsets:
        _, incl_a = sub_quasigroupoid(b, arrows_a)
        for arrows_h in subsets:
            _, incl_h = sub_quasigroupoid(b, arrows_h)
            candidate = FactorizationCandidate(b, incl_a, incl_h)
            if check_exact_factorization(candidate).ok:
                found.append(candidate)
    return found
