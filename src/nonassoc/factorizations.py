"""Exact factorizations of a quasigroupoid: two wide subquasigroupoids whose
mixed products associate and whose pointwise product map is a bijection onto
the ambient arrow set.

`reconstruct_matched_pair` inverts that product map to recover the actions,
giving the round trip: matched pair -> double cross product -> canonical
factorization -> the same matched pair.

Each law of `check_exact_factorization` has one implementation, a private
generator of its violations: the six mixed associativity sweeps and theta.
The report drains them all; on the canonical factorization of a matched
pair, `matched_pairs.mixed_associativity_suite` and
`matched_pairs.theta_identity_report` are views of it.

The fibered triples of the six mixed laws and the products of a
substructure are enumerated through the endpoint index of `quasigroupoids`,
in lexicographic order, never by filtering all pairs of arrows; each
component keeps its index (`fibered_arrows`), built once however many
pairs the component is decided in.  `closure_fault`, the one test of a
wide closed arrow subset, walks the rows of the ambient product.  The
mixed laws and theta read the rows of the ambient product
(`quasigroupoids.PairTable`): each law fixes the first two factors of a
configuration and their product once, then walks the third factor.

`enumerate_factorizations` grows the closed subsets by closure and decides
only the pairs of them that can be exact, each at its first violation:
theta first, then the mixed laws, whose fibered pairs are listed only once
theta holds.  It finds those pairs without testing every pair of subsets:
the subsets are bucketed by their per-object target counts, each source
count vector is matched once against every bucket, and the overlap off the
identity arrows is tested on int bit masks.  The inclusion of a closed
subset is monic by construction (a test checks this), so mono-A and mono-H
are not swept there.  It reads only the verdict of a pair, which the first
violation settles, so it builds no report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .matched_pairs import (
    LeftAction,
    MatchedPair,
    RightAction,
    _dcp_fill,
    dcp_pairs,
    double_cross_product,
    inclusion_a,
    inclusion_h,
)
from .quasigroupoids import (
    EMPTY,
    PairTable,
    QgpdMorphism,
    Quasigroupoid,
    _validated,
    check_morphism,
    fibered_arrows,
    matching_arrows,
)
from .reports import BoundExceeded, StructureError, StructureReport


@dataclass(frozen=True)
class FactorizationCandidate:
    b: Quasigroupoid
    ia: QgpdMorphism  # a-component into b, identity on objects
    ih: QgpdMorphism  # h-component into b, identity on objects


def canonical_factorization(mp: MatchedPair) -> FactorizationCandidate:
    """The factorization of the double cross product by its two inclusions.
    The caller has checked the matched-pair axioms; A and H are checked
    here, and a failure raises `InvalidStructureError` with their report."""
    _validated(mp.a)
    _validated(mp.h)
    dcp = _dcp_fill(mp)
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

    `report.data["evaluated"]` counts, per mixed law, the configurations
    where at least one side is defined.  On success, `report.data["theta"]`
    maps each fibered (a, h) to its ambient arrow, and a note records that
    the two arrow images meet exactly in the identity arrows (a consequence
    of bijectivity, kept as a derived check rather than an axiom).
    """
    b, ia, ih = c.b, c.ia, c.ih
    if ia.target != b or ih.target != b:
        raise StructureError("inclusions do not land in the ambient structure")
    if ia.source.n_objects != b.n_objects or ih.source.n_objects != b.n_objects:
        raise StructureError("base mismatch between components and ambient structure")
    _require_identity_objects(ia, "iA")
    _require_identity_objects(ih, "iH")

    report = StructureReport.of("exact factorization")
    for tag, incl in (("mono-A", ia), ("mono-H", ih)):
        for witness, detail in _mono(incl):
            report.fail(tag, witness, detail)
    evaluated, theta = {}, {}
    bijective, *mixed = _sweeps(c, evaluated, theta)
    for tag, sweep in (*mixed, bijective):
        for witness, detail in sweep:
            report.fail(tag, witness, detail)
    report.data["theta"] = theta
    report.data["evaluated"] = evaluated
    if report.ok:
        overlap, identities = _overlap(c)
        report.notes.append(
            f"arrow images intersect in {overlap}, identity arrows {identities}"
        )
        if overlap != identities:
            report.fail("theta-bijective", tuple(overlap),
                        "component images meet outside the identity arrows")
    return report


def _is_exact(c: FactorizationCandidate) -> bool:
    """`check_exact_factorization(c).ok` for a candidate of the enumerator,
    whose inclusions, of closed subsets, are monic by construction (a test
    checks this): theta first, then the six mixed laws in report order,
    each stopped at its first violation, then the overlap of the two
    images."""
    for _, sweep in _sweeps(c, {}, {}):
        if next(sweep, None) is not None:
            return False
    overlap, identities = _overlap(c)
    return overlap == identities


def _mono(incl: QgpdMorphism):
    """The (witness, detail) of an inclusion failing mono-A / mono-H: its
    `check_morphism` violations, then a non-injective arrow map."""
    for v in check_morphism(incl).violations:
        yield v.witness, f"{v.axiom}: {v.detail}".rstrip(": ")
    if len(set(incl.arrow_map)) != len(incl.arrow_map):
        yield (), "arrow map not injective"


def _overlap(c: FactorizationCandidate) -> tuple[list[int], list[int]]:
    """The arrows both images hold, and the identity arrows of B."""
    return sorted(set(c.ia.arrow_map) & set(c.ih.arrow_map)), sorted(c.b.unit)


def _sweeps(c: FactorizationCandidate, evaluated: dict, theta: dict):
    """Yields the theta-bijective sweep, then the sweeps of the six mixed
    laws in report order, each as (tag, generator), none of them started.
    Each generator yields the (witness, detail) of its violations in order;
    a mixed law drained to its end sets `evaluated[tag]`, and the theta
    sweep fills `theta` as it goes.  The fibered pairs that only the mixed
    laws read are listed once the theta sweep is taken, so a caller that
    stops at theta never lists them."""
    b, ia, ih = c.b, c.ia, c.ih
    a, h = ia.source, ih.source
    fa, fh = ia.arrow_map, ih.arrow_map
    rows = b.prod.rows
    # x_y[i] lists the arrows j of the second structure with src(i) = tgt(j):
    # the fibered pairs of each law, and its triples as a join of two of
    # them on the middle arrow
    a_h = fibered_arrows(a, h)
    yield "theta-bijective", _theta_bijective(rows, b.n_arrows, a_h, fa, fh, theta)
    h_a, a_a, h_h = fibered_arrows(h, a), fibered_arrows(a, a), fibered_arrows(h, h)
    for law in (
        ("HAA", h_a, fh, fa, a_a, fa),
        ("HHA", h_h, fh, fh, h_a, fa),
        ("HAH", h_a, fh, fa, a_h, fh),
        ("AHA", a_h, fa, fh, h_a, fa),
        ("AAH", a_a, fa, fa, a_h, fh),
        ("AHH", a_h, fa, fh, h_h, fh),
    ):
        yield law[0], _mixed_law(rows, evaluated, *law)


def _mixed_law(rows, evaluated, tag, pairs, f1, f2, third, f3):
    # configurations (x, y, z): x*y a fibered pair of `pairs`, z in
    # third[y]; u = f1(x), v = f2(y) and u*v are fixed over z
    count = 0
    for x, ys in enumerate(pairs):
        u = f1[x]
        row_u = rows.get(u, EMPTY)
        for y in ys:
            zs = third[y]
            if not zs:
                continue
            v = f2[y]
            row_v = rows.get(v, EMPTY)
            row_uv = rows.get(row_u.get(v), EMPTY)  # empty where u*v is undefined
            for z in zs:
                w = f3[z]
                lhs, rhs = row_u.get(row_v.get(w)), row_uv.get(w)
                if lhs is None and rhs is None:
                    continue
                count += 1
                if lhs != rhs:
                    yield (x, y, z), f"lhs={lhs} rhs={rhs}"
    evaluated[tag] = count


def _theta_bijective(rows, n_arrows, a_h, fa, fh, theta):
    # theta(p, q) = fa(p) * fh(q) over the fibered pairs, then the ambient
    # arrows no pair reaches
    image = {}
    for p, qs in enumerate(a_h):
        row = rows.get(fa[p], EMPTY)
        for q in qs:
            val = row.get(fh[q])
            if val is None:
                yield (p, q), "theta undefined"
                continue
            theta[(p, q)] = val
            if val in image:
                yield (p, q), f"collides with {image[val]} at arrow {val}"
            else:
                image[val] = (p, q)
    for arrow in range(n_arrows):
        if arrow not in image:
            yield (arrow,), "ambient arrow not reached"


def reconstruct_matched_pair(c: FactorizationCandidate) -> tuple[MatchedPair, QgpdMorphism]:
    """Recover the actions from an exact factorization and the isomorphism
    (identity on objects, theta on arrows) from the rebuilt double cross
    product onto the ambient structure.

    For each mixed pair, iH(h) * iA(a) is matched through the inverse of
    theta to the unique (a', h') with iA(a') * iH(h') equal to it.
    """
    theta = check_exact_factorization(c).require().data["theta"]
    theta_inv = {arrow: pair for pair, arrow in theta.items()}
    b, ia, ih = c.b, c.ia, c.ih
    a, h = ia.source, ih.source
    left, right = {}, {}
    for x, ys in enumerate(fibered_arrows(h, a)):
        row = b.prod.rows.get(ih.arrow_map[x], EMPTY)
        left_x, right_x = left[x], right[x] = {}, {}
        for y in ys:
            mixed = row.get(ia.arrow_map[y])
            if mixed not in theta_inv:
                raise StructureError(
                    f"cannot invert theta at mixed pair ({x},{y}): image {mixed}"
                )
            left_x[y], right_x[y] = theta_inv[mixed]
    mp = MatchedPair(a, h, LeftAction(h, a, PairTable(left)), RightAction(h, a, PairTable(right)))
    dcp = double_cross_product(mp)  # raises on a pair failing check_matched_pair
    pairs = dcp_pairs(mp)
    gamma = QgpdMorphism(
        dcp,
        b,
        tuple(range(b.n_objects)),
        tuple(theta[pair] for pair in pairs),
    )
    return mp, gamma


# ---------------------------------------------------------------------------
# enumeration by closure
# ---------------------------------------------------------------------------


def closure_fault(b: Quasigroupoid, chosen: set) -> str | None:
    """How the arrow set `chosen` first fails to be a wide closed subset of
    `b`, or None: it must hold every identity arrow and be closed under the
    inverse map and under the product wherever both factors lie inside.
    Arrows are tried in the iteration order of `chosen`, and `b` may lack
    products (a document being read)."""
    inv, rows = b.inv, b.prod.rows
    if not chosen.issuperset(b.unit):
        return "must contain every identity arrow"
    for x in chosen:
        if inv[x] not in chosen:
            return f"not closed under the inverse map at {x}"
    for x in chosen:
        row = rows.get(x, EMPTY)
        for y, v in row.items():
            if y in chosen and v not in chosen:  # name the first such y in `chosen`
                y = next(y for y in chosen if y in row and row[y] not in chosen)
                return f"not closed under the product at ({x},{y})"
    return None


def closed_arrow_subsets(b: Quasigroupoid) -> list[tuple[int, ...]]:
    """The arrow subsets on which `closure_fault` finds none, ordered by size
    then lexicographically.  Each closed set S, from the closure of the
    identities on, is grown to the closure of S and x for every arrow x;
    that depends on x only through the generated set g, the closure of the
    identities and x.  A set S first found as a join of P keeps P's joins:
    where the join of P and g holds S, it is also the join of S and g,
    since P lies in S, and is then known without a closure, as it is where
    g lies in S."""
    inv, rows = b.inv, b.prod.rows
    # links[y] holds the (s, v) where v must join a closed set holding y
    # and s: y's inverse (s = y), then ys and sy
    links = [[(y, inv[y]), *rows.get(y, EMPTY).items()] for y in range(b.n_arrows)]
    for x, row in rows.items():
        for y, v in row.items():
            links[y].append((x, v))

    def closure(inside: set, todo: list) -> frozenset:
        # `inside` is closed but for the links of the arrows in `todo`
        while todo:
            for s, v in links[todo.pop()]:
                if v not in inside and s in inside:
                    inside.add(v)
                    todo.append(v)
        return frozenset(inside)

    start = closure(set(b.unit), list(b.unit))
    generated = list({closure({*start, x}, [x]) for x in range(b.n_arrows)})
    # each closed set of a layer maps to its parent's joins, in the order
    # of `generated`; the generated sets are the joins of `start`
    found, layer = {start}, {start: generated}
    while layer:
        grown: dict = {}
        for s, inherited in layer.items():
            joins = []
            for g, t in zip(generated, inherited):
                if not s <= t:
                    t = s if g <= s else closure(set(s | g), list(g - s))
                if t not in found and t not in grown:
                    grown[t] = joins
                joins.append(t)
        found |= grown.keys()
        layer = grown
    return sorted((tuple(sorted(t)) for t in found), key=lambda t: (len(t), t))


def sub_quasigroupoid(
    b: Quasigroupoid, arrows: tuple[int, ...]
) -> tuple[Quasigroupoid, QgpdMorphism]:
    """The wide substructure on a closed arrow subset, with its inclusion.

    Raises StructureError when the subset is not closed, with the text of
    `closure_fault`, or when b has no product entry on a composable pair
    inside the subset."""
    index = {arrow: i for i, arrow in enumerate(arrows)}
    src = tuple(b.src[x] for x in arrows)
    tgt = tuple(b.tgt[x] for x in arrows)
    rows = {}
    try:  # an arrow the subset lacks is a missed key; only then is the fault named
        unit = tuple(index[b.unit[o]] for o in range(b.n_objects))
        inv = tuple(index[b.inv[x]] for x in arrows)
        for i, (x, after) in enumerate(zip(arrows, matching_arrows(src, tgt, b.n_objects))):
            row_x, row = b.prod.rows.get(x, EMPTY), {}
            for j in after:
                xy = row_x.get(arrows[j])
                if xy is None:
                    raise StructureError(f"product missing on composable pair ({x},{arrows[j]})")
                row[j] = index[xy]
            if row:  # empty only where b's identity arrows have the wrong ends
                rows[i] = row
    except KeyError:
        raise StructureError(closure_fault(b, set(arrows))) from None
    sub = Quasigroupoid(
        n_objects=b.n_objects,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=PairTable(rows),
        object_names=b.object_names,
        arrow_names=tuple(b.arrow_name(x) for x in arrows),
    )
    incl = QgpdMorphism(sub, b, tuple(range(b.n_objects)), arrows)
    return sub, incl


def enumerate_factorizations(
    b: Quasigroupoid, max_arrows: int = 12
) -> list[FactorizationCandidate]:
    """All exact factorizations of b over pairs of closed arrow subsets.

    Guarded by `max_arrows`, which does not bound the closed-subset count;
    candidate order is deterministic (subset order from
    `closed_arrow_subsets`, the a-component varying slowest).  Each closed
    subset's substructure, and its endpoint index, is built once and
    serves as either component.

    Only the pairs (A, H) that meet in the identity arrows, as
    `check_exact_factorization` requires of the two images, and whose
    fibered pairs (a, h), src a = tgt h, are as many as the arrows of b, as
    a bijective theta requires, are decided; every pair skipped is one it
    fails.  The fibered pairs are counted once for each pair of a source
    count vector and a target count vector (signature buckets), and the
    overlap is one `&` of two int bit masks of the arrows off the
    identities, so a pair that cannot be exact costs one mask test at most.
    The inclusions of closed subsets are monic by construction (a test
    checks this), and a pair is decided by its other laws in turn, theta
    first, each stopped at its first violation, to the verdict of
    `check_exact_factorization`.
    """
    if b.n_arrows > max_arrows:
        raise BoundExceeded(
            f"{b.n_arrows} arrows exceeds the enumeration bound {max_arrows}"
        )
    subsets = closed_arrow_subsets(b)
    inclusions = [sub_quasigroupoid(b, arrows)[1] for arrows in subsets]
    # (A, H) has as many fibered pairs as the dot product of A's per-object
    # source counts with H's target counts; each distinct source count
    # vector lists once, in subset order, the subsets whose target counts fit
    sources = [tuple(map(len, incl.source.by_src)) for incl in inclusions]
    targets: dict = {}
    for j, incl in enumerate(inclusions):
        targets.setdefault(tuple(map(len, incl.source.by_tgt)), []).append(j)
    partners = {
        counts: sorted(
            j for t, js in targets.items() if sum(map(mul, counts, t)) == b.n_arrows for j in js
        )
        for counts in set(sources)
    }
    # the arrows of each subset off the identity arrows, as an int bit mask
    units = sum(1 << e for e in set(b.unit))
    masks = [sum(1 << x for x in arrows) & ~units for arrows in subsets]
    candidates = (
        FactorizationCandidate(b, ia, inclusions[j])
        for ia, counts, mask in zip(inclusions, sources, masks)
        for j in partners[counts]
        if not mask & masks[j]
    )
    return [c for c in candidates if _is_exact(c)]
