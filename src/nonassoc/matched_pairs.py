"""Mutually compatible actions between two quasigroupoids on one base, and
the double cross product they generate.

Action tables are total lookups over the enumerated mixed-composable set
{(h, a) : src_H(h) = tgt_A(a)}; evaluation outside it is None, mirroring the
fibered domains of the definitions.  Both action signatures are normalized
to (h-arrow, a-arrow) order.

The double cross product enumerates its arrow set in lexicographic (a, h)
order; `dcp_pairs` exposes that enumeration so the linear-algebra layer can
share the same basis indexing.

Every sweep enumerates its fibered set through the endpoint index of
`quasigroupoids` (`matching_arrows`): the mixed pairs, the triples of the
action and compatibility laws and the composable pairs of the double cross
product are visited directly, in lexicographic order, never found by
filtering a larger product of arrow sets.  The identity suite P-1..P-10
further restricts each sweep to the configurations whose product lookups
are keys of the product tables, which are the only ones it evaluates.

The double cross product factors exactly through its two inclusions, and the
six mixed associativity laws and the bijectivity of theta are the conditions
of that exact factorization.  So `mixed_associativity_suite`, `theta` and
`theta_identity_report` check nothing themselves: they read the report of
`factorizations.check_exact_factorization` on the canonical factorization,
which the caller computes once and passes to each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .quasigroupoids import (
    QgpdMorphism,
    Quasigroupoid,
    _validated,
    check_action_on_set,
    check_morphism,
    discrete_groupoid,
    from_quasigroup_action,
    matching_arrows,
)
from .quasigroups import FiniteQuasigroup
from .reports import InvalidStructureError, StructureError, StructureReport

if TYPE_CHECKING:
    from .factorizations import FactorizationCandidate

# Tags of the mixed associativity laws, in sweep order.
MIXED_LAWS = ("HAA", "HHA", "HAH", "AHA", "AAH", "AHH")


@dataclass(frozen=True)
class LeftAction:
    """h acting on a: table[(h-arrow, a-arrow)] is an arrow of `a`."""

    h: Quasigroupoid
    a: Quasigroupoid
    table: dict


@dataclass(frozen=True)
class RightAction:
    """a acting on h: table[(h-arrow, a-arrow)] is an arrow of `h`."""

    h: Quasigroupoid
    a: Quasigroupoid
    table: dict


@dataclass(frozen=True)
class MatchedPair:
    a: Quasigroupoid
    h: Quasigroupoid
    left: LeftAction
    right: RightAction

    def phi_a(self, harrow: int | None, aarrow: int | None) -> int | None:
        if harrow is None or aarrow is None:
            return None
        return self.left.table.get((harrow, aarrow))

    def phi_h(self, harrow: int | None, aarrow: int | None) -> int | None:
        if harrow is None or aarrow is None:
            return None
        return self.right.table.get((harrow, aarrow))


def mixed_pairs(left: Quasigroupoid, right: Quasigroupoid):
    """The fibered set {(x, y) : src(x) = tgt(y)} of an arrow x of `left` and
    an arrow y of `right`, lexicographic.  On (h, a) these are the pairs the
    actions act on; on (a, h), the arrows of the double cross product."""
    if left.n_objects != right.n_objects:
        raise StructureError("base mismatch: structures have different object sets")
    after = matching_arrows(left.src, right.tgt, left.n_objects)
    return [(x, y) for x, ys in enumerate(after) for y in ys]


def _check_domain(table: dict, h: Quasigroupoid, a: Quasigroupoid, kind: str) -> None:
    expected = set(mixed_pairs(h, a))
    if set(table) != expected:
        extra = sorted(set(table) - expected)
        missing = sorted(expected - set(table))
        raise StructureError(
            f"{kind} action domain mismatch: extra={extra[:4]} missing={missing[:4]}"
        )


def check_left_action(action: LeftAction) -> StructureReport:
    h, a, phi = action.h, action.a, action.table
    _check_domain(phi, h, a, "left")
    report = StructureReport("left action", axioms=("c1", "c2", "c3"))
    for val in phi.values():
        if not isinstance(val, int) or not 0 <= val < a.n_arrows:
            raise StructureError(f"left action value {val!r} out of range")
    for (x, y), val in phi.items():
        if a.tgt[val] != h.tgt[x]:
            report.fail("c1", (x, y), f"tgt phi={a.tgt[val]} tgt h={h.tgt[x]}")
    before = matching_arrows(h.tgt, h.src, h.n_objects)
    for (x, y), inner in phi.items():
        for g in before[x]:
            gx = h.compose(g, x)
            lhs = phi.get((gx, y)) if gx is not None else None
            rhs = phi.get((g, inner))
            if lhs is None or rhs is None:
                report.fail("c2", (g, x, y), "undefined evaluation")
            elif lhs != rhs:
                report.fail("c2", (g, x, y), f"phi(g*h,a)={lhs} phi(g,phi(h,a))={rhs}")
    for y in range(a.n_arrows):
        e = h.unit[a.tgt[y]]
        if phi.get((e, y)) != y:
            report.fail("c3", (y,), f"phi(id,a)={phi.get((e, y))}")
    return report


def check_right_action(action: RightAction) -> StructureReport:
    h, a, phi = action.h, action.a, action.table
    _check_domain(phi, h, a, "right")
    report = StructureReport("right action", axioms=("d1", "d2", "d3"))
    for val in phi.values():
        if not isinstance(val, int) or not 0 <= val < h.n_arrows:
            raise StructureError(f"right action value {val!r} out of range")
    for (x, y), val in phi.items():
        if h.src[val] != a.src[y]:
            report.fail("d1", (x, y), f"src phi={h.src[val]} src a={a.src[y]}")
    after = matching_arrows(a.src, a.tgt, a.n_objects)
    for (x, y), inner in phi.items():
        for b in after[y]:
            yb = a.compose(y, b)
            lhs = phi.get((x, yb)) if yb is not None else None
            rhs = phi.get((inner, b))
            if lhs is None or rhs is None:
                report.fail("d2", (x, y, b), "undefined evaluation")
            elif lhs != rhs:
                report.fail("d2", (x, y, b), f"phi(h,a*b)={lhs} phi(phi(h,a),b)={rhs}")
    for x in range(h.n_arrows):
        e = a.unit[h.src[x]]
        if phi.get((x, e)) != x:
            report.fail("d3", (x,), f"phi(h,id)={phi.get((x, e))}")
    return report


def check_matched_pair(mp: MatchedPair) -> StructureReport:
    """Action axioms plus the three compatibility conditions e1..e3.

    Violations from the two action checks are folded into the report, so a
    single perturbed table surfaces both the broken action law and any
    compatibility law it drags down.
    """
    if mp.left.h != mp.h or mp.left.a != mp.a or mp.right.h != mp.h or mp.right.a != mp.a:
        raise StructureError("actions do not reference the pair's structures")
    report = StructureReport("matched pair")
    report.extend(check_left_action(mp.left))
    report.extend(check_right_action(mp.right))
    report.axioms = report.axioms + ("e1", "e2", "e3")
    a, h = mp.a, mp.h
    pairs = mixed_pairs(h, a)
    for (x, y) in pairs:
        pa, ph = mp.phi_a(x, y), mp.phi_h(x, y)
        if a.src[pa] != h.tgt[ph]:
            report.fail("e1", (x, y), f"src phiA={a.src[pa]} tgt phiH={h.tgt[ph]}")
    a_after = matching_arrows(a.src, a.tgt, a.n_objects)
    h_before = matching_arrows(h.tgt, h.src, h.n_objects)
    for (x, y) in pairs:
        for b in a_after[y]:
            lhs = mp.phi_a(x, a.compose(y, b))
            rhs = a.compose(mp.phi_a(x, y), mp.phi_a(mp.phi_h(x, y), b))
            if lhs is None or rhs is None:
                report.fail("e2", (x, y, b), "undefined evaluation")
            elif lhs != rhs:
                report.fail("e2", (x, y, b), f"lhs={lhs} rhs={rhs}")
    for (x, y) in pairs:
        for g in h_before[x]:
            lhs = mp.phi_h(h.compose(g, x), y)
            rhs = h.compose(mp.phi_h(g, mp.phi_a(x, y)), mp.phi_h(x, y))
            if lhs is None or rhs is None:
                report.fail("e3", (g, x, y), "undefined evaluation")
            elif lhs != rhs:
                report.fail("e3", (g, x, y), f"lhs={lhs} rhs={rhs}")
    return report


def matched_pair(a: Quasigroupoid, h: Quasigroupoid, phi_a: dict, phi_h: dict) -> MatchedPair:
    """Assemble and eagerly validate a matched pair from raw action tables."""
    mp = MatchedPair(a, h, LeftAction(h, a, dict(phi_a)), RightAction(h, a, dict(phi_h)))
    report = check_matched_pair(mp)
    if not report.ok:
        raise InvalidStructureError(report)
    return mp


def _factor_index(q: Quasigroupoid, position: int) -> dict:
    """The keys of q's product table grouped by the factor at `position`
    (0 left, 1 right): each factor maps to the other factors that are arrows
    of q, in increasing order.  These are exactly the arrows c for which a
    lookup of (c, f) (position 1) or (f, c) (position 0) finds an entry."""
    arrows = range(q.n_arrows)
    index: dict = {}
    for key in q.prod:
        other = key[1 - position]
        if other in arrows:
            index.setdefault(key[position], []).append(int(other))
    for others in index.values():
        others.sort()
    return index


def matched_pair_identity_suite(mp: MatchedPair) -> StructureReport:
    """The ten consequences P-1..P-10 of the matched-pair axioms, swept over
    every configuration on which both sides are defined.

    Configurations where a constituent product or action lookup is undefined
    are skipped (the statements quantify only over defined operations); the
    number of configurations actually evaluated per identity is recorded in
    `report.data["evaluated"]` so callers can assert nonvacuity.  P-5, P-6,
    P-9 and P-10 quantify over a third arrow that enters through a product;
    they visit only the arrows for which that product has an entry, since
    every other configuration is undefined.
    """
    a, h = mp.a, mp.h
    pairs = mixed_pairs(h, a)
    la, lh = a.inv, h.inv
    a_before, a_after = _factor_index(a, 1), _factor_index(a, 0)
    h_before, h_after = _factor_index(h, 1), _factor_index(h, 0)
    report = StructureReport(
        "matched pair identities",
        axioms=tuple(f"P-{i}" for i in range(1, 11)),
    )
    evaluated = {tag: 0 for tag in report.axioms}

    def sweep(tag, configs, sides):
        for cfg in configs:
            lhs, rhs = sides(*cfg)
            if lhs is None or rhs is None:
                continue
            evaluated[tag] += 1
            if lhs != rhs:
                report.fail(tag, cfg, f"lhs={lhs} rhs={rhs}")

    sweep(
        "P-1",
        [(x,) for x in range(h.n_arrows)],
        lambda x: (mp.phi_a(x, a.unit[h.src[x]]), a.unit[h.tgt[x]]),
    )
    sweep(
        "P-2",
        [(y,) for y in range(a.n_arrows)],
        lambda y: (mp.phi_h(h.unit[a.tgt[y]], y), h.unit[a.src[y]]),
    )
    sweep(
        "P-3",
        pairs,
        lambda x, y: (
            la[mp.phi_a(x, y)] if mp.phi_a(x, y) is not None else None,
            mp.phi_a(mp.phi_h(x, y), la[y]),
        ),
    )
    sweep(
        "P-4",
        pairs,
        lambda x, y: (
            lh[mp.phi_h(x, y)] if mp.phi_h(x, y) is not None else None,
            mp.phi_h(lh[x], mp.phi_a(x, y)),
        ),
    )
    sweep(
        "P-5",
        [(x, y, b) for (x, y) in pairs for b in a_before.get(mp.phi_a(x, y), ())],
        lambda x, y, b: (
            a.compose(
                a.compose(b, mp.phi_a(x, y)),
                mp.phi_a(mp.phi_h(x, y), la[y]),
            ),
            b,
        ),
    )
    sweep(
        "P-6",
        [(x, y, g) for (x, y) in pairs for g in h_after.get(mp.phi_h(x, y), ())],
        lambda x, y, g: (
            h.compose(
                mp.phi_h(lh[x], mp.phi_a(x, y)),
                h.compose(mp.phi_h(x, y), g),
            ),
            g,
        ),
    )

    def p7(x, y):
        ph, pa = mp.phi_h(x, y), mp.phi_a(x, y)
        if ph is None or pa is None:
            return None, None
        return mp.phi_a(lh[ph], la[pa]), la[y]

    sweep("P-7", pairs, p7)

    def p8(x, y):
        ph, pa = mp.phi_h(x, y), mp.phi_a(x, y)
        if ph is None or pa is None:
            return None, None
        return mp.phi_h(lh[ph], la[pa]), lh[x]

    sweep("P-8", pairs, p8)

    def p9(x, y, b):
        lhs = a.compose(la[y], mp.phi_a(lh[x], b))
        ph, pa = mp.phi_h(x, y), mp.phi_a(x, y)
        if ph is None or pa is None:
            return lhs, None
        rhs = mp.phi_a(lh[ph], a.compose(la[pa], b))
        return lhs, rhs

    def defined(x, y):
        return mp.phi_h(x, y) is not None and mp.phi_a(x, y) is not None

    sweep("P-9", [
        (x, y, b) for (x, y) in pairs if defined(x, y)
        for b in a_after.get(la[mp.phi_a(x, y)], ())
    ], p9)

    def p10(x, y, g):
        lhs = h.compose(mp.phi_h(g, la[y]), lh[x])
        ph, pa = mp.phi_h(x, y), mp.phi_a(x, y)
        if ph is None or pa is None:
            return lhs, None
        rhs = mp.phi_h(h.compose(g, lh[ph]), la[pa])
        return lhs, rhs

    sweep("P-10", [
        (x, y, g) for (x, y) in pairs if defined(x, y)
        for g in h_before.get(lh[mp.phi_h(x, y)], ())
    ], p10)

    report.data["evaluated"] = evaluated
    return report


# ---------------------------------------------------------------------------
# double cross product
# ---------------------------------------------------------------------------


def dcp_pairs(mp: MatchedPair) -> list[tuple[int, int]]:
    """Arrow set of the double cross product: {(a, h) : src_A(a) = tgt_H(h)},
    enumerated lexicographically.  Shared with the linear-algebra layer."""
    return mixed_pairs(mp.a, mp.h)


def double_cross_product(mp: MatchedPair, check: bool = True) -> Quasigroupoid:
    """The quasigroupoid on dcp_pairs with the action-twisted product
    (a,g)*(b,h) = (a . phiA(g,b), phiH(g,b) . h)."""
    if check:
        report = check_matched_pair(mp)
        if not report.ok:
            raise InvalidStructureError(report)
    a, h = mp.a, mp.h
    pairs = dcp_pairs(mp)
    index = {pq: i for i, pq in enumerate(pairs)}

    def pair_index(p, q, context):
        if p is None or q is None or (p, q) not in index:
            raise StructureError(f"double cross product not closed at {context}")
        return index[(p, q)]

    src = tuple(h.src[q] for (_, q) in pairs)
    tgt = tuple(a.tgt[p] for (p, _) in pairs)
    unit = tuple(pair_index(a.unit[x], h.unit[x], ("unit", x)) for x in range(a.n_objects))
    inv = tuple(
        pair_index(
            mp.phi_a(h.inv[q], a.inv[p]),
            mp.phi_h(h.inv[q], a.inv[p]),
            ("inverse", p, q),
        )
        for (p, q) in pairs
    )
    prod = {}
    after = matching_arrows(src, tgt, a.n_objects)
    phi_a, phi_h, a_prod, h_prod = mp.left.table, mp.right.table, a.prod, h.prod
    for i, (p, g) in enumerate(pairs):
        for j in after[i]:
            b, q = pairs[j]
            pa, ph = phi_a.get((g, b)), phi_h.get((g, b))
            left = None if pa is None else a_prod.get((p, pa))
            right = None if ph is None else h_prod.get((ph, q))
            k = index.get((left, right))
            if k is None:
                context = ("product", (p, g), (b, q))
                raise StructureError(f"double cross product not closed at {context}")
            prod[(i, j)] = k
    names = tuple(f"({a.arrow_name(p)},{h.arrow_name(q)})" for (p, q) in pairs)
    return _validated(
        Quasigroupoid(
            n_objects=a.n_objects,
            src=src,
            tgt=tgt,
            unit=unit,
            inv=inv,
            prod=prod,
            object_names=a.object_names,
            arrow_names=names,
        )
    )


def inclusion_a(mp: MatchedPair, dcp: Quasigroupoid) -> QgpdMorphism:
    """a -> (a, id_H(src(a))) into the double cross product `dcp` of mp."""
    index = {pq: i for i, pq in enumerate(dcp_pairs(mp))}
    a, h = mp.a, mp.h
    arrow_map = tuple(index[(p, h.unit[a.src[p]])] for p in range(a.n_arrows))
    return QgpdMorphism(a, dcp, tuple(range(a.n_objects)), arrow_map)


def inclusion_h(mp: MatchedPair, dcp: Quasigroupoid) -> QgpdMorphism:
    """g -> (id_A(tgt(g)), g) into the double cross product `dcp` of mp."""
    index = {pq: i for i, pq in enumerate(dcp_pairs(mp))}
    a, h = mp.a, mp.h
    arrow_map = tuple(index[(a.unit[h.tgt[q]], q)] for q in range(h.n_arrows))
    return QgpdMorphism(h, dcp, tuple(range(h.n_objects)), arrow_map)


# The views below take c = canonical_factorization(mp) and
# fact = check_exact_factorization(c).


def theta(c: FactorizationCandidate, fact: StructureReport) -> dict:
    """theta(a, h) = incl_a(a) * incl_h(h) in the double cross product,
    read from `fact.data["theta"]` and returned pair-to-pair (None where the
    product is undefined).  For any matched pair this is the identity map;
    `theta_identity_report` packages that as a checkable report."""
    pairs = mixed_pairs(c.ia.source, c.ih.source)
    images = fact.data["theta"]
    return {pair: pairs[images[pair]] if pair in images else None for pair in pairs}


def theta_identity_report(c: FactorizationCandidate, fact: StructureReport) -> StructureReport:
    report = StructureReport("theta map", axioms=("theta-identity",))
    for pair, image in theta(c, fact).items():
        if image != pair:
            report.fail("theta-identity", pair, f"image={image}")
    return report


def mixed_associativity_suite(c: FactorizationCandidate, fact: StructureReport) -> StructureReport:
    """Mixed associativity of the canonical inclusions inside the double
    cross product: the HAA..AHH violations of `fact`, each law swept there
    over the configurations satisfying its fibered hypotheses.

    AHH is checked in the order-matched reading a(gh) = (ag)h.  The variant
    with the last two factors exchanged on the right-hand side is evaluated
    here and its outcome recorded in notes and in
    `report.data["AHH-swapped"]`; it fails in general (already on one-object
    examples with noncommutative second component), so it does not count
    against the suite.
    """
    report = StructureReport("mixed associativity", axioms=MIXED_LAWS)
    report.violations = [v for v in fact.violations if v.axiom in MIXED_LAWS]
    dcp, ia, ih, h = c.b, c.ia.arrow_map, c.ih.arrow_map, c.ih.source
    h_after = matching_arrows(h.src, h.tgt, h.n_objects)
    ahh_configs = [(p, g, x) for (p, g) in mixed_pairs(c.ia.source, h) for x in h_after[g]]
    swapped_failures = []
    for (p, g, x) in ahh_configs:
        lhs = dcp.compose(ia[p], dcp.compose(ih[g], ih[x]))
        rhs = dcp.compose(dcp.compose(ia[p], ih[x]), ih[g])
        if lhs is None and rhs is None:
            continue
        if lhs != rhs:
            swapped_failures.append((p, g, x))
    report.data["AHH-swapped"] = {
        "checked": len(ahh_configs),
        "failures": len(swapped_failures),
        "first_witness": swapped_failures[0] if swapped_failures else None,
    }
    if swapped_failures:
        report.notes.append(
            f"AHH with swapped right-hand factors fails at {len(swapped_failures)}"
            f"/{len(ahh_configs)} configurations, first witness "
            f"{swapped_failures[0]}"
        )
    else:
        report.notes.append(
            f"AHH with swapped right-hand factors holds at all "
            f"{len(ahh_configs)} configurations"
        )
    return report


# ---------------------------------------------------------------------------
# canonical families
# ---------------------------------------------------------------------------


def mp_discrete_right(a: Quasigroupoid) -> MatchedPair:
    """(a, discrete groupoid on its base): the discrete side acts trivially,
    a acts back by recording sources."""
    h = discrete_groupoid(a.n_objects)
    left = {(x, p): p for p in range(a.n_arrows) for x in [a.tgt[p]]}
    right = {(x, p): a.src[p] for p in range(a.n_arrows) for x in [a.tgt[p]]}
    return matched_pair(a, h, left, right)


def mp_action_left(q: FiniteQuasigroup, n_points: int, psi) -> MatchedPair:
    """(discrete groupoid on the point set, action quasigroupoid of psi)."""
    action_report = check_action_on_set(q, n_points, psi)
    if not action_report.ok:
        raise InvalidStructureError(action_report)
    h = from_quasigroup_action(q, n_points, psi)
    a = discrete_groupoid(n_points)
    left = {(x, h.src[x]): h.tgt[x] for x in range(h.n_arrows)}
    right = {(x, h.src[x]): x for x in range(h.n_arrows)}
    return matched_pair(a, h, left, right)


# ---------------------------------------------------------------------------
# morphisms of matched pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MpMorphism:
    source: MatchedPair
    target: MatchedPair
    gamma: QgpdMorphism  # between the a-components
    omega: QgpdMorphism  # between the h-components


def check_mp_morphism(m: MpMorphism) -> StructureReport:
    """Component morphisms must be quasigroupoid morphisms agreeing on the
    base, and must intertwine both actions."""
    if m.gamma.source != m.source.a or m.gamma.target != m.target.a:
        raise StructureError("gamma does not map the a-components")
    if m.omega.source != m.source.h or m.omega.target != m.target.h:
        raise StructureError("omega does not map the h-components")
    report = StructureReport("matched pair morphism")
    report.axioms = ("base-agree",)
    if m.gamma.obj_map != m.omega.obj_map:
        report.fail("base-agree", (), "gamma and omega differ on objects")
    gamma_report = check_morphism(m.gamma)
    omega_report = check_morphism(m.omega)
    for tag in gamma_report.axioms:
        report.axioms = report.axioms + (f"gamma-{tag}",)
    for v in gamma_report.violations:
        report.fail(f"gamma-{v.axiom}", v.witness, v.detail)
    for tag in omega_report.axioms:
        report.axioms = report.axioms + (f"omega-{tag}",)
    for v in omega_report.violations:
        report.fail(f"omega-{v.axiom}", v.witness, v.detail)
    report.axioms = report.axioms + ("mp-left", "mp-right")
    src, dst = m.source, m.target
    for (x, y) in mixed_pairs(src.h, src.a):
        fx, fy = m.omega.arrow_map[x], m.gamma.arrow_map[y]
        lhs = m.gamma.arrow_map[src.phi_a(x, y)]
        rhs = dst.phi_a(fx, fy)
        if rhs is None:
            report.fail("mp-left", (x, y), "image pair not in the target domain")
        elif lhs != rhs:
            report.fail("mp-left", (x, y), f"lhs={lhs} rhs={rhs}")
        lhs = m.omega.arrow_map[src.phi_h(x, y)]
        rhs = dst.phi_h(fx, fy)
        if rhs is None:
            report.fail("mp-right", (x, y), "image pair not in the target domain")
        elif lhs != rhs:
            report.fail("mp-right", (x, y), f"lhs={lhs} rhs={rhs}")
    return report


def compose_mp_morphisms(f: MpMorphism, g: MpMorphism) -> MpMorphism:
    """f after g."""
    from .quasigroupoids import compose_morphisms

    if g.target is not f.source and g.target != f.source:
        raise StructureError("composition mismatch between matched pairs")
    return MpMorphism(
        g.source,
        f.target,
        compose_morphisms(f.gamma, g.gamma),
        compose_morphisms(f.omega, g.omega),
    )
