"""Mutually compatible actions between two quasigroupoids on one base, and
the double cross product they generate.

Action tables are total lookups over the enumerated mixed-composable set
{(h, a) : src_H(h) = tgt_A(a)}; evaluation outside it is None, mirroring the
fibered domains of the definitions.  Both action signatures are normalized
to (h-arrow, a-arrow) order.

The double cross product enumerates its arrow set in lexicographic (a, h)
order; `dcp_pairs` exposes that enumeration so the linear-algebra layer can
share the same basis indexing.  It is built from validated hypotheses, the
matched pair and its two components, and not checked afterwards: by the
paper's first theorem it is then a quasigroupoid (`tests/test_dcp_theorem.py`
checks that theorem exhaustively on small components).
`double_cross_product` validates them once per call (`validated_components`);
code that has already validated them builds through the private fill.  Its
product is filled once per mixed pair, since (a,g)*(b,h) depends on (g, b)
only through the two actions.  The families `mp_discrete_right` and
`mp_action_left` are matched pairs by construction; each checks only its input.

Every sweep enumerates its fibered set through the endpoint index of
`quasigroupoids` (`matching_arrows`): the mixed pairs, the triples of the
action and compatibility laws and the composable pairs of the double cross
product are visited directly, in lexicographic order, never found by
filtering a larger product of arrow sets.  The action and compatibility
laws, the identity suite P-1..P-10 and the double cross product read
products and action values from the stored rows of their tables
(`quasigroupoids.PairTable`), and look each value fixed over an inner loop,
such as phiA(x,y) and phiH(x,y), up once outside it; a lookup of an
undefined value, None, misses in every row.  The third arrow of P-5, P-6,
P-9 and P-10 enters through a product, so those identities walk it along
the row, or the transposed row (`transposed_rows`, built per call), of the
fixed factor: only the configurations whose product lookups are keys of the
product tables, which are the only ones they evaluate.

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
    EMPTY,
    PairTable,
    QgpdMorphism,
    Quasigroupoid,
    _validated,
    check_morphism,
    compose_morphisms,
    discrete_groupoid,
    from_quasigroup_action,
    matching_arrows,
    transposed_rows,
)
from .quasigroups import FiniteQuasigroup
from .reports import AXIOMS, StructureError, StructureReport

if TYPE_CHECKING:
    from .factorizations import FactorizationCandidate

# Tags of the mixed associativity laws, in sweep order.
MIXED_LAWS = AXIOMS["mixed associativity"]


@dataclass(frozen=True)
class _Action:
    h: Quasigroupoid
    a: Quasigroupoid
    table: PairTable  # a mapping keyed by (h-arrow, a-arrow) is converted

    def __post_init__(self):
        object.__setattr__(self, "table", PairTable.of(self.table))


class LeftAction(_Action):
    """h acting on a: table[(h-arrow, a-arrow)] is an arrow of `a`."""


class RightAction(_Action):
    """a acting on h: table[(h-arrow, a-arrow)] is an arrow of `h`."""


@dataclass(frozen=True)
class MatchedPair:
    a: Quasigroupoid
    h: Quasigroupoid
    left: LeftAction
    right: RightAction

    def phi_a(self, harrow: int | None, aarrow: int | None) -> int | None:
        return self.left.table.rows.get(harrow, EMPTY).get(aarrow)

    def phi_h(self, harrow: int | None, aarrow: int | None) -> int | None:
        return self.right.table.rows.get(harrow, EMPTY).get(aarrow)


def mixed_pairs(left: Quasigroupoid, right: Quasigroupoid):
    """The fibered set {(x, y) : src(x) = tgt(y)} of an arrow x of `left` and
    an arrow y of `right`, lexicographic.  On (h, a) these are the pairs the
    actions act on; on (a, h), the arrows of the double cross product."""
    if left.n_objects != right.n_objects:
        raise StructureError("base mismatch: structures have different object sets")
    after = matching_arrows(left.src, right.tgt, left.n_objects)
    return [(x, y) for x, ys in enumerate(after) for y in ys]


def _check_domain(table: PairTable, h: Quasigroupoid, a: Quasigroupoid, kind: str) -> None:
    expected = set(mixed_pairs(h, a))
    if set(table) != expected:
        extra = sorted(set(table) - expected)
        missing = sorted(expected - set(table))
        raise StructureError(
            f"{kind} action domain mismatch: extra={extra[:4]} missing={missing[:4]}"
        )


def _check_table(action: _Action, values: Quasigroupoid, kind: str) -> None:
    """Raise StructureError unless every value of the action table is an
    arrow of `values`, checked first, and its keys are the mixed pairs."""
    for row in action.table.rows.values():
        for val in row.values():
            if not isinstance(val, int) or not 0 <= val < values.n_arrows:
                raise StructureError(f"{kind} action value {val!r} out of range")
    _check_domain(action.table, action.h, action.a, kind)


def _acting_before(h: Quasigroupoid, action: PairTable) -> list:
    """Entry x lists, for each h-arrow g with src(g) = tgt(x) in increasing
    order, (g, the action row of g, the action row of g*x), the row being
    empty where g*x is undefined."""
    rows, h_rows = action.rows, h.prod.rows
    return [
        [(g, rows.get(g, EMPTY), rows.get(h_rows.get(g, EMPTY).get(x), EMPTY)) for g in gs]
        for x, gs in enumerate(matching_arrows(h.tgt, h.src, h.n_objects))
    ]


def _products_after(a: Quasigroupoid) -> list:
    """Entry y lists, for each a-arrow b with tgt(b) = src(y) in increasing
    order, (b, y*b), y*b None where the product is undefined."""
    rows = a.prod.rows
    return [
        [(b, rows.get(y, EMPTY).get(b)) for b in bs]
        for y, bs in enumerate(matching_arrows(a.src, a.tgt, a.n_objects))
    ]


def check_left_action(action: LeftAction) -> StructureReport:
    h, a, phi = action.h, action.a, action.table
    _check_table(action, a, "left")
    report = StructureReport.of("left action")
    for (x, y), val in phi.items():
        if a.tgt[val] != h.tgt[x]:
            report.fail("c1", (x, y), f"tgt phi={a.tgt[val]} tgt h={h.tgt[x]}")
    before = _acting_before(h, phi)
    for (x, y), inner in phi.items():
        for g, row_g, row_gx in before[x]:
            lhs, rhs = row_gx.get(y), row_g.get(inner)
            if lhs is None or rhs is None:
                report.fail("c2", (g, x, y), "undefined evaluation")
            elif lhs != rhs:
                report.fail("c2", (g, x, y), f"phi(g*h,a)={lhs} phi(g,phi(h,a))={rhs}")
    for y in range(a.n_arrows):
        image = phi.rows.get(h.unit[a.tgt[y]], EMPTY).get(y)
        if image != y:
            report.fail("c3", (y,), f"phi(id,a)={image}")
    return report


def check_right_action(action: RightAction) -> StructureReport:
    h, a, phi = action.h, action.a, action.table
    _check_table(action, h, "right")
    report = StructureReport.of("right action")
    for (x, y), val in phi.items():
        if h.src[val] != a.src[y]:
            report.fail("d1", (x, y), f"src phi={h.src[val]} src a={a.src[y]}")
    after = _products_after(a)
    for (x, y), inner in phi.items():
        row_x, row_inner = phi.rows.get(x, EMPTY), phi.rows.get(inner, EMPTY)
        for b, yb in after[y]:
            lhs, rhs = row_x.get(yb), row_inner.get(b)
            if lhs is None or rhs is None:
                report.fail("d2", (x, y, b), "undefined evaluation")
            elif lhs != rhs:
                report.fail("d2", (x, y, b), f"phi(h,a*b)={lhs} phi(phi(h,a),b)={rhs}")
    for x in range(h.n_arrows):
        image = phi.rows.get(x, EMPTY).get(a.unit[h.src[x]])
        if image != x:
            report.fail("d3", (x,), f"phi(h,id)={image}")
    return report


def check_matched_pair(mp: MatchedPair) -> StructureReport:
    """Action axioms plus the three compatibility conditions e1..e3.

    Violations from the two action checks are folded into the report, so a
    single perturbed table surfaces both the broken action law and any
    compatibility law it drags down.
    """
    if mp.left.h != mp.h or mp.left.a != mp.a or mp.right.h != mp.h or mp.right.a != mp.a:
        raise StructureError("actions do not reference the pair's structures")
    report = StructureReport.of("matched pair")
    report.violations += check_left_action(mp.left).violations
    report.violations += check_right_action(mp.right).violations
    a, h = mp.a, mp.h
    left_rows, right_rows = mp.left.table.rows, mp.right.table.rows
    # the action checks above passed, so phiA(x,y) and phiH(x,y) are arrows
    acted = [(x, y, left_rows[x][y], right_rows[x][y]) for x, y in mixed_pairs(h, a)]
    for x, y, pa, ph in acted:
        if a.src[pa] != h.tgt[ph]:
            report.fail("e1", (x, y), f"src phiA={a.src[pa]} tgt phiH={h.tgt[ph]}")
    a_rows, h_rows = a.prod.rows, h.prod.rows
    a_after = _products_after(a)
    for x, y, pa, ph in acted:
        row_x, row_pa = left_rows.get(x, EMPTY), a_rows.get(pa, EMPTY)
        row_ph = left_rows.get(ph, EMPTY)
        for b, yb in a_after[y]:
            lhs, rhs = row_x.get(yb), row_pa.get(row_ph.get(b))
            if lhs is None or rhs is None:
                report.fail("e2", (x, y, b), "undefined evaluation")
            elif lhs != rhs:
                report.fail("e2", (x, y, b), f"lhs={lhs} rhs={rhs}")
    h_before = _acting_before(h, mp.right.table)
    for x, y, pa, ph in acted:
        for g, row_g, row_gx in h_before[x]:
            lhs, rhs = row_gx.get(y), h_rows.get(row_g.get(pa), EMPTY).get(ph)
            if lhs is None or rhs is None:
                report.fail("e3", (g, x, y), "undefined evaluation")
            elif lhs != rhs:
                report.fail("e3", (g, x, y), f"lhs={lhs} rhs={rhs}")
    return report


def matched_pair(a: Quasigroupoid, h: Quasigroupoid, phi_a: dict, phi_h: dict) -> MatchedPair:
    """Assemble and eagerly validate a matched pair from raw action tables."""
    mp = MatchedPair(a, h, LeftAction(h, a, phi_a), RightAction(h, a, phi_h))
    check_matched_pair(mp).require()
    return mp


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
    _check_table(mp.left, a, "left")
    _check_table(mp.right, h, "right")
    la, lh = a.inv, h.inv
    left, right = mp.left.table.rows, mp.right.table.rows
    a_rows, h_rows = a.prod.rows, h.prod.rows
    # a_left[f][c] = c*f and a_right[f][c] = f*c for the arrows c of A with
    # an entry, in increasing order; likewise for H
    a_left = transposed_rows(a_rows, range(a.n_arrows))
    h_left = transposed_rows(h_rows, range(h.n_arrows))
    a_right = transposed_rows(transposed_rows(a_rows, a_rows), range(a.n_arrows))
    h_right = transposed_rows(transposed_rows(h_rows, h_rows), range(h.n_arrows))
    report = StructureReport.of("matched pair identities")
    evaluated = {tag: 0 for tag in report.axioms}

    def check(tag, witness, lhs, rhs):
        if lhs is None or rhs is None:
            return
        evaluated[tag] += 1
        if lhs != rhs:
            report.fail(tag, witness, f"lhs={lhs} rhs={rhs}")

    # each mixed pair with phiA(x,y) and phiH(x,y), arrows by _check_table
    acted = [(x, y, left[x][y], right[x][y]) for x, y in mixed_pairs(h, a)]
    for x in range(h.n_arrows):
        check("P-1", (x,), left.get(x, EMPTY).get(a.unit[h.src[x]]), a.unit[h.tgt[x]])
    for y in range(a.n_arrows):
        check("P-2", (y,), right.get(h.unit[a.tgt[y]], EMPTY).get(y), h.unit[a.src[y]])
    for x, y, pa, ph in acted:
        check("P-3", (x, y), la[pa], left.get(ph, EMPTY).get(la[y]))
    for x, y, pa, ph in acted:
        check("P-4", (x, y), lh[ph], right.get(lh[x], EMPTY).get(pa))
    for x, y, pa, ph in acted:
        after = left.get(ph, EMPTY).get(la[y])
        for b, bpa in a_left.get(pa, EMPTY).items():
            check("P-5", (x, y, b), a_rows.get(bpa, EMPTY).get(after), b)
    for x, y, pa, ph in acted:
        before = h_rows.get(right.get(lh[x], EMPTY).get(pa), EMPTY)
        for g, phg in h_right.get(ph, EMPTY).items():
            check("P-6", (x, y, g), before.get(phg), g)
    for x, y, pa, ph in acted:
        check("P-7", (x, y), left.get(lh[ph], EMPTY).get(la[pa]), la[y])
    for x, y, pa, ph in acted:
        check("P-8", (x, y), right.get(lh[ph], EMPTY).get(la[pa]), lh[x])
    for x, y, pa, ph in acted:
        row_y = a_rows.get(la[y], EMPTY)
        acts_x, acts_ph = left.get(lh[x], EMPTY), left.get(lh[ph], EMPTY)
        for b, pab in a_right.get(la[pa], EMPTY).items():
            check("P-9", (x, y, b), row_y.get(acts_x.get(b)), acts_ph.get(pab))
    for x, y, pa, ph in acted:
        lx, ly, lpa = lh[x], la[y], la[pa]
        for g, gph in h_left.get(lh[ph], EMPTY).items():
            lhs = h_rows.get(right.get(g, EMPTY).get(ly), EMPTY).get(lx)
            check("P-10", (x, y, g), lhs, right.get(gph, EMPTY).get(lpa))
    report.data["evaluated"] = evaluated
    return report


# ---------------------------------------------------------------------------
# double cross product
# ---------------------------------------------------------------------------


def dcp_pairs(mp: MatchedPair) -> list[tuple[int, int]]:
    """Arrow set of the double cross product: {(a, h) : src_A(a) = tgt_H(h)},
    enumerated lexicographically.  Shared with the linear-algebra layer."""
    return mixed_pairs(mp.a, mp.h)


def validated_components(mp: MatchedPair) -> None:
    """Admit mp to the paper's first theorem: its matched-pair axioms are
    checked first, then A and H.  The first report with a violation is
    raised (`StructureReport.require`), the component's own for A or H."""
    check_matched_pair(mp).require()
    _validated(mp.a)
    _validated(mp.h)


def double_cross_product(mp: MatchedPair) -> Quasigroupoid:
    """The quasigroupoid on dcp_pairs with the action-twisted product
    (a,g)*(b,h) = (a . phiA(g,b), phiH(g,b) . h).

    The result is not re-checked: by the paper's first theorem the double
    cross product of a matched pair of quasigroupoids is a quasigroupoid, so
    the hypotheses are validated instead, once (`validated_components`)."""
    validated_components(mp)
    return _dcp_fill(mp)


def _dcp_fill(mp: MatchedPair) -> Quasigroupoid:
    """`double_cross_product` of a pair whose hypotheses the caller has
    validated.  On a pair that fails them the result is unspecified; it may
    raise `StructureError` where a product, unit or inverse falls outside
    the arrow set."""
    a, h = mp.a, mp.h
    pairs = dcp_pairs(mp)
    # at[p][q]: the arrow (p, q)
    at = PairTable.from_triples((p, q, i) for i, (p, q) in enumerate(pairs)).rows

    def pair_index(p, q, context):
        k = at.get(p, EMPTY).get(q)
        if k is None:
            raise StructureError(f"double cross product not closed at {context}")
        return k

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
    # (p,g)*(b,q) depends on g and b only through the actions, so each h-arrow
    # g carries, for every b acting under it, phiA(g,b) and the pairs
    # (j, phiH(g,b).q) of the arrows j = (b,q), in increasing order of j
    phi_a, phi_h = mp.left.table.rows, mp.right.table.rows
    a_rows, h_rows = a.prod.rows, h.prod.rows
    starts = matching_arrows(h.src, a.tgt, a.n_objects)
    rows_of_a: list = [[] for _ in range(a.n_arrows)]
    for b, row in at.items():
        rows_of_a[b] = [(j, q) for q, j in row.items()]
    fill = []
    for g, bs in enumerate(starts):
        row_a, row_h = phi_a.get(g, EMPTY), phi_h.get(g, EMPTY)
        row = []
        for b in bs:
            # a missing value looks up no product
            h_row = h_rows.get(row_h.get(b), EMPTY)
            row.append((row_a.get(b), [(j, h_row.get(q)) for j, q in rows_of_a[b]]))
        fill.append(row)
    rows: dict = {}  # no row is empty: (p, g) composes with the unit pair at src(g)
    for p, at_p in at.items():  # the index objects of `at` serve every row
        a_row = a_rows.get(p, EMPTY)
        for g, i in at_p.items():
            row = rows[i] = {}
            for pa, fills in fill[g]:
                at_left = at.get(a_row.get(pa), EMPTY)
                for j, right in fills:
                    k = at_left.get(right)
                    if k is None:
                        context = ("product", (p, g), pairs[j])
                        raise StructureError(f"double cross product not closed at {context}")
                    row[j] = k
    names = tuple(f"({a.arrow_name(p)},{h.arrow_name(q)})" for (p, q) in pairs)
    return Quasigroupoid(
        n_objects=a.n_objects,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=PairTable(rows),
        object_names=a.object_names,
        arrow_names=names,
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
    report = StructureReport.of("theta map")
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
    report = StructureReport.of("mixed associativity")
    report.violations = [v for v in fact.violations if v.axiom in report.axioms]
    rows, ia, ih, h = c.b.prod.rows, c.ia.arrow_map, c.ih.arrow_map, c.ih.source
    h_after = matching_arrows(h.src, h.tgt, h.n_objects)
    # the configurations (p, g, x): (p, g) a mixed pair, x in h_after[g];
    # p * (g * x) against (p * x) * g, read from the rows of the fixed factors
    checked, swapped_failures = 0, []
    for p, gs in enumerate(matching_arrows(c.ia.source.src, h.tgt, h.n_objects)):
        row_p = rows.get(ia[p], EMPTY)
        for g in gs:
            xs, hg = h_after[g], ih[g]
            checked += len(xs)
            row_g = rows.get(hg, EMPTY)
            for x in xs:
                hx = ih[x]
                if row_p.get(row_g.get(hx)) != rows.get(row_p.get(hx), EMPTY).get(hg):
                    swapped_failures.append((p, g, x))
    report.data["AHH-swapped"] = {
        "checked": checked,
        "failures": len(swapped_failures),
        "first_witness": swapped_failures[0] if swapped_failures else None,
    }
    if swapped_failures:
        report.notes.append(
            f"AHH with swapped right-hand factors fails at {len(swapped_failures)}"
            f"/{checked} configurations, first witness "
            f"{swapped_failures[0]}"
        )
    else:
        report.notes.append(
            f"AHH with swapped right-hand factors holds at all "
            f"{checked} configurations"
        )
    return report


# ---------------------------------------------------------------------------
# canonical families
# ---------------------------------------------------------------------------


def mp_discrete_right(a: Quasigroupoid) -> MatchedPair:
    """(a, discrete groupoid on its base): the discrete side acts trivially,
    a acts back by recording sources.  Validates a (`check_quasigroupoid`)."""
    h = discrete_groupoid(_validated(a).n_objects)
    left = {x: {} for x in dict.fromkeys(a.tgt)}  # in order of first appearance
    right = {x: {} for x in left}
    for p, x in enumerate(a.tgt):
        left[x][p], right[x][p] = p, a.src[p]
    return MatchedPair(a, h, LeftAction(h, a, PairTable(left)), RightAction(h, a, PairTable(right)))


def mp_action_left(q: FiniteQuasigroup, n_points: int, psi) -> MatchedPair:
    """(discrete groupoid on the point set, action quasigroupoid of psi).  Validates psi."""
    h = from_quasigroup_action(q, n_points, psi)
    a = discrete_groupoid(n_points)
    left = {x: {h.src[x]: h.tgt[x]} for x in range(h.n_arrows)}
    right = {x: {h.src[x]: x} for x in range(h.n_arrows)}
    return MatchedPair(a, h, LeftAction(h, a, PairTable(left)), RightAction(h, a, PairTable(right)))


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
    report = StructureReport.of("matched pair morphism")
    if m.gamma.obj_map != m.omega.obj_map:
        report.fail("base-agree", (), "gamma and omega differ on objects")
    for name, sub in (("gamma", check_morphism(m.gamma)), ("omega", check_morphism(m.omega))):
        for v in sub.violations:
            report.fail(f"{name}-{v.axiom}", v.witness, v.detail)
    src, dst = m.source, m.target
    sides = (
        ("mp-left", src.phi_a, dst.phi_a, m.gamma.arrow_map),
        ("mp-right", src.phi_h, dst.phi_h, m.omega.arrow_map),
    )
    for (x, y) in mixed_pairs(src.h, src.a):
        fx, fy = m.omega.arrow_map[x], m.gamma.arrow_map[y]
        for tag, acted, image, f in sides:
            lhs, rhs = f[acted(x, y)], image(fx, fy)
            if rhs is None:
                report.fail(tag, (x, y), "image pair not in the target domain")
            elif lhs != rhs:
                report.fail(tag, (x, y), f"lhs={lhs} rhs={rhs}")
    return report


def compose_mp_morphisms(f: MpMorphism, g: MpMorphism) -> MpMorphism:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise StructureError("composition mismatch between matched pairs")
    return MpMorphism(
        g.source,
        f.target,
        compose_morphisms(f.gamma, g.gamma),
        compose_morphisms(f.omega, g.omega),
    )
