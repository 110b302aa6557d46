"""Sweeps as they stood before two changes, kept as oracles.

The weak-Hopf sweeps, from before they were restricted to the supports of
the structure constants, are the oracle for `tests/test_sparse_sweeps.py`.
Each function evaluates every term of its law, zero or not: d2 over all n^3
triples, d1 over every pair of coproduct legs, d3 over every pair of legs of
delta(1), the projection formulas over every leg of delta(1) for every
basis vector, d4-4..d4-7 over every leg, and the one-sided laws by
multiplying out h(kl), k(hl) and k(lh) for every pair k, l, and antimult
for every pair h, g.  They take the per-basis coproduct splits where the
library's sweeps take the support index, and are otherwise the library's
code from before that change.  They multiply, compare, accumulate and map
vectors with `mul_vec`, `vec_equal`, `add_into` and `apply` below, which
visit every pair of terms and every index, not with the library's helpers
(`linalg.vec_add_into`, `LinearMap.__call__`) that the sweeps under test use.

The combinatorial checkers at the end (`check_quasigroupoid` with its own
`_check_shape`, which walks the product apart from the prod-domain sweep,
`derived_identity_suite`, `check_exact_factorization`, `check_left_action`,
`check_right_action`, `check_matched_pair`), from before they looked
products and actions up by row, are the oracle for
`tests/test_row_sweeps.py`.  They look every product and action value up
by a fresh pair key, and the mixed laws build each configuration list and
call a lambda per configuration; otherwise they are the library's code
from before that change.  `matched_pair_identity_suite`, the last sweep
ported to rows, is kept as it stood then: it builds each identity's
configuration list, through `_factor_index` for the third arrow of P-5,
P-6, P-9 and P-10, and calls a lambda per configuration.  These checkers
enumerate their fibered sets by filtering all arrows (`tests.conftest`
`ends_after`, `fibered_pairs`), not through the library's endpoint index,
and check an action table's keys themselves (`_check_domain`), so they also
run on an `UncheckedAction`, a table that no action constructor admitted.
"""

from dataclasses import dataclass

from nonassoc.factorizations import FactorizationCandidate, _require_identity_objects
from nonassoc.hopf import MagmaCoalgebra
from nonassoc.linalg import LinearMap
from nonassoc.matched_pairs import (
    MIXED_LAWS,
    LeftAction,
    MatchedPair,
    RightAction,
)
from nonassoc.quasigroupoids import (
    PairTable,
    Quasigroupoid,
    check_morphism,
)
from nonassoc.reports import StructureError, StructureReport
from tests.conftest import coproduct_map, ends_after, fibered_pairs, product_map


def add_into(acc: dict, vec: dict, coeff=1) -> None:
    """acc += coeff * vec, term by term; a sum that cancels to zero leaves
    no entry."""
    for i, c in vec.items():
        total = acc.get(i, 0) + coeff * c
        if total:
            acc[i] = total
        elif i in acc:
            del acc[i]


def apply(cols, vec: dict) -> dict:
    """The image of vec under the linear map with columns `cols`: the sum of
    c cols[j] over the terms c e_j of vec, in their order."""
    out: dict = {}
    for j, c in vec.items():
        add_into(out, cols[j], c)
    return out


def mul_vec(d: MagmaCoalgebra, u: dict, v: dict) -> dict:
    """uv, summed over every pair of terms of u and v, zero products too."""
    out: dict = {}
    for i, a in u.items():
        for j, b in v.items():
            add_into(out, d.mul_basis(i, j), a * b)
    return out


def vec_equal(u: dict, v: dict) -> bool:
    """Equal as vectors: each index of either has one coefficient in both,
    an index that is missing reading 0."""
    return all(u.get(i, 0) == v.get(i, 0) for i in u.keys() | v.keys())


def _projection_formulas(d: MagmaCoalgebra):
    """The four unit-coproduct forms: target, source and their barred twins."""
    unit_split = [
        ((t // d.dim), (t % d.dim), c)
        for t, c in apply(coproduct_map(d.coproduct, d.dim).cols, d.unit).items()
    ]

    def col(h, probe_first, probe_times_h):
        # probe_first picks which leg of delta(1) multiplies against h (the
        # other leg survives); probe_times_h picks the side h sits on.
        out: dict = {}
        for (u, v, c) in unit_split:
            probe, keep = (u, v) if probe_first else (v, u)
            prod = d.mul_basis(probe, h) if probe_times_h else d.mul_basis(h, probe)
            add_into(out, {keep: c}, d.eps_vec(prod))
        return out

    n = d.dim
    pi_l = LinearMap.from_basis(n, n, lambda h: col(h, True, True))    # eps(1(1) h) 1(2)
    pi_r = LinearMap.from_basis(n, n, lambda h: col(h, False, False))  # eps(h 1(2)) 1(1)
    bar_l = LinearMap.from_basis(n, n, lambda h: col(h, False, True))  # eps(1(2) h) 1(1)
    bar_r = LinearMap.from_basis(n, n, lambda h: col(h, True, False))  # eps(h 1(1)) 1(2)
    return pi_l, pi_r, bar_l, bar_r


def _check_preconditions(d: MagmaCoalgebra, report: StructureReport) -> None:
    n = d.dim
    for k in range(n):
        left: dict = {}
        right: dict = {}
        for u, c in d.unit.items():
            add_into(left, d.mul_basis(u, k), c)
            add_into(right, d.mul_basis(k, u), c)
        if not vec_equal(left, {k: 1}):
            report.fail("magma-unit", (k,), f"1*{d.name(k)} = {left}")
        if not vec_equal(right, {k: 1}):
            report.fail("magma-unit", (k,), f"{d.name(k)}*1 = {right}")
    for i in range(n):
        split = d.coproduct[i]
        lhs: dict = {}
        rhs: dict = {}
        for (j, k, c) in split:
            for (j1, j2, c1) in d.coproduct[j]:
                add_into(lhs, {(j1, j2, k): 1}, c * c1)
            for (k1, k2, c2) in d.coproduct[k]:
                add_into(rhs, {(j, k1, k2): 1}, c * c2)
        if not vec_equal(lhs, rhs):
            report.fail("coalg1", (i,), "coassociativity fails")
        left: dict = {}
        right: dict = {}
        for (j, k, c) in split:
            add_into(left, {k: 1}, c * d.eps(j))
            add_into(right, {j: 1}, c * d.eps(k))
        if not vec_equal(left, {i: 1}):
            report.fail("coalg2", (i,), f"eps(h1) h2 = {left}")
        if not vec_equal(right, {i: 1}):
            report.fail("coalg2", (i,), f"h1 eps(h2) = {right}")


def _law_d1(d: MagmaCoalgebra, report: StructureReport, splits) -> None:
    """(d1): delta of a product is the product of the deltas in D (x) D."""
    n = d.dim
    for h in range(n):
        for k in range(n):
            lhs = apply(coproduct_map(d.coproduct, n).cols, d.mul_basis(h, k))
            rhs: dict = {}
            for (h1, h2, c) in splits[h]:
                for (k1, k2, c2) in splits[k]:
                    coeff = c * c2
                    for m1, a in d.mul_basis(h1, k1).items():
                        for m2, b2 in d.mul_basis(h2, k2).items():
                            add_into(rhs, {m1 * n + m2: 1}, coeff * a * b2)
            if not vec_equal(lhs, rhs):
                report.fail("d1", (h, k), "delta(hk) != delta(h)delta(k)")


def _sweep_d2(d: MagmaCoalgebra, report: StructureReport, splits) -> None:
    """(d2): the four weak counit-of-triple-product expressions agree, as
    n^3 scalar checks."""
    n = d.dim
    em = [[d.eps_vec(d.mul_basis(i, j)) for j in range(n)] for i in range(n)]
    mul_cols = product_map(d.product, n).cols
    for h in range(n):
        em_h = em[h]
        for k in range(n):
            hk = mul_cols[h * n + k]
            split_k = splits[k]
            for l in range(n):
                e1 = 0
                for m, c in hk.items():
                    e1 = e1 + c * em[m][l]
                e2 = 0
                for m, c in mul_cols[k * n + l].items():
                    e2 = e2 + c * em_h[m]
                e3 = 0
                e4 = 0
                for (k1, k2, c) in split_k:
                    e3 = e3 + c * em_h[k1] * em[k2][l]
                    e4 = e4 + c * em_h[k2] * em[k1][l]
                if not (e1 == e2 and e1 == e3 and e1 == e4):
                    report.fail(
                        "d2", (h, k, l), f"values {e1},{e2},{e3},{e4}"
                    )


def _sweep_d3(d: MagmaCoalgebra, report: StructureReport, splits) -> None:
    """(d3): both weak coassociativity forms of delta(1)."""
    n = d.dim
    delta_unit = apply(coproduct_map(d.coproduct, n).cols, d.unit)
    unit_split = [((t // n), (t % n), c) for t, c in delta_unit.items()]
    lhs3: dict = {}
    for (u, v, c) in unit_split:
        for (u1, u2, c1) in splits[u]:
            add_into(lhs3, {(u1, u2, v): 1}, c * c1)
    mid_plain: dict = {}
    mid_twist: dict = {}
    for (u1, u2, c) in unit_split:
        for (v1, v2, c2) in unit_split:
            coeff = c * c2
            for m, a in d.mul_basis(u2, v1).items():
                add_into(mid_plain, {(u1, m, v2): 1}, coeff * a)
            for m, a in d.mul_basis(v1, u2).items():
                add_into(mid_twist, {(u1, m, v2): 1}, coeff * a)
    if not vec_equal(lhs3, mid_plain):
        report.fail("d3", ("plain",), "delta2(1) != (id x mu x id)(delta(1) x delta(1))")
    if not vec_equal(lhs3, mid_twist):
        report.fail("d3", ("twist",), "delta2(1) != (id x mu.c x id)(delta(1) x delta(1))")


def _sweep_d4_4_to_7(d: MagmaCoalgebra, report: StructureReport, splits, pi_l, pi_r) -> None:
    """(d4-4)..(d4-7): the antipode absorbed by the projections, on both
    sides, for every pair of basis vectors."""
    n = d.dim
    basis = [{i: 1} for i in range(n)]
    for h in range(n):
        split_h = splits[h]
        for k in range(n):
            lhs44: dict = {}
            lhs45: dict = {}
            for (h1, h2, c) in split_h:
                add_into(
                    lhs44, mul_vec(d, d.antipode.cols[h1], d.mul_basis(h2, k)), c
                )
                add_into(
                    lhs45, mul_vec(d, basis[h1], mul_vec(d, d.antipode.cols[h2], basis[k])), c
                )
            if not vec_equal(lhs44, mul_vec(d, pi_r.cols[h], basis[k])):
                report.fail("d4-4", (h, k), f"lhs={lhs44}")
            if not vec_equal(lhs45, mul_vec(d, pi_l.cols[h], basis[k])):
                report.fail("d4-5", (h, k), f"lhs={lhs45}")
            lhs46: dict = {}
            lhs47: dict = {}
            for (k1, k2, c) in splits[k]:
                add_into(
                    lhs46, mul_vec(d, d.mul_basis(h, k1), d.antipode.cols[k2]), c
                )
                add_into(
                    lhs47, mul_vec(d, mul_vec(d, basis[h], d.antipode.cols[k1]), basis[k2]), c
                )
            if not vec_equal(lhs46, mul_vec(d, basis[h], pi_l.cols[k])):
                report.fail("d4-6", (h, k), f"lhs={lhs46}")
            if not vec_equal(lhs47, mul_vec(d, basis[h], pi_r.cols[k])):
                report.fail("d4-7", (h, k), f"lhs={lhs47}")


def _sweep_one_sided(d: MagmaCoalgebra, report: StructureReport, tag: str, proj) -> None:
    """Every distinct nonzero value h of the projection associates with all
    basis pairs k, l in the three one-sided forms."""
    n = d.dim
    basis = [{i: 1} for i in range(n)]
    distinct = {tuple(sorted(col.items(), key=repr)): col for col in proj.cols if col}
    for key in sorted(distinct, key=repr):
        hvec = distinct[key]
        for k in range(n):
            hk = mul_vec(d, hvec, basis[k])
            kh = mul_vec(d, basis[k], hvec)
            for l in range(n):
                if not vec_equal(mul_vec(d, hk, basis[l]),
                                 mul_vec(d, hvec, d.mul_basis(k, l))):
                    report.fail(tag, (key, k, l), "(hk)l != h(kl)")
                if not vec_equal(mul_vec(d, basis[k], mul_vec(d, hvec, basis[l])),
                                 mul_vec(d, kh, basis[l])):
                    report.fail(tag, (key, k, l), "k(hl) != (kh)l")
                if not vec_equal(mul_vec(d, basis[k], mul_vec(d, basis[l], hvec)),
                                 mul_vec(d, d.mul_basis(k, l), hvec)):
                    report.fail(tag, (key, k, l), "k(lh) != (kl)h")


def _sweep_antimult(d: MagmaCoalgebra, report: StructureReport) -> None:
    """S(hg) = S(g)S(h) for every pair of basis vectors."""
    n = d.dim
    for h in range(n):
        for g in range(n):
            lhs = apply(d.antipode.cols, d.mul_basis(h, g))
            rhs = mul_vec(d, d.antipode.cols[g], d.antipode.cols[h])
            if not vec_equal(lhs, rhs):
                report.fail("antimult", (h, g), f"lhs={lhs} rhs={rhs}")


def _check_shape(q: Quasigroupoid) -> None:
    m, k = q.n_objects, q.n_arrows
    if m < 1:
        raise StructureError("empty base")
    if len(q.tgt) != k or len(q.inv) != k or len(q.unit) != m:
        raise StructureError("map lengths inconsistent with arrow/object counts")
    for name, seq, bound in (
        ("src", q.src, m),
        ("tgt", q.tgt, m),
        ("unit", q.unit, k),
        ("inv", q.inv, k),
    ):
        for i, val in enumerate(seq):
            if not isinstance(val, int) or not 0 <= val < bound:
                raise StructureError(f"{name}[{i}] = {val!r} out of range")
    for key, val in q.prod.items():
        if (
            not isinstance(key[0], int)
            or not 0 <= key[0] < k
            or not isinstance(key[1], int)
            or not 0 <= key[1] < k
            or not isinstance(val, int)
            or not 0 <= val < k
        ):
            raise StructureError(f"product entry {key} -> {val!r} out of range")


def check_quasigroupoid(q: Quasigroupoid) -> StructureReport:
    """Exhaustive verification of the quasigroupoid axioms.

    Tags: `prod-domain` (product defined off the composable set, or missing
    on it), `a1` (identity arrows are endo), `a2-1` (unit laws), `a2-2`
    (source/target of products), `a2-3` (left/right cancellation through the
    inverse map, including the composability of the cancelled pairs).
    """
    _check_shape(q)
    report = StructureReport(
        "quasigroupoid", axioms=("prod-domain", "a1", "a2-1", "a2-2", "a2-3")
    )
    src, tgt, unit, inv, prod = q.src, q.tgt, q.unit, q.inv, q.prod
    for (a, b) in prod:
        if src[a] != tgt[b]:
            report.fail("prod-domain", (a, b), "product defined on non-composable pair")
    after = ends_after(src, tgt)
    for a, bs in enumerate(after):
        for b in bs:
            if (a, b) not in prod:
                report.fail("prod-domain", (a, b), "product missing on composable pair")

    for x in range(q.n_objects):
        e = unit[x]
        if src[e] != x or tgt[e] != x:
            report.fail("a1", (x,), f"src/tgt of identity arrow = {src[e]},{tgt[e]}")

    for a in range(q.n_arrows):
        left = prod.get((unit[tgt[a]], a))
        if left != a:
            report.fail("a2-1", (a,), f"id(tgt)*a = {left}")
        right = prod.get((a, unit[src[a]]))
        if right != a:
            report.fail("a2-1", (a,), f"a*id(src) = {right}")

    for a, bs in enumerate(after):
        la = inv[a]
        for b in bs:
            c = prod.get((a, b))
            if c is None:
                continue  # already reported under prod-domain
            if src[c] != src[b] or tgt[c] != tgt[a]:
                report.fail("a2-2", (a, b), f"src/tgt of product = {src[c]},{tgt[c]}")
            if src[la] != tgt[c]:
                report.fail("a2-3", (a, b), "(inv(a), a*b) not composable")
            elif prod.get((la, c)) != b:
                report.fail("a2-3", (a, b), f"inv(a)*(a*b) = {prod.get((la, c))}")
            lb = inv[b]
            if src[c] != tgt[lb]:
                report.fail("a2-3", (a, b), "(a*b, inv(b)) not composable")
            elif prod.get((c, lb)) != a:
                report.fail("a2-3", (a, b), f"(a*b)*inv(b) = {prod.get((c, lb))}")
    return report


def derived_identity_suite(q: Quasigroupoid) -> StructureReport:
    """Re-prove, at finite scale, the six identities that follow from the
    axioms: endpoints of inverses, cancellation to identity arrows,
    involutivity, and antimultiplicativity of the inverse map.

    Must pass on anything that passes `check_quasigroupoid`; a violation
    here indicates a checker bug, not a bad input.
    """
    report = StructureReport(
        "quasigroupoid derived identities",
        axioms=("E-1", "E-2", "E-3", "E-4", "E-5", "E-6"),
    )
    for a in range(q.n_arrows):
        la = q.inv[a]
        if q.src[la] != q.tgt[a]:
            report.fail("E-1", (a,))
        if q.tgt[la] != q.src[a]:
            report.fail("E-2", (a,))
        if q.compose(la, a) != q.unit[q.src[a]]:
            report.fail("E-3", (a,))
        if q.compose(a, la) != q.unit[q.tgt[a]]:
            report.fail("E-4", (a,))
        if q.inv[la] != a:
            report.fail("E-5", (a,))
    inv, prod = q.inv, q.prod
    for a, b in fibered_pairs(q, q):
        c = prod.get((a, b))
        if c is not None and inv[c] != prod.get((inv[b], inv[a])):
            report.fail("E-6", (a, b))
    return report


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

    ha = fibered_pairs(h, a)
    ah = fibered_pairs(a, h)
    aa = fibered_pairs(a, a)
    hh = fibered_pairs(h, h)
    # x_y[i] lists the arrows j of the second structure with src(i) = tgt(j),
    # so each law's triples are a join of its two fibered pairs on the middle
    a_a = ends_after(a.src, a.tgt)
    a_h = ends_after(a.src, h.tgt)
    h_a = ends_after(h.src, a.tgt)
    h_h = ends_after(h.src, h.tgt)

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


@dataclass(frozen=True)
class UncheckedAction:
    """An action table as the checkers below read a `LeftAction` or a
    `RightAction`, but one that no constructor has admitted."""

    h: Quasigroupoid
    a: Quasigroupoid
    table: PairTable


def mixed_pairs(left: Quasigroupoid, right: Quasigroupoid) -> list:
    """The fibered pairs of two structures over one base, by the filter."""
    if left.n_objects != right.n_objects:
        raise StructureError("base mismatch: structures have different object sets")
    return fibered_pairs(left, right)


def _check_domain(table, h: Quasigroupoid, a: Quasigroupoid, kind: str) -> None:
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
    before = ends_after(h.tgt, h.src)
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
    after = ends_after(a.src, a.tgt)
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
    report = StructureReport("matched pair", ("c1", "c2", "c3", "d1", "d2", "d3", "e1", "e2", "e3"))
    report.violations += check_left_action(mp.left).violations
    report.violations += check_right_action(mp.right).violations
    a, h = mp.a, mp.h
    pairs = mixed_pairs(h, a)
    for (x, y) in pairs:
        pa, ph = mp.phi_a(x, y), mp.phi_h(x, y)
        if a.src[pa] != h.tgt[ph]:
            report.fail("e1", (x, y), f"src phiA={a.src[pa]} tgt phiH={h.tgt[ph]}")
    a_after = ends_after(a.src, a.tgt)
    h_before = ends_after(h.tgt, h.src)
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
