"""The weak-Hopf sweeps as they stood before they were restricted to the
supports of the structure constants, kept as the oracle for
`tests/test_sparse_sweeps.py`.

Each function evaluates every term of its law, zero or not: d2 over all n^3
triples, d1 over every pair of coproduct legs, d3 over every pair of legs of
delta(1), the projection formulas over every leg of delta(1) for every
basis vector, d4-4..d4-7 over every leg, and the one-sided laws by
multiplying out h(kl), k(hl) and k(lh) for every pair k, l.  They take the
per-basis coproduct splits where the library's sweeps take the support
index, and are otherwise the library's code from before that change.
"""

from nonassoc.hopf import MagmaCoalgebra
from nonassoc.linalg import LinearMap, vec_add_into, vec_equal
from nonassoc.reports import StructureReport


def _projection_formulas(d: MagmaCoalgebra):
    """The four unit-coproduct forms: target, source and their barred twins."""
    unit_split = [
        ((t // d.dim), (t % d.dim), c)
        for t, c in d.coproduct(d.unit).items()
    ]

    def col(h, probe_first, probe_times_h):
        # probe_first picks which leg of delta(1) multiplies against h (the
        # other leg survives); probe_times_h picks the side h sits on.
        out: dict = {}
        for (u, v, c) in unit_split:
            probe, keep = (u, v) if probe_first else (v, u)
            prod = d.mul_basis(probe, h) if probe_times_h else d.mul_basis(h, probe)
            vec_add_into(out, {keep: c}, d.eps_vec(prod))
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
            vec_add_into(left, d.mul_basis(u, k), c)
            vec_add_into(right, d.mul_basis(k, u), c)
        if not vec_equal(left, {k: 1}):
            report.fail("magma-unit", (k,), f"1*{d.name(k)} = {left}")
        if not vec_equal(right, {k: 1}):
            report.fail("magma-unit", (k,), f"{d.name(k)}*1 = {right}")
    for i in range(n):
        split = d.delta_split(i)
        lhs: dict = {}
        rhs: dict = {}
        for (j, k, c) in split:
            for (j1, j2, c1) in d.delta_split(j):
                vec_add_into(lhs, {(j1, j2, k): 1}, c * c1)
            for (k1, k2, c2) in d.delta_split(k):
                vec_add_into(rhs, {(j, k1, k2): 1}, c * c2)
        if not vec_equal(lhs, rhs):
            report.fail("coalg1", (i,), "coassociativity fails")
        left: dict = {}
        right: dict = {}
        for (j, k, c) in split:
            vec_add_into(left, {k: 1}, c * d.eps(j))
            vec_add_into(right, {j: 1}, c * d.eps(k))
        if not vec_equal(left, {i: 1}):
            report.fail("coalg2", (i,), f"eps(h1) h2 = {left}")
        if not vec_equal(right, {i: 1}):
            report.fail("coalg2", (i,), f"h1 eps(h2) = {right}")


def _law_d1(d: MagmaCoalgebra, report: StructureReport, splits) -> None:
    """(d1): delta of a product is the product of the deltas in D (x) D."""
    n = d.dim
    for h in range(n):
        for k in range(n):
            lhs = d.coproduct(d.mul_basis(h, k))
            rhs: dict = {}
            for (h1, h2, c) in splits[h]:
                for (k1, k2, c2) in splits[k]:
                    coeff = c * c2
                    for m1, a in d.mul_basis(h1, k1).items():
                        for m2, b2 in d.mul_basis(h2, k2).items():
                            vec_add_into(rhs, {m1 * n + m2: 1}, coeff * a * b2)
            if not vec_equal(lhs, rhs):
                report.fail("d1", (h, k), "delta(hk) != delta(h)delta(k)")


def _sweep_d2(d: MagmaCoalgebra, report: StructureReport, splits) -> None:
    """(d2): the four weak counit-of-triple-product expressions agree, as
    n^3 scalar checks."""
    n = d.dim
    em = [[d.eps_vec(d.mul_basis(i, j)) for j in range(n)] for i in range(n)]
    mul_cols = d.product.cols
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
    unit_split = [
        ((t // n), (t % n), c) for t, c in d.coproduct(d.unit).items()
    ]
    lhs3: dict = {}
    for (u, v, c) in unit_split:
        for (u1, u2, c1) in splits[u]:
            vec_add_into(lhs3, {(u1, u2, v): 1}, c * c1)
    mid_plain: dict = {}
    mid_twist: dict = {}
    for (u1, u2, c) in unit_split:
        for (v1, v2, c2) in unit_split:
            coeff = c * c2
            for m, a in d.mul_basis(u2, v1).items():
                vec_add_into(mid_plain, {(u1, m, v2): 1}, coeff * a)
            for m, a in d.mul_basis(v1, u2).items():
                vec_add_into(mid_twist, {(u1, m, v2): 1}, coeff * a)
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
                vec_add_into(
                    lhs44, d.mul_vec(d.antipode.cols[h1], d.mul_basis(h2, k)), c
                )
                vec_add_into(
                    lhs45, d.mul_vec(basis[h1], d.mul_vec(d.antipode.cols[h2], basis[k])), c
                )
            if not vec_equal(lhs44, d.mul_vec(pi_r.cols[h], basis[k])):
                report.fail("d4-4", (h, k), f"lhs={lhs44}")
            if not vec_equal(lhs45, d.mul_vec(pi_l.cols[h], basis[k])):
                report.fail("d4-5", (h, k), f"lhs={lhs45}")
            lhs46: dict = {}
            lhs47: dict = {}
            for (k1, k2, c) in splits[k]:
                vec_add_into(
                    lhs46, d.mul_vec(d.mul_basis(h, k1), d.antipode.cols[k2]), c
                )
                vec_add_into(
                    lhs47, d.mul_vec(d.mul_vec(basis[h], d.antipode.cols[k1]), basis[k2]), c
                )
            if not vec_equal(lhs46, d.mul_vec(basis[h], pi_l.cols[k])):
                report.fail("d4-6", (h, k), f"lhs={lhs46}")
            if not vec_equal(lhs47, d.mul_vec(basis[h], pi_r.cols[k])):
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
            hk = d.mul_vec(hvec, basis[k])
            kh = d.mul_vec(basis[k], hvec)
            for l in range(n):
                if not vec_equal(d.mul_vec(hk, basis[l]),
                                 d.mul_vec(hvec, d.mul_basis(k, l))):
                    report.fail(tag, (key, k, l), "(hk)l != h(kl)")
                if not vec_equal(d.mul_vec(basis[k], d.mul_vec(hvec, basis[l])),
                                 d.mul_vec(kh, basis[l])):
                    report.fail(tag, (key, k, l), "k(hl) != (kh)l")
                if not vec_equal(d.mul_vec(basis[k], d.mul_vec(basis[l], hvec)),
                                 d.mul_vec(d.mul_basis(k, l), hvec)):
                    report.fail(tag, (key, k, l), "k(lh) != (kl)h")
