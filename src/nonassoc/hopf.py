"""Weak Hopf quasigroups as finite-dimensional structure-constant data.

A candidate is a unital magma plus a coalgebra on one basis, together with
an antipode; `check_whq` sweeps the weak compatibility axioms d1-d3 and the
seven antipode laws d4-1..d4-7 as exact linear-map equalities, verified
basis vector by basis vector (complete by linearity: no sampling, no
tolerance).

Each law has one reference sweep, and each sweep visits only the terms
that can be nonzero.  The product is stored as the rows of its nonzero
values (a `quasigroupoids.PairTable`, rows[h][k] = hk, with no entry where
hk = 0), and a `MagmaCoalgebra` keeps, as cached fields built on first use,
the stored products by right factor and the legs of each delta(k) and of
delta(1) by leg.  d2 tabulates the nonzero counits of products eps(hk) by
row and then evaluates only the triples that some nonzero term reaches,
instead of all n^3; d1 and d3 join coproduct legs on stored products.
Dropping a term with a zero factor never changes a value, so the
restriction uses no property of valid structures, and witness order and
detail strings are those of a sweep over every term.  The projections,
the kernel's tables and its index of products by value are cached fields
too, so `check_whq`, `derived_property_suite` and `check_whq_morphism` on
one structure build each of them once.

Most inputs of interest are group-like on their basis (delta(i) = i (x) i,
eps = 1, basis products are basis vectors or zero): every quasigroupoid
magma, hence every double cross product.  On those `_group_like` reads
the stored products once per structure as integer rows, transposed into
columns only when a law of the structure first reads them, and a
kernel decides d1, d2 and d4-4..d4-7 (and the derived antimult and
one-sided associativity laws) exactly, comparing these partial maps and
their composites, so it never visits a pair whose product is zero.
It decides morphisms too: for an f that sends each basis vector to one
basis vector with coefficient 1 between two group-like structures, the
coalgebra-morphism laws hold by that detection, and mkl4 compares
(h, k) -> f(hk) with (h, k) -> f(h)f(PiR(h)k) over the stored products,
so `verify_canonical_iso` forms no column of nabla on valid input.
The kernel only ever concludes that a law holds; when it finds a failing
instance, the law's reference sweep runs and writes the violations, so
reports are the same with or without it.  Coalgebras that are not
group-like (K^G, Sweedler's algebra) always take the reference sweeps.

The group-like construction `magma_of_quasigroupoid` is the workhorse
example: its product rows are those of the quasigroupoid, and products of
non-composable arrows are zero, so they have no entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    LinearMap,
    convolution,
    free_coalgebra,
    span_equal,
    vec_add_into,
    vec_canonical,
    vec_equal,
    vec_tensor,
)
from .quasigroupoids import EMPTY, PairTable, QgpdMorphism, Quasigroupoid, check_morphism, transposed_rows
from .reports import (
    DimensionMismatch,
    InvalidStructureError,
    StructureError,
    StructureReport,
)


@dataclass(frozen=True, eq=False)
class MagmaCoalgebra:
    """A unital magma and a coalgebra on one basis, with an antipode.

    No code changes a stored column or row after construction: a structure
    with other maps is a new instance (`dataclasses.replace`).  So what is
    derived from the maps is built on first use and kept on the instance,
    as the cached fields below, and every checker run on one structure
    reads the same objects; their readers, `projections`' callers among
    them, never change them either.
    """

    dim: int
    unit: dict  # the image of 1 under the unit map
    product: PairTable  # rows[h][k] = hk where nonzero; an n^2 -> n LinearMap is converted
    counit: LinearMap  # n -> 1
    coproduct: LinearMap  # n -> n^2
    antipode: LinearMap  # n -> n
    basis_names: tuple[str, ...] | None = None

    def __post_init__(self):
        n, product = self.dim, self.product
        if isinstance(product, LinearMap):
            if (product.dom, product.cod) != (n * n, n):
                raise DimensionMismatch("structure maps inconsistent with dimension")
            cols = map(vec_canonical, product.cols)
            product = PairTable.from_triples((t // n, t % n, v) for t, v in enumerate(cols) if v)
        object.__setattr__(self, "product", product)
        shapes = [(m.dom, m.cod) for m in (self.counit, self.coproduct, self.antipode)]
        if shapes != [(n, 1), (n, n * n), (n, n)]:
            raise DimensionMismatch("structure maps inconsistent with dimension")
        used = set(self.product.rows)  # every index a stored product uses
        for row in self.product.rows.values():
            used.update(row, *row.values())
        if not all(0 <= i < n for i in used):
            raise DimensionMismatch("product index out of range")
        for i in self.unit:
            if not 0 <= i < n:
                raise DimensionMismatch("unit vector index out of range")

    # --- basis-level access -------------------------------------------------

    def mul_basis(self, i: int, j: int):
        return self.product.rows.get(i, EMPTY).get(j, EMPTY)

    def mul_vec(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                vec_add_into(out, self.mul_basis(i, j), a * b)
        return out

    def delta_split(self, i: int) -> list[tuple[int, int, object]]:
        n = self.dim
        return [(t // n, t % n, c) for t, c in self.coproduct.cols[i].items()]

    def eps(self, i: int):
        return self.counit.cols[i].get(0, 0)

    def eps_vec(self, v: dict):
        total = 0
        for i, c in v.items():
            total = total + c * self.eps(i)
        return total

    def name(self, i: int) -> str:
        return self.basis_names[i] if self.basis_names else str(i)

    # --- supports of the structure constants ----------------------------------
    # A sweep that visits only these entries drops exactly the terms that
    # have a zero factor, so it reaches the values of a sweep over every term.

    @cached_property
    def splits(self) -> list:
        """splits[i] is delta(i) as (first leg, second leg, c)."""
        return [self.delta_split(i) for i in range(self.dim)]

    @cached_property
    def unit_split(self) -> list:
        """delta(1) as (first leg, second leg, c)."""
        n = self.dim
        return [(t // n, t % n, c) for t, c in self.coproduct(self.unit).items()]

    @cached_property
    def unit_legs(self):
        """(first, second): first[u] and second[v] list the positions in
        unit_split of the legs u (x) v."""
        first: list = [[] for _ in range(self.dim)]
        second: list = [[] for _ in range(self.dim)]
        for pos, (u, v, _) in enumerate(self.unit_split):
            first[u].append(pos)
            second[v].append(pos)
        return first, second

    @cached_property
    def columns(self) -> dict:
        """columns[k][h] = hk: the stored products by right factor."""
        rows = self.product.rows
        return transposed_rows(rows, rows)

    @cached_property
    def legs(self):
        """(by_first, by_second): by_first[x] lists (i, y, c) for each leg
        x (x) y of delta(i) with c != 0, and by_second[y] lists (i, x, c)
        for the same legs."""
        by_first: list = [[] for _ in range(self.dim)]
        by_second: list = [[] for _ in range(self.dim)]
        for i, split in enumerate(self.splits):
            for x, y, c in split:
                if c:
                    by_first[x].append((i, y, c))
                    by_second[y].append((i, x, c))
        return by_first, by_second

    # --- projections and the group-like tables ---------------------------------

    @cached_property
    def convolution_projections(self):
        """(PiL, PiR) as convolutions with the antipode."""
        return _convolution_projections(self)

    @cached_property
    def projection_formulas(self):
        """(PiL, PiR, barred PiL, barred PiR) from the unit-coproduct forms."""
        return _projection_formulas(self)

    @cached_property
    def group_like(self):
        """The kernel's tables (prod, anti), or None if not group-like."""
        return _group_like(self)

    @cached_property
    def group_like_cols(self) -> dict:
        """cols[k][h] = prod[h][k]: the kernel's products by right factor,
        which the laws of a structure read and a morphism's do not."""
        prod = self.group_like[0]
        return transposed_rows(prod, prod)

    @cached_property
    def by_value(self) -> dict:
        """by_value[m] lists the (k, l) with kl = m, from the group-like
        tables, for the one-sided associativity laws of the kernel."""
        out: dict = {}
        for k, row in self.group_like[0].items():
            for l, m in row.items():
                out.setdefault(m, []).append((k, l))
        return out

    def __eq__(self, other):
        if not isinstance(other, MagmaCoalgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and vec_equal(self.unit, other.unit)
            and self.product == other.product
            and self.counit == other.counit
            and self.coproduct == other.coproduct
            and self.antipode == other.antipode
        )


def magma_of_quasigroupoid(b: Quasigroupoid) -> MagmaCoalgebra:
    """Free vector space on the arrows: composable products, zero otherwise;
    group-like coproduct, counit 1 on arrows, antipode from the inverse map,
    unit the sum of the identity arrows."""
    n = b.n_arrows
    basis = [{v: 1} for v in range(n)]  # shared: no code changes a stored vector
    product = PairTable({x: {y: basis[v] for y, v in row.items()} for x, row in b.prod.rows.items()})
    delta, counit = free_coalgebra(n)
    antipode = LinearMap.from_basis(n, n, lambda i: b.inv[i])
    unit = {b.unit[x]: 1 for x in range(b.n_objects)}
    names = tuple(b.arrow_name(i) for i in range(n))
    return MagmaCoalgebra(n, unit, product, counit, delta, antipode, names)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def _projection_formulas(d: MagmaCoalgebra):
    """The four unit-coproduct forms: target, source and their barred twins.

    A leg of delta(1) adds to the column of h only where the counit of the
    product of its probe leg with h is nonzero, so counits are taken only
    of the stored products of probe legs, and each column visits its legs
    in their order in delta(1)."""
    n, unit_split, (unit_first, unit_second) = d.dim, d.unit_split, d.unit_legs

    def form(probe_first, probe_times_h):
        # probe_first picks which leg of delta(1) multiplies against h (the
        # other leg survives); probe_times_h picks the side h sits on.
        by_probe = unit_first if probe_first else unit_second
        products = d.product.rows if probe_times_h else d.columns  # products[p][h] = ph or hp
        reached: list = [[] for _ in range(n)]  # h -> (position, counit of the product)
        for p in range(n):
            if by_probe[p]:
                for h, vec in products.get(p, EMPTY).items():
                    e = d.eps_vec(vec)
                    if e:
                        reached[h] += [(pos, e) for pos in by_probe[p]]
        out = []
        for legs in reached:
            col: dict = {}
            for pos, e in sorted(legs, key=lambda leg: leg[0]):
                u, v, c = unit_split[pos]
                vec_add_into(col, {v if probe_first else u: c}, e)
            out.append(col)
        return LinearMap.from_cols(n, n, out)

    pi_l = form(True, True)  # eps(1(1) h) 1(2)
    pi_r = form(False, False)  # eps(h 1(2)) 1(1)
    bar_l = form(False, True)  # eps(1(2) h) 1(1)
    bar_r = form(True, False)  # eps(h 1(1)) 1(2)
    return pi_l, pi_r, bar_l, bar_r


def _convolution_projections(d: MagmaCoalgebra):
    ident = LinearMap.identity(d.dim)
    pi_l = convolution(ident, d.antipode, d.coproduct, d.product)
    pi_r = convolution(d.antipode, ident, d.coproduct, d.product)
    return pi_l, pi_r


def projections(d: MagmaCoalgebra):
    """(target, source, barred target, barred source) projections.

    Target and source are computed both as convolutions with the antipode
    and from the unit-coproduct formulas; the two computations must agree
    (that is exactly axioms d4-1 and d4-2), otherwise the input is not a
    weak Hopf quasigroup and a StructureError is raised.
    """
    pi_l, pi_r = d.convolution_projections
    form_l, form_r, bar_l, bar_r = d.projection_formulas
    if pi_l != form_l or pi_r != form_r:
        raise StructureError("projection formulas disagree: not a weak Hopf quasigroup")
    return pi_l, pi_r, bar_l, bar_r


# ---------------------------------------------------------------------------
# the group-like kernel
# ---------------------------------------------------------------------------


def _group_like(d: MagmaCoalgebra):
    """The kernel's tables (prod, anti) when d is group-like, else None.

    Group-like means delta(i) = i (x) i, eps(i) = 1, the antipode sends each
    basis vector to a basis vector, and each basis product is a basis
    vector or zero, every coefficient being exactly 1 (so int, Fraction and
    GF(p) scalars all qualify).  prod[h][k] is the index of hk, stored only
    where hk is nonzero; anti[i] is the index of S(i).
    """
    n, rows = d.dim, d.product.rows
    if any(col != {i * n + i: 1} for i, col in enumerate(d.coproduct.cols)):
        return None
    if any(col != {0: 1} for col in d.counit.cols):
        return None
    anti = _basis_indices(d.antipode.cols)
    values = _basis_indices(vec for row in rows.values() for vec in row.values())
    if anti is None or values is None:
        return None
    values = iter(values)
    return {h: {k: next(values) for k in row} for h, row in rows.items()}, anti


def _basis_indices(vecs):
    """[j for each vector of vecs, in order] when each of them is one basis
    vector j with coefficient exactly 1, else None."""
    out = []
    for vec in vecs:
        if len(vec) != 1:
            return None
        for j, c in vec.items():
            if c != 1:
                return None
            out.append(j)
    return out


def _after(a: dict, b: dict) -> dict:
    """a after b, as partial maps: y -> a[b[y]] wherever both are defined."""
    return {y: a[x] for y, x in b.items() if x in a}


def _d2_holds(d: MagmaCoalgebra) -> bool:
    """(d2) on a group-like basis, where every counit value of a product is
    1 if the product is defined and 0 otherwise: for all h, k, l,
    [(hk)l defined] = [h(kl) defined] = [hk defined][kl defined].

    Where hk = z is defined this says that zl and kl are defined for the
    same l, and where kl = z is defined that hz and hk are defined for the
    same h; elsewhere every side is 0.  So d2 holds exactly when each stored
    product xy = z has the row keys of y and the column keys of x, compared
    as numbers naming the key sets (None for the empty set)."""
    prod, cols = d.group_like[0], d.group_like_cols
    names: dict = {frozenset(): None}
    row_keys, col_keys = (
        {x: names.setdefault(frozenset(row), len(names)) for x, row in table.items()}
        for table in (prod, cols)
    )
    return all(
        row_keys.get(z) == row_keys.get(y) and col_keys.get(z) == col_keys.get(x)
        for x, row in prod.items()
        for y, z in row.items()
    )


def _d4_4_to_7_hold(d: MagmaCoalgebra) -> bool:
    """d4-4..d4-7 on a group-like basis, with PiL(h) = h S(h) and
    PiR(h) = S(h) h, for all k:  S(h)(hk) = PiR(h)k,  h(S(h)k) = PiL(h)k,
    (hk)S(k) = h PiL(k)  and  (hS(k))k = h PiR(k).  The first two compare
    composites of rows; over the columns, as right multiplications compose,
    the same comparisons are the last two."""
    (prod, anti), cols = d.group_like, d.group_like_cols
    for table in (prod, cols):
        for h, s in enumerate(anti):
            row_h, row_s = table.get(h, EMPTY), table.get(s, EMPTY)
            if (
                _after(row_s, row_h) != table.get(row_s.get(h), EMPTY)
                or _after(row_h, row_s) != table.get(row_h.get(s), EMPTY)
            ):
                return False
    return True


def _antimult_holds(d: MagmaCoalgebra) -> bool:
    """S(hg) = S(g)S(h) on a group-like basis (S sends zero to zero): for
    each h, the row of h sent through S against the column of S(h) read
    through the fibres of S."""
    (prod, anti), cols = d.group_like, d.group_like_cols
    fibres: dict = {}
    for g, s in enumerate(anti):
        fibres.setdefault(s, []).append(g)
    return all(
        {g: anti[v] for g, v in prod.get(h, EMPTY).items()}
        == {g: v for x, v in cols.get(s, EMPTY).items() for g in fibres.get(x, ())}
        for h, s in enumerate(anti)
    )


# the one-sided associativity laws, by the index of their projection in
# d.convolution_projections: the image of PiL, then of PiR
_ONE_SIDED = {"target-assoc": 0, "source-assoc": 1}


def _one_sided_holds(d: MagmaCoalgebra, tag: str) -> bool:
    """For every basis vector h in the image of the tag's projection and all
    k, l: (hk)l = h(kl), k(hl) = (kh)l and k(lh) = (kl)h, on a group-like
    basis (where each nonzero column of a projection is one basis vector).
    Each side is the dict (k, l) -> its value, where it is defined."""
    prod, cols = d.group_like[0], d.group_like_cols
    by_value = d.by_value

    def then(first, table, flip=False):  # (x, y) -> table[first[x]][y], keyed (y, x) with flip
        return {
            (y, x) if flip else (x, y): v
            for x, m in first.items()
            for y, v in table.get(m, EMPTY).items()
        }

    def around(first):  # (k, l) -> first[kl]
        return {kl: v for m, v in first.items() for kl in by_value.get(m, ())}

    for h in {min(col) for col in d.convolution_projections[_ONE_SIDED[tag]].cols if col}:
        row_h, col_h = prod.get(h, EMPTY), cols.get(h, EMPTY)
        if (
            then(row_h, prod) != around(row_h)  # (hk)l = h(kl)
            or then(row_h, cols, flip=True) != then(col_h, prod)  # k(hl) = (kh)l
            or then(col_h, cols, flip=True) != around(col_h)  # k(lh) = (kl)h
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# the axiom sweep
# ---------------------------------------------------------------------------


def _add_at(acc: dict, key, value) -> None:
    """acc[key] += value, storing value itself under a new key.  Entries may
    cancel to zero; the sweeps prune them before comparing."""
    old = acc.get(key)
    acc[key] = value if old is None else old + value


def _check_preconditions(d: MagmaCoalgebra, report: StructureReport) -> None:
    # 1k and k1 for each k, from the stored products uk and ku of the unit
    # terms c u, added in their order in d.unit, as a sweep over every term
    n, lefts, rights = d.dim, {}, {}
    for u, c in d.unit.items():
        for products, out in ((d.product.rows, lefts), (d.columns, rights)):
            for k, vec in products.get(u, EMPTY).items():
                vec_add_into(out.setdefault(k, {}), vec, c)
    for k in range(n):
        left, right = lefts.get(k, {}), rights.get(k, {})
        if not vec_equal(left, {k: 1}):
            report.fail("magma-unit", (k,), f"1*{d.name(k)} = {left}")
        if not vec_equal(right, {k: 1}):
            report.fail("magma-unit", (k,), f"{d.name(k)}*1 = {right}")
    splits = d.splits
    for i in range(n):
        split = splits[i]
        # (delta x id) delta(i) and (id x delta) delta(i), keyed (j1 n + j2) n + j3
        lhs: dict = {}
        rhs: dict = {}
        for (j, k, c) in split:
            for (j1, j2, c1) in splits[j]:
                _add_at(lhs, (j1 * n + j2) * n + k, c * c1)
            for (k1, k2, c2) in splits[k]:
                _add_at(rhs, (j * n + k1) * n + k2, c * c2)
        if not vec_equal(vec_canonical(lhs), vec_canonical(rhs)):
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


def _law_d1(d: MagmaCoalgebra, report: StructureReport) -> None:
    """(d1): delta of a product is the product of the deltas in D (x) D.

    Holds on every group-like structure, where delta(hk) = hk (x) hk =
    delta(h)delta(k), so callers sweep it on every other input.  For each h
    it joins the legs h1 (x) h2 of delta(h) with the legs k1 (x) k2 of
    every delta(k) on the stored products h1k1 and h2k2."""
    n, rows, (by_first, _) = d.dim, d.product.rows, d.legs
    for h in range(n):
        rhs: list = [{} for _ in range(n)]  # rhs[k] = delta(h)delta(k), keyed m1 n + m2
        for (h1, h2, c) in d.splits[h]:
            row_h2 = rows.get(h2, EMPTY)
            for k1, first in rows.get(h1, EMPTY).items():
                for (k, k2, c2) in by_first[k1]:
                    second = row_h2.get(k2)
                    if second is None:
                        continue
                    acc, coeff = rhs[k], c * c2
                    for m1, a in first.items():
                        for m2, b2 in second.items():
                            _add_at(acc, m1 * n + m2, coeff * a * b2)
        for k in range(n):
            if not vec_equal(d.coproduct(d.mul_basis(h, k)), vec_canonical(rhs[k])):
                report.fail("d1", (h, k), "delta(hk) != delta(h)delta(k)")


def _sweep_d2(d: MagmaCoalgebra, report: StructureReport) -> None:
    """(d2): the four weak counit-of-triple-product expressions

        e1 = eps((hk)l),  e2 = eps(h(kl)),
        e3 = sum eps(h k1) eps(k2 l),  e4 = sum eps(h k2) eps(k1 l)

    agree.  A triple can fail only if one of the four sums has a term with
    no zero factor, so for each h only the (k, l) reached by such a term
    are evaluated, in increasing order, each from all of its stored terms.
    The l of each k are collected as a bitset."""
    n, rows, splits, (by_first, by_second) = d.dim, d.product.rows, d.splits, d.legs
    em = [[0] * n for _ in range(n)]  # em[h][k] = eps(hk), the int 0 where hk = 0
    em_rows: list = [[] for _ in range(n)]  # em_rows[h]: the k with eps(hk) != 0
    prod_rows: list = [[] for _ in range(n)]  # prod_rows[m]: the (k, l) with kl_m != 0
    for (h, k), col in d.product.items():
        em[h][k] = value = d.eps_vec(col)
        if value:
            em_rows[h].append(k)
        for m, c in col.items():
            if c:
                prod_rows[m].append((h, k))
    row_bits = [sum(1 << l for l in row) for row in em_rows]
    for h in range(n):
        row_h = rows.get(h, EMPTY)
        reach: dict = {}  # k -> bitset of the l to evaluate
        for k, hk in row_h.items():  # e1: (hk)_m eps(ml)
            for m, c in hk.items():
                if c:
                    reach[k] = reach.get(k, 0) | row_bits[m]
        for m in em_rows[h]:  # e2: eps(hm) (kl)_m
            for k, l in prod_rows[m]:
                reach[k] = reach.get(k, 0) | 1 << l
        for x in em_rows[h]:  # e3 and e4: eps(hx) eps(yl) over legs of delta(k)
            for k, y, _ in by_first[x]:
                reach[k] = reach.get(k, 0) | row_bits[y]
            for k, y, _ in by_second[x]:
                reach[k] = reach.get(k, 0) | row_bits[y]
        em_h = em[h]
        for k in sorted(reach):
            hk, row_k = row_h.get(k, EMPTY), rows.get(k, EMPTY)
            split_k = splits[k]
            bits = reach[k]
            while bits:
                low = bits & -bits
                bits ^= low
                l = low.bit_length() - 1
                e1 = 0
                for m, c in hk.items():
                    e1 = e1 + c * em[m][l]
                e2 = 0
                for m, c in row_k.get(l, EMPTY).items():
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


def _sweep_d3(d: MagmaCoalgebra, report: StructureReport) -> None:
    """(d3): both weak coassociativity forms of delta(1):

        (delta x id) delta(1) = sum u1 (x) u2 v1 (x) v2 = sum u1 (x) v1 u2 (x) v2

    over the pairs of legs u1 (x) u2 and v1 (x) v2 of delta(1).  The inner
    sums over v1 (x) v2 are formed once per u2, joining the legs of delta(1)
    on the stored products u2 v1 and v1 u2.  Tensors are keyed
    (a n + b) n + c."""
    n, unit_split, unit_first = d.dim, d.unit_split, d.unit_legs[0]
    lhs3: dict = {}
    for (u, v, c) in unit_split:
        for (u1, u2, c1) in d.splits[u]:
            _add_at(lhs3, (u1 * n + u2) * n + v, c * c1)

    def inner(products) -> dict:
        out: dict = {}  # keyed m n + v2
        for v1, col in products.items():
            col = col.items()
            for pos in unit_first[v1]:
                _, v2, c2 = unit_split[pos]
                for m, a in col:
                    _add_at(out, m * n + v2, c2 * a)
        return out

    inners = {
        u2: (
            inner(d.product.rows.get(u2, EMPTY)),  # sum (u2 v1) (x) v2
            inner(d.columns.get(u2, EMPTY)),  # sum (v1 u2) (x) v2
        )
        for u2 in dict.fromkeys(u2 for _, u2, _ in unit_split)
    }
    mid_plain: dict = {}
    mid_twist: dict = {}
    for (u1, u2, c) in unit_split:
        base = u1 * n * n
        for mid, part in zip((mid_plain, mid_twist), inners[u2]):
            for key, a in part.items():
                _add_at(mid, base + key, c * a)
    lhs3 = vec_canonical(lhs3)
    if not vec_equal(lhs3, vec_canonical(mid_plain)):
        report.fail("d3", ("plain",), "delta2(1) != (id x mu x id)(delta(1) x delta(1))")
    if not vec_equal(lhs3, vec_canonical(mid_twist)):
        report.fail("d3", ("twist",), "delta2(1) != (id x mu.c x id)(delta(1) x delta(1))")


def _sweep_d4_1_2(d: MagmaCoalgebra, report: StructureReport) -> None:
    """(d4-1), (d4-2): the convolution projections equal their unit-coproduct
    formulas."""
    (pi_l, pi_r), (form_l, form_r, _, _) = d.convolution_projections, d.projection_formulas
    for h in range(d.dim):
        if not vec_equal(pi_l.cols[h], form_l.cols[h]):
            report.fail("d4-1", (h,), f"conv={pi_l.cols[h]} formula={form_l.cols[h]}")
        if not vec_equal(pi_r.cols[h], form_r.cols[h]):
            report.fail("d4-2", (h,), f"conv={pi_r.cols[h]} formula={form_r.cols[h]}")


def _sweep_d4_3(d: MagmaCoalgebra, report: StructureReport) -> None:
    """(d4-3): lambda * PiL = lambda = PiR * lambda."""
    pi_l, pi_r = d.convolution_projections
    conv_left = convolution(d.antipode, pi_l, d.coproduct, d.product)
    conv_right = convolution(pi_r, d.antipode, d.coproduct, d.product)
    for h in range(d.dim):
        if not vec_equal(conv_left.cols[h], d.antipode.cols[h]):
            report.fail("d4-3", (h,), "lambda * PiL != lambda")
        if not vec_equal(conv_right.cols[h], d.antipode.cols[h]):
            report.fail("d4-3", (h,), "PiR * lambda != lambda")


def _sweep_d4_4_to_7(d: MagmaCoalgebra, report: StructureReport) -> None:
    """(d4-4)..(d4-7): the antipode absorbed by the projections, on both
    sides, for every pair of basis vectors.

    A leg of delta(h) or delta(k) whose inner product (h2 k, S(h2) k, h k1
    or h S(k1)) is zero adds nothing, so only the other legs are multiplied
    out, in their order; S(x)y and xS(y) are formed once per pair."""
    n, splits, (pi_l, pi_r) = d.dim, d.splits, d.convolution_projections
    basis = [{i: 1} for i in range(n)]
    anti, mul = d.antipode.cols, d.mul_basis
    s_times = [[d.mul_vec(anti[x], basis[y]) for y in range(n)] for x in range(n)]
    times_s = [[d.mul_vec(basis[x], anti[y]) for y in range(n)] for x in range(n)]
    for h in range(n):
        split_h = splits[h]
        for k in range(n):
            lhs44: dict = {}
            lhs45: dict = {}
            for (h1, h2, c) in split_h:
                h2k = mul(h2, k)
                if h2k:
                    vec_add_into(lhs44, d.mul_vec(anti[h1], h2k), c)
                s_h2k = s_times[h2][k]
                if s_h2k:
                    vec_add_into(lhs45, d.mul_vec(basis[h1], s_h2k), c)
            if not vec_equal(lhs44, d.mul_vec(pi_r.cols[h], basis[k])):
                report.fail("d4-4", (h, k), f"lhs={lhs44}")
            if not vec_equal(lhs45, d.mul_vec(pi_l.cols[h], basis[k])):
                report.fail("d4-5", (h, k), f"lhs={lhs45}")
            lhs46: dict = {}
            lhs47: dict = {}
            for (k1, k2, c) in splits[k]:
                hk1 = mul(h, k1)
                if hk1:
                    vec_add_into(lhs46, d.mul_vec(hk1, anti[k2]), c)
                h_sk1 = times_s[h][k1]
                if h_sk1:
                    vec_add_into(lhs47, d.mul_vec(h_sk1, basis[k2]), c)
            if not vec_equal(lhs46, d.mul_vec(basis[h], pi_l.cols[k])):
                report.fail("d4-6", (h, k), f"lhs={lhs46}")
            if not vec_equal(lhs47, d.mul_vec(basis[h], pi_r.cols[k])):
                report.fail("d4-7", (h, k), f"lhs={lhs47}")


def check_whq(d: MagmaCoalgebra) -> StructureReport:
    """Sweep the weak Hopf quasigroup axioms.

    The unital-magma and coalgebra laws are checked first and short-circuit
    the run when violated (the axioms are not meaningful without them); the
    d-axioms themselves are all evaluated even after failures so a report
    lists every broken law.  On a group-like input the kernel decides d1,
    d2 and d4-4..d4-7; a law it cannot confirm is swept by its reference
    sweep, which alone writes violations.
    """
    report = StructureReport(
        "weak Hopf quasigroup",
        axioms=(
            "magma-unit", "coalg1", "coalg2",
            "d1", "d2", "d3",
            "d4-1", "d4-2", "d4-3", "d4-4", "d4-5", "d4-6", "d4-7",
        ),
    )
    _check_preconditions(d, report)
    if not report.ok:
        report.notes.append("preconditions failed; axiom sweep skipped")
        return report

    kernel = d.group_like is not None
    if not kernel:
        _law_d1(d, report)
    if not kernel or not _d2_holds(d):
        _sweep_d2(d, report)
    _sweep_d3(d, report)

    # (d4): antipode laws, phrased through the two projections
    _sweep_d4_1_2(d, report)
    _sweep_d4_3(d, report)
    if not kernel or not _d4_4_to_7_hold(d):
        _sweep_d4_4_to_7(d, report)
    return report


# ---------------------------------------------------------------------------
# derived properties
# ---------------------------------------------------------------------------


def derived_property_suite(d: MagmaCoalgebra) -> StructureReport:
    """Consequences of the axioms, re-proved exhaustively on the basis:
    convolution unit laws, projection idempotency (both kinds), unit and
    counit compatibilities, anti(co)multiplicativity of the antipode, the
    image characterizations of the barred projections, and the one-sided
    associativity enjoyed by elements of the target/source subalgebras.

    Expected to pass on every valid weak Hopf quasigroup; a violation here
    means the checker itself is broken.  The projections and group-like
    tables are d's own, so after `check_whq(d)` nothing is built twice;
    `projections` raises StructureError if d fails d4-1 or d4-2.
    """
    report = StructureReport(
        "weak Hopf quasigroup derived properties",
        axioms=(
            "conv-unit", "proj-unit", "proj-counit",
            "antipode-unit", "antipode-counit", "antimult", "anticomult",
            "conv-idem", "proj-idem", "bar-images", "cocomm-bars",
            "target-assoc", "source-assoc",
        ),
    )
    n = d.dim
    pi_l, pi_r, bar_l, bar_r = projections(d)
    kernel = d.group_like is not None
    ident = LinearMap.identity(n)

    if convolution(pi_l, ident, d.coproduct, d.product) != ident:
        report.fail("conv-unit", ("PiL*id",))
    if convolution(ident, pi_r, d.coproduct, d.product) != ident:
        report.fail("conv-unit", ("id*PiR",))

    for tag, mapping in (("PiL", pi_l), ("PiR", pi_r), ("barL", bar_l), ("barR", bar_r)):
        if not vec_equal(mapping(d.unit), d.unit):
            report.fail("proj-unit", (tag,))
        if d.counit @ mapping != d.counit:
            report.fail("proj-counit", (tag,))
        if mapping @ mapping != mapping:
            report.fail("proj-idem", (tag,))

    if not vec_equal(d.antipode(d.unit), d.unit):
        report.fail("antipode-unit", ())
    if d.counit @ d.antipode != d.counit:
        report.fail("antipode-counit", ())

    if not kernel or not _antimult_holds(d):
        _sweep_antimult(d, report)
    if not _anticomultiplicative(d):
        report.fail("anticomult", ())

    if convolution(pi_l, pi_l, d.coproduct, d.product) != pi_l:
        report.fail("conv-idem", ("PiL",))
    if convolution(pi_r, pi_r, d.coproduct, d.product) != pi_r:
        report.fail("conv-idem", ("PiR",))

    if not span_equal(bar_l.cols, pi_r.cols, n):
        report.fail("bar-images", ("barL-vs-PiR",))
    if not span_equal(bar_r.cols, pi_l.cols, n):
        report.fail("bar-images", ("barR-vs-PiL",))

    if is_cocommutative(d):
        if pi_l != bar_l:
            report.fail("cocomm-bars", ("L",))
        if pi_r != bar_r:
            report.fail("cocomm-bars", ("R",))

    for tag in _ONE_SIDED:
        if not kernel or not _one_sided_holds(d, tag):
            _sweep_one_sided(d, report, tag)
    return report


def _square_along(f: LinearMap, split, flip: bool = False) -> dict:
    """(f x f)(t) for t the tensor with legs split, as the sum of
    c * f(t1) (x) f(t2) over its legs (t1, t2, c); with flip, of
    c * f(t2) (x) f(t1).  No map with n^2 columns is built."""
    m, cols = f.cod, f.cols
    out: dict = {}
    for t1, t2, c in split:
        if flip:
            t1, t2 = t2, t1
        vec_add_into(out, vec_tensor(cols[t1], cols[t2], m), c)
    return out


def _anticomultiplicative(d: MagmaCoalgebra) -> bool:
    """delta . S == tau . (S x S) . delta, column by column over the support
    of delta(i)."""
    s = d.antipode.cols
    return all(
        vec_equal(d.coproduct(s[i]), _square_along(d.antipode, split, flip=True))
        for i, split in enumerate(d.splits)
    )


def _sweep_antimult(d: MagmaCoalgebra, report: StructureReport) -> None:
    """S(hg) = S(g)S(h) for every pair of basis vectors."""
    n = d.dim
    for h in range(n):
        for g in range(n):
            lhs = d.antipode(d.mul_basis(h, g))
            rhs = d.mul_vec(d.antipode.cols[g], d.antipode.cols[h])
            if not vec_equal(lhs, rhs):
                report.fail("antimult", (h, g), f"lhs={lhs} rhs={rhs}")


def _sweep_one_sided(d: MagmaCoalgebra, report: StructureReport, tag: str) -> None:
    """Every distinct nonzero value h of the tag's projection associates
    with all basis pairs k, l in the three one-sided forms.  Multiplication
    by h on either side is tabulated once per h, so h(kl) and (kl)h are read
    off by linearity from the products of h with basis vectors."""
    proj, n = d.convolution_projections[_ONE_SIDED[tag]], d.dim
    basis = [{i: 1} for i in range(n)]
    distinct = {tuple(sorted(col.items(), key=repr)): col for col in proj.cols if col}
    for key in sorted(distinct, key=repr):
        hvec = distinct[key]
        h_times = LinearMap(n, n, tuple(d.mul_vec(hvec, b) for b in basis))  # x -> hx
        times_h = LinearMap(n, n, tuple(d.mul_vec(b, hvec) for b in basis))  # x -> xh
        for k in range(n):
            hk, kh = h_times.cols[k], times_h.cols[k]
            for l in range(n):
                kl = d.mul_basis(k, l)
                if not vec_equal(d.mul_vec(hk, basis[l]), h_times(kl)):
                    report.fail(tag, (key, k, l), "(hk)l != h(kl)")
                if not vec_equal(d.mul_vec(basis[k], h_times.cols[l]),
                                 d.mul_vec(kh, basis[l])):
                    report.fail(tag, (key, k, l), "k(hl) != (kh)l")
                if not vec_equal(d.mul_vec(basis[k], times_h.cols[l]), times_h(kl)):
                    report.fail(tag, (key, k, l), "k(lh) != (kl)h")


# ---------------------------------------------------------------------------
# morphisms and classifications
# ---------------------------------------------------------------------------


def _nabla_col(d: MagmaCoalgebra, h: int, k: int) -> dict:
    """nabla(h (x) k) = h(1) (x) PiR(h(2)) k, summed over the legs of
    delta(h)."""
    n, (_, pi_r) = d.dim, d.convolution_projections
    out: dict = {}
    for (h1, h2, c) in d.splits[h]:
        for m, a in d.mul_vec(pi_r.cols[h2], {k: 1}).items():
            vec_add_into(out, {h1 * n + m: 1}, c * a)
    return out


def nabla(d: MagmaCoalgebra) -> LinearMap:
    """The idempotent h (x) k -> h(1) (x) PiR(h(2)) k cutting out the
    composable part of the tensor square."""
    n = d.dim
    return LinearMap.from_basis(n * n, n * n, lambda t: _nabla_col(d, t // n, t % n))


def check_whq_morphism(
    f: LinearMap, d: MagmaCoalgebra, d2: MagmaCoalgebra
) -> StructureReport:
    """Coalgebra-morphism laws plus the four weak-Hopf-quasigroup morphism
    conditions mkl1..mkl4 (the product law runs through nabla of the
    source, so non-composable tensors are excused).

    Each law is compared column by column; the product law evaluates
    f(hk) against the sum of f(x)f(y) over the legs x (x) y of
    nabla(h (x) k), at the pairs where either side can be nonzero, so no
    map with n^2 columns is built.

    When f sends each basis vector to one basis vector with coefficient 1
    and both structures are group-like, the coalgebra laws hold by that
    detection and the kernel decides mkl4 (`_mkl4_holds`); as in
    `check_whq`, a failing instance sends mkl4 to its reference sweep."""
    if f.dom != d.dim or f.cod != d2.dim:
        raise DimensionMismatch("morphism shape does not match the structures")
    report = StructureReport(
        "weak Hopf quasigroup morphism",
        axioms=("coalg-counit", "coalg-coprod", "mkl1", "mkl2", "mkl3", "mkl4"),
    )
    image = _basis_indices(f.cols)
    kernel = image is not None and d.group_like is not None and d2.group_like is not None
    if not kernel and d2.counit @ f != d.counit:
        report.fail("coalg-counit", ())
    # delta2 . f == (f x f) . delta, column by column over the support of delta(j)
    if not kernel and not all(
        vec_equal(d2.coproduct(f.cols[j]), _square_along(f, split))
        for j, split in enumerate(d.splits)
    ):
        report.fail("coalg-coprod", ())

    pi_l, pi_r = d.convolution_projections
    pi_l2, pi_r2 = d2.convolution_projections
    bar_l, bar_l2 = d.projection_formulas[2], d2.projection_formulas[2]

    for tag, lhs, rhs in (
        ("mkl1", pi_r2 @ f, f @ pi_r),
        ("mkl2", bar_l2 @ f, f @ bar_l),
        ("mkl3", pi_r2 @ pi_l2 @ f, f @ pi_r @ pi_l),
    ):
        for h in range(d.dim):
            if not vec_equal(lhs.cols[h], rhs.cols[h]):
                report.fail(tag, (h,), f"lhs={lhs.cols[h]} rhs={rhs.cols[h]}")
    if kernel and _mkl4_holds(image, d, d2):
        return report
    n, rows = d.dim, d.product.rows
    for h, split in enumerate(d.splits):
        # f(hk) and nabla(h (x) k) vanish unless k is a right factor of h or
        # of a basis vector in the support of some PiR(h(2))
        factors = {h}.union(*(pi_r.cols[h2] for _, h2, _ in split))
        for k in sorted({k for x in factors for k in rows.get(x, EMPTY)}):
            lhs = f(d.mul_basis(h, k))
            rhs = {}
            for x, c in _nabla_col(d, h, k).items():
                vec_add_into(rhs, d2.mul_vec(f.cols[x // n], f.cols[x % n]), c)
            if not vec_equal(lhs, rhs):
                report.fail("mkl4", (h, k), f"lhs={lhs} rhs={rhs}")
    return report


def _mkl4_holds(image: list, d: MagmaCoalgebra, d2: MagmaCoalgebra) -> bool:
    """mkl4 for the f that sends basis vector i to image[i], on group-like
    d and d2.  There nabla(h (x) k) = h (x) PiR(h)k with PiR(h) = S(h)h, so
    the law says that (h, k) -> f(hk), over the stored products, equals
    (h, k) -> f(h)f(PiR(h)k), over the stored products of PiR(h); the two
    partial maps are compared row by row, as k -> value for each h."""
    prod, anti = d.group_like
    prod2 = d2.group_like[0]
    sent = {x: {k: image[m] for k, m in row.items()} for x, row in prod.items()}  # k -> f(xk)
    for h, s in enumerate(anti):
        pi_r = prod.get(s, EMPTY).get(h)  # None where S(h)h = 0
        if sent.get(h, EMPTY) != _after(prod2.get(image[h], EMPTY), sent.get(pi_r, EMPTY)):
            return False
    return True


def magma_functor(g: QgpdMorphism) -> LinearMap:
    """Linear extension of a quasigroupoid morphism's arrow map; composes
    functorially and is a weak-Hopf-quasigroup morphism between the magmas."""
    morphism_report = check_morphism(g)
    if not morphism_report.ok:
        raise InvalidStructureError(morphism_report)
    return LinearMap.from_basis(
        g.source.n_arrows, g.target.n_arrows, lambda a: g.arrow_map[a]
    )


def is_cocommutative(d: MagmaCoalgebra) -> bool:
    """tau . delta == delta, compared column by column over the legs of
    delta(i) instead of through the n^2-column twist."""
    n = d.dim
    return all(
        vec_equal({v * n + u: c for u, v, c in split if c}, col)
        for split, col in zip(d.splits, d.coproduct.cols)
    )


def is_commutative(d: MagmaCoalgebra) -> bool:
    """hk == kh, compared at each stored product."""
    return all(vec_equal(hk, d.mul_basis(k, h)) for (h, k), hk in d.product.items())


def is_hopf_quasigroup(d: MagmaCoalgebra) -> bool:
    """True when the counit and coproduct are morphisms of unital magmas,
    which collapses both projections to unit-after-counit."""
    n = d.dim
    if d.eps_vec(d.unit) != 1:
        return False
    if not vec_equal(d.coproduct(d.unit), vec_canonical(vec_tensor(d.unit, d.unit, n))):
        return False
    for i in range(n):
        for j in range(n):
            if d.eps_vec(d.mul_basis(i, j)) != d.eps(i) * d.eps(j):
                return False
    # multiplicativity of the coproduct is axiom d1, which holds on every
    # group-like basis
    if d.group_like is not None:
        return True
    report = StructureReport("coproduct multiplicativity", axioms=("d1",))
    _law_d1(d, report)
    return report.ok
