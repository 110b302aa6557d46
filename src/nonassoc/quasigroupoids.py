"""Finite quasigroupoids: many-object IP loops.

A structure is a set of objects 0..m-1 and arrows 0..k-1 with source, target,
identity-arrow and inverse maps, plus a partial product on the composable
pairs {(a, b) : src(a) = tgt(b)}.  Looking up a non-composable pair is not
an error: `compose` returns None, the distinct "undefined" outcome that the
linear-magma construction later maps to zero.

Sweeps enumerate fibered sets such as the composable pairs through the
endpoint index (`arrows_by_object`): the arrows grouped by source or target
object, in increasing order.  A sweep over pairs visits only the pairs
whose endpoints match, in lexicographic order, instead of filtering all k^2
pairs.  A structure keeps its own index (`by_src`, `by_tgt`), built on
first use, and every sweep over existing structures reads the fibered pairs
of two of them over one base from it (`fibered_arrows`).  Only a builder
indexes the endpoint lists of the structure it is still building
(`matching_arrows`), and that index validates every endpoint it reads.

Next to the endpoint index, the sweeps look products and actions up by row.
Each table is stored once, as a `PairTable` of rows rows[x][y] = v, so a
sweep fixes a factor once, hoists its row out of the inner loop and looks
the other factor up there, instead of building and hashing a fresh pair on
every lookup.

Checkers report violations per axiom.  The builders here return
quasigroupoids by construction, as the double cross product of
`matched_pairs` is one by the paper's first theorem: each writes its product
rows directly and validates only its inputs, never its result, and a
`FiniteQuasigroup` is valid once `quasigroups.quasigroup` has made it.

The three smallest builders are the general constructions renamed:
`discrete_groupoid(n)` is `from_quasigroup_action` of the trivial group
acting trivially on n points, `coarse_groupoid(n)` is `pair_quasigroupoid`
of the trivial group on n points, and `quasigroup_as_quasigroupoid(q)` is
`pair_quasigroupoid(q, 1)`.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

from .quasigroups import FiniteQuasigroup, cyclic_group
from .reports import StructureError, StructureReport

# The row of a factor with no entries: rows.get(x, EMPTY).get(y) is None.
EMPTY = MappingProxyType({})


class PairTable(Mapping):
    """A product or action table, the partial map (x, y) -> v, stored only
    as its rows: rows[x][y] = v, with no empty row.  Read-only.

    As a mapping it is keyed by the pairs (x, y), so it reads like the dict
    it is built from.  It iterates over its entries grouped by first factor,
    in the order each first factor first appears."""

    __slots__ = ("rows",)

    def __init__(self, rows: dict):
        self.rows = rows

    @classmethod
    def from_triples(cls, triples) -> PairTable:
        """The table of (x, y, v) triples; the last triple for a pair wins."""
        rows: dict = {}
        for x, y, v in triples:
            row = rows.get(x)
            if row is None:
                row = rows[x] = {}
            row[y] = v
        return cls(rows)

    @classmethod
    def of(cls, table: Mapping) -> PairTable:
        """`table` if it is a PairTable, else the table of its entries.
        Raises StructureError on a key that is not a pair."""
        if isinstance(table, PairTable):
            return table
        for key in table:
            if not isinstance(key, tuple) or len(key) != 2:
                raise StructureError(f"table key {key!r} is not a pair")
        return cls.from_triples((x, y, v) for (x, y), v in table.items())

    def get(self, key, default=None):
        if isinstance(key, tuple) and len(key) == 2:
            return self.rows.get(key[0], EMPTY).get(key[1], default)
        return default

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            return self.rows.get(key[0], EMPTY)[key[1]]
        raise KeyError(key)

    def __iter__(self):
        return ((x, y) for x, row in self.rows.items() for y in row)

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))

    def items(self):  # walks the rows, with no lookup per key
        return _PairItems(self)

    def __repr__(self) -> str:
        return f"PairTable({dict(self.items())!r})"


class _PairItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return (((x, y), v) for x, row in self._mapping.rows.items() for y, v in row.items())


@dataclass(frozen=True, eq=True)
class Quasigroupoid:
    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    unit: tuple[int, ...]  # identity arrow of each object
    inv: tuple[int, ...]
    prod: PairTable  # a mapping keyed by pairs is converted on construction
    object_names: tuple[str, ...] | None = None
    arrow_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "prod", PairTable.of(self.prod))

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def composable(self, a: int, b: int) -> bool:
        return self.src[a] == self.tgt[b]

    def compose(self, a: int | None, b: int | None) -> int | None:
        """Product of two arrows, or None when undefined (either input None
        or the pair not composable)."""
        return self.prod.rows.get(a, EMPTY).get(b)

    def arrow_name(self, a: int) -> str:
        return self.arrow_names[a] if self.arrow_names else str(a)

    # --- the endpoint index, built on first use ---------------------------------
    # Shared by every sweep that reads it, so callers must not mutate it.

    @cached_property
    def by_src(self) -> list[list[int]]:
        """`arrows_by_object(src, n_objects)`."""
        return arrows_by_object(self.src, self.n_objects)

    @cached_property
    def by_tgt(self) -> list[list[int]]:
        """`arrows_by_object(tgt, n_objects)`."""
        return arrows_by_object(self.tgt, self.n_objects)


def arrows_by_object(ends, n_objects: int) -> list[list[int]]:
    """The endpoint index: entry x lists, in increasing order, the arrows i
    with ends[i] == x.  Raises StructureError on an endpoint outside
    0..n_objects-1."""
    index: list[list[int]] = [[] for _ in range(n_objects)]
    for arrow, x in enumerate(ends):
        if not isinstance(x, int) or not 0 <= x < n_objects:
            raise StructureError(
                f"endpoint {x!r} of arrow {arrow} out of range 0..{n_objects - 1}"
            )
        index[x].append(arrow)
    return index


def matching_arrows(keys, ends, n_objects: int) -> list[list[int]]:
    """Entry i lists, in increasing order, the arrows j with ends[j] ==
    keys[i].  With keys = src and ends = tgt of one structure, entry a holds
    the b that compose as a*b.  Entries are shared bucket lists of
    `arrows_by_object(ends, ...)`, so callers must not mutate them."""
    by_end = arrows_by_object(ends, n_objects)
    return _matched(arrows_by_object(keys, n_objects), by_end, len(keys))


def fibered_arrows(first: Quasigroupoid, second: Quasigroupoid) -> list[list[int]]:
    """`matching_arrows(first.src, second.tgt, ...)` over a shared base, read
    from the two structures' endpoint indexes: entry i lists the arrows j of
    `second` with src(i) = tgt(j), one list lookup per arrow of `first`.
    Raises StructureError when the two bases differ."""
    if first.n_objects != second.n_objects:
        raise StructureError("base mismatch: structures have different object sets")
    return _matched(first.by_src, second.by_tgt, first.n_arrows)


def _matched(by_key: list, by_end: list, n_keys: int) -> list:
    # entry i of the result is by_end[x] for the object x whose by_key[x] holds i
    matches: list = [None] * n_keys
    for arrows, ends in zip(by_key, by_end):
        for i in arrows:
            matches[i] = ends
    return matches


def transposed_rows(rows: dict, keys) -> dict:
    """The rows rows[x][y] = v of the x in `keys` as t[y][x] = v, each row
    of t listing its x in the order of `keys`."""
    out: dict = {}
    for x in keys:
        for y, value in rows.get(x, EMPTY).items():
            row = out.get(y)
            if row is None:
                row = out[y] = {}
            row[x] = value
    return out


def _check_shape(q: Quasigroupoid) -> list[tuple[int, int]]:
    """The product's pairs that are not composable, in row order, from one
    walk of its rows.  Raises StructureError on the first endpoint, unit,
    inverse or product entry that is not an arrow or object index."""
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
    src, tgt, off = q.src, q.tgt, []
    for x, row in q.prod.rows.items():
        end = src[x] if isinstance(x, int) and 0 <= x < k else None
        for y, v in row.items():
            if (
                end is None
                or not isinstance(y, int)
                or not 0 <= y < k
                or not isinstance(v, int)
                or not 0 <= v < k
            ):
                raise StructureError(f"product entry {(x, y)} -> {v!r} out of range")
            if tgt[y] != end:
                off.append((x, y))
    return off


def check_quasigroupoid(q: Quasigroupoid) -> StructureReport:
    """Exhaustive verification of the quasigroupoid axioms.

    Tags: `prod-domain` (product defined off the composable set, or missing
    on it), `a1` (identity arrows are endo), `a2-1` (unit laws), `a2-2`
    (source/target of products), `a2-3` (left/right cancellation through the
    inverse map, including the composability of the cancelled pairs).
    """
    report = StructureReport.of("quasigroupoid")
    for pair in _check_shape(q):
        report.fail("prod-domain", pair, "product defined on non-composable pair")
    src, tgt, unit, inv, rows = q.src, q.tgt, q.unit, q.inv, q.prod.rows
    after = fibered_arrows(q, q)
    for a, bs in enumerate(after):
        row = rows.get(a, EMPTY)
        for b in bs:
            if b not in row:
                report.fail("prod-domain", (a, b), "product missing on composable pair")

    for x in range(q.n_objects):
        e = unit[x]
        if src[e] != x or tgt[e] != x:
            report.fail("a1", (x,), f"src/tgt of identity arrow = {src[e]},{tgt[e]}")

    unit_rows = [rows.get(e, EMPTY) for e in unit]
    for a in range(q.n_arrows):
        left = unit_rows[tgt[a]].get(a)
        if left != a:
            report.fail("a2-1", (a,), f"id(tgt)*a = {left}")
        right = rows.get(a, EMPTY).get(unit[src[a]])
        if right != a:
            report.fail("a2-1", (a,), f"a*id(src) = {right}")

    for a, bs in enumerate(after):
        la = inv[a]
        row_a, row_la = rows.get(a, EMPTY), rows.get(la, EMPTY)
        for b in bs:
            c = row_a.get(b)
            if c is None:
                continue  # already reported under prod-domain
            if src[c] != src[b] or tgt[c] != tgt[a]:
                report.fail("a2-2", (a, b), f"src/tgt of product = {src[c]},{tgt[c]}")
            if src[la] != tgt[c]:
                report.fail("a2-3", (a, b), "(inv(a), a*b) not composable")
            elif row_la.get(c) != b:
                report.fail("a2-3", (a, b), f"inv(a)*(a*b) = {row_la.get(c)}")
            lb = inv[b]
            if src[c] != tgt[lb]:
                report.fail("a2-3", (a, b), "(a*b, inv(b)) not composable")
            elif rows.get(c, EMPTY).get(lb) != a:
                report.fail("a2-3", (a, b), f"(a*b)*inv(b) = {rows.get(c, EMPTY).get(lb)}")
    return report


def derived_identity_suite(q: Quasigroupoid) -> StructureReport:
    """Re-prove, at finite scale, the six identities that follow from the
    axioms: endpoints of inverses, cancellation to identity arrows,
    involutivity, and antimultiplicativity of the inverse map.

    Must pass on anything that passes `check_quasigroupoid`; a violation
    here indicates a checker bug, not a bad input.
    """
    report = StructureReport.of("quasigroupoid derived identities")
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
    inv, rows = q.inv, q.prod.rows
    for a, bs in enumerate(fibered_arrows(q, q)):
        row_a, ia = rows.get(a, EMPTY), inv[a]
        for b in bs:
            c = row_a.get(b)
            if c is not None and inv[c] != rows.get(inv[b], EMPTY).get(ia):
                report.fail("E-6", (a, b))
    return report


def _validated(q: Quasigroupoid) -> Quasigroupoid:
    check_quasigroupoid(q).require()
    return q


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def discrete_groupoid(n_points: int) -> Quasigroupoid:
    """One idempotent arrow per object and nothing else: the action
    quasigroupoid of the trivial group acting trivially, arrow x named x."""
    q = from_quasigroup_action(cyclic_group(1), n_points, lambda a, x: x)
    return replace(q, arrow_names=q.object_names)


def coarse_groupoid(n_points: int) -> Quasigroupoid:
    """Exactly one arrow (x, y) between any two objects; (z,x)*(x,y) = (z,y):
    the pair quasigroupoid of the trivial group, arrow x*n+y named (x,y)."""
    names = tuple(f"({x},{y})" for x in range(n_points) for y in range(n_points))
    return replace(pair_quasigroupoid(cyclic_group(1), n_points), arrow_names=names)


def quasigroup_as_quasigroupoid(q: FiniteQuasigroup) -> Quasigroupoid:
    """One object; arrows are the elements and every pair is composable: the
    pair quasigroupoid of q on one point, object * and arrows named as in q."""
    names = tuple(q.name(u) for u in range(q.order))
    return replace(pair_quasigroupoid(q, 1), object_names=("*",), arrow_names=names)


def tabulate_action(q: FiniteQuasigroup, n_points: int, psi) -> list[list[int]]:
    """Normalize an action given as callable or nested table to a dense table."""
    if callable(psi):
        table = [[psi(a, x) for x in range(n_points)] for a in range(q.order)]
    else:
        table = [list(row) for row in psi]
    if len(table) != q.order or any(len(row) != n_points for row in table):
        raise StructureError("action table shape must be order x points")
    for a, row in enumerate(table):
        for x, y in enumerate(row):
            if not isinstance(y, int) or not 0 <= y < n_points:
                raise StructureError(f"action value psi({a},{x}) = {y!r} out of range")
    return table


def check_action_on_set(q: FiniteQuasigroup, n_points: int, psi) -> StructureReport:
    """An action must fix points under the identity and absorb the product:
    psi(e, x) = x and psi(a*b, x) = psi(a, psi(b, x)), checked exhaustively."""
    table = tabulate_action(q, n_points, psi)
    report = StructureReport.of("quasigroup action")
    for x in range(n_points):
        if table[q.identity][x] != x:
            report.fail("action-unit", (x,), f"psi(e,{x})={table[q.identity][x]}")
    for a in range(q.order):
        for b in range(q.order):
            ab = q.mul(a, b)
            for x in range(n_points):
                if table[ab][x] != table[a][table[b][x]]:
                    report.fail(
                        "action-mult",
                        (a, b, x),
                        f"psi(a*b,x)={table[ab][x]} psi(a,psi(b,x))={table[a][table[b][x]]}",
                    )
    report.data["table"] = table
    return report


def from_quasigroup_action(q: FiniteQuasigroup, n_points: int, psi) -> Quasigroupoid:
    """Arrows (a, x) from x to psi(a, x); (a,x)*(b,y) = (a.b, y) when psi(b,y)=x.
    Validates the action (`check_action_on_set`)."""
    if n_points < 1:
        raise StructureError("empty base")
    table = check_action_on_set(q, n_points, psi).require().data["table"]
    m = n_points

    def arrow(a, x):
        return a * m + x

    k = q.order * m
    src = tuple(i % m for i in range(k))
    tgt = tuple(table[i // m][i % m] for i in range(k))
    unit = tuple(arrow(q.identity, x) for x in range(m))
    inv = tuple(arrow(q.inv(i // m), table[i // m][i % m]) for i in range(k))
    # psi(0, -) is a bijection, so the sweep over b, y reaches each x first at b = 0
    rows = {arrow(a, x): {} for a in range(q.order) for x in table[0]}
    for a, mul_a in enumerate(q.table):
        for b, ab in enumerate(mul_a):
            for y in range(m):
                rows[arrow(a, table[b][y])][arrow(b, y)] = arrow(ab, y)
    names = tuple(f"({q.name(i // m)},{i % m})" for i in range(k))
    return Quasigroupoid(
        n_objects=m,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=PairTable(rows),
        object_names=tuple(str(x) for x in range(m)),
        arrow_names=names,
    )


def pair_quasigroupoid(q: FiniteQuasigroup, n_points: int) -> Quasigroupoid:
    """Arrows (a, x, y) from y to x with (a,x,y)*(b,y,r) = (a.b, x, r)."""
    if n_points < 1:
        raise StructureError("empty base")
    m = n_points

    def arrow(a, x, y):
        return (a * m + x) * m + y

    k = q.order * m * m
    src = tuple(i % m for i in range(k))
    tgt = tuple((i // m) % m for i in range(k))
    unit = tuple(arrow(q.identity, x, x) for x in range(m))
    inv = tuple(arrow(q.inv(i // (m * m)), i % m, (i // m) % m) for i in range(k))
    rows = {}
    for a, mul_a in enumerate(q.table):
        for x in range(m):
            for y in range(m):
                rows[arrow(a, x, y)] = {
                    arrow(b, y, r): arrow(ab, x, r) for b, ab in enumerate(mul_a) for r in range(m)
                }
    names = tuple(
        f"({q.name(i // (m * m))},{(i // m) % m},{i % m})" for i in range(k)
    )
    return Quasigroupoid(
        n_objects=m,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=PairTable(rows),
        object_names=tuple(str(x) for x in range(m)),
        arrow_names=names,
    )


def pullback_quasigroupoid(q: Quasigroupoid, n_points: int, pi) -> Quasigroupoid:
    """Reindex the base along a surjection pi: arrows are triples (p, a, r)
    with pi(p) = tgt(a) and pi(r) = src(a), composed through the middle leg.
    Validates q (`check_quasigroupoid`)."""
    pi = list(pi)
    if len(pi) != n_points:
        raise StructureError("pi must assign an object to every point")
    for p, x in enumerate(pi):
        if not isinstance(x, int) or not 0 <= x < q.n_objects:
            raise StructureError(f"pi[{p}] = {x!r} out of range")
    if set(pi) != set(range(q.n_objects)):
        raise StructureError("pi must be surjective")
    _validated(q)

    over = arrows_by_object(pi, q.n_objects)  # the points over each object
    triples = [
        (p, a, r) for p in range(n_points) for a in q.by_tgt[pi[p]] for r in over[q.src[a]]
    ]
    index = {t: i for i, t in enumerate(triples)}
    src = tuple(t[2] for t in triples)
    tgt = tuple(t[0] for t in triples)
    unit = tuple(index[(p, q.unit[pi[p]], p)] for p in range(n_points))
    inv = tuple(index[(r, q.inv[a], p)] for (p, a, r) in triples)
    rows = {}  # no row is empty: (p, a, r) composes with the unit triple at r
    for i, after in enumerate(matching_arrows(src, tgt, n_points)):
        p, a, _ = triples[i]
        row_a = q.prod.rows[a]
        rows[i] = {j: index[(p, row_a[triples[j][1]], triples[j][2])] for j in after}
    names = tuple(f"({p},{q.arrow_name(a)},{r})" for (p, a, r) in triples)
    return Quasigroupoid(
        n_objects=n_points,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=PairTable(rows),
        object_names=tuple(str(p) for p in range(n_points)),
        arrow_names=names,
    )


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QgpdMorphism:
    source: Quasigroupoid
    target: Quasigroupoid
    obj_map: tuple[int, ...]
    arrow_map: tuple[int, ...]


def identity_morphism(q: Quasigroupoid) -> QgpdMorphism:
    return QgpdMorphism(q, q, tuple(range(q.n_objects)), tuple(range(q.n_arrows)))


def check_morphism(f: QgpdMorphism) -> StructureReport:
    """Verify the four functoriality conditions b1..b4 exhaustively."""
    s, t = f.source, f.target
    if len(f.obj_map) != s.n_objects or len(f.arrow_map) != s.n_arrows:
        raise StructureError("morphism map lengths do not match the source")
    for x in f.obj_map:
        if not 0 <= x < t.n_objects:
            raise StructureError(f"object image {x} out of range")
    for a in f.arrow_map:
        if not 0 <= a < t.n_arrows:
            raise StructureError(f"arrow image {a} out of range")
    report = StructureReport.of("quasigroupoid morphism")
    for a in range(s.n_arrows):
        fa = f.arrow_map[a]
        if f.obj_map[s.src[a]] != t.src[fa]:
            report.fail("b1", (a,))
        if f.obj_map[s.tgt[a]] != t.tgt[fa]:
            report.fail("b2", (a,))
    for x in range(s.n_objects):
        if f.arrow_map[s.unit[x]] != t.unit[f.obj_map[x]]:
            report.fail("b3", (x,))
    for a, bs in enumerate(fibered_arrows(s, s)):
        for b in bs:
            c = s.compose(a, b)
            image = t.compose(f.arrow_map[a], f.arrow_map[b])
            if image is None:
                report.fail("b4", (a, b), "image pair not composable")
            elif c is not None and f.arrow_map[c] != image:
                report.fail("b4", (a, b), f"f(a*b)={f.arrow_map[c]} f(a)*f(b)={image}")
    return report


def compose_morphisms(f: QgpdMorphism, g: QgpdMorphism) -> QgpdMorphism:
    """f after g (so g.source is the composite's source)."""
    if g.target != f.source:
        raise StructureError("composition mismatch: g.target is not f.source")
    return QgpdMorphism(
        g.source,
        f.target,
        tuple(f.obj_map[x] for x in g.obj_map),
        tuple(f.arrow_map[a] for a in g.arrow_map),
    )


def is_isomorphism(f: QgpdMorphism) -> bool:
    """Bijective on objects and on arrows."""
    return (
        f.source.n_objects == f.target.n_objects
        and f.source.n_arrows == f.target.n_arrows
        and len(set(f.obj_map)) == f.source.n_objects
        and len(set(f.arrow_map)) == f.source.n_arrows
    )
