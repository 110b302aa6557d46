"""Finite quasigroupoids: many-object IP loops.

A structure is a set of objects 0..m-1 and arrows 0..k-1 with source, target,
identity-arrow and inverse maps, plus a partial product stored as a lookup
keyed by the composable pairs {(a, b) : src(a) = tgt(b)}.  Looking up a
non-composable pair is not an error: `compose` returns None, the distinct
"undefined" outcome that the linear-magma construction later maps to zero.

Sweeps enumerate fibered sets such as the composable pairs through the
endpoint index (`arrows_by_object`, `matching_arrows`): the arrows grouped
by source or target object, in increasing order.  A sweep over pairs visits
only the pairs whose endpoints match, in lexicographic order, instead of
filtering all k^2 pairs.

Checkers report violations per axiom; builders validate eagerly so anything
they return can be trusted downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quasigroups import FiniteQuasigroup
from .reports import InvalidStructureError, StructureError, StructureReport


@dataclass(frozen=True, eq=True)
class Quasigroupoid:
    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    unit: tuple[int, ...]  # identity arrow of each object
    inv: tuple[int, ...]
    prod: dict
    object_names: tuple[str, ...] | None = None
    arrow_names: tuple[str, ...] | None = None

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def composable(self, a: int, b: int) -> bool:
        return self.src[a] == self.tgt[b]

    def compose(self, a: int | None, b: int | None) -> int | None:
        """Product of two arrows, or None when undefined (either input None
        or the pair not composable)."""
        if a is None or b is None:
            return None
        return self.prod.get((a, b))

    def composable_pairs(self):
        """The pairs (a, b) with src(a) = tgt(b), lexicographic."""
        for a, after in enumerate(matching_arrows(self.src, self.tgt, self.n_objects)):
            for b in after:
                yield a, b

    def arrow_name(self, a: int) -> str:
        return self.arrow_names[a] if self.arrow_names else str(a)


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
    matches: list = [None] * len(keys)
    for x, arrows in enumerate(arrows_by_object(keys, n_objects)):
        for i in arrows:
            matches[i] = by_end[x]
    return matches


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
            not isinstance(key, tuple)
            or len(key) != 2
            or not isinstance(key[0], int)
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
    after = matching_arrows(src, tgt, q.n_objects)
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
    for a, b in q.composable_pairs():
        c = prod.get((a, b))
        if c is not None and inv[c] != prod.get((inv[b], inv[a])):
            report.fail("E-6", (a, b))
    return report


def _validated(q: Quasigroupoid) -> Quasigroupoid:
    report = check_quasigroupoid(q)
    if not report.ok:
        raise InvalidStructureError(report)
    return q


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def discrete_groupoid(n_points: int) -> Quasigroupoid:
    """One idempotent arrow per object and nothing else."""
    if n_points < 1:
        raise StructureError("empty base")
    idx = tuple(range(n_points))
    return _validated(
        Quasigroupoid(
            n_objects=n_points,
            src=idx,
            tgt=idx,
            unit=idx,
            inv=idx,
            prod={(x, x): x for x in idx},
            object_names=tuple(str(x) for x in idx),
            arrow_names=tuple(str(x) for x in idx),
        )
    )


def coarse_groupoid(n_points: int) -> Quasigroupoid:
    """Exactly one arrow (x, y) between any two objects; (z,x)*(x,y) = (z,y)."""
    if n_points < 1:
        raise StructureError("empty base")
    n = n_points
    src = tuple(pair % n for pair in range(n * n))  # arrow x*n+y is (x, y)
    tgt = tuple(pair // n for pair in range(n * n))
    unit = tuple(x * n + x for x in range(n))
    inv = tuple((pair % n) * n + pair // n for pair in range(n * n))
    prod = {}
    for z in range(n):
        for x in range(n):
            for y in range(n):
                prod[(z * n + x, x * n + y)] = z * n + y
    names = tuple(f"({x},{y})" for x in range(n) for y in range(n))
    return _validated(
        Quasigroupoid(
            n_objects=n,
            src=src,
            tgt=tgt,
            unit=unit,
            inv=inv,
            prod=prod,
            object_names=tuple(str(x) for x in range(n)),
            arrow_names=names,
        )
    )


def quasigroup_as_quasigroupoid(q: FiniteQuasigroup) -> Quasigroupoid:
    """One object; arrows are the elements and every pair is composable."""
    n = q.order
    return _validated(
        Quasigroupoid(
            n_objects=1,
            src=(0,) * n,
            tgt=(0,) * n,
            unit=(q.identity,),
            inv=q.inverse,
            prod={(u, v): q.mul(u, v) for u in range(n) for v in range(n)},
            object_names=("*",),
            arrow_names=tuple(q.name(u) for u in range(n)),
        )
    )


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
    report = StructureReport("quasigroup action", axioms=("action-unit", "action-mult"))
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
    """Arrows (a, x) from x to psi(a, x); (a,x)*(b,y) = (a.b, y) when psi(b,y)=x."""
    action_report = check_action_on_set(q, n_points, psi)
    if not action_report.ok:
        raise InvalidStructureError(action_report)
    table = action_report.data["table"]
    m = n_points

    def arrow(a, x):
        return a * m + x

    k = q.order * m
    src = tuple(i % m for i in range(k))
    tgt = tuple(table[i // m][i % m] for i in range(k))
    unit = tuple(arrow(q.identity, x) for x in range(m))
    inv = tuple(arrow(q.inv(i // m), table[i // m][i % m]) for i in range(k))
    prod = {}
    for a in range(q.order):
        for b in range(q.order):
            ab = q.mul(a, b)
            for y in range(m):
                prod[(arrow(a, table[b][y]), arrow(b, y))] = arrow(ab, y)
    names = tuple(f"({q.name(i // m)},{i % m})" for i in range(k))
    return _validated(
        Quasigroupoid(
            n_objects=m,
            src=src,
            tgt=tgt,
            unit=unit,
            inv=inv,
            prod=prod,
            object_names=tuple(str(x) for x in range(m)),
            arrow_names=names,
        )
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
    prod = {}
    for a in range(q.order):
        for b in range(q.order):
            ab = q.mul(a, b)
            for x in range(m):
                for y in range(m):
                    for r in range(m):
                        prod[(arrow(a, x, y), arrow(b, y, r))] = arrow(ab, x, r)
    names = tuple(
        f"({q.name(i // (m * m))},{(i // m) % m},{i % m})" for i in range(k)
    )
    return _validated(
        Quasigroupoid(
            n_objects=m,
            src=src,
            tgt=tgt,
            unit=unit,
            inv=inv,
            prod=prod,
            object_names=tuple(str(x) for x in range(m)),
            arrow_names=names,
        )
    )


def pullback_quasigroupoid(q: Quasigroupoid, n_points: int, pi) -> Quasigroupoid:
    """Reindex the base along a surjection pi: arrows are triples (p, a, r)
    with pi(p) = tgt(a) and pi(r) = src(a), composed through the middle leg."""
    pi = list(pi)
    if len(pi) != n_points:
        raise StructureError("pi must assign an object to every point")
    for p, x in enumerate(pi):
        if not isinstance(x, int) or not 0 <= x < q.n_objects:
            raise StructureError(f"pi[{p}] = {x!r} out of range")
    if set(pi) != set(range(q.n_objects)):
        raise StructureError("pi must be surjective")

    into = matching_arrows(pi, q.tgt, q.n_objects)  # p -> the a with tgt(a) = pi(p)
    over = matching_arrows(q.src, pi, q.n_objects)  # a -> the r with pi(r) = src(a)
    triples = [(p, a, r) for p in range(n_points) for a in into[p] for r in over[a]]
    index = {t: i for i, t in enumerate(triples)}
    src = tuple(t[2] for t in triples)
    tgt = tuple(t[0] for t in triples)
    unit = tuple(index[(p, q.unit[pi[p]], p)] for p in range(n_points))
    inv = tuple(index[(r, q.inv[a], p)] for (p, a, r) in triples)
    prod = {}
    for i, after in enumerate(matching_arrows(src, tgt, n_points)):
        p, a, _ = triples[i]
        for j in after:
            _, b, r2 = triples[j]
            prod[(i, j)] = index[(p, q.prod[(a, b)], r2)]
    names = tuple(f"({p},{q.arrow_name(a)},{r})" for (p, a, r) in triples)
    return _validated(
        Quasigroupoid(
            n_objects=n_points,
            src=src,
            tgt=tgt,
            unit=unit,
            inv=inv,
            prod=prod,
            object_names=tuple(str(p) for p in range(n_points)),
            arrow_names=names,
        )
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
    report = StructureReport("quasigroupoid morphism", axioms=("b1", "b2", "b3", "b4"))
    for a in range(s.n_arrows):
        fa = f.arrow_map[a]
        if f.obj_map[s.src[a]] != t.src[fa]:
            report.fail("b1", (a,))
        if f.obj_map[s.tgt[a]] != t.tgt[fa]:
            report.fail("b2", (a,))
    for x in range(s.n_objects):
        if f.arrow_map[s.unit[x]] != t.unit[f.obj_map[x]]:
            report.fail("b3", (x,))
    for a, b in s.composable_pairs():
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
