"""Finite IP loops: unital Cayley tables where every element has a two-sided
inverse-property inverse, with no associativity assumed.

Elements are dense indices 0..n-1 so the exhaustive sweeps stay O(1) per
lookup; display names live in an optional side table.  Inverses are computed
once at validation time and cached on the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .reports import StructureError, StructureReport


@dataclass(frozen=True)
class FiniteQuasigroup:
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    names: tuple[str, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, u: int, v: int) -> int:
        return self.table[u][v]

    def inv(self, u: int) -> int:
        return self.inverse[u]

    def name(self, u: int) -> str:
        return self.names[u] if self.names else str(u)


def _check_table_shape(table, identity) -> int:
    n = len(table)
    if n == 0:
        raise StructureError("empty table")
    if not 0 <= identity < n:
        raise StructureError(f"identity index {identity} out of range for order {n}")
    for u, row in enumerate(table):
        if len(row) != n:
            raise StructureError(f"row {u} has length {len(row)}, expected {n}")
        for v, w in enumerate(row):
            if not isinstance(w, int) or not 0 <= w < n:
                raise StructureError(f"table entry ({u},{v}) = {w!r} out of range")
    return n


def check_quasigroup(table, identity: int) -> StructureReport:
    """Verify the identity law and the inverse property on a Cayley table.

    On success `report.data["inverse"]` holds the inverse of each element.
    An element has at most one: w(uv) = v for all v makes v -> uv
    injective, and (vu)w = v for all v fixes the column of w, so two
    inverses w, w' have equal columns, uw = uw', and w = w'.
    """
    n = _check_table_shape(table, identity)
    report = StructureReport.of("quasigroup")
    for u in range(n):
        if table[identity][u] != u:
            report.fail("identity", (u,), f"e*{u}={table[identity][u]}")
        if table[u][identity] != u:
            report.fail("identity", (u,), f"{u}*e={table[u][identity]}")
    inverse = []
    for u in range(n):
        candidates = [
            w
            for w in range(n)
            if all(
                table[w][table[u][v]] == v and table[table[v][u]][w] == v
                for v in range(n)
            )
        ]
        if candidates:
            inverse.append(candidates[0])
        else:
            report.fail("inverse", (u,), "no inverse-property inverse")
    if report.ok:
        report.data["inverse"] = tuple(inverse)
    return report


def quasigroup(table, identity: int = 0, names=None) -> FiniteQuasigroup:
    """Validate eagerly and return the structure; raise on any violation."""
    inverse = check_quasigroup(table, identity).require().data["inverse"]
    return FiniteQuasigroup(
        tuple(tuple(row) for row in table),
        identity,
        inverse,
        tuple(names) if names is not None else None,
    )


def is_associative(q: FiniteQuasigroup) -> tuple[bool, tuple[int, int, int] | None]:
    """Exhaustive triple scan; the witness is the lexicographically least failure."""
    n = q.order
    t = q.table
    for u in range(n):
        for v in range(n):
            uv = t[u][v]
            for w in range(n):
                if t[uv][w] != t[u][t[v][w]]:
                    return False, (u, v, w)
    return True, None


def derived_inverse_suite(q: FiniteQuasigroup) -> StructureReport:
    """Consequences of the axioms: (u^-1)^-1 = u and (uv)^-1 = v^-1 u^-1."""
    report = StructureReport.of("quasigroup derived identities")
    n = q.order
    for u in range(n):
        if q.inv(q.inv(u)) != u:
            report.fail("inv-involutive", (u,))
        for v in range(n):
            if q.inv(q.mul(u, v)) != q.mul(q.inv(v), q.inv(u)):
                report.fail("inv-antihom", (u, v))
    return report


def cyclic_group(n: int) -> FiniteQuasigroup:
    if n < 1:
        raise StructureError("order must be positive")
    table = [[(u + v) % n for v in range(n)] for u in range(n)]
    return quasigroup(table, 0, names=[str(u) for u in range(n)])


def symmetric_group(n: int) -> FiniteQuasigroup:
    """S_n on 0..n-1; element order is lexicographic over one-line notation."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # composition convention: (p*q)(x) = p(q(x))
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    names = ["".join(map(str, p)) for p in perms]
    return quasigroup(table, index[tuple(range(n))], names=names)


def dihedral_group(n: int) -> FiniteQuasigroup:
    """D_n of order 2n: elements r^k and s r^k, with s r s = r^-1."""
    if n < 1:
        raise StructureError("order must be positive")

    def mul(a, b):
        fa, ka = divmod(a, n)
        fb, kb = divmod(b, n)
        if fa == 0 and fb == 0:
            return (ka + kb) % n
        if fa == 0:
            return n + (kb - ka) % n
        if fb == 0:
            return n + (ka + kb) % n
        return (kb - ka) % n

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return quasigroup(table, 0)


def quaternion_group() -> FiniteQuasigroup:
    """Q8 from i^2 = j^2 = k^2 = ijk = -1: element 2u + s is (-1)^s times unit
    u of 1, i, j, k, and the units multiply as u ^ v up to sign."""

    def mul(a, b):
        (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
        if u and v:  # i^2 = -1, ij = k, jk = i, ki = j, and ji = -k, kj = -i, ik = -j
            s += u == v or (v - u) % 3 == 2
        return 2 * (u ^ v) + (s + t) % 2

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return quasigroup(table, 0, names=["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def direct_product(g: FiniteQuasigroup, h: FiniteQuasigroup) -> FiniteQuasigroup:
    ng, nh = g.order, h.order

    def mul(a, b):
        ag, ah = divmod(a, nh)
        bg, bh = divmod(b, nh)
        return g.mul(ag, bg) * nh + h.mul(ah, bh)

    table = [[mul(a, b) for b in range(ng * nh)] for a in range(ng * nh)]
    names = [f"({g.name(a)},{h.name(b)})" for a in range(ng) for b in range(nh)]
    return quasigroup(table, g.identity * nh + h.identity, names=names)


def chein_double(g: FiniteQuasigroup) -> FiniteQuasigroup:
    """Double a group to a Moufang loop of order 2n on elements g and g*u.

    The doubling rules come from the classical construction for M(G,2); they
    are not trusted: the result is revalidated by `check_quasigroup`, and it
    is nonassociative exactly when the input group is nonabelian.
    """
    associative, witness = is_associative(g)
    if not associative:
        raise StructureError(f"not a group: associativity fails at {witness}")
    n = g.order

    def mul(a, b):
        ea, xa = divmod(a, n)
        eb, xb = divmod(b, n)
        if ea == 0 and eb == 0:
            return g.mul(xa, xb)
        if ea == 0 and eb == 1:
            return n + g.mul(xb, xa)
        if ea == 1 and eb == 0:
            return n + g.mul(xa, g.inv(xb))
        return g.mul(g.inv(xb), xa)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    names = [g.name(x) for x in range(n)] + [f"{g.name(x)}u" for x in range(n)]
    return quasigroup(table, g.identity, names=names)


def moufang_loop_12() -> FiniteQuasigroup:
    """The order-12 nonassociative Moufang loop M(S3, 2): standard test stock."""
    return chein_double(symmetric_group(3))
