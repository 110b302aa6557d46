"""The builders as they stood before they wrote their tables as rows and
trusted their construction, kept as the oracle for `tests/test_builders.py`.

Each builds its product or action tables as dicts keyed by pairs, which
`PairTable.of` turns into rows, and then sweeps its own result: the six
quasigroupoid builders through `check_quasigroupoid` (`_validated`), the
two matched-pair families through `matched_pair`, which runs
`check_matched_pair`.  `sub_quasigroupoid` looks each pair up twice
through the mapping interface, and `reconstruct_matched_pair` fills its
actions by pair.  The families build their components with the builders
here; otherwise this is the library's code from before that change.
"""

from nonassoc.factorizations import FactorizationCandidate, check_exact_factorization
from nonassoc.matched_pairs import (
    LeftAction,
    MatchedPair,
    RightAction,
    dcp_pairs,
    double_cross_product,
    matched_pair,
    mixed_pairs,
)
from nonassoc.quasigroupoids import (
    QgpdMorphism,
    Quasigroupoid,
    _validated,
    check_action_on_set,
    matching_arrows,
)
from nonassoc.quasigroups import FiniteQuasigroup
from nonassoc.reports import InvalidStructureError, StructureError


def discrete_groupoid(n_points: int) -> Quasigroupoid:
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
    if n_points < 1:
        raise StructureError("empty base")
    n = n_points
    src = tuple(pair % n for pair in range(n * n))
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


def from_quasigroup_action(q: FiniteQuasigroup, n_points: int, psi) -> Quasigroupoid:
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
    pi = list(pi)
    if len(pi) != n_points:
        raise StructureError("pi must assign an object to every point")
    for p, x in enumerate(pi):
        if not isinstance(x, int) or not 0 <= x < q.n_objects:
            raise StructureError(f"pi[{p}] = {x!r} out of range")
    if set(pi) != set(range(q.n_objects)):
        raise StructureError("pi must be surjective")

    into = matching_arrows(pi, q.tgt, q.n_objects)
    over = matching_arrows(q.src, pi, q.n_objects)
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
            prod[(i, j)] = index[(p, q.prod.rows[a][b], r2)]
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


def mp_discrete_right(a: Quasigroupoid) -> MatchedPair:
    h = discrete_groupoid(a.n_objects)
    left = {(x, p): p for p in range(a.n_arrows) for x in [a.tgt[p]]}
    right = {(x, p): a.src[p] for p in range(a.n_arrows) for x in [a.tgt[p]]}
    return matched_pair(a, h, left, right)


def mp_action_left(q: FiniteQuasigroup, n_points: int, psi) -> MatchedPair:
    h = from_quasigroup_action(q, n_points, psi)
    a = discrete_groupoid(n_points)
    left = {(x, h.src[x]): h.tgt[x] for x in range(h.n_arrows)}
    right = {(x, h.src[x]): x for x in range(h.n_arrows)}
    return matched_pair(a, h, left, right)


def sub_quasigroupoid(
    b: Quasigroupoid, arrows: tuple[int, ...]
) -> tuple[Quasigroupoid, QgpdMorphism]:
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


def reconstruct_matched_pair(c: FactorizationCandidate) -> tuple[MatchedPair, QgpdMorphism]:
    fact_report = check_exact_factorization(c)
    if not fact_report.ok:
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
    dcp = double_cross_product(mp)
    pairs = dcp_pairs(mp)
    gamma = QgpdMorphism(
        dcp,
        b,
        tuple(range(b.n_objects)),
        tuple(theta[pair] for pair in pairs),
    )
    return mp, gamma
