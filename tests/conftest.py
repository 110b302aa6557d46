import gc
from functools import cache

import pytest

from nonassoc import (
    DimensionMismatch,
    FactorizationCandidate,
    LeftAction,
    LinearMap,
    MatchedPair,
    RightAction,
    coarse_groupoid,
    cyclic_group,
    moufang_loop_12,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    reconstruct_matched_pair,
    sub_quasigroupoid,
)


def z3_translation(a, x):
    return (a + x) % 3


FLIP = [[0, 1], [1, 0]]


def product_map(product, n: int) -> LinearMap:
    """A product stored as rows, rows[h][k] = hk with no entry where hk = 0
    (`MagmaCoalgebra.product`), as the n^2 -> n linear map whose column
    h * n + k is hk: the form the composite oracles and the column-editing
    fixtures read."""
    rows = product.rows
    return LinearMap.from_basis(n * n, n, lambda t: dict(rows.get(t // n, {}).get(t % n, {})))


def coproduct_map(coproduct, n: int) -> LinearMap:
    """A coproduct stored as the legs (x, y, c) of each delta(i)
    (`MagmaCoalgebra.coproduct`), as the n -> n^2 linear map whose column i
    is delta(i) with x (x) y at x * n + y: the form the composite oracles
    and the column-editing fixtures read."""
    return LinearMap.from_cols(n, n * n, [{x * n + y: c for x, y, c in legs} for legs in coproduct])


def twist(m: int, n: int) -> LinearMap:
    """The flip (i, j) -> (j, i) between an m x n and an n x m tensor space,
    for the composite oracles."""
    if m < 1 or n < 1:
        raise DimensionMismatch("dimensions must be positive")
    return LinearMap.from_basis(m * n, n * m, lambda t: (t % n) * m + t // n)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def m12():
    return moufang_loop_12()


@pytest.fixture(scope="session")
def coarse2():
    return coarse_groupoid(2)


def build_family(z2, z3, m12):
    """The matched pairs exercised throughout: both canonical families, one
    genuinely nonassociative member, and the two one-object (quasigroup)
    cases."""
    return {
        "discrete-right pair(z2,2)": mp_discrete_right(pair_quasigroupoid(z2, 2)),
        "discrete-right coarse(2)": mp_discrete_right(coarse_groupoid(2)),
        "discrete-right pair(m12,2)": mp_discrete_right(pair_quasigroupoid(m12, 2)),
        "action-left z2 flip": mp_action_left(z2, 2, FLIP),
        "action-left z3 translation": mp_action_left(z3, 3, z3_translation),
        "one-object z2": mp_discrete_right(quasigroup_as_quasigroupoid(z2)),
        "one-object m12": mp_discrete_right(quasigroup_as_quasigroupoid(m12)),
    }


@pytest.fixture(scope="session")
def mp_family(z2, z3, m12):
    return build_family(z2, z3, m12)


@cache
def two_sided_factorization(m, q=None):
    """The exact factorization of pair(q, m), q the Moufang loop M12 unless
    given, into the arrows (e, x, y) over the identity and the arrows
    (a, x, x)."""
    q = q or moufang_loop_12()

    def arrow(a, x, y):  # pair_quasigroupoid's arrow numbering
        return (a * m + x) * m + y

    b = pair_quasigroupoid(q, m)
    coarse = tuple(sorted(arrow(q.identity, x, y) for x in range(m) for y in range(m)))
    bundle = tuple(sorted(arrow(a, x, x) for a in range(q.order) for x in range(m)))
    return FactorizationCandidate(b, sub_quasigroupoid(b, coarse)[1], sub_quasigroupoid(b, bundle)[1])


@cache
def two_sided_pair(m, q=None):
    """The matched pair reconstructed from `two_sided_factorization(m, q)`:
    A has m^2 arrows, H has |q| m, and their double cross product |q| m^2.
    Shared between tests, so callers must not mutate it."""
    return reconstruct_matched_pair(two_sided_factorization(m, q))[0]


def corrupted_matched_pairs(mp):
    """name suffix -> copy of mp with phi_A(id, y) moved off y for the first
    non-identity arrow y of A, or with phi_H changed, keeping its endpoints, at
    the first pair of non-identity arrows."""
    a, h = mp.a, mp.h
    a_others = [y for y in range(a.n_arrows) if y not in a.unit]
    h_others = [x for x in range(h.n_arrows) if x not in h.unit]
    y = a_others[0]
    z = next(u for u in range(a.n_arrows) if u != y and a.tgt[u] == a.tgt[y])
    left = dict(mp.left.table)
    left[(h.unit[a.tgt[y]], y)] = z
    key, v = next(
        (k, v) for k, v in sorted(mp.right.table.items()) if k[0] in h_others and k[1] in a_others
    )
    right = dict(mp.right.table)
    right[key] = next(
        g for g in range(h.n_arrows) if g != v and h.src[g] == h.src[v] and h.tgt[g] == h.tgt[v]
    )
    return {
        "left-unit-broken": MatchedPair(a, h, LeftAction(h, a, left), mp.right),
        "right-changed": MatchedPair(a, h, mp.left, RightAction(h, a, right)),
    }


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic garbage collector switched on or off for the test, and
    switched back to its earlier state afterwards."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()
