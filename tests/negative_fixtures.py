"""One corrupted fixture per axiom tag, used both by the mutation tests and
by the acceptance suite.

Every entry maps a namespaced tag to the report produced by running the
corresponding checker on a structure corrupted so that the tag must fire
(other tags may fire alongside; only presence of the named tag with a sane
witness is asserted)."""

import dataclasses

from nonassoc import (
    LeftAction,
    LinearMap,
    MatchedPair,
    MagmaCoalgebra,
    Quasigroupoid,
    RightAction,
    check_left_action,
    check_matched_pair,
    check_quasigroupoid,
    check_right_action,
    check_whq,
    check_whq_morphism,
    coarse_groupoid,
    cyclic_group,
    magma_of_quasigroupoid,
    mp_action_left,
    mp_discrete_right,
    quasigroup_as_quasigroupoid,
)

FLIP = [[0, 1], [1, 0]]


def _broken_discrete_src():
    return Quasigroupoid(
        n_objects=2,
        src=(1, 1),  # identity arrow of object 0 no longer starts there
        tgt=(0, 1),
        unit=(0, 1),
        inv=(0, 1),
        prod={(0, 0): 0, (1, 1): 1},
    )


def _one_object_z2():
    return quasigroup_as_quasigroupoid(cyclic_group(2))


def _with_product(q, key, value):
    prod = dict(q.prod)
    prod[key] = value
    return dataclasses.replace(q, prod=prod)


def _with_left(mp, updates):
    table = dict(mp.left.table)
    table.update(updates)
    return MatchedPair(mp.a, mp.h, LeftAction(mp.h, mp.a, table), mp.right)


def _with_right(mp, updates):
    table = dict(mp.right.table)
    table.update(updates)
    return MatchedPair(mp.a, mp.h, mp.left, RightAction(mp.h, mp.a, table))


def _with_antipode(d, fn):
    return dataclasses.replace(d, antipode=LinearMap.from_basis(d.dim, d.dim, fn))


def _with_product_col(d, pair, col):
    n = d.dim
    cols = list(d.product.cols)
    cols[pair[0] * n + pair[1]] = col
    return dataclasses.replace(d, product=LinearMap.from_cols(n * n, n, cols))


def _two_dim_broken_unit_coassociativity():
    """Unital magma and coalgebra laws hold, but delta(1) fails the weak
    coassociativity condition: x.x = 0, x.y = y.x = x, y.y = y - x."""
    product = LinearMap.from_cols(
        4, 2, [{}, {0: 1}, {0: 1}, {1: 1, 0: -1}]
    )
    coproduct = LinearMap.from_basis(2, 4, lambda i: 3 * i)
    counit = LinearMap.from_basis(2, 1, lambda i: {0: 1})
    antipode = LinearMap.identity(2)
    return MagmaCoalgebra(2, {0: 1, 1: 1}, product, counit, coproduct, antipode)


def whq_fixtures():
    """The corrupted magma-coalgebras behind the whq/* tags, by name."""
    kc = magma_of_quasigroupoid(coarse_groupoid(2))
    return {
        "two-term product": _with_product_col(kc, (1, 2), {0: 1, 3: 1}),
        "dropped product": _with_product_col(kc, (1, 2), {}),
        "broken unit coassociativity": _two_dim_broken_unit_coassociativity(),
        # true antipode is [0, 2, 1, 3]; redirect arrow (0,1) to the identity (1,1)
        "redirected antipode": _with_antipode(kc, lambda i: [0, 3, 1, 3][i]),
    }


def collect():
    """tag -> (report, fired_tag) for every axiom in the negative-path matrix."""
    out = {}

    # quasigroupoid axioms -------------------------------------------------
    out["qgpd/a1"] = (check_quasigroupoid(_broken_discrete_src()), "a1")
    q2 = _one_object_z2()
    out["qgpd/a2-1"] = (check_quasigroupoid(_with_product(q2, (0, 1), 0)), "a2-1")
    coarse = coarse_groupoid(2)
    out["qgpd/a2-2"] = (check_quasigroupoid(_with_product(coarse, (1, 2), 1)), "a2-2")
    bad_inv = dataclasses.replace(coarse, inv=(0, 1, 2, 3))
    out["qgpd/a2-3"] = (check_quasigroupoid(bad_inv), "a2-3")

    # left action axioms ---------------------------------------------------
    base = mp_discrete_right(coarse_groupoid(2))
    out["action/c1"] = (
        check_left_action(_with_left(base, {(0, 1): 2}).left),
        "c1",
    )
    out["action/c2"] = (
        check_left_action(_with_left(base, {(0, 0): 1, (0, 1): 0}).left),
        "c2",
    )
    out["action/c3"] = (
        check_left_action(_with_left(base, {(0, 0): 1}).left),
        "c3",
    )

    # right action axioms --------------------------------------------------
    out["action/d1"] = (
        check_right_action(_with_right(base, {(0, 1): 0}).right),
        "d1",
    )
    flip_mp = mp_action_left(cyclic_group(2), 2, FLIP)
    out["action/d2"] = (
        check_right_action(_with_right(flip_mp, {(2, 0): 0, (0, 0): 2}).right),
        "d2",
    )
    out["action/d3"] = (
        check_right_action(_with_right(flip_mp, {(2, 0): 0}).right),
        "d3",
    )

    # matched pair compatibilities ------------------------------------------
    out["mp/e1"] = (check_matched_pair(_with_left(base, {(0, 0): 1})), "e1")
    out["mp/e2"] = (
        check_matched_pair(_with_left(base, {(0, 0): 1, (0, 1): 0})),
        "e2",
    )
    out["mp/e3"] = (check_matched_pair(_with_right(flip_mp, {(2, 0): 0})), "e3")

    # weak Hopf quasigroup axioms -------------------------------------------
    whq = whq_fixtures()
    out["whq/d1"] = (check_whq(whq["two-term product"]), "d1")
    dropped_report = check_whq(whq["dropped product"])
    for tag in ("d2", "d4-1", "d4-2", "d4-4", "d4-5", "d4-6", "d4-7"):
        out[f"whq/{tag}"] = (dropped_report, tag)
    out["whq/d3"] = (check_whq(whq["broken unit coassociativity"]), "d3")
    out["whq/d4-3"] = (check_whq(whq["redirected antipode"]), "d4-3")

    # weak Hopf quasigroup morphism laws --------------------------------------
    kc = magma_of_quasigroupoid(coarse_groupoid(2))
    swap = LinearMap.from_basis(4, 4, lambda i: {0: 0, 1: 2, 2: 1, 3: 3}[i])
    swap_report = check_whq_morphism(swap, kc, kc)
    for tag in ("mkl1", "mkl2", "mkl3", "mkl4"):
        out[f"morphism/{tag}"] = (swap_report, tag)
    return out


ALL_TAGS = (
    ["qgpd/a1", "qgpd/a2-1", "qgpd/a2-2", "qgpd/a2-3"]
    + ["action/c1", "action/c2", "action/c3"]
    + ["action/d1", "action/d2", "action/d3"]
    + ["mp/e1", "mp/e2", "mp/e3"]
    + [f"whq/{t}" for t in ("d1", "d2", "d3", "d4-1", "d4-2", "d4-3", "d4-4", "d4-5", "d4-6", "d4-7")]
    + [f"morphism/{t}" for t in ("mkl1", "mkl2", "mkl3", "mkl4")]
)
