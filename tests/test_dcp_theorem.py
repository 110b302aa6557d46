"""The paper's first theorem as an oracle: the double cross product of a
matched pair of quasigroupoids is a quasigroupoid.

`double_cross_product` no longer checks its result; it relies on this
theorem and checks A and H instead.  Here the result is checked anyway, by
`check_quasigroupoid`, on every matched pair of small components found by
exhausting their action tables, on the test family and on the two-sided
pairs of pair(M12, m).

The enumeration fixes phi_A(id, a) = a and phi_H(h, id) = h (c3, d3), and
draws every other entry from the arrows with the endpoints that c1 and d1
require, keeping phi_A(x, -) and phi_H(-, y) injective, as every action is;
the tables failing `check_left_action` or `check_right_action` are dropped
before the pairs of tables are checked.  The number of matched
pairs found in each case is pinned, so the test cannot pass vacuously.
"""

from itertools import permutations, product

import pytest

from nonassoc import (
    LeftAction,
    MatchedPair,
    RightAction,
    check_left_action,
    check_matched_pair,
    check_quasigroupoid,
    check_right_action,
    coarse_groupoid,
    cyclic_group,
    direct_product,
    double_cross_product,
    mixed_pairs,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    symmetric_group,
)
from tests.conftest import two_sided_pair


def _one_object(n):
    return quasigroup_as_quasigroupoid(cyclic_group(n))


def _klein():
    return quasigroup_as_quasigroupoid(direct_product(cyclic_group(2), cyclic_group(2)))


# name -> (A, H, number of matched pairs)
CASES = {
    "Z2|Z2": (lambda: _one_object(2), lambda: _one_object(2), 1),
    "Z3|Z2": (lambda: _one_object(3), lambda: _one_object(2), 2),
    "Z2|Z3": (lambda: _one_object(2), lambda: _one_object(3), 2),
    "Z3|Z3": (lambda: _one_object(3), lambda: _one_object(3), 1),
    "V4|Z2": (_klein, lambda: _one_object(2), 4),
    "Z2|V4": (lambda: _one_object(2), _klein, 4),
    "coarse(2)|coarse(2)": (lambda: coarse_groupoid(2), lambda: coarse_groupoid(2), 1),
    "pair(Z2,2)|coarse(2)": (
        lambda: pair_quasigroupoid(cyclic_group(2), 2), lambda: coarse_groupoid(2), 2,
    ),
    "coarse(2)|pair(Z2,2)": (
        lambda: coarse_groupoid(2), lambda: pair_quasigroupoid(cyclic_group(2), 2), 2,
    ),
    "S3|Z2": (lambda: quasigroup_as_quasigroupoid(symmetric_group(3)), lambda: _one_object(2), 4),
    "Z2|S3": (lambda: _one_object(2), lambda: quasigroup_as_quasigroupoid(symmetric_group(3)), 4),
}


def _tables(fixed: dict, rows: list):
    """Every table that agrees with `fixed` and maps each list of keys in
    `rows` injectively into its list of values."""
    choices = [
        [dict(zip(keys, vs)) for vs in permutations(values, len(keys))] for keys, values in rows
    ]
    for picks in product(*choices):
        table = dict(fixed)
        for row in picks:
            table.update(row)
        yield table


def _left_actions(a, h):
    """phi_A(x, -) is injective for x not an identity: c2 and c3 give
    phi_A(inv(x), phi_A(x, y)) = y."""
    fixed, rows = {}, {}
    for (x, y) in mixed_pairs(h, a):
        if x == h.unit[a.tgt[y]]:
            fixed[(x, y)] = y
        else:
            rows.setdefault(x, []).append((x, y))
    values = {x: [v for v in range(a.n_arrows) if a.tgt[v] == h.tgt[x]] for x in rows}
    tables = _tables(fixed, [(keys, values[x]) for x, keys in rows.items()])
    return [t for t in (LeftAction(h, a, t) for t in tables) if check_left_action(t).ok]


def _right_actions(a, h):
    """phi_H(-, y) is injective for y not an identity: d2 and d3 give
    phi_H(phi_H(x, y), inv(y)) = x."""
    fixed, rows = {}, {}
    for (x, y) in mixed_pairs(h, a):
        if y == a.unit[h.src[x]]:
            fixed[(x, y)] = x
        else:
            rows.setdefault(y, []).append((x, y))
    values = {y: [v for v in range(h.n_arrows) if h.src[v] == a.src[y]] for y in rows}
    tables = _tables(fixed, [(keys, values[y]) for y, keys in rows.items()])
    return [t for t in (RightAction(h, a, t) for t in tables) if check_right_action(t).ok]


@pytest.mark.parametrize("name", CASES)
def test_every_matched_pair_of_small_components_has_a_quasigroupoid_dcp(name):
    make_a, make_h, expected = CASES[name]
    a, h = make_a(), make_h()
    rights = _right_actions(a, h)
    found = 0
    for left in _left_actions(a, h):
        for right in rights:
            mp = MatchedPair(a, h, left, right)
            if not check_matched_pair(mp).ok:
                continue
            found += 1
            report = check_quasigroupoid(double_cross_product(mp))
            assert report.ok, (name, left.table, right.table, report.violations[:3])
    assert found == expected


def test_the_family_and_the_two_sided_pairs_have_quasigroupoid_dcps(mp_family):
    pairs = dict(mp_family)
    pairs.update({f"two-sided pair(m12,{m})": two_sided_pair(m) for m in (2, 3)})
    for name, mp in pairs.items():
        assert check_quasigroupoid(double_cross_product(mp)).ok, name
