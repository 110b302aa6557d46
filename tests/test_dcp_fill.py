"""The product table of `double_cross_product`, filled once per mixed pair,
against the per-pair loop it replaced (`tests/reference_dcp.py`).

Both must give the same structure with the product entries inserted in the
same order, on the test family and on the two-sided pairs of pair(M12, m).
On action tables corrupted after validation, built by the fill alone, both
must return the same structure or raise the same `StructureError`, naming
the same first pair whose product is not an arrow.
"""

import random

import pytest

from nonassoc import (
    LeftAction,
    MatchedPair,
    RightAction,
    double_cross_product,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc.matched_pairs import _dcp_fill
from nonassoc.reports import StructureError
from tests import reference_dcp
from tests.conftest import two_sided_pair


def _outcome(build, mp):
    try:
        dcp = build(mp)
    except StructureError as exc:
        return "raised", str(exc)
    return "built", dcp, list(dcp.prod.items())


def _corrupted(mp, rng: random.Random):
    """mp with one to three action entries replaced by arbitrary arrows."""
    left, right = dict(mp.left.table), dict(mp.right.table)
    keys = sorted(left)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            left[rng.choice(keys)] = rng.randrange(mp.a.n_arrows)
        else:
            right[rng.choice(keys)] = rng.randrange(mp.h.n_arrows)
    a, h = mp.a, mp.h
    return MatchedPair(a, h, LeftAction(h, a, left), RightAction(h, a, right))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_the_fill_equals_the_reference_on_the_two_sided_pairs(m):
    mp = two_sided_pair(m)
    assert _outcome(double_cross_product, mp) == _outcome(reference_dcp.double_cross_product, mp)


def test_the_fill_equals_the_reference_on_the_family(mp_family):
    for name, mp in mp_family.items():
        got = _outcome(double_cross_product, mp)
        assert got[0] == "built", name
        assert got == _outcome(reference_dcp.double_cross_product, mp), name


def test_corrupted_actions_fail_at_the_same_product(mp_family):
    pairs = dict(mp_family)
    pairs.update({f"two-sided m{m}": two_sided_pair(m) for m in (2, 3)})
    rng = random.Random(8)
    seen = {"built": 0, "unit or inverse": 0, "product": 0}
    for name, mp in pairs.items():
        for _ in range(60):
            bad = _corrupted(mp, rng)
            expected = _outcome(reference_dcp.double_cross_product, bad)
            assert _outcome(_dcp_fill, bad) == expected, name
            if expected[0] == "built":
                seen["built"] += 1
            elif "not closed at ('product'" in expected[1]:
                seen["product"] += 1
            else:
                seen["unit or inverse"] += 1
    assert min(seen.values()) >= 20, seen


def test_each_index_of_the_product_is_one_object_per_value():
    """The fill takes every index it stores from its arrow index: in the
    300-arrow double cross product of pair(M12, 5) with its discrete
    groupoid, the row keys, the entries of each row, the unit and the
    inverse hold one int object per value, the values above 256 included."""
    dcp = double_cross_product(mp_discrete_right(pair_quasigroupoid(moufang_loop_12(), 5)))
    held = list(dcp.unit) + list(dcp.inv)
    for i, row in dcp.prod.rows.items():
        held.append(i)
        for j, k in row.items():
            held += (j, k)
    objects = {}
    for i in held:
        objects.setdefault(i, set()).add(id(i))
    assert len(objects) == dcp.n_arrows == 300
    assert [value for value, ids in objects.items() if len(ids) > 1] == []
