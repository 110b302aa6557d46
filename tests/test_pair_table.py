"""`quasigroupoids.PairTable`, the one stored form of every product and
action table, on its own: it must read exactly like the dict it is built
from, refuse a key that is not a pair when it is built, and be built once
per structure, so that no checker builds a row table of its own.
"""

import dataclasses
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nonassoc.quasigroupoids as quasigroupoids
from nonassoc import (
    LeftAction,
    StructureError,
    canonical_factorization,
    check_exact_factorization,
    check_matched_pair,
    check_quasigroupoid,
    coarse_groupoid,
    derived_identity_suite,
    double_cross_product,
    matched_pair_identity_suite,
)
from nonassoc.bowtie import module_law_report
from nonassoc.quasigroupoids import PairTable
from tests.conftest import two_sided_pair

Pair = namedtuple("Pair", "x y")

atoms = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", "", "ab"]))
pairs = st.one_of(st.tuples(atoms, atoms), st.builds(Pair, atoms, atoms))
probes = st.one_of(
    st.none(),
    atoms,
    pairs,
    st.tuples(st.none(), atoms),
    st.tuples(atoms, st.none()),
    st.tuples(atoms, atoms, atoms),
)


@given(st.dictionaries(pairs, st.integers(), max_size=30), st.lists(probes, max_size=8))
def test_a_pair_table_reads_like_the_dict_it_is_built_from(table, probes):
    t = PairTable.of(table)
    assert dict(t) == table and dict(t.items()) == table
    assert len(t) == len(t.items()) == len(table)
    assert t == table and table == t
    for key in [*probes, *table]:
        assert (key in t) == (key in table), key
        assert t.get(key) == table.get(key), key
        assert t.get(key, "absent") == table.get(key, "absent"), key
        if key in table:
            assert t[key] == table[key]
        else:
            with pytest.raises(KeyError):
                t[key]
    # the entries grouped by first factor, in order of first appearance
    firsts = list(dict.fromkeys(x for x, _ in table))
    assert list(t.items()) == [(k, v) for x in firsts for k, v in table.items() if k[0] == x]
    assert list(t) == [k for k, _ in t.items()]
    assert all(t.rows.values())
    # built from an existing table: the table itself, or an equal copy
    assert PairTable.of(t) is t
    assert PairTable.of(dict(t)) == t
    assert PairTable.from_triples((x, y, v) for (x, y), v in table.items()) == t


@pytest.mark.parametrize("key", [3, None, "ab", (1,), (1, 2, 3)])
def test_a_key_that_is_not_a_pair_is_refused_when_the_table_is_built(key, coarse2):
    with pytest.raises(StructureError, match="is not a pair"):
        PairTable.of({(0, 0): 0, key: 1})
    with pytest.raises(StructureError, match="is not a pair"):
        dataclasses.replace(coarse2, prod={**coarse2.prod, key: 0})
    with pytest.raises(StructureError, match="is not a pair"):
        LeftAction(coarse2, coarse2, {key: 0})


def test_structures_convert_their_tables_once(coarse2):
    prod = dict(coarse2.prod)
    q = dataclasses.replace(coarse2, prod=prod)
    assert isinstance(q.prod, PairTable) and q.prod == prod and q == coarse2
    prod.clear()  # the structure holds its own rows
    assert len(q.prod) == 8 and q.compose(1, 2) == coarse2.compose(1, 2) == 0
    assert dataclasses.replace(q, inv=q.inv).prod is q.prod
    assert q.compose(None, 2) is None and q.compose(1, None) is None


@pytest.fixture
def built(monkeypatch):
    """The sizes of the row tables built while the fixture is in use."""
    sizes = []
    init = PairTable.__init__

    def counting(self, rows):
        sizes.append(sum(map(len, rows.values())))
        init(self, rows)

    monkeypatch.setattr(quasigroupoids.PairTable, "__init__", counting)
    return sizes


def test_no_checker_builds_a_row_table(built):
    mp = two_sided_pair(2)
    c = canonical_factorization(mp)
    dcp = c.b
    checks = [
        (check_quasigroupoid, mp.a),
        (check_quasigroupoid, dcp),
        (derived_identity_suite, mp.h),
        (derived_identity_suite, dcp),
        (check_matched_pair, mp),
        (matched_pair_identity_suite, mp),
        (check_exact_factorization, c),
        (module_law_report, mp),
    ]
    built.clear()
    for check, arg in checks:
        assert check(arg).ok, check.__name__
    assert built == []
    double_cross_product(mp)
    # its product, and the index of its arrows by (a, h)
    assert sorted(built) == [dcp.n_arrows, len(dcp.prod)]
    assert coarse_groupoid(2).prod  # a builder converts its table once
    assert len(built) == 3
