"""`documents.emit` against its definition, `json.dumps(v, sort_keys=True,
indent=1) + "\\n"`, which this file keeps as the second code path: equal
text on generated values, the same exception type where the encoder
refuses a value, and parse(emit(doc)) == doc on every document kind."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import (
    bowtie_whq,
    canonical_factorization,
    coarse_groupoid,
    cyclic_group,
    double_cross_product,
    magma_of_quasigroupoid,
    moufang_loop_12,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc.documents import (
    action_to_doc,
    emit,
    factorization_to_doc,
    matched_pair_to_doc,
    parse,
    quasigroup_to_doc,
    quasigroupoid_to_doc,
    whq_to_doc,
)
from tests.conftest import FLIP, two_sided_pair, z3_translation


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


def assert_same_outcome(value):
    try:
        expected = oracle(value)
    except Exception as exc:  # the writer must refuse the value the same way
        with pytest.raises(type(exc)):
            emit(value)
        return
    assert emit(value) == expected


ints = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
texts = st.text(max_size=4) | st.sampled_from(["", "é", "日本", "\x00\n\"\\", "\U0001f600", "%d", "%s"])
scalars = st.none() | st.booleans() | ints | texts | st.floats()

# One kind per column: the writer's row path takes columns of exactly int
# or exactly str; bools, None and mixed columns must fall back.
columns = st.sampled_from([ints, texts, ints | texts, ints | st.booleans() | st.none()])
rows = st.lists(columns, min_size=0, max_size=4).flatmap(
    lambda kinds: st.lists(st.tuples(*kinds).map(list), max_size=5)
)
ragged = st.lists(st.lists(ints | texts, max_size=3), max_size=5)
int_lists = st.lists(ints, max_size=6)

values = st.recursive(
    scalars | rows | ragged | int_lists,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(texts, inner, max_size=4)
        | st.dictionaries(ints, inner, max_size=3)
        | st.dictionaries(st.booleans() | st.none(), inner, max_size=2)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_emit_is_the_indenting_encoder(value):
    assert_same_outcome(value)


@settings(deadline=None)
@given(rows)
def test_rows_are_written_as_the_encoder_writes_them(value):
    assert_same_outcome(value)
    assert_same_outcome({"product": value, "empty": [[]], "rows": [value, []]})


@settings(deadline=None)
@given(st.dictionaries(ints | texts | st.floats(allow_nan=False), scalars, max_size=4))
def test_mixed_keys_sort_or_fail_as_the_encoder_does(value):
    assert_same_outcome(value)


@pytest.mark.parametrize("value", [
    {1, 2},
    object(),
    [[1, 2], {3}],
    {"a": [0, object()]},
    {(1, 2): 0},
    {"a": 1, 2: 3},
])
def test_unencodable_values_raise_the_encoders_exception(value):
    with pytest.raises(Exception) as expected:
        oracle(value)
    with pytest.raises(type(expected.value)):
        emit(value)


def test_plain_values():
    for value in (None, True, False, 0, -7, 2**100, 1.5, float("nan"), "", "é", [], {}, [[]], [{}], ()):
        assert emit(value) == oracle(value)


def _library_documents():
    z2, z3, m12 = cyclic_group(2), cyclic_group(3), moufang_loop_12()
    mp = mp_discrete_right(pair_quasigroupoid(m12, 2))
    return {
        "quasigroup": quasigroup_to_doc(m12),
        "quasigroupoid": quasigroupoid_to_doc(double_cross_product(mp)),
        # 192 arrows, 9,216 product entries: one table written by one `%`
        "quasigroupoid-192": quasigroupoid_to_doc(double_cross_product(two_sided_pair(4))),
        "action": action_to_doc(z3, 3, z3_translation),
        "matched-pair": matched_pair_to_doc(mp_action_left(z2, 2, FLIP)),
        "factorization": factorization_to_doc(canonical_factorization(mp)),
        "whq-Q": whq_to_doc(magma_of_quasigroupoid(coarse_groupoid(2))),
        "whq-GF5": whq_to_doc(bowtie_whq(mp_action_left(z3, 3, z3_translation)), "GF5"),
    }


@pytest.mark.parametrize("name,doc", list(_library_documents().items()))
def test_documents_round_trip(name, doc):
    text = emit(doc)
    assert text == oracle(doc)
    assert parse(text) == doc
