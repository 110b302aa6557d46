import gc
import json
import re

import pytest

from nonassoc import (
    bowtie_whq,
    discrete_groupoid,
    magma_of_quasigroupoid,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc.cli import main
from nonassoc.documents import (
    RangeError,
    SchemaError,
    action_to_doc,
    doc_to_action,
    doc_to_factorization,
    doc_to_matched_pair,
    doc_to_quasigroup,
    doc_to_quasigroupoid,
    doc_to_whq,
    emit,
    factorization_to_doc,
    matched_pair_to_doc,
    parse,
    quasigroup_to_doc,
    quasigroupoid_to_doc,
    whq_to_doc,
)
from nonassoc.factorizations import canonical_factorization
from tests.conftest import FLIP, z3_translation


def roundtrip(doc):
    text = emit(doc)
    again = parse(text)
    assert emit(again) == text
    return again


def test_quasigroup_roundtrip(m12):
    doc = roundtrip(quasigroup_to_doc(m12))
    assert doc_to_quasigroup(doc).table == m12.table


def test_quasigroupoid_roundtrip(coarse2):
    doc = roundtrip(quasigroupoid_to_doc(coarse2))
    q = doc_to_quasigroupoid(doc)
    assert q.prod == coarse2.prod
    assert q.arrow_names == coarse2.arrow_names
    # the document for the 2-point discrete groupoid is minimal
    ddoc = quasigroupoid_to_doc(discrete_groupoid(2))
    assert ddoc["objects"] == 2 and ddoc["arrows"] == 2
    assert len(ddoc["product"]) == 2


def test_action_roundtrip(z3):
    doc = roundtrip(action_to_doc(z3, 3, z3_translation))
    q, points, psi = doc_to_action(doc)
    assert points == 3
    assert psi[1][1] == 2


def test_matched_pair_roundtrip(z2):
    mp = mp_action_left(z2, 2, FLIP)
    doc = roundtrip(matched_pair_to_doc(mp))
    back = doc_to_matched_pair(doc)
    assert back.left.table == mp.left.table
    assert back.right.table == mp.right.table


def test_factorization_roundtrip(z2):
    mp = mp_discrete_right(pair_quasigroupoid(z2, 2))
    cand = canonical_factorization(mp)
    doc = roundtrip(factorization_to_doc(cand))
    back = doc_to_factorization(doc)
    assert back.ia.arrow_map == cand.ia.arrow_map
    assert back.ih.arrow_map == cand.ih.arrow_map


def test_whq_roundtrip(coarse2):
    d = magma_of_quasigroupoid(coarse2)
    doc = roundtrip(whq_to_doc(d))
    back = doc_to_whq(doc)
    assert back == d


def test_whq_roundtrip_bowtie(z2):
    mp = mp_discrete_right(pair_quasigroupoid(z2, 2))
    d = bowtie_whq(mp)
    doc = roundtrip(whq_to_doc(d))
    assert doc_to_whq(doc) == d


def test_whq_gf_field_roundtrip(coarse2):
    d = magma_of_quasigroupoid(coarse2)
    doc = whq_to_doc(d, "GF5")
    back = doc_to_whq(parse(emit(doc)))
    from nonassoc.linalg import GFElement

    assert back.mul_basis(0, 0) == {0: GFElement(1, 5)}


def test_parse_rejects_bad_json():
    with pytest.raises(SchemaError):
        parse("not json")
    with pytest.raises(SchemaError):
        parse("[1,2]")


def test_parse_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        parse('{"kind": "mystery", "version": 1}')


def test_parse_rejects_wrong_version(coarse2):
    doc = quasigroupoid_to_doc(coarse2)
    doc["version"] = 2
    with pytest.raises(SchemaError):
        parse(emit(doc))


def test_product_entry_on_non_composable_pair_is_a_range_error(coarse2):
    doc = quasigroupoid_to_doc(coarse2)
    # (0,0)*(0,1) needs src((0,0)) = tgt((0,1)); arrows 0 and 1 do not compose
    doc["product"].append([1, 0, 0])
    with pytest.raises(RangeError) as info:
        doc_to_quasigroupoid(parse(emit(doc)))
    assert "(1,0)" in str(info.value)


def test_out_of_range_indices_are_range_errors(m12):
    doc = quasigroup_to_doc(m12)
    doc["table"][0][0] = 99
    with pytest.raises(RangeError):
        doc_to_quasigroup(parse(emit(doc)))
    doc2 = quasigroup_to_doc(m12)
    doc2["identity"] = -1
    with pytest.raises(RangeError):
        doc_to_quasigroup(parse(emit(doc2)))


def test_factorization_documents_must_be_closed(coarse2):
    mp = mp_discrete_right(coarse2)
    doc = factorization_to_doc(canonical_factorization(mp))
    doc["a_arrows"] = doc["a_arrows"][:-1]  # drop one arrow: closure breaks
    with pytest.raises(RangeError):
        doc_to_factorization(parse(emit(doc)))


def test_a_subset_entry_that_is_not_an_arrow_is_a_range_error(coarse2):
    """Checked before duplicates, so an unhashable entry cannot escape as
    a TypeError."""
    doc = factorization_to_doc(canonical_factorization(mp_discrete_right(coarse2)))
    for bad, shown in (([0], "[0]"), ({}, "{}"), (9, "9")):
        doc["a_arrows"] = [bad, *doc["h_arrows"], bad]
        with pytest.raises(RangeError, match=re.escape(f"a_arrows entry {shown} out of range")):
            doc_to_factorization(parse(emit(doc)))
    doc["a_arrows"] = doc["h_arrows"] * 2
    with pytest.raises(SchemaError, match="a_arrows contains duplicates"):
        doc_to_factorization(parse(emit(doc)))


def test_emission_is_deterministic(z3):
    mp = mp_action_left(z3, 3, z3_translation)
    assert emit(matched_pair_to_doc(mp)) == emit(matched_pair_to_doc(mp))


# Each product-entry error of a quasigroupoid document, pinned by class and
# message: `appended` goes after the valid product of coarse(2), whose four
# arrows (0,0), (0,1), (1,0), (1,1) compose when the middle objects agree.
PRODUCT_ERRORS = [
    ([[0, 1]], SchemaError, "product entries must be [a, b, c] index triples"),
    (["abc"], SchemaError, "product entries must be [a, b, c] index triples"),
    ([[0, 1, "1"]], SchemaError, "product entries must be [a, b, c] index triples"),
    ([[0, 1, 1.0]], SchemaError, "product entries must be [a, b, c] index triples"),
    ([[0, 0, 4]], RangeError, "product entry [0, 0, 4] out of range"),
    ([[-1, 0, 0]], RangeError, "product entry [-1, 0, 0] out of range"),
    ([[1, 0, 0]], RangeError, "product entry on non-composable pair (1,0)"),
    ([[0, 0, 0]], SchemaError, "duplicate product entry for pair (0,0)"),
    ([[False, 0, 0]], SchemaError, "duplicate product entry for pair (False,0)"),
    # the first bad entry is the one reported
    ([[0, 0, 4], [1, 0, 0]], RangeError, "product entry [0, 0, 4] out of range"),
    ([[1, 0, 0], [0, 0, 4]], RangeError, "product entry on non-composable pair (1,0)"),
    ([[2, 1, 3], [0, 1]], SchemaError, "duplicate product entry for pair (2,1)"),
    ([[0, 1], [2, 1, 3]], SchemaError, "product entries must be [a, b, c] index triples"),
    ([[True, 9, 0], [0, 1]], RangeError, "product entry [True, 9, 0] out of range"),
]


@pytest.mark.parametrize("appended,error,message", PRODUCT_ERRORS)
def test_product_entry_errors_are_pinned(coarse2, appended, error, message):
    doc = quasigroupoid_to_doc(coarse2)
    doc["product"] += appended
    with pytest.raises(SchemaError) as info:
        doc_to_quasigroupoid(parse(emit(doc)))
    assert (type(info.value), str(info.value)) == (error, message)


def test_bool_product_indices_read_as_integers(coarse2):
    # JSON false is a Python bool, which is an int: [false, 0, 0] stands for
    # [0, 0, 0] and the document parses with the bool kept as written
    doc = quasigroupoid_to_doc(coarse2)
    doc["product"][0] = [False, 0, 0]
    text = emit(doc)
    assert '[\n   false,\n   0,\n   0\n  ]' in text
    back = parse(text)
    assert back["product"][0] == [False, 0, 0] and back["product"][0][0] is False
    assert doc_to_quasigroupoid(back).prod == coarse2.prod


def test_factorization_with_a_missing_product_entry_exits_2(tmp_path, z2, capsys):
    """The document parses: a product entry that is absent cannot break
    closure.  Building the component A then names the missing pair."""
    doc = factorization_to_doc(canonical_factorization(mp_discrete_right(pair_quasigroupoid(z2, 2))))
    doc["b"]["product"] = [entry for entry in doc["b"]["product"] if entry[:2] != [0, 0]]
    text = emit(doc)
    assert parse(text) == doc
    path = tmp_path / "fact.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: product missing on composable pair (0,0)\n")


@pytest.mark.parametrize("text,error", [
    ('{"kind": "quasigroup", "version": 1}', None),
    ("not json", "line 1: Expecting value"),
    ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
    ('{"order": 1' + "0" * 4400 + "}", "4300 digits"),
], ids=["valid", "json-decode-error", "recursion-error", "long-integer-value-error"])
def test_parse_leaves_the_collector_as_it_found_it(monkeypatch, collector, text, error):
    states, json_loads = [], json.loads

    def loads(text, **kwargs):
        states.append(gc.isenabled())
        return json_loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    if error is None:
        assert parse(text)["kind"] == "quasigroup"
    else:
        with pytest.raises(SchemaError, match=error):
            parse(text)
    assert states == [False]
    assert gc.isenabled() is collector


def _held_ints(node):
    """Every exact int that `node`, a parsed JSON value, holds."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _held_ints(child)
    elif type(node) is int:
        yield node


def test_parse_holds_each_integer_value_in_one_object():
    """`parse` decides index identity for every reader: in a whq document of
    dimension 300, every integer it holds is the one object of its value,
    the counit and coproduct indices included, and `true` and `false` in an
    index slot stay bools.  The integers are shared within one call only:
    two parses of one text hold distinct objects for 300."""
    doc = whq_to_doc(magma_of_quasigroupoid(discrete_groupoid(300)))
    doc["product"][0][0], doc["coproduct"][0][1] = True, False
    text = emit(doc)
    parsed = parse(text)
    assert parsed["product"][0][0] is True and parsed["coproduct"][0][1] is False
    for field in ("counit", "coproduct", "unit", "product", "antipode"):
        assert max(_held_ints(parsed[field])) == 299, field
    held = list(_held_ints(parsed))
    objects = {}
    for i in held:
        objects.setdefault(i, set()).add(id(i))
    assert len(held) > 3 * len(objects)
    assert [value for value, ids in objects.items() if len(ids) > 1] == []
    again = parse(text)["dim"]
    assert again == parsed["dim"] == 300 and again is not parsed["dim"]
