"""Each `doc_to_<kind>` reads its document in one pass: it checks the schema
while it builds the structure.

The oracle is `tests/reference_documents.py`, the reader as it stood when
`parse` validated the whole document and the decoders trusted it.  On every
input below, `doc_to_<kind>(parse(text))` and the reference give equal
structures, down to entry order and scalar types, or raise exceptions of
one type with one message.  The inputs are the seeded mutants of the
exit-code fuzz generator, a second seeded generator that deletes fields or
replaces values with ones of the wrong type, the pinned product-entry
errors, the golden CLI inputs, the arrow-subset cases and two unreadable
scalars.  Equal outcomes on the fuzz mutants also mean that the fuzz test
keeps the mutants it kept when `parse` validated the whole document.
"""

import dataclasses
import json
import random

import pytest

import tests.reference_documents as reference
from nonassoc import coarse_groupoid, cyclic_group, double_cross_product, mp_discrete_right
from nonassoc import documents
from nonassoc.documents import (
    SchemaError,
    action_to_doc,
    emit,
    factorization_to_doc,
    matched_pair_to_doc,
    parse,
    quasigroup_to_doc,
    quasigroupoid_to_doc,
    whq_to_doc,
)
from nonassoc.factorizations import canonical_factorization
from nonassoc.hopf import magma_of_quasigroupoid
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import StructureError
from tests.conftest import two_sided_factorization, two_sided_pair, z3_translation
from tests.test_documents import PRODUCT_ERRORS
from tests.test_exit_code_fuzz import MUTANTS, _bases, _mutant
from tests.test_golden_cli import golden_documents


def _reader(module, kind: str):
    return getattr(module, "doc_to_" + kind.replace("-", "_"))


def snapshot(value):
    """`value` as nested tuples that keep the order of every list, dict and
    table, and the type of every scalar."""
    if isinstance(value, PairTable):
        return ("PairTable", snapshot(list(value.items())))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, snapshot(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(snapshot(v) for v in value)
    if isinstance(value, dict):
        return ("dict",) + tuple((snapshot(k), snapshot(v)) for k, v in value.items())
    return (type(value).__name__, value)


def outcome(module, kind: str, text: str):
    """What reading `text` as a document of `kind` gives: the snapshot of
    the structure, or the type and message of the exception raised."""
    try:
        return snapshot(_reader(module, kind)(module.parse(text)))
    except Exception as exc:
        return ("raises", type(exc), str(exc))


def _schema_faults(doc, rng, count):
    """`count` copies of doc, each with one field deleted or one value
    replaced by a value of another type or range."""
    slots = []

    def walk(node, path):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return
        for key, child in items:
            if path or key not in ("kind", "version"):
                slots.append(path + (key,))
                walk(child, path + (key,))

    walk(doc, ())
    replacements = (None, "x", 1.5, [], {}, -1, True, 10**6, [0], ["0"])
    out = []
    for _ in range(count):
        copy = json.loads(json.dumps(doc))
        *parents, last = rng.choice(slots)
        holder = copy
        for key in parents:
            holder = holder[key]
        if isinstance(holder, dict) and rng.random() < 0.3:
            del holder[last]
        else:
            holder[last] = rng.choice(replacements)
        out.append(copy)
    return out


def _oracle_inputs():
    """(kind, text) of every compared input."""
    inputs = []
    rng = random.Random(9)  # the fuzz test's generator and seed
    for base in _bases():
        kept = 0
        while kept < MUTANTS:
            doc = _mutant(base, rng)
            text = emit(doc)
            inputs.append((doc["kind"], text))
            try:
                reference.parse(text)
                kept += 1
            except StructureError:
                pass
    rng = random.Random(12)
    for base in _bases():
        inputs += [(base["kind"], emit(doc)) for doc in _schema_faults(base, rng, 12)]
    coarse2 = coarse_groupoid(2)
    for appended, _, _ in PRODUCT_ERRORS:
        doc = quasigroupoid_to_doc(coarse2)
        doc["product"] += appended
        inputs.append(("quasigroupoid", emit(doc)))
    for text in golden_documents().values():
        inputs.append((json.loads(text)["kind"], text))
    doc = factorization_to_doc(canonical_factorization(mp_discrete_right(coarse2)))
    for bad in ([0], {}, 9):
        inputs.append(("factorization", emit({**doc, "a_arrows": [bad, *doc["h_arrows"], bad]})))
    inputs.append(("factorization", emit({**doc, "a_arrows": doc["h_arrows"] * 2})))
    inputs.append(("factorization", emit({**doc, "a_arrows": doc["a_arrows"][:-1]})))
    # a scalar the field cannot read, alone and before a range error
    doc = whq_to_doc(magma_of_quasigroupoid(coarse2), "GF5")
    doc["unit"][0][-1] = "1/5"
    inputs.append(("whq", emit(doc)))
    doc["antipode"][0][0] = 99
    inputs.append(("whq", emit(doc)))
    return inputs


def test_readers_agree_with_the_validate_then_decode_reference():
    inputs = _oracle_inputs()
    raised = 0
    for kind, text in inputs:
        expected = outcome(reference, kind, text)
        assert outcome(documents, kind, text) == expected, text[:400]
        raised += expected[0] == "raises"
    # both sides of the oracle are exercised
    assert 300 < len(inputs) and 100 < raised < len(inputs) - 100


@pytest.mark.parametrize("kind", documents.KINDS)
def test_readers_take_any_dict(kind):
    with pytest.raises(SchemaError, match="missing field"):
        _reader(documents, kind)({})
    with pytest.raises(SchemaError, match="wrong type"):
        _reader(documents, kind)(dict.fromkeys(
            ("order", "objects", "quasigroup", "a", "b", "dim"), "x"
        ))


def test_each_table_is_built_once_per_load(monkeypatch):
    """On the two-sided pair(M12, 2) documents: the double cross product's
    product table; the products of A and H and the two action tables; the
    product of the ambient quasigroupoid and of its two components."""
    pair = two_sided_pair(2)
    texts = {
        "quasigroupoid": emit(quasigroupoid_to_doc(double_cross_product(pair))),
        "matched-pair": emit(matched_pair_to_doc(pair)),
        "factorization": emit(factorization_to_doc(two_sided_factorization(2))),
    }
    built = []
    init = PairTable.__init__

    def counting(self, rows):
        built.append(len(rows))
        init(self, rows)

    monkeypatch.setattr(PairTable, "__init__", counting)
    counts = {}
    for kind, text in texts.items():
        built.clear()
        _reader(documents, kind)(parse(text))
        counts[kind] = len(built)
    assert counts == {"quasigroupoid": 1, "matched-pair": 4, "factorization": 3}


def test_parse_checks_only_the_envelope():
    z3 = cyclic_group(3)
    doc = action_to_doc(z3, 3, z3_translation)
    doc["psi"] = "not a table"
    assert parse(emit(doc)) == doc
    doc = quasigroup_to_doc(z3)
    del doc["table"]
    assert parse(emit(doc)) == doc
