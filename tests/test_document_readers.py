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
import tracemalloc

import pytest

import tests.reference_documents as reference
from nonassoc import (
    coarse_groupoid,
    cyclic_group,
    discrete_groupoid,
    double_cross_product,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc import documents
from nonassoc.documents import (
    SchemaError,
    action_to_doc,
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
from nonassoc.hopf import magma_of_quasigroupoid
from nonassoc.linalg import LinearMap
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


def _table_indices(table: PairTable) -> list:
    return [i for x, row in table.rows.items() for y, v in row.items() for i in (x, y, v)]


def _quasigroupoid_indices(q) -> list:
    return [*q.src, *q.tgt, *q.unit, *q.inv, *_table_indices(q.prod)]


def _stored_indices(kind: str, read) -> list:
    """Every index the structure read from a document of `kind` stores as a
    key or a value.  The counit and coproduct indices of a whq document only
    pick a column or form the key j * n + k, so they are not among them."""
    if kind == "quasigroupoid":
        return _quasigroupoid_indices(read)
    if kind == "matched-pair":
        return [
            *_quasigroupoid_indices(read.a), *_quasigroupoid_indices(read.h),
            *_table_indices(read.left.table), *_table_indices(read.right.table),
        ]
    if kind == "factorization":
        return [*_quasigroupoid_indices(read.b), *read.ia.arrow_map, *read.ih.arrow_map]
    return [
        *read.unit,
        *(i for h, row in read.product.rows.items() for k, vec in row.items() for i in (h, k, *vec)),
        *(i for col in read.antipode.cols for i in col),
    ]


def _held_twice(stored) -> list:
    """The (type, value) pairs of `stored` that more than one object holds."""
    ids: dict = {}
    for i in stored:
        ids.setdefault((type(i), i), set()).add(id(i))
    return [key for key, held in ids.items() if len(held) > 1]


def _indexed_documents(b, factorization) -> dict:
    """The documents of b, of its discrete-right matched pair, of
    `factorization` and of the magma of b: every kind whose reader stores
    indices in tables, each with indices above 256 when b has 300 arrows."""
    assert b.n_arrows == 300
    return {
        "quasigroupoid": quasigroupoid_to_doc(b),
        "matched-pair": matched_pair_to_doc(mp_discrete_right(b)),
        "factorization": factorization_to_doc(factorization),
        "whq": whq_to_doc(magma_of_quasigroupoid(b)),
    }


def test_each_index_value_is_one_object_per_read():
    """On the documents of pair(M12, 5), 300 arrows, with its two-sided
    factorization, and of the discrete groupoid on 300 objects, with its
    canonical factorization, every index the read structure stores is the
    one object of its value, so at most 300 distinct objects hold them."""
    pair, discrete = pair_quasigroupoid(moufang_loop_12(), 5), discrete_groupoid(300)
    docs = [
        *_indexed_documents(pair, two_sided_factorization(5)).items(),
        *_indexed_documents(discrete, canonical_factorization(mp_discrete_right(discrete))).items(),
    ]
    for kind, doc in docs:
        read = _reader(documents, kind)(parse(emit(doc)))
        stored = _stored_indices(kind, read)
        assert all(type(i) is int for i in stored), kind
        assert max(stored) == 299 and len(stored) > 2 * len(set(stored)), kind
        assert _held_twice(stored) == [], kind
        assert len({id(i) for i in stored}) <= 300, kind


def _peak(build) -> int:
    """The tracemalloc peak, in bytes, while build() runs and its result lives."""
    tracemalloc.start()
    try:
        built = build()  # alive until the peak is read
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_whq_document_allocates_per_declared_index_only_its_columns():
    """A whq document with no entries, read at "dim" 4000 and 8000: the
    counit and antipode are maps with one column per basis vector, the
    coproduct holds one list of legs per basis vector, and the read
    allocates nothing else per declared index, within 8 bytes an index."""
    def read(n):
        text = emit({"kind": "whq", "version": 1, "dim": n, "field": "Q", "unit": [],
                     "counit": [], "product": [], "coproduct": [], "antipode": []})
        return _peak(lambda: doc_to_whq(parse(text)))

    def storage(n):  # the two maps and the legs as the reader builds them, empty
        def build():
            counit, antipode = ([{} for _ in range(n)] for _ in range(2))
            legs = [[] for _ in range(n)]
            return LinearMap(n, 1, tuple(counit)), LinearMap(n, n, tuple(antipode)), legs
        return _peak(build)

    per_index = (read(8000) - read(4000)) / 4000
    per_storage = (storage(8000) - storage(4000)) / 4000
    assert per_index <= per_storage + 8, (per_index, per_storage)


def test_a_bool_in_an_index_slot_keeps_its_type():
    """`true` and `false` are ints to the schema, so an index slot may hold
    one.  On the documents of pair(M12, 5) and of the discrete groupoid on
    300 objects, with one index 0 or 1 at a time replaced by the bool of its
    value, the readers store the indices the reference stores, in its order
    and with its types, each value one object, or raise what the reference
    raises.  Where a document has them, half the slots are taken from lists
    that also hold an index above 256, so the bool lies beside indices that
    only `parse` shares."""
    def typed(module, kind, text):
        try:
            read = _reader(module, kind)(module.parse(text))
        except Exception as exc:
            return ("raises", type(exc), str(exc))
        stored = _stored_indices(kind, read)
        if module is documents:
            assert _held_twice(stored) == [], kind
        return [(type(i), i) for i in stored]

    rng = random.Random(5)
    bools = 0
    pair, discrete = pair_quasigroupoid(moufang_loop_12(), 5), discrete_groupoid(300)
    docs = [
        *_indexed_documents(pair, two_sided_factorization(5)).items(),
        *_indexed_documents(discrete, canonical_factorization(mp_discrete_right(discrete))).items(),
    ]
    for kind, doc in docs:
        beside_big, rest = [], []

        def walk(node, path):
            for key, child in enumerate(node) if isinstance(node, list) else node.items():
                if isinstance(child, (list, dict)):
                    walk(child, path + (key,))
                elif isinstance(node, list) and type(child) is int and child in (0, 1):
                    big = any(type(i) is int and i > 256 for i in node)
                    (beside_big if big else rest).append(path + (key,))

        walk(doc, ())
        base = json.dumps(doc)
        slots = rng.sample(beside_big, min(2, len(beside_big))) + rng.sample(rest, 2)
        for *parents, last in slots:
            copy = json.loads(base)
            holder = copy
            for key in parents:
                holder = holder[key]
            flag = holder[last] = bool(holder[last])
            text = json.dumps(copy)
            expected = typed(reference, kind, text)
            assert typed(documents, kind, text) == expected, (kind, parents, last)
            bools += (bool, flag) in expected
    assert bools > 20, bools  # most of the bools are read and stored, not refused
