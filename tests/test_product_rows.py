"""A weak Hopf quasigroup's product is stored as rows of its nonzero
values (`MagmaCoalgebra.product`, a `PairTable`), and a product given as an
n^2 -> n `LinearMap`, the form it was stored in before, is converted to
those rows on construction.  The oracle: on every golden whq input, the
negative whq fixtures and the group-like kernel's corpus, the structure
built from the n^2-column map equals the one built from rows and emits
the same document bytes."""

import dataclasses
import json

import pytest

from nonassoc import coarse_groupoid, magma_of_quasigroupoid
from nonassoc.documents import doc_to_whq, emit, field_by_name, parse, whq_to_doc
from nonassoc.linalg import LinearMap
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import DimensionMismatch
from tests.conftest import product_map
from tests.negative_fixtures import whq_fixtures, whq_precondition_fixtures
from tests.test_golden_cli import golden_documents
from tests.test_grouplike_kernel import corpus  # noqa: F401  (a fixture)


def _column_product(doc: dict) -> LinearMap:
    """The product of a whq document as its n^2-column map, read from the
    entries the way documents were read before the product was rows."""
    n, field = doc["dim"], field_by_name(doc["field"])
    cols: list = [{} for _ in range(n * n)]
    for h, k, m, scalar in doc["product"]:
        cols[h * n + k][m] = field.from_string(scalar)
    return LinearMap.from_cols(n * n, n, cols)


def _assert_same_structure(name, d, columns: LinearMap, field="Q"):
    from_columns = dataclasses.replace(d, product=columns)
    assert from_columns == d, name
    assert from_columns.product.rows == d.product.rows, name
    assert emit(whq_to_doc(from_columns, field)) == emit(whq_to_doc(d, field)), name


def test_golden_whq_inputs_read_from_columns_equal_their_rows():
    checked = 0
    for name, text in golden_documents().items():
        doc = json.loads(text)
        if doc["kind"] != "whq":
            continue
        d = doc_to_whq(parse(text))
        _assert_same_structure(name, d, _column_product(doc), doc["field"])
        checked += 1
    assert checked >= 20


def test_whq_fixtures_and_the_kernel_corpus_read_from_columns_equal_their_rows(corpus):  # noqa: F811
    structures = {**whq_fixtures(), **whq_precondition_fixtures(), **corpus}
    for name, d in structures.items():
        _assert_same_structure(name, d, product_map(d.product, d.dim))


@pytest.mark.parametrize("place", ["first factor", "second factor", "value", "negative value"])
def test_a_product_index_out_of_range_raises(place):
    """Each index a stored product uses, its two factors and the basis
    vectors of its value, is checked against the dimension."""
    d = magma_of_quasigroupoid(coarse_groupoid(2))
    n, (h, k) = d.dim, next(iter(d.product))
    rows = {x: dict(row) for x, row in d.product.rows.items()}
    if place == "first factor":
        rows[n] = {k: {0: 1}}
    elif place == "second factor":
        rows[h][n] = {0: 1}
    else:
        rows[h][k] = {n if place == "value" else -1: 1}
    with pytest.raises(DimensionMismatch, match="^product index out of range$"):
        dataclasses.replace(d, product=PairTable(rows))
