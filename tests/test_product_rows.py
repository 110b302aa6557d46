"""A weak Hopf quasigroup's product is stored as rows of its nonzero
values (`MagmaCoalgebra.product`, a `PairTable`), and a product given as an
n^2 -> n `LinearMap`, the form it was stored in before, is converted to
those rows on construction.  Its coproduct is stored as the legs of each
delta(i) (`MagmaCoalgebra.coproduct`), and a coproduct given as an
n -> n^2 `LinearMap` is converted to those legs, in the order of each
column's entries, with its zero entries dropped.  The oracle: on every
golden whq input, the negative whq fixtures and the group-like kernel's
corpus, the structure built from either map equals the one built from rows
and legs, stores the same legs in the same order, and emits the same
document bytes."""

import dataclasses
import json

import pytest

from nonassoc import coarse_groupoid, magma_of_quasigroupoid
from nonassoc.documents import doc_to_whq, emit, field_by_name, parse, whq_to_doc
from nonassoc.linalg import LinearMap
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import DimensionMismatch
from tests.conftest import coproduct_map, product_map
from tests.negative_fixtures import whq_fixtures, whq_precondition_fixtures
from tests.test_golden_cli import golden_documents
from tests.test_grouplike_kernel import corpus  # noqa: F401  (a fixture)


def _column_maps(doc: dict) -> dict:
    """The product and coproduct of a whq document as their n^2 -> n and
    n -> n^2 maps, read from the entries the way documents were read before
    they were rows and legs."""
    n, field = doc["dim"], field_by_name(doc["field"])
    products: list = [{} for _ in range(n * n)]
    for h, k, m, scalar in doc["product"]:
        products[h * n + k][m] = field.from_string(scalar)
    coproducts: list = [{} for _ in range(n)]
    for i, x, y, scalar in doc["coproduct"]:
        coproducts[i][x * n + y] = field.from_string(scalar)
    return {
        "product": LinearMap.from_cols(n * n, n, products),
        "coproduct": LinearMap.from_cols(n, n * n, coproducts),
    }


def _assert_same_structure(name, d, maps: dict, field="Q"):
    """d rebuilt from each of the given maps, and from all of them, is d."""
    for changed in [{name: m} for name, m in maps.items()] + [maps]:
        from_columns = dataclasses.replace(d, **changed)
        assert from_columns == d, (name, *changed)
        assert from_columns.product.rows == d.product.rows, (name, *changed)
        assert from_columns.coproduct == d.coproduct, (name, *changed)
        assert emit(whq_to_doc(from_columns, field)) == emit(whq_to_doc(d, field)), (name, *changed)


def test_golden_whq_inputs_read_from_columns_equal_their_rows():
    checked = 0
    for name, text in golden_documents().items():
        doc = json.loads(text)
        if doc["kind"] != "whq":
            continue
        d = doc_to_whq(parse(text))
        _assert_same_structure(name, d, _column_maps(doc), doc["field"])
        checked += 1
    assert checked >= 20


def test_whq_fixtures_and_the_kernel_corpus_read_from_columns_equal_their_rows(corpus):  # noqa: F811
    structures = {**whq_fixtures(), **whq_precondition_fixtures(), **corpus}
    for name, d in structures.items():
        maps = {"product": product_map(d.product, d.dim), "coproduct": coproduct_map(d.coproduct, d.dim)}
        _assert_same_structure(name, d, maps)


def test_zero_legs_are_dropped():
    """A zero leg given in a list of legs, or a zero entry stored in a
    coproduct column, is no leg of the structure."""
    d = magma_of_quasigroupoid(coarse_groupoid(2))
    n = d.dim
    legs = [list(split) for split in d.coproduct]
    legs[1] = [(0, 3, 0), *legs[1], (2, 2, 0)]
    cols = list(coproduct_map(d.coproduct, n).cols)
    cols[1] = {3: 0, **cols[1], 10: 0}  # the same two zero legs, 0 (x) 3 and 2 (x) 2
    columns = LinearMap(n, n * n, tuple(cols))
    for coproduct in (legs, columns):
        rebuilt = dataclasses.replace(d, coproduct=coproduct)
        assert rebuilt.coproduct == d.coproduct
        assert rebuilt == d


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


@pytest.mark.parametrize("place", ["first leg", "second leg", "negative leg", "too few", "too many"])
def test_a_coproduct_leg_out_of_range_or_a_wrong_count_of_leg_lists_raises(place):
    """Each leg index is checked against the dimension, and the coproduct
    has one list of legs per basis vector."""
    d = magma_of_quasigroupoid(coarse_groupoid(2))
    n = d.dim
    legs = [list(split) for split in d.coproduct]
    message = "^coproduct index out of range$"
    if place == "first leg":
        legs[0].append((n, 0, 1))
    elif place == "second leg":
        legs[0].append((0, n, 1))
    elif place == "negative leg":
        legs[0].append((-1, 0, 1))
    else:
        legs = legs[:-1] if place == "too few" else legs + [[]]
        message = "^structure maps inconsistent with dimension$"
    with pytest.raises(DimensionMismatch, match=message):
        dataclasses.replace(d, coproduct=legs)
