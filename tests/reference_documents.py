"""The document reader as it stood before each `doc_to_*` validated while
it built, kept as the oracle for `tests/test_document_readers.py`.

`parse` checks the envelope and then runs the `_validate_*` walk of the
document's kind over the whole document, which builds and drops every
product and action table; the `doc_to_*` decoders then trust the validated
document and build the structure again.  The import inside
`doc_to_quasigroup` is absolute here, and `doc_to_whq` builds the product
as rows of its nonzero entries in document order, the form the library
stores; otherwise this is the library's code from before that change.
"""

import json

from nonassoc.documents import KINDS, VERSION, RangeError, SchemaError
from nonassoc.factorizations import FactorizationCandidate, sub_quasigroupoid
from nonassoc.hopf import MagmaCoalgebra
from nonassoc.linalg import LinearMap, field_by_name, vec_canonical
from nonassoc.matched_pairs import LeftAction, MatchedPair, RightAction
from nonassoc.quasigroupoids import PairTable, Quasigroupoid
from nonassoc.quasigroups import FiniteQuasigroup
from nonassoc.reports import StructureError


def parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("not valid JSON: arrays or objects nested too deeply") from exc
    except ValueError as exc:  # an integer literal longer than int() converts
        raise SchemaError(f"not valid JSON: {str(exc).split(';')[0]}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"field 'kind' must be one of {KINDS}, got {kind!r}")
    if doc.get("version") != VERSION:
        raise SchemaError(f"field 'version' must be {VERSION}")
    _VALIDATORS[kind](doc)
    return doc


def _need(doc: dict, field: str, kind_of) -> object:
    if field not in doc:
        raise SchemaError(f"missing field '{field}'")
    value = doc[field]
    if not isinstance(value, kind_of):
        raise SchemaError(f"field '{field}' has wrong type")
    return value


def _index_list(doc, field, length, bound):
    seq = _need(doc, field, list)
    if len(seq) != length:
        raise SchemaError(f"field '{field}' must have length {length}")
    for i, v in enumerate(seq):
        if not isinstance(v, int) or not 0 <= v < bound:
            raise RangeError(f"{field}[{i}] = {v!r} out of range 0..{bound - 1}")
    return seq


def _validate_quasigroup(doc: dict) -> None:
    order = _need(doc, "order", int)
    if order < 1:
        raise SchemaError("order must be positive")
    identity = _need(doc, "identity", int)
    if not 0 <= identity < order:
        raise RangeError(f"identity {identity} out of range")
    table = _need(doc, "table", list)
    if len(table) != order:
        raise SchemaError("table must have 'order' rows")
    for u, row in enumerate(table):
        if not isinstance(row, list) or len(row) != order:
            raise SchemaError(f"table row {u} must have length {order}")
        for v, w in enumerate(row):
            if not isinstance(w, int) or not 0 <= w < order:
                raise RangeError(f"table[{u}][{v}] = {w!r} out of range")
    if "names" in doc:
        names = _need(doc, "names", list)
        if len(names) != order or not all(isinstance(s, str) for s in names):
            raise SchemaError("names must list one string per element")


def _validate_quasigroupoid(doc: dict) -> PairTable:
    """Check a quasigroupoid document; return its product table."""
    objects = _need(doc, "objects", int)
    arrows = _need(doc, "arrows", int)
    if objects < 1 or arrows < objects:
        raise SchemaError("need at least one object and an arrow per object")
    src = _index_list(doc, "src", arrows, objects)
    tgt = _index_list(doc, "tgt", arrows, objects)
    _index_list(doc, "unit", objects, arrows)
    _index_list(doc, "inv", arrows, arrows)
    prod = _pair_table(doc, "product", "[a, b, c] index", (arrows, arrows, arrows), (src, tgt))
    for field in ("object_names", "arrow_names"):
        if field in doc:
            names = _need(doc, field, list)
            expect = objects if field == "object_names" else arrows
            if len(names) != expect or not all(isinstance(s, str) for s in names):
                raise SchemaError(f"{field} must list one string per entry")
    return prod


def _validate_action(doc: dict) -> None:
    qdoc = _need(doc, "quasigroup", dict)
    _validate_quasigroup(qdoc)
    points = _need(doc, "points", int)
    if points < 1:
        raise SchemaError("points must be positive")
    order = qdoc["order"]
    psi = _need(doc, "psi", list)
    if len(psi) != order:
        raise SchemaError("psi must have one row per element")
    for a, row in enumerate(psi):
        if not isinstance(row, list) or len(row) != points:
            raise SchemaError(f"psi row {a} must have length {points}")
        for x, y in enumerate(row):
            if not isinstance(y, int) or not 0 <= y < points:
                raise RangeError(f"psi[{a}][{x}] = {y!r} out of range")


def _pair_table(doc, field, shape, bounds, ends=None) -> PairTable:
    """The [x, y, v] entries of `field` as a table: x, y and v must lie
    below `bounds`, each pair appear once, and, with `ends` = (src, tgt),
    src[x] = tgt[y].  The first bad entry is the one reported."""
    (x_bound, y_bound, v_bound), rows = bounds, {}
    for entry in _need(doc, field, list):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], int)
            or not isinstance(entry[2], int)
        ):
            raise SchemaError(f"{field} entries must be {shape} triples")
        x, y, v = entry
        if not 0 <= x < x_bound or not 0 <= y < y_bound or not 0 <= v < v_bound:
            raise RangeError(f"{field} entry {entry} out of range")
        if ends and ends[0][x] != ends[1][y]:
            raise RangeError(f"{field} entry on non-composable pair ({x},{y})")
        row = rows.setdefault(x, {})
        if y in row:
            raise SchemaError(f"duplicate {field} entry for pair ({x},{y})")
        row[y] = v
    return PairTable(rows)


def _validate_matched_pair(doc: dict) -> None:
    adoc = _need(doc, "a", dict)
    hdoc = _need(doc, "h", dict)
    _validate_quasigroupoid(adoc)
    _validate_quasigroupoid(hdoc)
    if adoc["objects"] != hdoc["objects"]:
        raise RangeError("components must share one base")
    shape, na, nh = "[h, a, value]", adoc["arrows"], hdoc["arrows"]
    _pair_table(doc, "left", shape, (nh, na, na))
    _pair_table(doc, "right", shape, (nh, na, nh))


def _validate_factorization(doc: dict) -> None:
    bdoc = _need(doc, "b", dict)
    prod = _validate_quasigroupoid(bdoc)
    arrows = bdoc["arrows"]
    units = set(bdoc["unit"])
    for field in ("a_arrows", "h_arrows"):
        subset = _need(doc, field, list)
        for v in subset:
            if not isinstance(v, int) or not 0 <= v < arrows:
                raise RangeError(f"{field} entry {v!r} out of range")
        chosen = set(subset)
        if len(chosen) != len(subset):
            raise SchemaError(f"{field} contains duplicates")
        if not units <= chosen:
            raise RangeError(f"{field} must contain every identity arrow")
        for x in chosen:
            if bdoc["inv"][x] not in chosen:
                raise RangeError(f"{field} not closed under the inverse map at {x}")
        for x in chosen:
            for y in chosen:
                if (x, y) in prod and prod[(x, y)] not in chosen:
                    raise RangeError(f"{field} not closed under the product at ({x},{y})")

def _parse_scalar(text, field):
    if not isinstance(text, str):
        raise SchemaError(f"scalar {text!r} must be a string")
    try:
        return field.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad scalar {text!r}: {exc}") from exc


def _validate_sparse(entries, what, *bounds):
    if not isinstance(entries, list):
        raise SchemaError(f"{what} must be a list")
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != len(bounds) + 1:
            raise SchemaError(f"{what} entries must be [indices..., scalar]")
        *idx, scalar = entry
        for i, bound in zip(idx, bounds):
            if not isinstance(i, int) or not 0 <= i < bound:
                raise RangeError(f"{what} entry {entry} out of range")
        if not isinstance(scalar, str):
            raise SchemaError(f"{what} scalar must be a string")
        key = tuple(idx)
        if key in seen:
            raise SchemaError(f"duplicate {what} entry at {key}")
        seen.add(key)


def _validate_whq(doc: dict) -> None:
    dim = _need(doc, "dim", int)
    if dim < 1:
        raise SchemaError("dim must be positive")
    name = _need(doc, "field", str)
    try:
        field_by_name(name)
    except StructureError as exc:
        raise SchemaError(f"field 'field': {exc}") from exc
    _validate_sparse(_need(doc, "unit", list), "unit", dim)
    _validate_sparse(_need(doc, "counit", list), "counit", dim)
    _validate_sparse(_need(doc, "product", list), "product", dim, dim, dim)
    _validate_sparse(_need(doc, "coproduct", list), "coproduct", dim, dim, dim)
    _validate_sparse(_need(doc, "antipode", list), "antipode", dim, dim)
    if "basis_names" in doc:
        names = _need(doc, "basis_names", list)
        if len(names) != dim or not all(isinstance(s, str) for s in names):
            raise SchemaError("basis_names must list one string per basis vector")


_VALIDATORS = {
    "quasigroup": _validate_quasigroup,
    "quasigroupoid": _validate_quasigroupoid,
    "action": _validate_action,
    "matched-pair": _validate_matched_pair,
    "factorization": _validate_factorization,
    "whq": _validate_whq,
}


def doc_to_quasigroup(doc: dict) -> FiniteQuasigroup:
    from nonassoc.quasigroups import quasigroup

    return quasigroup(doc["table"], doc["identity"], doc.get("names"))


def doc_to_quasigroupoid(doc: dict) -> Quasigroupoid:
    return Quasigroupoid(
        n_objects=doc["objects"],
        src=tuple(doc["src"]),
        tgt=tuple(doc["tgt"]),
        unit=tuple(doc["unit"]),
        inv=tuple(doc["inv"]),
        prod=PairTable.from_triples(doc["product"]),
        object_names=tuple(doc["object_names"]) if "object_names" in doc else None,
        arrow_names=tuple(doc["arrow_names"]) if "arrow_names" in doc else None,
    )


def doc_to_action(doc: dict) -> tuple[FiniteQuasigroup, int, list[list[int]]]:
    return doc_to_quasigroup(doc["quasigroup"]), doc["points"], doc["psi"]


def doc_to_matched_pair(doc: dict) -> MatchedPair:
    a = doc_to_quasigroupoid(doc["a"])
    h = doc_to_quasigroupoid(doc["h"])
    left, right = PairTable.from_triples(doc["left"]), PairTable.from_triples(doc["right"])
    return MatchedPair(a, h, LeftAction(h, a, left), RightAction(h, a, right))


def doc_to_factorization(doc: dict) -> FactorizationCandidate:
    b = doc_to_quasigroupoid(doc["b"])
    _, ia = sub_quasigroupoid(b, tuple(doc["a_arrows"]))
    _, ih = sub_quasigroupoid(b, tuple(doc["h_arrows"]))
    return FactorizationCandidate(b, ia, ih)


def doc_to_whq(doc: dict) -> MagmaCoalgebra:
    n = doc["dim"]
    field = field_by_name(doc["field"])

    def gather(entries):
        table: dict = {}
        for entry in entries:
            *idx, scalar = entry
            table[tuple(idx)] = _parse_scalar(scalar, field)
        return table

    unit = vec_canonical({i: c for (i,), c in gather(doc["unit"]).items()})
    counit_cols: list[dict] = [{} for _ in range(n)]
    for (i,), c in gather(doc["counit"]).items():
        counit_cols[i][0] = c
    product_rows: dict = {}
    for (i, j, k), c in gather(doc["product"]).items():
        if c:
            product_rows.setdefault(i, {}).setdefault(j, {})[k] = c
    coproduct_cols: list[dict] = [{} for _ in range(n)]
    for (i, j, k), c in gather(doc["coproduct"]).items():
        coproduct_cols[i][j * n + k] = c
    antipode_cols: list[dict] = [{} for _ in range(n)]
    for (i, k), c in gather(doc["antipode"]).items():
        antipode_cols[i][k] = c
    return MagmaCoalgebra(
        n,
        unit,
        PairTable(product_rows),
        LinearMap.from_cols(n, 1, counit_cols),
        LinearMap.from_cols(n, n * n, coproduct_cols),
        LinearMap.from_cols(n, n, antipode_cols),
        basis_names=tuple(doc["basis_names"]) if "basis_names" in doc else None,
    )
