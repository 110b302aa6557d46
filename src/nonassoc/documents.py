"""Structure documents: a line-oriented JSON dialect for every kind of
object the toolkit handles (see docs/file-format.md for the schema).

Emission is canonical: sorted keys, one-space indentation, dense index
arrays, partial maps as explicit sorted pair lists, scalars as "num" or
"num/den" strings.  parse(emit(doc)) is the identity on canonical
documents, and emitted bytes are deterministic: by definition they are the
bytes of `json.dumps(doc, sort_keys=True, indent=1) + "\n"`.  `emit` is the
package's one JSON writer; every JSON text the CLI prints or writes,
machine reports included, goes through it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .factorizations import FactorizationCandidate, sub_quasigroupoid
from .hopf import MagmaCoalgebra
from .linalg import GFElement, LinearMap, field_by_name, vec_canonical
from .matched_pairs import LeftAction, MatchedPair, RightAction
from .quasigroupoids import Quasigroupoid
from .quasigroups import FiniteQuasigroup
from .reports import StructureError


class SchemaError(StructureError):
    """The document text does not follow the schema."""


class RangeError(SchemaError):
    """A well-formed document contains an out-of-range or inconsistent index."""


KINDS = ("quasigroup", "quasigroupoid", "action", "matched-pair", "factorization", "whq")
VERSION = 1


_encode_str = json.encoder.encode_basestring_ascii


def emit(doc) -> str:
    """The text of `doc`: by definition the bytes of
    `json.dumps(doc, sort_keys=True, indent=1) + "\n"`, written without
    CPython's pure-Python indenting encoder."""
    return _write(doc, "\n") + "\n"


def _write(value, nl: str) -> str:
    """`value` as the indenting encoder writes it, `nl` being the newline
    and indentation of the line it starts on."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + " "
        kinds = set(map(type, value))
        if kinds == {int}:
            body = ("," + inner).join(map(int.__repr__, value))
        elif kinds != {list} or (body := _write_rows(value, inner)) is None:
            body = ("," + inner).join([_write(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + " "
        return "{" + inner + ("," + inner).join([
            _encode_str(k if isinstance(k, str) else _key(k)) + ": " + _write(v, inner)
            for k, v in sorted(value.items())
        ]) + nl + "}"
    return json.dumps(value)  # floats; TypeError for what JSON cannot hold


def _key(key) -> str:
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_rows(rows: list, nl: str) -> str | None:
    """Lists of one length whose every column holds only `int` or only
    `str`, each written by one `fmt % row`; None for any other rows."""
    widths = set(map(len, rows))
    if widths == {0} or len(widths) != 1:
        return None
    columns = list(zip(*rows))
    inner = nl + " "
    specs = []
    for i, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds == {int}:
            specs.append("%d")
        elif kinds == {str}:
            specs.append("%s")
            columns[i] = map(_encode_str, column)
        else:
            return None
    fmt = "[" + inner + ("," + inner).join(specs) + nl + "]"
    return ("," + nl).join(map(fmt.__mod__, zip(*columns)))


def parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
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


def _validate_quasigroupoid(doc: dict) -> dict:
    """Check a quasigroupoid document; return its product as (a, b) -> c."""
    objects = _need(doc, "objects", int)
    arrows = _need(doc, "arrows", int)
    if objects < 1 or arrows < objects:
        raise SchemaError("need at least one object and an arrow per object")
    src = _index_list(doc, "src", arrows, objects)
    tgt = _index_list(doc, "tgt", arrows, objects)
    _index_list(doc, "unit", objects, arrows)
    _index_list(doc, "inv", arrows, arrows)
    product = _need(doc, "product", list)
    prod = {}
    for entry in product:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], int)
            or not isinstance(entry[2], int)
        ):
            raise SchemaError("product entries must be [a, b, c] index triples")
        a, b, c = entry
        if not 0 <= a < arrows or not 0 <= b < arrows or not 0 <= c < arrows:
            raise RangeError(f"product entry {entry} out of range")
        if src[a] != tgt[b]:
            raise RangeError(f"product entry on non-composable pair ({a},{b})")
        key = a, b
        if key in prod:
            raise SchemaError(f"duplicate product entry for pair ({a},{b})")
        prod[key] = c
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


def _validate_pair_table(doc, field, h_arrows, a_arrows, value_bound):
    table = _need(doc, field, list)
    seen = set()
    for entry in table:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(i, int) for i in entry)
        ):
            raise SchemaError(f"{field} entries must be [h, a, value] triples")
        x, y, v = entry
        if not 0 <= x < h_arrows or not 0 <= y < a_arrows or not 0 <= v < value_bound:
            raise RangeError(f"{field} entry {entry} out of range")
        if (x, y) in seen:
            raise SchemaError(f"duplicate {field} entry for pair ({x},{y})")
        seen.add((x, y))


def _validate_matched_pair(doc: dict) -> None:
    adoc = _need(doc, "a", dict)
    hdoc = _need(doc, "h", dict)
    _validate_quasigroupoid(adoc)
    _validate_quasigroupoid(hdoc)
    if adoc["objects"] != hdoc["objects"]:
        raise RangeError("components must share one base")
    _validate_pair_table(doc, "left", hdoc["arrows"], adoc["arrows"], adoc["arrows"])
    _validate_pair_table(doc, "right", hdoc["arrows"], adoc["arrows"], hdoc["arrows"])


def _validate_factorization(doc: dict) -> None:
    bdoc = _need(doc, "b", dict)
    prod = _validate_quasigroupoid(bdoc)
    arrows = bdoc["arrows"]
    units = set(bdoc["unit"])
    for field in ("a_arrows", "h_arrows"):
        subset = _need(doc, field, list)
        if len(set(subset)) != len(subset):
            raise SchemaError(f"{field} contains duplicates")
        chosen = set()
        for v in subset:
            if not isinstance(v, int) or not 0 <= v < arrows:
                raise RangeError(f"{field} entry {v!r} out of range")
            chosen.add(v)
        if not units <= chosen:
            raise RangeError(f"{field} must contain every identity arrow")
        for x in chosen:
            if bdoc["inv"][x] not in chosen:
                raise RangeError(f"{field} not closed under the inverse map at {x}")
        for x in chosen:
            for y in chosen:
                if (x, y) in prod and prod[(x, y)] not in chosen:
                    raise RangeError(f"{field} not closed under the product at ({x},{y})")


def _scalar_to_str(value) -> str:
    if isinstance(value, GFElement):
        return str(value.residue)
    frac = Fraction(value)
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


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


# ---------------------------------------------------------------------------
# documents <-> structures
# ---------------------------------------------------------------------------


def quasigroup_to_doc(q: FiniteQuasigroup) -> dict:
    doc = {
        "kind": "quasigroup",
        "version": VERSION,
        "order": q.order,
        "identity": q.identity,
        "table": [list(row) for row in q.table],
    }
    if q.names:
        doc["names"] = list(q.names)
    return doc


def doc_to_quasigroup(doc: dict) -> FiniteQuasigroup:
    from .quasigroups import quasigroup

    return quasigroup(doc["table"], doc["identity"], doc.get("names"))


def quasigroupoid_to_doc(q: Quasigroupoid) -> dict:
    doc = {
        "kind": "quasigroupoid",
        "version": VERSION,
        "objects": q.n_objects,
        "arrows": q.n_arrows,
        "src": list(q.src),
        "tgt": list(q.tgt),
        "unit": list(q.unit),
        "inv": list(q.inv),
        "product": [[a, b, c] for (a, b), c in sorted(q.prod.items())],
    }
    if q.object_names:
        doc["object_names"] = list(q.object_names)
    if q.arrow_names:
        doc["arrow_names"] = list(q.arrow_names)
    return doc


def doc_to_quasigroupoid(doc: dict) -> Quasigroupoid:
    return Quasigroupoid(
        n_objects=doc["objects"],
        src=tuple(doc["src"]),
        tgt=tuple(doc["tgt"]),
        unit=tuple(doc["unit"]),
        inv=tuple(doc["inv"]),
        prod={(a, b): c for a, b, c in doc["product"]},
        object_names=tuple(doc["object_names"]) if "object_names" in doc else None,
        arrow_names=tuple(doc["arrow_names"]) if "arrow_names" in doc else None,
    )


def action_to_doc(q: FiniteQuasigroup, n_points: int, psi) -> dict:
    from .quasigroupoids import tabulate_action

    return {
        "kind": "action",
        "version": VERSION,
        "quasigroup": quasigroup_to_doc(q),
        "points": n_points,
        "psi": [list(row) for row in tabulate_action(q, n_points, psi)],
    }


def doc_to_action(doc: dict) -> tuple[FiniteQuasigroup, int, list[list[int]]]:
    return doc_to_quasigroup(doc["quasigroup"]), doc["points"], doc["psi"]


def matched_pair_to_doc(mp: MatchedPair) -> dict:
    return {
        "kind": "matched-pair",
        "version": VERSION,
        "a": quasigroupoid_to_doc(mp.a),
        "h": quasigroupoid_to_doc(mp.h),
        "left": [[x, y, v] for (x, y), v in sorted(mp.left.table.items())],
        "right": [[x, y, v] for (x, y), v in sorted(mp.right.table.items())],
    }


def doc_to_matched_pair(doc: dict) -> MatchedPair:
    a = doc_to_quasigroupoid(doc["a"])
    h = doc_to_quasigroupoid(doc["h"])
    left = {(x, y): v for x, y, v in doc["left"]}
    right = {(x, y): v for x, y, v in doc["right"]}
    return MatchedPair(a, h, LeftAction(h, a, left), RightAction(h, a, right))


def factorization_to_doc(c: FactorizationCandidate) -> dict:
    return {
        "kind": "factorization",
        "version": VERSION,
        "b": quasigroupoid_to_doc(c.b),
        "a_arrows": list(c.ia.arrow_map),
        "h_arrows": list(c.ih.arrow_map),
    }


def doc_to_factorization(doc: dict) -> FactorizationCandidate:
    b = doc_to_quasigroupoid(doc["b"])
    _, ia = sub_quasigroupoid(b, tuple(doc["a_arrows"]))
    _, ih = sub_quasigroupoid(b, tuple(doc["h_arrows"]))
    return FactorizationCandidate(b, ia, ih)


def whq_to_doc(d: MagmaCoalgebra, field_name: str = "Q") -> dict:
    field_by_name(field_name)  # refuse to emit a tag that cannot be read back
    n = d.dim

    def sparse_map(m: LinearMap, decode):
        out = []
        for j in range(m.dom):
            for i, c in sorted(m.cols[j].items()):
                out.append(decode(j, i) + [_scalar_to_str(c)])
        return out

    doc = {
        "kind": "whq",
        "version": VERSION,
        "dim": n,
        "field": field_name,
        "unit": [[i, _scalar_to_str(c)] for i, c in sorted(d.unit.items())],
        "counit": [[i, _scalar_to_str(d.eps(i))] for i in range(n) if d.eps(i)],
        "product": sparse_map(d.product, lambda j, i: [j // n, j % n, i]),
        "coproduct": sparse_map(d.coproduct, lambda j, i: [j, i // n, i % n]),
        "antipode": sparse_map(d.antipode, lambda j, i: [j, i]),
    }
    if d.basis_names:
        doc["basis_names"] = list(d.basis_names)
    return doc


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
    product_cols: list[dict] = [{} for _ in range(n * n)]
    for (i, j, k), c in gather(doc["product"]).items():
        product_cols[i * n + j][k] = c
    coproduct_cols: list[dict] = [{} for _ in range(n)]
    for (i, j, k), c in gather(doc["coproduct"]).items():
        coproduct_cols[i][j * n + k] = c
    antipode_cols: list[dict] = [{} for _ in range(n)]
    for (i, k), c in gather(doc["antipode"]).items():
        antipode_cols[i][k] = c
    return MagmaCoalgebra(
        n,
        unit,
        LinearMap.from_cols(n * n, n, product_cols),
        LinearMap.from_cols(n, 1, counit_cols),
        LinearMap.from_cols(n, n * n, coproduct_cols),
        LinearMap.from_cols(n, n, antipode_cols),
        basis_names=tuple(doc["basis_names"]) if "basis_names" in doc else None,
    )
