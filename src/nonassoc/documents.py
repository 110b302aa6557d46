"""Structure documents: a line-oriented JSON dialect for every kind of
object the toolkit handles (see docs/file-format.md for the schema).

Emission is canonical: sorted keys, one-space indentation, dense index
arrays, partial maps as explicit sorted pair lists, scalars as "num" or
"num/den" strings.  parse(emit(doc)) is the identity on canonical
documents, and emitted bytes are deterministic: by definition they are the
bytes of `json.dumps(doc, sort_keys=True, indent=1) + "\n"`.  `emit` is the
package's one JSON writer; every JSON text the CLI prints or writes,
machine reports included, goes through it.

Reading takes two steps.  `parse` checks only the envelope: valid JSON, an
object, a known `kind`, the current `version`.  The reader of the kind,
`doc_to_<kind>`, then checks the schema while it builds the structure, in
one pass over the document, and raises SchemaError or RangeError naming
the first fault; it accepts any dict.  Only once the schema holds do the
readers of quasigroup and action documents check the quasigroup laws
(InvalidStructureError), and the factorization reader build the two
components (StructureError when a product inside one is missing).

`json.loads` makes a new int object for every integer above 256, so a
table read straight from it would hold one object per occurrence of an
index, and each lookup in one of its rows would compare values, not
identities.  So `parse` reads the integer literals of a document through
one table that lives for that call: the first occurrence of a literal
makes its int, and every later one gets that object.  Each integer value
of a parsed document is then one object wherever it appears, and the
readers store the ints as they find them.  `true` and `false` never pass
through the table, so an index slot holding one stays a bool.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain

from .factorizations import FactorizationCandidate, closure_fault, sub_quasigroupoid
from .hopf import MagmaCoalgebra
from .linalg import GFElement, LinearMap, field_by_name
from .matched_pairs import LeftAction, MatchedPair, RightAction
from .quasigroupoids import PairTable, Quasigroupoid
from .quasigroups import FiniteQuasigroup, quasigroup
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
    `str`, all written by one `%`; None for any other rows."""
    widths = set(map(len, rows))
    if widths == {0} or len(widths) != 1:
        return None
    (width,) = widths
    cells = list(chain.from_iterable(rows))
    inner = nl + " "
    specs = []
    for i in range(width):
        kinds = set(map(type, cells[i::width]))
        if kinds == {int}:
            specs.append("%d")
        elif kinds == {str}:
            specs.append("%s")
            cells[i::width] = map(_encode_str, cells[i::width])
        else:
            return None
    fmt = "[" + inner + ("," + inner).join(specs) + nl + "]"
    return ("," + nl).join([fmt] * len(rows)) % tuple(cells)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore the state it had.

    The structures a command builds hold no reference cycles (int-keyed
    dicts, tuples, lists of ints), so reference counting frees them, and
    the collector, which runs once per 700 new containers by default,
    would sweep them without freeing any."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Ints(dict):
    """The int of each integer literal text, made on its first lookup."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def parse(text: str) -> dict:
    """The document object of `text`, with only its envelope checked: valid
    JSON, an object, a known `kind` and the current `version`.  The rest of
    the document is checked by the reader of its kind, `doc_to_<kind>`.
    Each integer value of the document is one int object.

    The cyclic garbage collector is paused while `json.loads` runs: the
    lists and dicts it builds, one list per table entry, hold no cycles,
    so its sweeps over them would free nothing."""
    try:
        with _collector_paused():
            doc = json.loads(text, parse_int=_Ints().__getitem__)
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


def _names(doc, field, length, per):
    """The optional list `field` of `length` strings as a tuple, or None
    when absent."""
    if field not in doc:
        return None
    names = _need(doc, field, list)
    if len(names) != length or not all(isinstance(s, str) for s in names):
        raise SchemaError(f"{field} must list one string per {per}")
    return tuple(names)


def _pair_table(doc, field, shape, bounds, ends=None) -> PairTable:
    """The [x, y, v] entries of `field` as a table: x, y and v must lie
    below `bounds`, each pair appear once, and, with `ends` = (src, tgt),
    src[x] = tgt[y].  The first bad entry is the one reported."""
    (x_bound, y_bound, v_bound), rows = bounds, {}
    for entry in _need(doc, field, list):
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError(f"{field} entries must be {shape} triples")
        x, y, v = entry
        if not (isinstance(x, int) and isinstance(y, int) and isinstance(v, int)):
            raise SchemaError(f"{field} entries must be {shape} triples")
        if not (0 <= x < x_bound and 0 <= y < y_bound and 0 <= v < v_bound):
            raise RangeError(f"{field} entry {entry} out of range")
        if ends and ends[0][x] != ends[1][y]:
            raise RangeError(f"{field} entry on non-composable pair ({x},{y})")
        row = rows.get(x)
        if row is None:
            row = rows[x] = {}
        elif y in row:
            raise SchemaError(f"duplicate {field} entry for pair ({x},{y})")
        row[y] = v
    return PairTable(rows)


def _arrow_subset(doc, field, b: Quasigroupoid) -> tuple[int, ...]:
    """The arrow subset `field` of `b`: arrows of `b`, each listed once,
    holding every identity arrow and closed under the inverse map and the
    product."""
    subset = _need(doc, field, list)
    for v in subset:
        if not isinstance(v, int) or not 0 <= v < b.n_arrows:
            raise RangeError(f"{field} entry {v!r} out of range")
    chosen = set(subset)
    if len(chosen) != len(subset):
        raise SchemaError(f"{field} contains duplicates")
    fault = closure_fault(b, chosen)
    if fault:
        raise RangeError(f"{field} {fault}")
    return tuple(subset)


def _scalar_to_str(value) -> str:
    if isinstance(value, GFElement):
        return str(value.residue)
    return str(value)  # an int, or a Fraction, which prints as "num" or "num/den"


def _sparse(doc, what, field, bad, *bounds) -> list:
    """The [indices..., scalar] entries of `what` with a nonzero scalar, as
    (indices, value) pairs in document order.  Indices must lie below
    `bounds` and appear once.  Each scalar text is read once, and its
    entries share the value.  A scalar that `field` cannot read is appended
    to `bad` as its error, raised once the rest of the document is checked."""
    out, seen, values = [], set(), {}
    for entry in _need(doc, what, list):
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
        value = values.get(scalar)
        if value is None:
            try:
                value = values[scalar] = field.from_string(scalar)
            except (ValueError, ZeroDivisionError) as exc:
                bad.append(SchemaError(f"bad scalar {scalar!r}: {exc}"))
                continue
        if value:
            out.append((key, value))
    return out


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


def _quasigroup_fields(doc: dict) -> tuple[list, int, tuple | None]:
    """The table, identity and names of a quasigroup document, its schema
    checked and its laws not."""
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
    names = _names(doc, "names", order, "element")
    return table, identity, names


def doc_to_quasigroup(doc: dict) -> FiniteQuasigroup:
    """Raises InvalidStructureError when the table breaks a quasigroup law."""
    return quasigroup(*_quasigroup_fields(doc))


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
        "product": _sorted_entries(q.prod),
    }
    if q.object_names:
        doc["object_names"] = list(q.object_names)
    if q.arrow_names:
        doc["arrow_names"] = list(q.arrow_names)
    return doc


def _sorted_entries(table: PairTable) -> list:
    """The entries [x, y, v] of a table, sorted by (x, y), read row by row."""
    return [[x, y, row[y]] for x, row in sorted(table.rows.items()) for y in sorted(row)]


def doc_to_quasigroupoid(doc: dict) -> Quasigroupoid:
    objects = _need(doc, "objects", int)
    arrows = _need(doc, "arrows", int)
    if objects < 1 or arrows < objects:
        raise SchemaError("need at least one object and an arrow per object")
    src = _index_list(doc, "src", arrows, objects)
    tgt = _index_list(doc, "tgt", arrows, objects)
    unit = _index_list(doc, "unit", objects, arrows)
    inv = _index_list(doc, "inv", arrows, arrows)
    prod = _pair_table(doc, "product", "[a, b, c] index", (arrows, arrows, arrows), (src, tgt))
    return Quasigroupoid(
        n_objects=objects,
        src=tuple(src),
        tgt=tuple(tgt),
        unit=tuple(unit),
        inv=tuple(inv),
        prod=prod,
        object_names=_names(doc, "object_names", objects, "entry"),
        arrow_names=_names(doc, "arrow_names", arrows, "entry"),
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
    """Raises InvalidStructureError, after the schema checks, when the
    quasigroup breaks a law."""
    qfields = _quasigroup_fields(_need(doc, "quasigroup", dict))
    points = _need(doc, "points", int)
    if points < 1:
        raise SchemaError("points must be positive")
    psi = _need(doc, "psi", list)
    if len(psi) != len(qfields[0]):
        raise SchemaError("psi must have one row per element")
    for a, row in enumerate(psi):
        if not isinstance(row, list) or len(row) != points:
            raise SchemaError(f"psi row {a} must have length {points}")
        for x, y in enumerate(row):
            if not isinstance(y, int) or not 0 <= y < points:
                raise RangeError(f"psi[{a}][{x}] = {y!r} out of range")
    return quasigroup(*qfields), points, psi


def matched_pair_to_doc(mp: MatchedPair) -> dict:
    return {
        "kind": "matched-pair",
        "version": VERSION,
        "a": quasigroupoid_to_doc(mp.a),
        "h": quasigroupoid_to_doc(mp.h),
        "left": _sorted_entries(mp.left.table),
        "right": _sorted_entries(mp.right.table),
    }


def doc_to_matched_pair(doc: dict) -> MatchedPair:
    adoc = _need(doc, "a", dict)
    hdoc = _need(doc, "h", dict)
    a = doc_to_quasigroupoid(adoc)
    h = doc_to_quasigroupoid(hdoc)
    if a.n_objects != h.n_objects:
        raise RangeError("components must share one base")
    shape, na, nh = "[h, a, value]", a.n_arrows, h.n_arrows
    left = _pair_table(doc, "left", shape, (nh, na, na))
    right = _pair_table(doc, "right", shape, (nh, na, nh))
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
    """Raises StructureError, after the schema checks, when `b` has no
    product on a composable pair inside one of the subsets."""
    b = doc_to_quasigroupoid(_need(doc, "b", dict))
    a_arrows = _arrow_subset(doc, "a_arrows", b)
    h_arrows = _arrow_subset(doc, "h_arrows", b)
    _, ia = sub_quasigroupoid(b, a_arrows)
    _, ih = sub_quasigroupoid(b, h_arrows)
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
        "product": [[h, k, m, _scalar_to_str(c)] for (h, k), vec in sorted(d.product.items())
                    for m, c in sorted(vec.items())],
        "coproduct": sparse_map(d.coproduct, lambda j, i: [j, i // n, i % n]),
        "antipode": sparse_map(d.antipode, lambda j, i: [j, i]),
    }
    if d.basis_names:
        doc["basis_names"] = list(d.basis_names)
    return doc


def doc_to_whq(doc: dict) -> MagmaCoalgebra:
    n = _need(doc, "dim", int)
    if n < 1:
        raise SchemaError("dim must be positive")
    name = _need(doc, "field", str)
    try:
        field = field_by_name(name)
    except StructureError as exc:
        raise SchemaError(f"field 'field': {exc}") from exc
    bad: list = []
    unit = _sparse(doc, "unit", field, bad, n)
    counit = _sparse(doc, "counit", field, bad, n)
    product = _sparse(doc, "product", field, bad, n, n, n)
    coproduct = _sparse(doc, "coproduct", field, bad, n, n, n)
    antipode = _sparse(doc, "antipode", field, bad, n, n)
    basis_names = _names(doc, "basis_names", n, "basis vector")
    if bad:
        raise bad[0]
    counit_cols: list[dict] = [{} for _ in range(n)]
    for (i,), c in counit:
        counit_cols[i][0] = c
    product_rows: dict = {}
    for (i, j, k), c in product:
        product_rows.setdefault(i, {}).setdefault(j, {})[k] = c
    coproduct_cols: list[dict] = [{} for _ in range(n)]
    for (i, j, k), c in coproduct:
        coproduct_cols[i][j * n + k] = c
    antipode_cols: list[dict] = [{} for _ in range(n)]
    for (i, k), c in antipode:
        antipode_cols[i][k] = c
    return MagmaCoalgebra(
        n,
        {i: c for (i,), c in unit},
        PairTable(product_rows),
        LinearMap(n, 1, tuple(counit_cols)),
        LinearMap(n, n * n, tuple(coproduct_cols)),
        LinearMap(n, n, tuple(antipode_cols)),
        basis_names=basis_names,
    )
