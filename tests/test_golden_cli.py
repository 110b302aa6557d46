"""Byte-for-byte CLI outputs on double cross product magmas, matched pairs
and factorizations.

The whq inputs are the magmas of `mp_discrete_right(pair_quasigroupoid(M12,
m))` for m = 1 (12 arrows, one object) and m = 2 (48 arrows), each also with
two antipode columns swapped, each over Q and over GF(5); they run through
`suite` and `check-whq`.  Their stored outputs were produced by the reference
sweeps alone, before `check_whq` had a group-like kernel, so these tests pin
the kernel to the exact reports of the reference path.  The outputs over Q
that print vectors (here and for the function algebras below) were
recaptured once, when a Q document's integral scalars came to be read as
ints: each differs from its earlier capture only in printing `n` where
that printed `Fraction(n, 1)`.

The matched-pair inputs are the seven pairs of the test family and the
two-sided pair reconstructed from the exact factorization of
pair(M12, 6) (432 arrows) into its coarse and bundle parts; they run through
`suite`.  The factorization inputs are the canonical factorization of the
Moufang-based family member and the identity/identity candidate on the
coarse groupoid on two objects, which fails and so pins the order of the
FAIL lines; they run through `validate`.  Their stored outputs were produced
while the mixed associativity suite and the theta report still built their
own double cross products.

The quasigroupoid inputs are the double cross product of the Moufang-based
family member (48 arrows), run through `suite`, and three corrupted copies of
it (one product entry dropped, one product value changed, one inverse entry
changed), run through `validate`.  The last matched-pair inputs are two
corruptions of the two-sided pair reconstructed from pair(M12, 2): a left
action that moves one arrow under an identity, and a right action with one
value changed; they run through `validate`.  These outputs were produced
while every sweep still scanned all pairs of arrows and filtered them, so
they pin the witness order of the sweeps that walk the endpoint index.

The function algebras K^S3 and K^D6 are not group-like: delta(e_g) sums
over the factorizations g = ab, and the counit is zero off the identity.
Each runs clean, with two antipode columns swapped (failing d4-1..d4-3),
and with the product perturbed by +-e_1 (the idempotent of the identity
element) on a 2x2 block of pairs of non-identity elements, which keeps
both unit laws and fails d1, d2 and
d4-1..d4-7; each over Q and over GF(5), through `suite` and `check-whq`.
These outputs were produced while every weak-Hopf sweep still evaluated
all of its terms, so they pin the witness order and detail strings of the
sweeps that visit only the terms that can be nonzero.

The seven matched pairs of the test family also run through `check-iso`,
and the Moufang-based family member and the Z3 translation pair through
`build bowtie`, over Q and over GF(5).  These outputs were produced while
`bowtie_whq` still recomputed the combinatorial double cross product
formulas, so they pin the documents of the construction from linear pieces.

`build dcp` runs on the discrete-right pair(M12, 2) and on the two-sided
pair reconstructed from pair(M12, 2), and `build magma` on the 48-arrow
double cross product of the first, over Q and over GF(5).  `factorize` runs
on the one-object M12 and on pair(C3, 2).  These outputs were produced while
`documents.emit` still called `json.dumps(..., indent=1)` and the CLI wrote
its machine reports with its own `json.dumps`, so they pin the bytes of the
emitted documents and machine reports.

The quasigroups M12 (nonassociative) and Q8 (associative) run through
`validate` and `suite`, and the action of Z3 on three points by translation
through `validate`: the valid quasigroup and action documents.  These
outputs were produced while the CLI still checked a quasigroup's laws again
after reading it, so they pin the reports of a quasigroup that the reader
has already checked.

Every input is rebuilt here from the library's constructors; only the
expected stdout is stored, in `tests/golden/`.

Regenerate the expected outputs (only when a report format changes on
purpose) with `PYTHONPATH=src python -m tests.test_golden_cli`.
"""

import contextlib
import dataclasses
import io
import re
import tempfile
from pathlib import Path

import pytest

from nonassoc import (
    FactorizationCandidate,
    LeftAction,
    LinearMap,
    MatchedPair,
    RightAction,
    canonical_factorization,
    coarse_groupoid,
    cyclic_group,
    dihedral_group,
    double_cross_product,
    magma_of_quasigroupoid,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    quaternion_group,
    sub_quasigroupoid,
    symmetric_group,
)
from nonassoc.cli import main
from nonassoc.documents import (
    action_to_doc,
    emit,
    factorization_to_doc,
    matched_pair_to_doc,
    quasigroup_to_doc,
    quasigroupoid_to_doc,
    whq_to_doc,
)
from tests.conftest import build_family, product_map, two_sided_pair, z3_translation
from tests.test_grouplike_kernel import function_algebra

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("suite", "check-whq")
FORMATS = ("human", "machine")
FIELDS = ("Q", "GF5")


def _swapped_antipode(d, dcp):
    """Swap the antipode columns of the first non-identity arrow and of the
    first other non-identity arrow with a different source and target (any
    other one when there is a single object)."""
    others = [x for x in range(dcp.n_arrows) if x not in dcp.unit]
    i = others[0]
    j = next(
        x for x in others
        if x != i and (dcp.n_objects == 1 or (dcp.src[x] != dcp.src[i] and dcp.tgt[x] != dcp.tgt[i]))
    )
    swap = {i: j, j: i}
    cols = [d.antipode.cols[swap.get(k, k)] for k in range(d.dim)]
    return dataclasses.replace(d, antipode=LinearMap.from_cols(d.dim, d.dim, cols))


def _dual_forms(g):
    """name suffix -> K^G, K^G with the antipode columns of the first two
    non-identity elements swapped, and K^G with +-e_1 added to the products
    of a 2x2 block of pairs of non-identity elements."""
    d = function_algebra(g)
    n = d.dim
    a, b, c, e = [x for x in range(n) if x != g.identity][:4]
    swap = {a: b, b: a}
    antipode = LinearMap.from_cols(n, n, [d.antipode.cols[swap.get(k, k)] for k in range(n)])
    cols = [dict(col) for col in product_map(d.product, n).cols]
    for (x, y), sign in (((a, c), 1), ((a, e), -1), ((b, c), -1), ((b, e), 1)):
        col = cols[x * n + y]
        col[g.identity] = col.get(g.identity, 0) + sign
    return {
        "": d,
        "-swapped": dataclasses.replace(d, antipode=antipode),
        "-perturbed": dataclasses.replace(d, product=LinearMap.from_cols(n * n, n, cols)),
    }


def _corrupted_quasigroupoids(q):
    """name suffix -> copy of q with one product entry dropped, one product
    value moved to an arrow with other endpoints, or one inverse entry
    replaced by the inverse of another arrow."""
    others = [x for x in range(q.n_arrows) if x not in q.unit]
    a = others[0]
    dropped = dict(q.prod)
    del dropped[(q.unit[q.tgt[a]], a)]
    key, c = next((k, v) for k, v in sorted(q.prod.items()) if k[0] in others and k[1] in others)
    changed = dict(q.prod)
    changed[key] = next(x for x in range(q.n_arrows) if q.src[x] != q.src[c] and q.tgt[x] != q.tgt[c])
    inv = list(q.inv)
    inv[a] = q.inv[others[1]]
    return {
        "prod-dropped": dataclasses.replace(q, prod=dropped),
        "prod-changed": dataclasses.replace(q, prod=changed),
        "inv-changed": dataclasses.replace(q, inv=tuple(inv)),
    }


def _corrupted_matched_pairs(mp):
    """name suffix -> copy of mp with phi_A(id, y) moved off y for the first
    non-identity arrow y of A, or with phi_H changed, keeping its endpoints, at
    the first pair of non-identity arrows."""
    a, h = mp.a, mp.h
    a_others = [y for y in range(a.n_arrows) if y not in a.unit]
    h_others = [x for x in range(h.n_arrows) if x not in h.unit]
    y = a_others[0]
    z = next(u for u in range(a.n_arrows) if u != y and a.tgt[u] == a.tgt[y])
    left = dict(mp.left.table)
    left[(h.unit[a.tgt[y]], y)] = z
    key, v = next(
        (k, v) for k, v in sorted(mp.right.table.items()) if k[0] in h_others and k[1] in a_others
    )
    right = dict(mp.right.table)
    right[key] = next(
        g for g in range(h.n_arrows) if g != v and h.src[g] == h.src[v] and h.tgt[g] == h.tgt[v]
    )
    return {
        "left-unit-broken": MatchedPair(a, h, LeftAction(h, a, left), mp.right),
        "right-changed": MatchedPair(a, h, mp.left, RightAction(h, a, right)),
    }


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")


def golden_documents() -> dict[str, str]:
    """name -> emitted document text, for every golden input."""
    m12 = moufang_loop_12()
    texts = {}
    for m in (1, 2):
        dcp = double_cross_product(mp_discrete_right(pair_quasigroupoid(m12, m)))
        d = magma_of_quasigroupoid(dcp)
        for label, structure in ((f"m{m}", d), (f"m{m}-swapped", _swapped_antipode(d, dcp))):
            for field in FIELDS:
                texts[f"{label}-{field}"] = emit(whq_to_doc(structure, field))
    for label, g in (("kS3", symmetric_group(3)), ("kD6", dihedral_group(6))):
        for suffix, structure in _dual_forms(g).items():
            for field in FIELDS:
                texts[f"{label}{suffix}-{field}"] = emit(whq_to_doc(structure, field))
    family = build_family(cyclic_group(2), cyclic_group(3), m12)
    for label, mp in family.items():
        texts[f"mp-{_slug(label)}"] = emit(matched_pair_to_doc(mp))
    texts["mp-twosided-m6"] = emit(matched_pair_to_doc(two_sided_pair(6)))
    canonical = canonical_factorization(family["discrete-right pair(m12,2)"])
    texts["fact-canonical-pair-m12-2"] = emit(factorization_to_doc(canonical))
    coarse = coarse_groupoid(2)
    _, identities = sub_quasigroupoid(coarse, tuple(sorted(coarse.unit)))
    texts["fact-coarse-2-identities"] = emit(
        factorization_to_doc(FactorizationCandidate(coarse, identities, identities))
    )
    dcp = double_cross_product(family["discrete-right pair(m12,2)"])
    texts["q-dcp-pair-m12-2"] = emit(quasigroupoid_to_doc(dcp))
    for suffix, q in _corrupted_quasigroupoids(dcp).items():
        texts[f"q-dcp-pair-m12-2-{suffix}"] = emit(quasigroupoid_to_doc(q))
    twosided = two_sided_pair(2)
    texts["mp-twosided-m2"] = emit(matched_pair_to_doc(twosided))
    for suffix, mp in _corrupted_matched_pairs(twosided).items():
        texts[f"mp-twosided-m2-{suffix}"] = emit(matched_pair_to_doc(mp))
    texts["q-one-object-m12"] = emit(quasigroupoid_to_doc(quasigroup_as_quasigroupoid(m12)))
    texts["q-pair-c3-2"] = emit(quasigroupoid_to_doc(pair_quasigroupoid(cyclic_group(3), 2)))
    texts["quasigroup-m12"] = emit(quasigroup_to_doc(m12))
    texts["quasigroup-q8"] = emit(quasigroup_to_doc(quaternion_group()))
    texts["action-z3-translation"] = emit(action_to_doc(cyclic_group(3), 3, z3_translation))
    return texts


def run_cli(tmp_dir: Path, name: str, text: str, args: list[str]) -> str:
    """The exit code and stdout of one CLI run, with `args` before the path
    of the named document."""
    path = tmp_dir / f"{name}.json"
    if not path.exists():
        path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*args, str(path)])
    return f"exit {code}\n{out.getvalue()}"


def golden_path(name: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{command}.{fmt}.txt"


@pytest.fixture(scope="module")
def documents():
    return golden_documents()


MP_LABELS = (
    "discrete-right pair(z2,2)",
    "discrete-right coarse(2)",
    "discrete-right pair(m12,2)",
    "action-left z2 flip",
    "action-left z3 translation",
    "one-object z2",
    "one-object m12",
)

CASES = [
    (f"{label}-{field}", command, fmt)
    for label in (
        "m1", "m1-swapped", "m2", "m2-swapped",
        *(f"{g}{form}" for g in ("kS3", "kD6") for form in ("", "-swapped", "-perturbed")),
    )
    for field in FIELDS
    for command in COMMANDS
    for fmt in FORMATS
] + [
    (name, "suite", fmt)
    for name in [f"mp-{_slug(label)}" for label in MP_LABELS] + ["mp-twosided-m6"]
    for fmt in FORMATS
] + [
    (name, "validate", fmt)
    for name in ("fact-canonical-pair-m12-2", "fact-coarse-2-identities")
    for fmt in FORMATS
] + [
    (f"mp-{_slug(label)}", "check-iso", fmt) for label in MP_LABELS for fmt in FORMATS
] + [
    ("q-dcp-pair-m12-2", "suite", fmt) for fmt in FORMATS
] + [
    (name, "validate", fmt)
    for name in [
        f"q-dcp-pair-m12-2-{suffix}" for suffix in ("prod-dropped", "prod-changed", "inv-changed")
    ] + [f"mp-twosided-m2-{suffix}" for suffix in ("left-unit-broken", "right-changed")]
    for fmt in FORMATS
] + [
    (name, "factorize", fmt) for name in ("q-one-object-m12", "q-pair-c3-2") for fmt in FORMATS
] + [
    (name, command, fmt)
    for name in ("quasigroup-m12", "quasigroup-q8")
    for command in ("validate", "suite")
    for fmt in FORMATS
] + [
    ("action-z3-translation", "validate", fmt) for fmt in FORMATS
]


# `build WHAT` documents, golden file `NAME.build-WHAT.FIELD.txt`, or
# `NAME.build-dcp.txt` for the field-free double cross product
BOWTIE_CASES = [
    (f"mp-{_slug(label)}", field)
    for label in ("discrete-right pair(m12,2)", "action-left z3 translation")
    for field in FIELDS
]
DCP_MAGMA_CASES = [
    (name, "dcp", None) for name in ("mp-discrete-right-pair-m12-2", "mp-twosided-m2")
] + [
    ("q-dcp-pair-m12-2", "magma", field) for field in FIELDS
]
BUILD_CASES = [(name, "bowtie", field) for name, field in BOWTIE_CASES] + DCP_MAGMA_CASES


def run_build(tmp_dir: Path, name: str, text: str, what: str, field) -> tuple[str, Path]:
    """The CLI run of `build WHAT` on the named document, and its golden file."""
    args = ["build", what] if field is None else ["--field", field, "build", what]
    path = GOLDEN / (f"{name}.build-{what}.txt" if field is None else f"{name}.build-{what}.{field}.txt")
    return run_cli(tmp_dir, name, text, args), path


@pytest.mark.parametrize("name,command,fmt", CASES)
def test_cli_output_matches_golden(name, command, fmt, documents, tmp_path):
    got = run_cli(tmp_path, name, documents[name], ["--format", fmt, command])
    assert got == golden_path(name, command, fmt).read_text(encoding="utf-8")


def test_no_golden_output_prints_an_integral_fraction():
    """Over Q an integral scalar is held as an int, so a report prints `n`,
    never `Fraction(n, 1)`, in the details that show a vector."""
    paths = sorted(GOLDEN.glob("*.txt"))
    assert len(paths) == len(CASES) + len(BUILD_CASES)
    integral = re.compile(r"Fraction\(-?\d+, 1\)")
    assert [p.name for p in paths if integral.search(p.read_text(encoding="utf-8"))] == []


@pytest.mark.parametrize("name,field", BOWTIE_CASES)
def test_build_bowtie_matches_golden(name, field, documents, tmp_path):
    got, path = run_build(tmp_path, name, documents[name], "bowtie", field)
    assert got == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name,what,field", DCP_MAGMA_CASES)
def test_build_matches_golden(name, what, field, documents, tmp_path):
    got, path = run_build(tmp_path, name, documents[name], what, field)
    assert got == path.read_text(encoding="utf-8")


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    texts = golden_documents()
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, fmt in CASES:
            out = run_cli(Path(tmp), name, texts[name], ["--format", fmt, command])
            golden_path(name, command, fmt).write_text(out, encoding="utf-8")
        for name, what, field in BUILD_CASES:
            out, path = run_build(Path(tmp), name, texts[name], what, field)
            path.write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
