"""Byte-for-byte CLI outputs of `suite` and `check-whq` on double cross
product magmas.

The inputs are the magmas of `mp_discrete_right(pair_quasigroupoid(M12, m))`
for m = 1 (12 arrows, one object) and m = 2 (48 arrows), each also with two
antipode columns swapped, each over Q and over GF(5).  They are rebuilt here
from the library's constructors; only the expected stdout is stored, in
`tests/golden/`.  The stored outputs were produced by the reference sweeps
alone, before `check_whq` had a group-like kernel, so these tests pin the
kernel to the exact reports of the reference path.

Regenerate the expected outputs (only when a report format changes on
purpose) with `PYTHONPATH=src python -m tests.test_golden_cli`.
"""

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

import pytest

from nonassoc import (
    LinearMap,
    double_cross_product,
    magma_of_quasigroupoid,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc.cli import main
from nonassoc.documents import emit, whq_to_doc

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


def golden_documents() -> dict[str, str]:
    """name -> emitted whq document text, for every golden input."""
    m12 = moufang_loop_12()
    texts = {}
    for m in (1, 2):
        dcp = double_cross_product(mp_discrete_right(pair_quasigroupoid(m12, m)))
        d = magma_of_quasigroupoid(dcp)
        for label, structure in ((f"m{m}", d), (f"m{m}-swapped", _swapped_antipode(d, dcp))):
            for field in FIELDS:
                texts[f"{label}-{field}"] = emit(whq_to_doc(structure, field))
    return texts


def run_cli(tmp_dir: Path, name: str, text: str, command: str, fmt: str) -> str:
    """The exit code and stdout of one CLI run on the named document."""
    path = tmp_dir / f"{name}.json"
    if not path.exists():
        path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", fmt, command, str(path)])
    return f"exit {code}\n{out.getvalue()}"


def golden_path(name: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{command}.{fmt}.txt"


@pytest.fixture(scope="module")
def documents():
    return golden_documents()


CASES = [
    (f"{label}-{field}", command, fmt)
    for label in ("m1", "m1-swapped", "m2", "m2-swapped")
    for field in FIELDS
    for command in COMMANDS
    for fmt in FORMATS
]


@pytest.mark.parametrize("name,command,fmt", CASES)
def test_cli_output_matches_golden(name, command, fmt, documents, tmp_path):
    got = run_cli(tmp_path, name, documents[name], command, fmt)
    assert got == golden_path(name, command, fmt).read_text(encoding="utf-8")


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    texts = golden_documents()
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, fmt in CASES:
            out = run_cli(Path(tmp), name, texts[name], command, fmt)
            golden_path(name, command, fmt).write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
