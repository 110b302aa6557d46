"""The CLI exit-code contract on small seeded mutants of documents of every
kind: every mutant still passes the document schema, and each command that
takes its kind (`validate`, `suite`, `check-whq`, `build dcp|magma|bowtie`,
`check-iso`, `factorize`) exits 0 (pass), 1 (violations) or 2 (malformed
input) on it without a traceback.  The commands that print reports run
also with `--only`, once with a tag that one of their reports declares and
once with a tag that none declares.

All commands run through `cli.main` in one child process whose address
space is capped, so an input that needs memory out of proportion to its
size fails the test instead of the machine.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from nonassoc import (
    canonical_factorization,
    coarse_groupoid,
    cyclic_group,
    discrete_groupoid,
    magma_of_quasigroupoid,
    moufang_loop_12,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    symmetric_group,
)
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
from nonassoc.reports import StructureError
from tests.conftest import FLIP, two_sided_factorization, two_sided_pair, z3_translation

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30  # bytes the child may map
COMMANDS = {
    "quasigroupoid": [["validate"], ["suite"], ["factorize"], ["build", "magma"]],
    "matched-pair": [
        ["validate"], ["suite"], ["build", "dcp"], ["check-iso"], ["build", "bowtie"],
    ],
    "factorization": [["validate"], ["suite"]],
    "quasigroup": [["validate"], ["suite"]],
    "action": [["validate"], ["suite"]],
    "whq": [["validate"], ["suite"], ["check-whq"]],
}
# a tag declared by the first report of each kind's checker, and of check-iso
DECLARED = {
    "quasigroupoid": "a2-1", "matched-pair": "e2", "factorization": "theta-bijective",
    "quasigroup": "inverse", "action": "action-mult", "whq": "d2", "check-iso": "mkl4",
}
for kind, commands in COMMANDS.items():
    COMMANDS[kind] = commands + [
        ["--only", tag, *command]
        for command in commands if command[0] in ("validate", "suite", "check-whq", "check-iso")
        for tag in (DECLARED.get(command[0], DECLARED[kind]), "bogus")
    ]
MUTANTS = 20  # per base document

CHILD = """
import io, json, sys, traceback
from contextlib import redirect_stderr, redirect_stdout
from nonassoc.cli import main

results = []
commands = json.loads(sys.argv[2])
for kind, path in json.loads(sys.argv[1]):
    for command in commands[kind]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command + [path])
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            code, err = None, io.StringIO(traceback.format_exc())
        text = out.getvalue() + err.getvalue()
        results.append([kind, path, command, code, "Traceback" in text, text[-300:]])
print(json.dumps(results))
"""


def _int_slots(doc, path=()):
    """Paths to the integer leaves of the arrow data of a document."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            if key not in ("objects", "arrows", "version"):
                yield from _int_slots(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _int_slots(value, path + (i,))
    elif isinstance(doc, int):
        yield path


TABLES = (
    ("product",), ("left",), ("right",), ("a", "product"), ("h", "product"), ("b", "product"),
)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


WHQ_MAPS = ("unit", "counit", "product", "coproduct", "antipode")
SCALARS = ("0", "1", "-1", "2", "1/2")


def _mutant(doc, rng):
    """doc with one to three integer leaves set to small values, or one
    entry of a product or action table dropped; a whq document may instead
    have one structure constant replaced."""
    doc = json.loads(json.dumps(doc))
    if doc["kind"] == "whq" and rng.random() < 0.3:
        entries = rng.choice([doc[key] for key in WHQ_MAPS if doc[key]])
        rng.choice(entries)[-1] = rng.choice(SCALARS)
        return doc
    tables = [
        _at(doc, path) for path in TABLES
        if path[0] in doc and path[-1] in _at(doc, path[:-1])
    ]
    if tables and rng.random() < 0.2:
        entries = rng.choice(tables)
        del entries[rng.randrange(len(entries))]
        return doc
    slots = list(_int_slots(doc))
    for _ in range(rng.randint(1, 3)):
        *parents, last = rng.choice(slots)
        holder = _at(doc, parents)
        holder[last] = rng.randrange(max(4, holder[last] + 2))
    return doc


def _bases():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    pairs = [
        mp_discrete_right(coarse_groupoid(2)),
        mp_discrete_right(pair_quasigroupoid(z2, 2)),
        mp_action_left(z3, 3, z3_translation),
        two_sided_pair(2, z2),
    ]
    return (
        [quasigroupoid_to_doc(q) for q in (
            coarse_groupoid(2),
            discrete_groupoid(3),
            pair_quasigroupoid(z2, 2),
            quasigroup_as_quasigroupoid(symmetric_group(3)),
        )]
        + [matched_pair_to_doc(mp) for mp in pairs]
        + [factorization_to_doc(canonical_factorization(mp)) for mp in pairs[:3]]
        + [factorization_to_doc(two_sided_factorization(2, z2))]
        + [quasigroup_to_doc(q) for q in (z3, symmetric_group(3), moufang_loop_12())]
        + [action_to_doc(z3, 3, z3_translation), action_to_doc(z2, 2, FLIP)]
        + [
            whq_to_doc(magma_of_quasigroupoid(coarse_groupoid(2))),
            whq_to_doc(magma_of_quasigroupoid(quasigroup_as_quasigroupoid(z3)), "GF5"),
            whq_to_doc(magma_of_quasigroupoid(pair_quasigroupoid(z2, 2))),
        ]
    )


def _schema_valid(doc) -> bool:
    """Whether the reader of doc's kind finds no schema fault in its text; a
    broken law or a missing product, found once the schema holds, is none."""
    read = getattr(documents, "doc_to_" + doc["kind"].replace("-", "_"))
    try:
        read(parse(emit(doc)))
    except SchemaError:
        return False
    except StructureError:
        pass
    return True


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_mutated_documents_exit_0_1_or_2_without_a_traceback(tmp_path):
    rng = random.Random(9)
    inputs = []
    for base in _bases():
        kept = 0
        while kept < MUTANTS:
            doc = _mutant(base, rng)
            if _schema_valid(doc):
                path = tmp_path / f"mutant{len(inputs)}.json"
                path.write_text(emit(doc))
                inputs.append((doc["kind"], str(path)))
                kept += 1
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(inputs), json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=_cap_address_space,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    results = json.loads(child.stdout)
    assert len(results) == sum(len(COMMANDS[kind]) for kind, _ in inputs)
    seen = {}
    for kind, path, command, code, traceback, tail in results:
        assert code in (0, 1, 2) and not traceback, (path, command, code, tail)
        seen.setdefault((kind, " ".join(command)), set()).add(code)
    # every command reaches a pass and a violation; malformed input (2)
    # reaches only the commands on matched-pair and factorization
    # documents, whose action tables or arrow subsets must fit components
    # that a mutant can change: the schema-valid mutants of the other kinds
    # are all well-formed structures to check
    assert seen == {
        ("quasigroupoid", "validate"): {0, 1},
        ("quasigroupoid", "suite"): {0, 1},
        ("quasigroupoid", "factorize"): {0, 1},
        ("quasigroupoid", "build magma"): {0, 1},
        ("matched-pair", "validate"): {0, 1, 2},
        ("matched-pair", "suite"): {0, 1, 2},
        ("matched-pair", "build dcp"): {0, 1, 2},
        ("matched-pair", "check-iso"): {0, 1, 2},
        ("matched-pair", "build bowtie"): {0, 1, 2},
        ("factorization", "validate"): {0, 1, 2},
        ("factorization", "suite"): {0, 1, 2},
        ("quasigroup", "validate"): {0, 1},
        ("quasigroup", "suite"): {0, 1},
        ("action", "validate"): {0, 1},
        ("action", "suite"): {0, 1},
        ("whq", "validate"): {0, 1},
        ("whq", "suite"): {0, 1},
        ("whq", "check-whq"): {0, 1},
        # with --only, a tag that no printed report declares exits 2; so a
        # declared tag exits as without it, except where a command stops on
        # a broken component (an action's quasigroup, a matched pair's A or
        # H, a factorization's B) and prints that component's report, which
        # declares none of the command's tags (2)
        ("quasigroupoid", "--only a2-1 validate"): {0, 1},
        ("quasigroupoid", "--only bogus validate"): {2},
        ("quasigroupoid", "--only a2-1 suite"): {0, 1},
        ("quasigroupoid", "--only bogus suite"): {2},
        ("matched-pair", "--only e2 validate"): {0, 1, 2},
        ("matched-pair", "--only bogus validate"): {2},
        ("matched-pair", "--only e2 suite"): {0, 1, 2},
        ("matched-pair", "--only bogus suite"): {2},
        ("matched-pair", "--only mkl4 check-iso"): {0, 2},
        ("matched-pair", "--only bogus check-iso"): {2},
        ("factorization", "--only theta-bijective validate"): {0, 2},
        ("factorization", "--only bogus validate"): {2},
        ("factorization", "--only theta-bijective suite"): {0, 2},
        ("factorization", "--only bogus suite"): {2},
        ("quasigroup", "--only inverse validate"): {0, 1},
        ("quasigroup", "--only bogus validate"): {2},
        ("quasigroup", "--only inverse suite"): {0, 1},
        ("quasigroup", "--only bogus suite"): {2},
        ("action", "--only action-mult validate"): {0, 1, 2},
        ("action", "--only bogus validate"): {2},
        ("action", "--only action-mult suite"): {0, 1, 2},
        ("action", "--only bogus suite"): {2},
        ("whq", "--only d2 validate"): {0, 1},
        ("whq", "--only bogus validate"): {2},
        ("whq", "--only d2 suite"): {0, 1},
        ("whq", "--only bogus suite"): {2},
        ("whq", "--only d2 check-whq"): {0, 1},
        ("whq", "--only bogus check-whq"): {2},
    }


def test_a_scalar_in_exponent_notation_exits_2_at_once(tmp_path):
    """Scalars are "num" or "num/den"; exponent notation, which Fraction would
    expand to an integer of a billion digits, is a bad scalar."""
    doc = whq_to_doc(magma_of_quasigroupoid(coarse_groupoid(2)))
    doc["unit"][0][-1] = "1e1000000000"
    path = tmp_path / "exponent.json"
    path.write_text(emit(doc))
    child = subprocess.run(
        [sys.executable, "-m", "nonassoc", "validate", str(path)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=_cap_address_space,
    )
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error: bad scalar '1e1000000000': ")


@pytest.mark.parametrize("command,kind", [
    (["build", "dcp"], "matched-pair"),
    (["build", "magma"], "quasigroupoid"),
    (["build", "bowtie"], "matched-pair"),
    (["factorize"], "quasigroupoid"),
    (["check-iso"], "matched-pair"),
    (["validate"], None),
    (["suite"], None),
    (["check-whq"], None),
])
def test_a_command_of_another_kind_reads_no_whq_body(tmp_path, command, kind):
    """A whq document declaring a large `dim` and holding no entries: a
    command that takes another kind names it at once, and a command that
    reads it stores the product's entries only, none per pair of basis
    vectors, so it reports the missing unit within the address-space cap."""
    doc = {"kind": "whq", "version": 1, "dim": 4000, "field": "Q", "unit": [],
           "counit": [], "product": [], "coproduct": [], "antipode": []}
    path = tmp_path / "dim4000.json"
    path.write_text(emit(doc))
    child = subprocess.run(
        [sys.executable, "-m", "nonassoc", *command, str(path)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=_cap_address_space,
    )
    if kind is None:
        assert (child.returncode, child.stderr) == (1, "")
        assert child.stdout.startswith(
            "== weak Hopf quasigroup\nFAIL axiom=magma-unit witness=(0) 1*0 = {}\n"
        )
        return
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: {' '.join(command)} expects a {kind} document\n"
