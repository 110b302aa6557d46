import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nonassoc import (
    LeftAction,
    LinearMap,
    MatchedPair,
    RightAction,
    canonical_factorization,
    check_exact_factorization,
    check_matched_pair,
    check_quasigroupoid,
    magma_of_quasigroupoid,
    matched_pairs,
    mp_action_left,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
    quasigroup_as_quasigroupoid,
    quasigroupoids,
    reconstruct_matched_pair,
    symmetric_group,
)
from nonassoc import check_quasigroup, cli, cyclic_group, documents, hopf
from nonassoc.cli import _jsonable, main
from nonassoc.documents import (
    action_to_doc,
    emit,
    factorization_to_doc,
    matched_pair_to_doc,
    quasigroup_to_doc,
    quasigroupoid_to_doc,
    whq_to_doc,
)
from nonassoc.reports import StructureError, format_report, report_as_document
from tests.conftest import two_sided_factorization, two_sided_pair, z3_translation


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def mp_file(tmp_path, z3):
    mp = mp_action_left(z3, 3, z3_translation)
    return write(tmp_path, "mp.json", emit(matched_pair_to_doc(mp)))


@pytest.fixture()
def coarse_file(tmp_path, coarse2):
    return write(tmp_path, "coarse.json", emit(quasigroupoid_to_doc(coarse2)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid_quasigroupoid(coarse_file, capsys):
    code, out, _ = run(capsys, "validate", coarse_file)
    assert code == 0
    assert "PASS 0 violations" in out
    assert "PASS axiom=a2-3" in out


def test_validate_detects_corruption(tmp_path, coarse2, capsys):
    doc = quasigroupoid_to_doc(coarse2)
    doc["inv"][1] = 1  # break cancellation at arrow (0,1)
    path = write(tmp_path, "bad.json", emit(doc))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "FAIL axiom=a2-3" in out


def test_validate_corrupted_antipode_exits_1(tmp_path, coarse2, capsys):
    d = magma_of_quasigroupoid(coarse2)
    bad = dataclasses.replace(
        d, antipode=LinearMap.from_basis(4, 4, lambda i: 0 if i == 1 else d.antipode.cols[i])
    )
    path = write(tmp_path, "bad-whq.json", emit(whq_to_doc(bad)))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "FAIL axiom=d4-" in out


def test_schema_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "broken.json", "{}")
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content,problem", [
    (b'{"kind": "quasigroup", "version": 1, "names": ["\xff"]}', "not UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    (b'{"kind": "quasigroup", "version": 1, "order": 1' + b"0" * 4400 + b"}", "4300 digits"),
], ids=["not-utf8", "nested-100000-deep", "integer-of-4401-digits"])
def test_malformed_json_text_exits_2(tmp_path, capsys, content, problem):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error:") and problem in err
    assert "Traceback" not in out + err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2


@pytest.mark.parametrize("side,change,message", [
    ("left", "drop", "left action domain mismatch: extra=[] missing=[(0, 0)]"),
    ("right", "add", "right action domain mismatch: extra=[(0, 2)] missing=[]"),
])
def test_a_bad_action_table_is_refused_while_the_document_is_read(
    tmp_path, coarse2, capsys, side, change, message
):
    """The action constructor refuses the table as the reader builds the
    pair, and every command that reads the document exits 2 with its
    message."""
    doc = matched_pair_to_doc(mp_discrete_right(coarse2))
    doc[side] = doc[side][1:] if change == "drop" else [*doc[side], [0, 2, 0]]
    with pytest.raises(StructureError) as raised:
        documents.doc_to_matched_pair(doc)
    assert str(raised.value) == message
    path = write(tmp_path, "mp.json", emit(doc))
    for command in (["validate"], ["suite"], ["build", "dcp"], ["build", "bowtie"], ["check-iso"]):
        assert run(capsys, *command, path) == (2, "", f"error: {message}\n"), command


def test_suite_on_matched_pair(mp_file, capsys):
    code, out, _ = run(capsys, "suite", mp_file)
    assert code == 0
    assert "matched pair identities" in out
    assert "mixed associativity" in out
    assert "theta map" in out
    assert "OVERALL PASS" in out


def test_check_iso(mp_file, capsys):
    code, out, _ = run(capsys, "check-iso", mp_file)
    assert code == 0
    assert "canonical isomorphism" in out
    assert "PASS axiom=oracle-product" in out


def test_build_pipeline(tmp_path, mp_file, capsys):
    dcp_path = str(tmp_path / "dcp.json")
    code, _, _ = run(capsys, "build", "dcp", mp_file, "-o", dcp_path)
    assert code == 0
    code, out, _ = run(capsys, "validate", dcp_path)
    assert code == 0

    magma_path = str(tmp_path / "magma.json")
    code, _, _ = run(capsys, "build", "magma", dcp_path, "-o", magma_path)
    assert code == 0
    code, out, _ = run(capsys, "check-whq", magma_path)
    assert code == 0
    assert "PASS axiom=d2" in out

    bowtie_path = str(tmp_path / "bowtie.json")
    code, _, _ = run(capsys, "build", "bowtie", mp_file, "-o", bowtie_path)
    assert code == 0
    code, out, _ = run(capsys, "check-whq", bowtie_path)
    assert code == 0
    # the two magma documents coincide: the canonical isomorphism is an
    # identity of structure constants
    assert (tmp_path / "magma.json").read_text() == (tmp_path / "bowtie.json").read_text()


def test_factorize_coarse(coarse_file, capsys):
    code, out, _ = run(capsys, "factorize", coarse_file, "--max-arrows", "8")
    assert code == 0
    assert "PASS 2 factorizations" in out


def test_factorize_discrete(tmp_path, capsys):
    from nonassoc import discrete_groupoid

    path = write(
        tmp_path, "discrete.json", emit(quasigroupoid_to_doc(discrete_groupoid(2)))
    )
    code, out, _ = run(capsys, "factorize", path)
    assert code == 0
    assert "PASS 1 factorizations" in out
    assert "factorization 0: A=[0, 1] H=[0, 1]" in out


def test_factorize_past_the_default_bound(tmp_path, capsys):
    """`--max-arrows` bounds the arrows, not the closed subsets: raised to
    24 it admits the one-object S4, whose 30 closed subsets give 70 exact
    factorizations."""
    s4 = quasigroup_as_quasigroupoid(symmetric_group(4))
    path = write(tmp_path, "s4.json", emit(quasigroupoid_to_doc(s4)))
    code, out, _ = run(capsys, "factorize", path, "--max-arrows", "24")
    assert code == 0
    assert out.endswith("PASS 70 factorizations\n")


def test_factorize_machine_format(coarse_file, capsys):
    code, out, _ = run(capsys, "--format", "machine", "factorize", coarse_file)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[0]["kind"] == "factorization"


def test_factorization_missing_a_product_inside_a_component_exits_2(tmp_path, z2, capsys):
    """The ambient structure lacks the products of the non-identity arrows
    of A; the document parses, and building A as a substructure must name
    the missing pair instead of raising KeyError."""
    doc = factorization_to_doc(canonical_factorization(mp_discrete_right(pair_quasigroupoid(z2, 2))))
    inner = set(doc["a_arrows"]) - set(doc["b"]["unit"])
    doc["b"]["product"] = [
        entry for entry in doc["b"]["product"] if not (entry[0] in inner and entry[1] in inner)
    ]
    path = write(tmp_path, "fact.json", emit(doc))
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == "error: product missing on composable pair (1,2)\n"


@pytest.mark.parametrize("command", ["validate", "suite"])
def test_a_factorization_in_a_broken_ambient_structure_exits_1_with_its_report(
    tmp_path, z2, capsys, command
):
    """B's inverse map is broken at arrow 1, and no condition of the exact
    factorization reads inverses; B is checked first, and its report is the
    command's."""
    doc = factorization_to_doc(canonical_factorization(mp_discrete_right(pair_quasigroupoid(z2, 2))))
    assert doc["b"]["inv"][1] == 2
    doc["b"]["inv"][1] = 6
    report = check_quasigroupoid(documents.doc_to_quasigroupoid(doc["b"]))
    assert [v.axiom for v in report.violations] == ["a2-3"] * 8
    assert check_exact_factorization(documents.doc_to_factorization(doc)).ok
    path = write(tmp_path, "fact.json", emit(doc))
    assert run(capsys, command, path) == (1, format_report(report), "")


def test_only_flag_restricts_report(tmp_path, coarse2, capsys):
    doc = quasigroupoid_to_doc(coarse2)
    doc["inv"][1] = 1
    path = write(tmp_path, "bad.json", emit(doc))
    code, out, _ = run(capsys, "--only", "a1", "validate", path)
    assert code == 0  # the a1 axiom itself holds
    assert "PASS axiom=a1" in out
    assert "a2-3" not in out
    code, out, _ = run(capsys, "--only", "a2-3", "validate", path)
    assert code == 1
    assert "FAIL axiom=a2-3" in out


def test_machine_format_reports(mp_file, capsys):
    code, out, _ = run(capsys, "--format", "machine", "validate", mp_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["reports"][0]["subject"] == "matched pair"


def test_reports_are_deterministic(mp_file, capsys):
    _, first, _ = run(capsys, "suite", mp_file)
    _, second, _ = run(capsys, "suite", mp_file)
    assert first == second


def test_prime_field_build_and_check(tmp_path, coarse_file, capsys):
    magma_path = str(tmp_path / "magma-gf5.json")
    code, _, _ = run(capsys, "--field", "GF5", "build", "magma", coarse_file, "-o", magma_path)
    assert code == 0
    assert '"field": "GF5"' in (tmp_path / "magma-gf5.json").read_text()
    code, out, _ = run(capsys, "check-whq", magma_path)
    assert code == 0
    assert "PASS 0 violations" in out


# 2^61 - 1 is prime: testing it by trial division would take minutes
@pytest.mark.parametrize("tag", ["GFx", "GF", "GF4", "GF²", "R", "GF2305843009213693951"])
def test_bad_field_tag_is_a_schema_error(tmp_path, coarse2, capsys, tag):
    doc = whq_to_doc(magma_of_quasigroupoid(coarse2))
    doc["field"] = tag
    path = write(tmp_path, "bad-field.json", emit(doc))
    for command in ("check-whq", "suite", "validate"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, path)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: field 'field': ")


def test_bad_field_option_exits_2(tmp_path, coarse_file, capsys):
    magma_path = tmp_path / "magma.json"
    code, _, err = run(capsys, "--field", "GFx", "build", "magma", coarse_file, "-o", str(magma_path))
    assert code == 2
    assert "unknown field 'GFx'" in err
    assert not magma_path.exists()


def _patch_every_binding(monkeypatch, original, replacement) -> int:
    """Replace `original` in every nonassoc module that binds it; returns
    the number of bindings."""
    bindings = [
        (module, key)
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "nonassoc"
        for key, value in vars(module).items()
        if value is original
    ]
    for module, key in bindings:
        monkeypatch.setattr(module, key, replacement)
    return len(bindings)


def test_suite_on_a_matched_pair_builds_the_dcp_once(mp_file, monkeypatch, capsys):
    original = matched_pairs._dcp_fill
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    assert _patch_every_binding(monkeypatch, original, counting) > 2
    code, out, _ = run(capsys, "suite", mp_file)
    assert code == 0
    assert "== mixed associativity" in out and "== theta map" in out
    assert len(calls) == 1


MP_COMMANDS = (["build", "dcp"], ["build", "bowtie"], ["suite"], ["check-iso"])


def test_double_cross_products_are_trusted_from_checked_components(tmp_path, monkeypatch, capsys):
    """A matched pair's double cross product is a quasigroupoid once A and H
    are: the commands and the reconstruction check A and H, never the
    48-arrow product."""
    factorization = two_sided_factorization(2)  # built before the checker is recorded
    mp_path = write(tmp_path, "mp.json", emit(matched_pair_to_doc(two_sided_pair(2))))
    loaded = documents.doc_to_matched_pair(documents.parse((tmp_path / "mp.json").read_text()))
    checked = []

    def recording(q):
        checked.append(q)
        return check_quasigroupoid(q)

    assert _patch_every_binding(monkeypatch, quasigroupoids.check_quasigroupoid, recording) > 1
    for command in MP_COMMANDS:
        checked.clear()
        code, _, _ = run(capsys, *command, mp_path)
        assert code == 0
        assert checked == [loaded.a, loaded.h], command
    checked.clear()
    mp, _ = reconstruct_matched_pair(factorization)
    assert [q.n_arrows for q in checked] == [4, 24]
    assert checked[0] is mp.a and checked[1] is mp.h


VALIDATIONS = {  # command -> (check_matched_pair calls, check_quasigroupoid calls)
    ("validate",): (1, 0),
    ("suite",): (1, 2),
    ("build", "dcp"): (1, 2),
    ("build", "bowtie"): (1, 2),
    ("check-iso",): (1, 2),
}


@pytest.mark.parametrize("name", ["two-sided m2", "action-left z3 translation"])
def test_each_command_validates_a_matched_pair_once(tmp_path, mp_family, monkeypatch, capsys, name):
    mp = two_sided_pair(2) if name == "two-sided m2" else mp_family[name]
    path = write(tmp_path, "mp.json", emit(matched_pair_to_doc(mp)))
    calls = []

    def counting(checker):
        def counted(*args):
            calls.append(checker)
            return checker(*args)

        return counted

    for checker in (check_matched_pair, check_quasigroupoid):
        assert _patch_every_binding(monkeypatch, checker, counting(checker)) > 1
    for command, (pairs, components) in VALIDATIONS.items():
        calls.clear()
        code, _, _ = run(capsys, *command, path)
        assert code == 0, command
        assert (calls.count(check_matched_pair), calls.count(check_quasigroupoid)) == (
            pairs, components,
        ), command


def _with_broken_component(mp, which):
    """mp with the inverse of arrow 0 of A or H, an identity, set to arrow 1;
    the actions do not read inverses, so the matched pair still checks."""
    broken = getattr(mp, which)
    broken = dataclasses.replace(broken, inv=(1,) + broken.inv[1:])
    a, h = (broken, mp.h) if which == "a" else (mp.a, broken)
    return MatchedPair(a, h, LeftAction(h, a, mp.left.table), RightAction(h, a, mp.right.table)), broken


@pytest.mark.parametrize("which", ["a", "h"])
@pytest.mark.parametrize("command", MP_COMMANDS, ids=" ".join)
def test_a_broken_component_exits_1_with_its_own_report(tmp_path, capsys, which, command):
    mp, broken = _with_broken_component(two_sided_pair(2), which)
    assert check_matched_pair(mp).ok
    report = check_quasigroupoid(broken)
    assert not report.ok
    path = write(tmp_path, "mp.json", emit(matched_pair_to_doc(mp)))
    code, out, err = run(capsys, *command, path)
    assert (code, err) == (1, "")
    assert out.startswith("== quasigroupoid\n")
    assert out == format_report(report)
    witnesses = [
        line.split("witness=(")[1].split(")")[0]
        for line in out.splitlines()
        if line.startswith("FAIL axiom=")
    ]
    assert witnesses
    for witness in witnesses:  # composable pairs of the broken component
        x, y = (int(part) for part in witness.split(","))
        assert broken.composable(x, y)


@pytest.mark.parametrize("which", ["a", "h"])
@pytest.mark.parametrize("what", ["dcp", "bowtie"])
def test_a_broken_component_builds_no_document(tmp_path, capsys, which, what):
    mp, broken = _with_broken_component(two_sided_pair(2), which)
    path = write(tmp_path, "mp.json", emit(matched_pair_to_doc(mp)))
    output = tmp_path / "built.json"
    code, out, err = run(capsys, "build", what, path, "-o", str(output))
    assert (code, out, err) == (1, format_report(check_quasigroupoid(broken)), "")
    assert not output.exists()


@pytest.mark.parametrize("field,zero", [("Q", "0"), ("GF5", "0"), ("GF5", "10")])
def test_zero_unit_entry_reads_as_a_missing_one(tmp_path, coarse2, capsys, field, zero):
    doc = whq_to_doc(magma_of_quasigroupoid(coarse2), field)
    clean = write(tmp_path, "clean.json", emit(doc))
    assert [1, "1"] not in doc["unit"]  # arrow 1 is not an identity
    doc["unit"] = sorted(doc["unit"] + [[1, zero]])
    padded = write(tmp_path, "padded.json", emit(doc))
    expected = run(capsys, "suite", clean)
    assert expected[0] == 0
    assert run(capsys, "suite", padded) == expected


def _count_builds(monkeypatch):
    """(name, id of the structure) for each call of the functions that build
    a structure's projections and group-like tables."""
    calls = []
    for name in ("projections", "_projection_formulas", "_convolution_projections", "_group_like"):
        original = getattr(hopf, name)

        def counting(d, original=original, name=name):
            calls.append((name, id(d)))
            return original(d)

        monkeypatch.setattr(hopf, name, counting)
    return calls


def test_suite_on_a_whq_document_builds_the_projections_once(tmp_path, coarse2, monkeypatch, capsys):
    calls = _count_builds(monkeypatch)
    path = write(tmp_path, "magma.json", emit(whq_to_doc(magma_of_quasigroupoid(coarse2))))
    code, out, _ = run(capsys, "suite", path)
    assert code == 0
    assert "== weak Hopf quasigroup derived properties" in out
    # check_whq builds each object once; the derived suite's one call of
    # projections reads them from the structure
    assert sorted(name for name, _ in calls) == [
        "_convolution_projections", "_group_like", "_projection_formulas", "projections",
    ]
    assert len({d for _, d in calls}) == 1


def test_check_iso_builds_the_projections_once_per_structure(mp_file, monkeypatch, capsys):
    calls = _count_builds(monkeypatch)
    assert run(capsys, "check-iso", mp_file)[0] == 0
    names = [name for name, _ in calls]
    assert sorted(set(names)) == ["_convolution_projections", "_group_like", "_projection_formulas"]
    assert len(calls) == len(set(calls)) == 6  # each of the two structures, once each


def _pair_missing_a_product():
    """The discrete-right pair(M12, 2) document with A's first product
    entry dropped: check_matched_pair fails, and nothing past it runs."""
    doc = matched_pair_to_doc(mp_discrete_right(pair_quasigroupoid(moufang_loop_12(), 2)))
    del doc["a"]["product"][0]
    return doc


@pytest.mark.parametrize("fmt", [[], ["--format", "machine"]], ids=["human", "machine"])
def test_only_with_a_tag_no_printed_report_declares_exits_2(tmp_path, capsys, fmt):
    path = write(tmp_path, "mp.json", emit(_pair_missing_a_product()))
    clean = write(tmp_path, "clean.json", emit(
        matched_pair_to_doc(mp_discrete_right(pair_quasigroupoid(moufang_loop_12(), 2)))
    ))
    assert run(capsys, *fmt, "validate", path)[0] == 1
    assert run(capsys, *fmt, "--only", "d2", "validate", path)[0] == 1
    assert run(capsys, *fmt, "--only", "P-3", "suite", clean)[0] == 0
    for command, tag, doc in (
        ("validate", "bogus", path),
        ("suite", "P-3", path),  # the identity suite runs only on a passing pair
        ("validate", "P-3", clean),  # validate runs no identity suite
        ("check-iso", "d2", clean),
    ):
        assert run(capsys, *fmt, "--only", tag, command, doc) == (
            2, "", f"error: no report of this command declares the tag {tag!r}\n"
        ), (command, tag)


def _bad_z3():
    """The Z3 quasigroup document with table row 1 set to [1, 1, 1]."""
    doc = quasigroup_to_doc(cyclic_group(3))
    doc["table"][1] = [1, 1, 1]
    return doc


def _bad_quasigroup_action():
    doc = action_to_doc(cyclic_group(3), 3, z3_translation)
    doc["quasigroup"] = _bad_z3()
    return doc


def test_machine_format_holds_when_a_command_stops_on_a_broken_structure(tmp_path, capsys):
    """A command that stops on a structure breaking its laws writes the
    machine payload under --format machine; human output is its report."""
    action = write(tmp_path, "action.json", emit(_bad_quasigroup_action()))
    cases = [(["validate"], action, check_quasigroup(_bad_z3()["table"], 0))]
    mp, broken = _with_broken_component(two_sided_pair(2), "a")
    mp_path = write(tmp_path, "mp.json", emit(matched_pair_to_doc(mp)))
    cases += [(command, mp_path, check_quasigroupoid(broken)) for command in MP_COMMANDS]
    for command, path, report in cases:
        assert not report.ok
        payload = {"ok": False, "reports": [_jsonable(report_as_document(report))]}
        assert run(capsys, "--format", "machine", *command, path) == (1, emit(payload), ""), command
        assert run(capsys, *command, path) == (1, format_report(report), ""), command


@pytest.mark.parametrize("command", ["validate", "suite"])
@pytest.mark.parametrize("doc", [_bad_z3(), _bad_quasigroup_action()], ids=["quasigroup", "action"])
def test_only_filters_the_report_of_a_broken_quasigroup(tmp_path, capsys, command, doc):
    """The report of a quasigroup that breaks its laws, read from its own
    document or from an action's, is filtered by --only, and the exit code
    counts only the violations shown."""
    path = write(tmp_path, "doc.json", emit(doc))
    report = check_quasigroup(_bad_z3()["table"], 0)
    for tag, code in (("identity", 0), ("inverse", 1)):
        assert run(capsys, "--only", tag, command, path) == (code, format_report(report, tag), "")
        payload = {"ok": code == 0, "reports": [_jsonable(report_as_document(report, tag))]}
        machine = run(capsys, "--format", "machine", "--only", tag, command, path)
        assert machine == (code, emit(payload), "")


@pytest.mark.parametrize("fmt", [[], ["--format", "machine"]], ids=["human", "machine"])
def test_only_on_a_broken_component_needs_a_tag_its_report_declares(tmp_path, z2, capsys, fmt):
    """A command that stops on a component breaking its laws prints that
    component's report whole.  An --only tag that report declares keeps that
    output and exit 1; any other tag, one of the command's own reports
    included, is the usage error it is where those reports print."""
    mp, _ = _with_broken_component(two_sided_pair(2), "a")
    fact = factorization_to_doc(canonical_factorization(mp_discrete_right(pair_quasigroupoid(z2, 2))))
    fact["b"]["inv"][1] = 6  # B breaks a2-3; see the test of a broken ambient structure
    mp_path = write(tmp_path, "mp.json", emit(matched_pair_to_doc(mp)))
    fact_path = write(tmp_path, "fact.json", emit(fact))
    cases = [(command, mp_path) for command in MP_COMMANDS]
    cases += [([command], fact_path) for command in ("validate", "suite")]
    for command, path in cases:
        whole = run(capsys, *fmt, *command, path)
        assert whole[0] == 1 and whole[1], command
        assert run(capsys, *fmt, "--only", "a2-3", *command, path) == whole, command
        for tag in ("bogus", "theta-bijective"):
            assert run(capsys, *fmt, "--only", tag, *command, path) == (
                2, "", f"error: no report of this command declares the tag {tag!r}\n"
            ), (command, tag)


BOGUS = (2, "", "error: no report of this command declares the tag 'bogus'\n")


@pytest.mark.parametrize("command", [
    ["validate"], ["suite"], ["check-whq"], ["build", "dcp"], ["build", "bowtie"],
    ["build", "magma"], ["factorize"], ["check-iso"],
], ids=" ".join)
def test_a_tag_no_report_declares_is_refused_before_the_document_is_read(
    tmp_path, mp_file, coarse_file, coarse2, monkeypatch, capsys, command
):
    """Every command, `build` and `factorize` included, refuses an --only
    tag that no entry of `reports.AXIOMS` declares: it exits 2 before it
    reads the document, so it writes no -o file, and a missing or
    malformed document reports the tag, not the file."""
    path = {
        "check-whq": write(tmp_path, "whq.json", emit(whq_to_doc(magma_of_quasigroupoid(coarse2)))),
        "check-iso": mp_file, "dcp": mp_file, "bowtie": mp_file,
    }.get(command[-1], coarse_file)
    output = ["-o", str(tmp_path / "out.json")] if command[0] == "build" else []
    assert run(capsys, *command, path, *output)[0] == 0
    (tmp_path / "out.json").unlink(missing_ok=True)
    read = []
    monkeypatch.setattr(cli, "_load", lambda *args: read.append(args))
    assert run(capsys, "--only", "bogus", *command, path, *output) == BOGUS
    assert read == [] and not (tmp_path / "out.json").exists()
    monkeypatch.undo()
    malformed = write(tmp_path, "malformed.json", "{")
    for doc in (str(tmp_path / "no-such-file.json"), malformed):
        assert run(capsys, *command, doc)[0] == 2
        assert run(capsys, "--only", "bogus", *command, doc, *output) == BOGUS


# The order of events: the envelope, then the command's kind, then the
# schema of the document, then the laws.  A command that takes one kind
# never reads the body of a document of another; `validate` takes any kind.
def test_the_kind_check_comes_before_a_schema_fault(tmp_path, coarse2, capsys):
    doc = quasigroupoid_to_doc(coarse2)
    doc["product"].append([1, 0, 0])
    path = write(tmp_path, "coarse.json", emit(doc))
    assert run(capsys, "check-whq", path) == (2, "", "error: check-whq expects a whq document\n")
    assert run(capsys, "validate", path) == (
        2, "", "error: product entry on non-composable pair (1,0)\n"
    )


@pytest.mark.parametrize("what,doc,kind", [
    ("magma", _bad_z3(), "quasigroupoid"),
    ("dcp", _bad_quasigroup_action(), "matched-pair"),
])
def test_the_kind_check_comes_before_the_quasigroup_laws(tmp_path, capsys, what, doc, kind):
    path = write(tmp_path, "doc.json", emit(doc))
    assert run(capsys, "build", what, path) == (
        2, "", f"error: build {what} expects a {kind} document\n"
    )


def test_the_kind_check_comes_before_a_bad_scalar(tmp_path, coarse2, capsys):
    """A scalar the field cannot read is a schema fault of the whq document:
    `build dcp` names the kind it expects, `validate` the scalar."""
    doc = whq_to_doc(magma_of_quasigroupoid(coarse2))
    doc["unit"][0][-1] = "1/0"
    path = write(tmp_path, "magma.json", emit(doc))
    assert run(capsys, "build", "dcp", path) == (
        2, "", "error: build dcp expects a matched-pair document\n"
    )
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad scalar '1/0': ")


def _escaping(args):
    assert not gc.isenabled()  # the command runs with the collector paused
    raise RuntimeError("escapes main")


@pytest.mark.parametrize("case", [
    "exit-0", "exit-1", "exit-2", "usage-error", "broken-structure", "escaping-exception",
])
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, coarse2, monkeypatch, capsys, collector, case
):
    good = write(tmp_path, "good.json", emit(quasigroupoid_to_doc(coarse2)))
    doc = quasigroupoid_to_doc(coarse2)
    doc["inv"][1] = 1
    bad = write(tmp_path, "bad.json", emit(doc))
    if case == "exit-0":
        assert run(capsys, "validate", good)[0] == 0
    elif case == "exit-1":
        assert run(capsys, "validate", bad)[0] == 1
    elif case == "exit-2":
        assert run(capsys, "validate", write(tmp_path, "empty.json", "{}"))[0] == 2
    elif case == "usage-error":
        with pytest.raises(SystemExit) as info:
            main(["validate"])
        assert info.value.code == 2
    elif case == "broken-structure":  # InvalidStructureError, reported by main
        code, out, _ = run(capsys, "build", "magma", bad)
        assert code == 1 and out.startswith("== quasigroupoid\n")
    else:
        monkeypatch.setattr("nonassoc.cli.cmd_validate", _escaping)
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["validate", good])
    assert gc.isenabled() is collector


def test_main_builds_its_parser_once_and_prints_what_fresh_processes_print(
    mp_file, coarse_file, monkeypatch, capsys
):
    """The parser is built by the first call of main and reused, through a
    usage error too, and each call prints and returns what `python -m
    nonassoc` prints and returns in a process of its own."""
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())

    def in_process(argv):
        try:
            return run(capsys, *argv)
        except SystemExit as exc:  # argparse's usage error
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    runs = [
        ["validate", coarse_file],
        ["check-iso", mp_file],
        ["build", "nothing", mp_file],
        ["--only", "bogus", "suite", coarse_file],
        ["--format", "machine", "check-iso", mp_file],
    ]
    results = [in_process(argv) for argv in runs]
    assert len(built) == 1
    assert [code for code, _, _ in results] == [0, 0, 2, 2, 0]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv, result in zip(runs, results):
        child = subprocess.run(
            [sys.executable, "-m", "nonassoc", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result == (child.returncode, child.stdout, child.stderr), argv
