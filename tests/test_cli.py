import dataclasses
import json
import sys
import time

import pytest

from nonassoc import (
    LinearMap,
    canonical_factorization,
    magma_of_quasigroupoid,
    matched_pairs,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
)
from nonassoc import hopf
from nonassoc.cli import main
from nonassoc.documents import (
    emit,
    factorization_to_doc,
    matched_pair_to_doc,
    quasigroupoid_to_doc,
    whq_to_doc,
)
from tests.conftest import z3_translation


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


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2


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


def test_suite_on_a_matched_pair_builds_the_dcp_once(mp_file, monkeypatch, capsys):
    # count calls through every module that binds double_cross_product
    original = matched_pairs.double_cross_product
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bindings = [
        (module, key)
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "nonassoc"
        for key, value in vars(module).items()
        if value is original
    ]
    assert len(bindings) > 2
    for module, key in bindings:
        monkeypatch.setattr(module, key, counting)
    code, out, _ = run(capsys, "suite", mp_file)
    assert code == 0
    assert "== mixed associativity" in out and "== theta map" in out
    assert len(calls) == 1


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


def test_suite_on_a_whq_document_builds_the_projections_once(tmp_path, coarse2, monkeypatch, capsys):
    calls = []
    for name in ("projections", "_projection_formulas", "_convolution_projections", "_group_like"):
        original = getattr(hopf, name)

        def counting(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(hopf, name, counting)
    path = write(tmp_path, "magma.json", emit(whq_to_doc(magma_of_quasigroupoid(coarse2))))
    code, out, _ = run(capsys, "suite", path)
    assert code == 0
    assert "== weak Hopf quasigroup derived properties" in out
    assert sorted(calls) == ["_convolution_projections", "_group_like", "_projection_formulas"]
