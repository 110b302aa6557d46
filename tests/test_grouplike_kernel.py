"""The group-like kernel of `hopf` against the reference sweeps.

The kernel decides d1, d2, d4-4..d4-7, antimult and the one-sided
associativity laws from the stored products alone, as integer-indexed
rows and columns; the reference sweeps evaluate the same laws scalar by
scalar.  Every verdict the kernel reaches, in either direction, must equal
the reference sweep's, and a whole report must be the same whether or not
the kernel runs.  The corpus: the magmas of the matched-pair family, their
`bowtie_whq` counterparts, the criterion-5 quasigroupoid magmas, the whq
negative fixtures, and seeded corruptions that stay group-like (a
redirected product entry, a dropped product entry, two antipode columns
swapped), and random partial product tables on two or three basis vectors,
where single law instances fail on their own.  The magmas of discrete
groupoids, one stored product per row and most pairs undefined, are
checked against the reference sweeps as well, and the one on 1000 arrows
must pass without a product lookup per pair of basis vectors.  Each
structure comes with int scalars, read back from a document over Q (which
holds integral scalars as ints), with every scalar of that reading a
Fraction, and with GF(5) scalars.
The reference sweeps over Fraction and GF(5) scalars cost about twenty
times the int ones, so those variants are taken for the structures of at
most 9 basis vectors; the 12- and 48-arrow magmas over Q and GF(5) are pinned
by the golden CLI outputs instead.

A run on a structure and a run on its all-Fraction copy must write the
same report, but for `Fraction(n, 1)` printed where the other prints `n`:
the oracle for reading integral scalars over Q as ints, on this corpus and
on the whq inputs of the golden CLI tests over Q.
"""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from nonassoc import (
    LinearMap,
    MagmaCoalgebra,
    bowtie_whq,
    check_whq,
    coarse_groupoid,
    convolution,
    cyclic_group,
    derived_property_suite,
    discrete_groupoid,
    double_cross_product,
    is_hopf_quasigroup,
    magma_of_quasigroupoid,
    moufang_loop_12,
    mp_discrete_right,
    pair_quasigroupoid,
    symmetric_group,
    twist,
)
from nonassoc import hopf
from nonassoc.documents import doc_to_whq, emit, parse, whq_to_doc
from nonassoc.linalg import GFElement
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import StructureError, StructureReport, Violation, format_report
from tests import reference_sweeps
from tests.conftest import product_map
from tests.negative_fixtures import whq_fixtures
from tests.test_acceptance import criterion_5_structures
from tests.test_hopf import sweedler_four_dim

SMALL = 9  # largest dimension also checked over Fraction and GF(5) scalars


def function_algebra(g) -> MagmaCoalgebra:
    """K^G: e_g e_h = [g = h] e_g, delta(e_g) = sum over ab = g of
    e_a (x) e_b, eps(e_g) = [g = 1], S(e_g) = e_{g^-1}, unit sum of all e_g."""
    n = g.order
    coproduct_cols = [{} for _ in range(n)]
    for a in range(n):
        for b in range(n):
            coproduct_cols[g.mul(a, b)][a * n + b] = 1
    return MagmaCoalgebra(
        n,
        {x: 1 for x in range(n)},
        LinearMap.from_basis(n * n, n, lambda t: t // n if t // n == t % n else None),
        LinearMap.from_basis(n, 1, lambda x: 0 if x == g.identity else None),
        LinearMap.from_cols(n, n * n, coproduct_cols),
        LinearMap.from_basis(n, n, g.inv),
    )


def round_trip(d: MagmaCoalgebra, field: str) -> MagmaCoalgebra:
    return doc_to_whq(parse(emit(whq_to_doc(d, field))))


def as_fractions(d: MagmaCoalgebra) -> MagmaCoalgebra:
    """d with every stored scalar a Fraction.  Of a structure read over Q,
    this is the reading that held integral scalars as Fraction(n, 1)."""

    def convert(m: LinearMap) -> LinearMap:
        cols = tuple({i: Fraction(c) for i, c in col.items()} for col in m.cols)
        return LinearMap(m.dom, m.cod, cols)

    return dataclasses.replace(
        d,
        unit={i: Fraction(c) for i, c in d.unit.items()},
        **{name: convert(structure_map(d, name)) for name in ("product", "counit", "coproduct", "antipode")},
    )


def structure_map(d, name) -> LinearMap:
    """The named structure map of d, the product as its n^2 -> n map."""
    return product_map(d.product, d.dim) if name == "product" else getattr(d, name)


def with_cols(d, name, updates):
    """d with some columns of the named structure map replaced."""
    m = structure_map(d, name)
    cols = tuple(updates.get(j, col) for j, col in enumerate(m.cols))
    return dataclasses.replace(d, **{name: LinearMap(m.dom, m.cod, cols)})


def seeded_corruptions(name, d, seeds=(0, 1)):
    """Group-like corruptions away from the unit, so the preconditions keep
    holding and the d-axioms are swept."""
    n = d.dim
    units = set(d.unit)
    others = [x for x in range(n) if x not in units]
    products = product_map(d.product, n).cols
    defined = [
        t for t in range(n * n)
        if products[t] and t // n not in units and t % n not in units
    ]
    out = {}
    for seed in seeds:
        rng = random.Random(seed)
        if defined:
            t = rng.choice(defined)
            (old,) = products[t]
            new = rng.choice([x for x in range(n) if x != old])
            out[f"{name} redirect {seed}"] = with_cols(d, "product", {t: {new: 1}})
            out[f"{name} drop {seed}"] = with_cols(d, "product", {rng.choice(defined): {}})
        if len(others) >= 2:
            i, j = rng.sample(others, 2)
            swapped = {i: d.antipode.cols[j], j: d.antipode.cols[i]}
            out[f"{name} swap-antipode {seed}"] = with_cols(d, "antipode", swapped)
    return out


def from_tables(prod, anti) -> MagmaCoalgebra:
    """The group-like magma-coalgebra with unit e_0 whose product and
    antipode on basis vectors are the given tables (None for zero)."""
    n = len(anti)
    return MagmaCoalgebra(
        n,
        {0: 1},
        LinearMap.from_basis(n * n, n, lambda t: prod[t]),
        LinearMap.from_basis(n, 1, lambda i: {0: 1}),
        LinearMap.from_basis(n, n * n, lambda i: i * n + i),
        LinearMap.from_basis(n, n, lambda i: anti[i]),
    )


def random_group_like(rng, n):
    """A random partial product table and a random antipode.  Mostly not
    unital, but each law sweep stands alone, and on so small a basis one law
    instance can fail while the others hold."""
    prod = [rng.choice([None] + list(range(n))) for _ in range(n * n)]
    return from_tables(prod, [rng.randrange(n) for _ in range(n)])


# tables on which exactly one of d4-4..d4-7 fails, found by random search
ONE_D4_LAW_FAILS = {
    "d4-4": ([None, None, 0, None, 0, 1, None, 1, 0], [1, 0, 0]),
    "d4-5": ([0, 2, 2, 0, 2, 2, 0, 0, 2], [1, 2, 0]),
    "d4-6": ([None, 0, 0, None, 2, 1, 0, None, 2], [0, 0, 2]),
    "d4-7": ([0, None, 1, None, None, None, None, None, 1], [1, 1, 0]),
}


def base_structures(mp_family, z2, z3, m12):
    out = {}
    for name, mp in mp_family.items():
        out[f"dcp {name}"] = magma_of_quasigroupoid(double_cross_product(mp))
        out[f"bowtie {name}"] = bowtie_whq(mp)
    for name, q in criterion_5_structures(z2, z3, m12, mp_family).items():
        out[f"c5 {name}"] = magma_of_quasigroupoid(q)
    return out


@pytest.fixture(scope="module")
def corpus(mp_family, z2, z3, m12):
    """name -> structure, with every scalar variant."""
    bases = base_structures(mp_family, z2, z3, m12)
    structures = {}
    for name, d in bases.items():
        # the bowtie outputs equal the dcp magmas (the paper's theorem), and
        # criterion 5 repeats the dcps: sweep each distinct structure once
        if not any(d == other for other in structures.values()):
            structures[name] = d
    structures.update(whq_fixtures())
    for name in (
        "dcp discrete-right pair(z2,2)", "dcp one-object m12",
        "c5 coarse 3", "c5 action z3 translation", "c5 pair z3 x3",
    ):
        structures.update(seeded_corruptions(name, bases[name]))
    for tag, tables in ONE_D4_LAW_FAILS.items():
        structures[f"only {tag} fails"] = from_tables(*tables)
    rng = random.Random(0)
    for i in range(100):
        structures[f"random {i}"] = random_group_like(rng, rng.choice((2, 3)))
    out = {}
    for name, d in structures.items():
        out[f"{name} [int]"] = d
        if d.dim <= SMALL:
            out[f"{name} [Q]"] = round_trip(d, "Q")
            out[f"{name} [Fraction]"] = as_fractions(out[f"{name} [Q]"])
            out[f"{name} [GF5]"] = round_trip(d, "GF5")
    return out


def reference_ok(sweep, d, *args) -> bool:
    report = StructureReport("reference")
    sweep(d, report, *args)
    return report.ok


def law_verdicts(d):
    """law -> (kernel verdict, reference verdict), for each law the kernel
    decides, on a group-like structure."""
    assert d.group_like is not None
    return {
        "d1": (True, reference_ok(hopf._law_d1, d)),
        "d2": (hopf._d2_holds(d), reference_ok(hopf._sweep_d2, d)),
        "d4-4..7": (hopf._d4_4_to_7_hold(d), reference_ok(hopf._sweep_d4_4_to_7, d)),
        "antimult": (hopf._antimult_holds(d), reference_ok(hopf._sweep_antimult, d)),
        "target-assoc": (
            hopf._one_sided_holds(d, "target-assoc"),
            reference_ok(hopf._sweep_one_sided, d, "target-assoc"),
        ),
        "source-assoc": (
            hopf._one_sided_holds(d, "source-assoc"),
            reference_ok(hopf._sweep_one_sided, d, "source-assoc"),
        ),
    }


def test_detection_accepts_every_scalar_type(corpus):
    scalar_types = set()
    for name, d in corpus.items():
        if hopf._group_like(d) is not None:
            scalar_types.add(type(d.coproduct.cols[0][0]))
    assert scalar_types == {int, Fraction, GFElement}


def test_detection_rejects_non_group_like():
    assert hopf._group_like(sweedler_four_dim()) is None
    assert hopf._group_like(function_algebra(symmetric_group(3))) is None
    fixtures = whq_fixtures()
    assert hopf._group_like(fixtures["two-term product"]) is None
    assert hopf._group_like(fixtures["broken unit coassociativity"]) is None
    kc = magma_of_quasigroupoid(coarse_groupoid(2))
    assert hopf._group_like(kc) is not None
    for name, col in (
        ("product", {0: 2}),
        ("antipode", {}),
        ("antipode", {2: Fraction(1, 2)}),
        ("coproduct", {0: 1}),
        ("coproduct", {5: 1, 0: 1}),
        ("counit", {0: 2}),
        ("counit", {}),
    ):
        assert hopf._group_like(with_cols(kc, name, {1: col})) is None, (name, col)


@pytest.mark.parametrize("tag", sorted(ONE_D4_LAW_FAILS))
def test_single_d4_law_fixtures_fail_alone(tag):
    d = from_tables(*ONE_D4_LAW_FAILS[tag])
    report = StructureReport("reference")
    hopf._sweep_d4_4_to_7(d, report)
    assert report.failed_axioms() == (tag,)


def discrete_magmas():
    """The magmas of discrete groupoids: one stored product per row, and
    every pair of distinct arrows undefined."""
    return {f"discrete {n}": magma_of_quasigroupoid(discrete_groupoid(n)) for n in (1, 2, 5, 20)}


def test_kernel_verdicts_equal_reference_verdicts(corpus):
    seen: dict[str, set] = {}
    for name, d in {**corpus, **discrete_magmas()}.items():
        if hopf._group_like(d) is None:
            continue
        for law, (kernel, reference) in law_verdicts(d).items():
            assert kernel == reference, (name, law, kernel, reference)
            seen.setdefault(law, set()).add(kernel)
    # both verdict directions are exercised (d1 cannot fail on a group-like basis)
    assert seen.pop("d1") == {True}
    for law, verdicts in seen.items():
        assert verdicts == {True, False}, (law, verdicts)


def test_d2_kernel_equals_the_reference_sweep(corpus):
    """The kernel's d2 walks only the stored products of each row; its
    verdict equals the n^3 sweep of `tests/reference_sweeps.py` on the
    magmas of discrete groupoids, where every row holds one product, and on
    the group-like structures of the corpus."""
    cases = discrete_magmas()
    cases.update((name, d) for name, d in corpus.items() if d.group_like is not None)
    verdicts = set()
    for name, d in cases.items():
        expected = reference_ok(reference_sweeps._sweep_d2, d, [d.delta_split(i) for i in range(d.dim)])
        assert hopf._d2_holds(d) == expected, name
        verdicts.add(expected)
    assert verdicts == {True, False}


def outcome(checker, d):
    """Everything a checker run shows: the report or the error it raised."""
    try:
        report = checker(d)
    except StructureError as exc:
        return ("raised", str(exc))
    return (report.subject, report.axioms, report.violations, report.notes,
            format_report(report), report.data)


def without_kernel(monkeypatch, run, d):
    """run on a fresh copy of d, whose group-like tables are built by a
    `_group_like` patched to report none; returns (result, copies the
    patched function saw).  The copy starts with an empty cache, so the
    tables of an earlier run cannot stand in for the patched ones."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(hopf, "_group_like", lambda d: seen.append(d))
        copy = dataclasses.replace(d)
        return run(copy), [x is copy for x in seen]


@pytest.mark.parametrize("checker", [check_whq, derived_property_suite])
def test_reports_equal_with_and_without_kernel(corpus, monkeypatch, checker):
    failing = kernel = 0
    for name, d in corpus.items():
        fast = outcome(checker, dataclasses.replace(d))
        slow, seen = without_kernel(monkeypatch, lambda x: outcome(checker, x), d)
        assert fast == slow, name
        # the tables are read after the preconditions and the projections
        skipped = slow[0] == "raised" or "preconditions failed; axiom sweep skipped" in slow[3]
        assert seen == ([] if skipped else [True]), name
        failing += fast[0] != "raised" and bool(fast[2])
        kernel += not skipped and hopf._group_like(d) is not None
    assert failing > 0 and kernel > 0


def test_is_hopf_quasigroup_through_the_d1_law(corpus, monkeypatch):
    reached = 0
    for name, d in corpus.items():
        fast = is_hopf_quasigroup(dataclasses.replace(d))
        swept = []
        with monkeypatch.context() as m:
            law_d1 = hopf._law_d1
            m.setattr(hopf, "_law_d1", lambda d, report: swept.append(law_d1(d, report)))
            slow, seen = without_kernel(monkeypatch, is_hopf_quasigroup, d)
        assert slow == fast, name
        # the tables are read where d1 is reached, and without them d1 is swept
        assert seen == [True] * len(swept) and len(swept) <= 1, name
        reached += bool(swept) and hopf._group_like(d) is not None
    assert reached > 0


INTEGRAL_FRACTION = re.compile(r"Fraction\((-?\d+), 1\)")


def without_integral_fractions(result):
    """A checker outcome with every `Fraction(n, 1)` in its strings as `n`."""
    if isinstance(result, str):
        return INTEGRAL_FRACTION.sub(r"\1", result)
    if isinstance(result, (list, tuple)):
        return type(result)(without_integral_fractions(x) for x in result)
    if isinstance(result, Violation):
        return dataclasses.replace(result, detail=without_integral_fractions(result.detail))
    return result


@pytest.mark.parametrize("checker", [check_whq, derived_property_suite])
def test_integral_scalars_read_as_ints_give_the_reports_of_fractions(corpus, checker):
    from tests.test_golden_cli import golden_documents  # which imports this module

    # the corpus structures read over Q, and the golden whq inputs over Q
    structures = {name: d for name, d in corpus.items() if name.endswith("[Q]")}
    for name, text in golden_documents().items():
        if name.endswith("-Q"):
            structures[f"golden {name}"] = doc_to_whq(parse(text))
    assert sum(name.startswith("golden ") for name in structures) == 10
    reprs = failing = 0
    for name, d in structures.items():
        ints = outcome(checker, d)
        fractions = outcome(checker, as_fractions(d))
        assert INTEGRAL_FRACTION.search(repr(ints)) is None, name
        # same axioms, same witnesses in the same order, same details up to
        # the printing of integral scalars
        assert ints == without_integral_fractions(fractions), name
        reprs += ints != fractions
        failing += ints[0] != "raised" and bool(ints[2])
    # a vector detail printed Fraction(n, 1) before, and violations were compared
    assert reprs > 0 and failing > 0


def dcp_magma_48():
    mp = mp_discrete_right(pair_quasigroupoid(moufang_loop_12(), 2))
    return magma_of_quasigroupoid(double_cross_product(mp))


def test_group_like_magma_skips_the_reference_d2_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("reference d2 sweep ran on a group-like magma")

    monkeypatch.setattr(hopf, "_sweep_d2", refuse)
    d = dcp_magma_48()
    assert d.dim == 48
    assert check_whq(d).ok
    assert check_whq(round_trip(d, "Q")).ok


def test_kernel_reads_only_the_stored_products_of_a_large_sparse_magma(monkeypatch):
    """On the magma of discrete_groupoid(1000), 1000 stored products out of
    a million pairs, both checkers pass, check_whq looks up no product of a
    pair of basis vectors, and the kernel holds one entry per stored
    product."""
    d = magma_of_quasigroupoid(discrete_groupoid(1000))
    calls = []
    mul_basis = MagmaCoalgebra.mul_basis
    with monkeypatch.context() as m:
        m.setattr(MagmaCoalgebra, "mul_basis", lambda *args: calls.append(args) or mul_basis(*args))
        assert check_whq(d).ok
    assert calls == []
    assert derived_property_suite(d).ok
    (prod, anti), cols = d.group_like, d.group_like_cols
    assert sum(map(len, prod.values())) == sum(map(len, cols.values())) == 1000
    assert anti == list(range(1000))


@pytest.mark.parametrize(
    "d", [function_algebra(symmetric_group(3)), sweedler_four_dim()], ids=["K^S3", "sweedler"]
)
def test_non_group_like_input_takes_the_reference_sweeps(monkeypatch, d):
    calls = []
    for name in ("_sweep_d2", "_sweep_d4_4_to_7", "_sweep_antimult", "_sweep_one_sided"):
        original = getattr(hopf, name)

        def spy(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(hopf, name, spy)
    assert check_whq(d).ok
    assert derived_property_suite(d).ok
    assert calls == [
        "_sweep_d2", "_sweep_d4_4_to_7", "_sweep_antimult", "_sweep_one_sided", "_sweep_one_sided",
    ]


# ---------------------------------------------------------------------------
# convolution from the coproduct's support
# ---------------------------------------------------------------------------


def assert_convolution_matches_composite(f, g, delta, mu):
    fast = convolution(f, g, delta, mu)
    composite = product_map(mu, f.cod) @ f.tensor(g) @ delta
    assert fast == composite
    # same entries in the same order, so reports print identically
    assert [list(col.items()) for col in fast.cols] == [list(col.items()) for col in composite.cols]


def structure_maps(d):
    ident = LinearMap.identity(d.dim)
    pi_l, pi_r = hopf._convolution_projections(d)
    return (ident, d.antipode, pi_l, pi_r)


@pytest.mark.parametrize(
    "d",
    [
        sweedler_four_dim(),
        round_trip(sweedler_four_dim(), "GF3"),
        function_algebra(symmetric_group(3)),
        round_trip(function_algebra(symmetric_group(3)), "GF5"),
        whq_fixtures()["broken unit coassociativity"],
    ],
    ids=["sweedler", "sweedler-GF3", "K^S3", "K^S3-GF5", "two-dim"],
)
def test_convolution_equals_composite_on_structures(d):
    maps = structure_maps(d)
    for f in maps:
        for g in maps:
            assert_convolution_matches_composite(f, g, d.coproduct, d.product)


def random_map(rng, dom, cod, density, scalars):
    return LinearMap.from_cols(
        dom, cod,
        [{i: rng.choice(scalars) for i in range(cod) if rng.random() < density} for _ in range(dom)],
    )


@pytest.mark.parametrize("seed", range(20))
def test_convolution_equals_composite_on_random_sparse_maps(seed):
    rng = random.Random(seed)
    # small coefficient ranges, so terms cancel and zero entries get pruned
    scalars = [-1, 1, 2, Fraction(1, 2), Fraction(-3, 2)] if seed % 2 else [-1, 1]
    n, m = rng.randint(1, 5), rng.randint(1, 4)
    delta = random_map(rng, n, n * n, 0.3, scalars)
    mu = PairTable.from_triples(
        (t // m, t % m, col) for t, col in enumerate(random_map(rng, m * m, m, 0.4, scalars).cols) if col
    )
    f = random_map(rng, n, m, 0.5, scalars)
    g = random_map(rng, n, m, 0.5, scalars)
    assert_convolution_matches_composite(f, g, delta, mu)


# ---------------------------------------------------------------------------
# anticomultiplicativity and cocommutativity without the n^2-column twist
# ---------------------------------------------------------------------------


def composite_anticomult(d):
    return d.coproduct @ d.antipode == twist(d.dim, d.dim) @ d.antipode.tensor(d.antipode) @ d.coproduct


def composite_cocommutative(d):
    return twist(d.dim, d.dim) @ d.coproduct == d.coproduct


def twist_corpus():
    """The whq fixtures, K^G for an abelian and a nonabelian G, Sweedler and
    the ladder's dcp magmas, each with two antipode columns swapped, with an
    antipode column of two terms, and with a coproduct column replaced by its
    flip plus a second term."""
    bases = dict(whq_fixtures())
    bases["K^Z3"] = function_algebra(cyclic_group(3))
    bases["K^S3"] = function_algebra(symmetric_group(3))
    bases["K^S3 GF5"] = round_trip(bases["K^S3"], "GF5")
    bases["sweedler"] = sweedler_four_dim()
    bases["sweedler Q"] = round_trip(bases["sweedler"], "Q")
    bases["sweedler Fraction"] = as_fractions(bases["sweedler Q"])
    for m in (2, 3, 4):
        mp = mp_discrete_right(pair_quasigroupoid(moufang_loop_12(), m))
        bases[f"ladder m{m}"] = magma_of_quasigroupoid(double_cross_product(mp))
    out = {}
    for name, d in bases.items():
        n = d.dim
        out[name] = d
        i, j = n - 1, n // 2
        swapped = {i: d.antipode.cols[j], j: d.antipode.cols[i]}
        out[f"{name} swap-antipode"] = with_cols(d, "antipode", swapped)
        out[f"{name} two-term-antipode"] = with_cols(d, "antipode", {i: {i: 1, j: 1}})
        col = {(t % n) * n + t // n: c for t, c in d.coproduct.cols[i].items()}
        col[i * n + (i + 1) % n] = 2
        out[f"{name} bent-coproduct"] = with_cols(d, "coproduct", {i: col})
    return out


def test_columnwise_twist_verdicts_equal_the_composite():
    verdicts = set()
    for name, d in twist_corpus().items():
        anticomult, cocommutative = composite_anticomult(d), composite_cocommutative(d)
        assert hopf._anticomultiplicative(d) == anticomult, name
        assert hopf.is_cocommutative(d) == cocommutative, name
        verdicts.add((anticomult, cocommutative))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
