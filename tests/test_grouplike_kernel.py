"""The group-like kernel of `hopf` against the reference sweeps.

The kernel decides d1, d2, d4-4..d4-7, antimult and the one-sided
associativity laws from integer tables; the reference sweeps evaluate the
same laws scalar by scalar.  Every verdict the kernel reaches, in either
direction, must equal the reference sweep's, and a whole report must be the
same whether or not the kernel runs.  The corpus: the magmas of the
matched-pair family, their `bowtie_whq` counterparts, the criterion-5
quasigroupoid magmas, the whq negative fixtures, and seeded corruptions
that stay group-like (a redirected product entry, a dropped product entry,
two antipode columns swapped), and random partial product tables on two or
three basis vectors, where single law instances fail on their own.  Each
structure comes with int scalars, with Fraction scalars (a document round
trip over Q) and with GF(5) scalars.
The reference sweeps over Fraction and GF(5) scalars cost about twenty
times the int ones, so those two variants are taken for the structures of
at most 9 basis vectors; the 12- and 48-arrow magmas over Q and GF(5) are pinned
by the golden CLI outputs instead.
"""

import dataclasses
import random
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
from nonassoc.reports import StructureError, StructureReport, format_report
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


def with_cols(d, name, updates):
    """d with some columns of the named structure map replaced."""
    m = getattr(d, name)
    cols = tuple(updates.get(j, col) for j, col in enumerate(m.cols))
    return dataclasses.replace(d, **{name: LinearMap(m.dom, m.cod, cols)})


def seeded_corruptions(name, d, seeds=(0, 1)):
    """Group-like corruptions away from the unit, so the preconditions keep
    holding and the d-axioms are swept."""
    n = d.dim
    units = set(d.unit)
    others = [x for x in range(n) if x not in units]
    defined = [
        t for t in range(n * n)
        if d.product.cols[t] and t // n not in units and t % n not in units
    ]
    out = {}
    for seed in seeds:
        rng = random.Random(seed)
        if defined:
            t = rng.choice(defined)
            (old,) = d.product.cols[t]
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
            out[f"{name} [GF5]"] = round_trip(d, "GF5")
    return out


def reference_ok(sweep, d, *args) -> bool:
    report = StructureReport("reference")
    sweep(d, report, *args)
    return report.ok


def law_verdicts(d):
    """law -> (kernel verdict, reference verdict), for each law the kernel
    decides, on a group-like structure."""
    prod, anti = hopf._group_like(d)
    n = d.dim
    splits = [d.delta_split(i) for i in range(n)]
    pi_l, pi_r = hopf._convolution_projections(d)
    return {
        "d1": (True, reference_ok(hopf._law_d1, d, hopf._Supports(d), None)),
        "d2": (hopf._d2_holds(prod, n), reference_ok(hopf._sweep_d2, d, hopf._Supports(d))),
        "d4-4..7": (
            hopf._d4_4_to_7_hold(prod, anti, n),
            reference_ok(hopf._sweep_d4_4_to_7, d, splits, pi_l, pi_r),
        ),
        "antimult": (hopf._antimult_holds(prod, anti, n), reference_ok(hopf._sweep_antimult, d)),
        "target-assoc": (
            hopf._one_sided_holds(prod, pi_l, n),
            reference_ok(hopf._sweep_one_sided, d, "target-assoc", pi_l),
        ),
        "source-assoc": (
            hopf._one_sided_holds(prod, pi_r, n),
            reference_ok(hopf._sweep_one_sided, d, "source-assoc", pi_r),
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
    splits = [d.delta_split(i) for i in range(d.dim)]
    hopf._sweep_d4_4_to_7(d, report, splits, *hopf._convolution_projections(d))
    assert report.failed_axioms() == (tag,)


def test_kernel_verdicts_equal_reference_verdicts(corpus):
    seen: dict[str, set] = {}
    for name, d in corpus.items():
        if hopf._group_like(d) is None:
            continue
        for law, (kernel, reference) in law_verdicts(d).items():
            assert kernel == reference, (name, law, kernel, reference)
            seen.setdefault(law, set()).add(kernel)
    # both verdict directions are exercised (d1 cannot fail on a group-like basis)
    assert seen.pop("d1") == {True}
    for law, verdicts in seen.items():
        assert verdicts == {True, False}, (law, verdicts)


def outcome(checker, d):
    """Everything a checker run shows: the report (with its data, apart from
    the kernel's own tables, which a patched `_group_like` replaces by None)
    or the error it raised."""
    try:
        report = checker(d)
    except StructureError as exc:
        return ("raised", str(exc))
    data = {key: value for key, value in report.data.items() if key != "group_like"}
    return (report.subject, report.axioms, report.violations, report.notes,
            format_report(report), data)


@pytest.mark.parametrize("checker", [check_whq, derived_property_suite])
def test_reports_equal_with_and_without_kernel(corpus, monkeypatch, checker):
    failing = 0
    for name, d in corpus.items():
        fast = outcome(checker, d)
        with monkeypatch.context() as m:
            m.setattr(hopf, "_group_like", lambda d: None)
            slow = outcome(checker, d)
        assert fast == slow, name
        failing += fast[0] != "raised" and bool(fast[2])
    assert failing > 0


def test_is_hopf_quasigroup_through_the_d1_law(corpus, monkeypatch):
    for name, d in corpus.items():
        fast = is_hopf_quasigroup(d)
        with monkeypatch.context() as m:
            m.setattr(hopf, "_group_like", lambda d: None)
            assert is_hopf_quasigroup(d) == fast, name


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
    composite = mu @ f.tensor(g) @ delta
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
    mu = random_map(rng, m * m, m, 0.4, scalars)
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
