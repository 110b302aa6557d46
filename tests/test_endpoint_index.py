"""The endpoint index against the brute-force enumerations it replaces.

`fibered_arrows`, `mixed_pairs` and the joins of fibered pairs used by the
mixed associativity sweeps must list exactly what filtering all arrows
(`tests.conftest.ends_after`, `fibered_pairs`) lists, in the same order.  P-5, P-6, P-9 and P-10
of the matched-pair identity suite, which visit only the third arrows that
their product lookups can find, must evaluate and fail exactly what the
sweep over every third arrow does, also on corrupted tables, among them
tables inserted out of order and entries off the composable pairs.  The
scans are kept here as the oracle.  Also: the sparse-base chain that the
index makes linear in the number of arrows.  Each structure keeps its own
index, built once: it must equal `arrows_by_object` of its sources and
targets, the fibered pairs that `check_exact_factorization` reads from it
must equal the filtered ones, and the checks of a matched pair, its
canonical factorization and its identity suites index A and H once and
admit each action table once, when the action is built.
"""

import dataclasses
import random
import time
from collections import Counter

import pytest

from nonassoc import (
    FactorizationCandidate,
    LeftAction,
    MatchedPair,
    Quasigroupoid,
    RightAction,
    StructureError,
    canonical_factorization,
    check_exact_factorization,
    check_matched_pair,
    check_morphism,
    coarse_groupoid,
    derived_identity_suite,
    discrete_groupoid,
    from_quasigroup_action,
    identity_morphism,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    mixed_pairs,
    mp_discrete_right,
    pair_quasigroupoid,
    pullback_quasigroupoid,
    quasigroup_as_quasigroupoid,
    sub_quasigroupoid,
    theta_identity_report,
)
from nonassoc import factorizations, matched_pairs, quasigroupoids
from nonassoc.quasigroupoids import arrows_by_object, fibered_arrows, matching_arrows
from tests import reference_sweeps as ref
from tests.conftest import ends_after, fibered_pairs, two_sided_pair
from tests.test_builders import QUASIGROUPS, c2_actions, relabelled_components


def brute_join(first, second):
    """Triples (x, y, z) with (x, y) in `first` and (y, z) in `second`."""
    return [(x, y, z) for (x, y) in first for (y2, z) in second if y2 == y]


def ends_only(n_objects, src, tgt):
    """A structure carrying only endpoints: enough for the enumerations."""
    k = len(src)
    return Quasigroupoid(
        n_objects=n_objects, src=tuple(src), tgt=tuple(tgt), unit=(0,) * n_objects,
        inv=tuple(range(k)), prod={},
    )


def random_ends(rng, n_objects, n_arrows):
    """Random endpoints over few objects, so that some buckets are empty."""
    used = rng.sample(range(n_objects), rng.randint(1, n_objects))
    src = [rng.choice(used) for _ in range(n_arrows)]
    tgt = [rng.choice(used) for _ in range(n_arrows)]
    return ends_only(n_objects, src, tgt)


@pytest.fixture(scope="module")
def structure_pairs(mp_family, m12):
    """(left, right) pairs on one base: family components, one-object
    structures, and seeded random endpoints with empty buckets."""
    out = []
    for mp in mp_family.values():
        out += [(mp.a, mp.h), (mp.h, mp.a), (mp.a, mp.a), (mp.h, mp.h)]
    one = quasigroup_as_quasigroupoid(m12)
    out.append((one, one))
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randint(1, 5)
        left = random_ends(rng, m, rng.randint(0, 12))
        right = random_ends(rng, m, rng.randint(0, 12))
        out += [(left, right), (right, left)]
    out.append((ends_only(3, [], []), ends_only(3, [0, 2], [2, 2])))
    return out


def test_mixed_pairs_equal_the_nested_filter(structure_pairs):
    for left, right in structure_pairs:
        assert mixed_pairs(left, right) == fibered_pairs(left, right)


def test_fibered_arrows_equal_the_filter(structure_pairs):
    for left, right in structure_pairs:
        assert fibered_arrows(left, right) == ends_after(left.src, right.tgt)
        assert matching_arrows(left.src, right.tgt, left.n_objects) == ends_after(
            left.src, right.tgt
        )


def test_joins_equal_the_nested_filter(structure_pairs):
    """The six laws' triples: a fibered pair of (X, Y) extended by every z of
    Z with src(y) = tgt(z)."""
    for x_side, y_side in structure_pairs:
        for z_side in (x_side, y_side):
            after = fibered_arrows(y_side, z_side)
            joined = [(x, y, z) for (x, y) in mixed_pairs(x_side, y_side) for z in after[y]]
            first, second = fibered_pairs(x_side, y_side), fibered_pairs(y_side, z_side)
            assert joined == brute_join(first, second)


def test_buckets_are_increasing_and_cover_every_arrow():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 6)
        ends = [rng.randrange(m) for _ in range(rng.randint(0, 30))]
        index = arrows_by_object(ends, m)
        assert len(index) == m
        for x, bucket in enumerate(index):
            assert bucket == [i for i, e in enumerate(ends) if e == x]


@pytest.mark.parametrize("bad", [-1, 3, "0", None])
def test_bucketing_rejects_objects_outside_the_base(bad):
    with pytest.raises(StructureError):
        arrows_by_object([0, bad, 2], 3)
    with pytest.raises(StructureError):
        matching_arrows([0, 1, 2], [0, bad, 2], 3)
    with pytest.raises(StructureError):
        matching_arrows([0, bad, 2], [0, 1, 2], 3)


def test_a_negative_source_is_rejected_not_wrapped():
    """-1 would otherwise index the last bucket and pair the arrow with the
    arrows into object m-1."""
    q = ends_only(2, [0, -1], [0, 1])
    with pytest.raises(StructureError):
        q.by_src
    with pytest.raises(StructureError):
        mixed_pairs(q, coarse_groupoid(2))
    with pytest.raises(StructureError):
        fibered_arrows(q, coarse_groupoid(2))


def test_structures_over_different_bases_are_refused():
    """Read side by side, two indexes of different lengths would leave the
    arrows over the objects that one base lacks with None for a list."""
    for first, second in ((coarse_groupoid(3), coarse_groupoid(2)),
                          (coarse_groupoid(2), coarse_groupoid(3))):
        for enumerate_pairs in (fibered_arrows, mixed_pairs):
            with pytest.raises(StructureError, match="^base mismatch: structures have"):
                enumerate_pairs(first, second)


def test_sparse_base_chain_is_linear_in_the_arrows():
    """On 1000 objects with one arrow each, every fibered set has 1000
    elements; scanning k^2 pairs (and listing |pairs| * k configurations in
    P-5, P-6, P-9 and P-10) took about 10 s and 100 MB."""
    q = discrete_groupoid(1000)
    start = time.perf_counter()
    assert derived_identity_suite(q).ok
    assert check_morphism(identity_morphism(q)).ok
    mp = mp_discrete_right(q)
    c = canonical_factorization(mp)
    fact = check_exact_factorization(c)
    assert fact.ok
    assert mixed_associativity_suite(c, fact).ok
    suite = matched_pair_identity_suite(mp)
    elapsed = time.perf_counter() - start
    assert suite.ok
    assert suite.data["evaluated"]["P-5"] == 1000
    assert elapsed < 2.0


def builder_corpus():
    """Every builder's quasigroupoids, as `tests/test_builders.py` builds
    them, and components whose arrows are numbered by decreasing target."""
    out = [discrete_groupoid(n) for n in (1, 2, 3)] + [coarse_groupoid(n) for n in (1, 2, 3)]
    for q in QUASIGROUPS.values():
        out += [quasigroup_as_quasigroupoid(q), pair_quasigroupoid(q, 2)]
    out += [from_quasigroup_action(q, n, psi) for q, n, psi in c2_actions()]
    out.append(pullback_quasigroupoid(coarse_groupoid(2), 3, [0, 1, 1]))
    return out + relabelled_components()


def test_each_structure_keeps_its_endpoint_index():
    """On the builder corpus and the substructures of its closed subsets:
    the index equals the buckets of the sources and of the targets, and it
    is built once."""
    seen = 0
    for b in builder_corpus():
        structures = [b]
        if b.n_arrows <= 24:
            subsets = factorizations.closed_arrow_subsets(b)
            structures += [sub_quasigroupoid(b, arrows)[0] for arrows in subsets]
        for q in structures:
            assert q.by_src == arrows_by_object(q.src, q.n_objects)
            assert q.by_tgt == arrows_by_object(q.tgt, q.n_objects)
            assert q.by_src is q.by_src and q.by_tgt is q.by_tgt
            seen += 1
    assert seen > 200


def test_a_pair_is_indexed_once_and_its_tables_admitted_once(monkeypatch):
    """On a two-sided pair with fresh components: building the two actions,
    `check_matched_pair`, the canonical factorization, its exactness report
    and the three suite reports call `arrows_by_object` once for each of the
    four endpoint lists of A and H, and check each action table once, when
    its action is built."""
    mp = two_sided_pair(2)
    a, h = dataclasses.replace(mp.a), dataclasses.replace(mp.h)  # no index built yet
    indexed, admitted = [], []
    index, admit = quasigroupoids.arrows_by_object, matched_pairs._check_table

    def counted_index(ends, n_objects):
        indexed.append(ends)
        return index(ends, n_objects)

    def counted_admit(action):
        admitted.append(action.kind)
        return admit(action)

    monkeypatch.setattr(quasigroupoids, "arrows_by_object", counted_index)
    monkeypatch.setattr(matched_pairs, "_check_table", counted_admit)
    pair = MatchedPair(a, h, LeftAction(h, a, mp.left.table), RightAction(h, a, mp.right.table))
    assert admitted == ["left", "right"]
    assert check_matched_pair(pair).ok
    c = canonical_factorization(pair)
    fact = check_exact_factorization(c)
    assert fact.ok
    assert matched_pair_identity_suite(pair).ok
    assert mixed_associativity_suite(c, fact).ok
    assert theta_identity_report(c, fact).ok
    assert admitted == ["left", "right"]
    assert len(indexed) == 4
    for ends in (a.src, a.tgt, h.src, h.tgt):
        assert sum(seen is ends for seen in indexed) == 1


def test_the_exactness_sweeps_read_the_matching_arrows(monkeypatch):
    """Every fibered-pair list that `check_exact_factorization` gives its
    sweeps equals the filtered lists of the sides its tag names: a mixed law
    XYZ reads the pairs of (X, Y) and, for the third arrow, of (Y, Z); theta
    reads the pairs of (A, H).  Over the first two and last two closed
    subsets of each builder input of at most 24 arrows, in both orders."""
    lists = []

    def recording(name):
        original = getattr(factorizations, name)

        def record(*args):
            lists.append((name, args))
            return original(*args)

        monkeypatch.setattr(factorizations, name, record)

    recording("_mixed_law")
    recording("_theta_bijective")
    checked = 0
    for b in builder_corpus():
        if b.n_arrows > 24:
            continue
        subsets = factorizations.closed_arrow_subsets(b)
        picks = [sub_quasigroupoid(b, arrows)[1] for arrows in subsets[:2] + subsets[-2:]]
        for ia in picks:
            for ih in picks:
                lists.clear()
                factorizations.check_exact_factorization(FactorizationCandidate(b, ia, ih))
                side = {"A": (ia.source, ia.arrow_map), "H": (ih.source, ih.arrow_map)}

                def matching(x, y):
                    return ends_after(side[x][0].src, side[y][0].tgt)

                (theta, (_, _, a_h, fa, fh, _)), *mixed = lists
                assert theta == "_theta_bijective"
                assert (a_h, fa, fh) == (matching("A", "H"), ia.arrow_map, ih.arrow_map)
                assert [args[2] for _, args in mixed] == ["HAA", "HHA", "HAH", "AHA", "AAH", "AHH"]
                for _, (_, _, (x, y, z), pairs, f1, f2, third, f3) in mixed:
                    assert (pairs, third) == (matching(x, y), matching(y, z))
                    assert (f1, f2, f3) == (side[x][1], side[y][1], side[z][1])
                    checked += 1
    assert checked > 500


def reference_third_arrow_sweeps(mp):
    """P-5, P-6, P-9 and P-10 over every third arrow, skipping undefined
    configurations: tag -> (evaluated, [(witness, detail)])."""
    a, h, phi_a, phi_h = mp.a, mp.h, mp.phi_a, mp.phi_h
    la, lh = a.inv, h.inv

    def p9(x, y, b):
        lhs = a.compose(la[y], phi_a(lh[x], b))
        ph, pa = phi_h(x, y), phi_a(x, y)
        return lhs, None if ph is None or pa is None else phi_a(lh[ph], a.compose(la[pa], b))

    def p10(x, y, g):
        lhs = h.compose(phi_h(g, la[y]), lh[x])
        ph, pa = phi_h(x, y), phi_a(x, y)
        return lhs, None if ph is None or pa is None else phi_h(h.compose(g, lh[ph]), la[pa])

    sweeps = {
        "P-5": (a, lambda x, y, b: (
            a.compose(a.compose(b, phi_a(x, y)), phi_a(phi_h(x, y), la[y])), b)),
        "P-6": (h, lambda x, y, g: (
            h.compose(phi_h(lh[x], phi_a(x, y)), h.compose(phi_h(x, y), g)), g)),
        "P-9": (a, p9),
        "P-10": (h, p10),
    }
    out = {}
    for tag, (third, sides) in sweeps.items():
        evaluated, failures = 0, []
        for (x, y) in fibered_pairs(h, a):
            for z in range(third.n_arrows):
                lhs, rhs = sides(x, y, z)
                if lhs is None or rhs is None:
                    continue
                evaluated += 1
                if lhs != rhs:
                    failures.append(((x, y, z), f"lhs={lhs} rhs={rhs}"))
        out[tag] = (evaluated, failures)
    return out


def _with_entries_off_the_pairs(q, rng):
    """q with product entries added at (c, f) and (f, c), f one arrow, for
    every arrow c that does not compose with f there, and for c = -1 and c
    = k just outside the arrows 0..k-1.  Each value is an arrow that a
    product with f could be: one leaving src(f) for (c, f), one entering
    tgt(f) for (f, c)."""
    f = rng.randrange(q.n_arrows)
    leaving = [v for v in range(q.n_arrows) if q.src[v] == q.src[f]]
    entering = [v for v in range(q.n_arrows) if q.tgt[v] == q.tgt[f]]
    prod = dict(q.prod)
    for c in (-1, *range(q.n_arrows), q.n_arrows):
        for key, values in (((c, f), leaving), ((f, c), entering)):
            if key not in prod:
                prod[key] = rng.choice(values)
    return dataclasses.replace(q, prod=prod)


def _shuffled(q, rng):
    entries = list(q.prod.items())
    rng.shuffle(entries)
    return dataclasses.replace(q, prod=dict(entries))


KINDS = ("left", "right", "a product", "h product", "shuffled", "off the pairs")


def corrupted_pairs(mp, rng, count):
    """(kind, copy of mp) with an action value changed; a product entry of
    a component changed or dropped; both products re-inserted in shuffled
    order, with a value of each action shifted, so that P-5, P-6, P-9 and
    P-10 fail at several third arrows of one (x, y); or product entries
    added off the composable pairs of a component."""
    out = []
    for _ in range(count):
        a, h = mp.a, mp.h
        left, right = dict(mp.left.table), dict(mp.right.table)
        kind = KINDS[rng.randrange(len(KINDS))]
        if kind == "left":
            left[rng.choice(sorted(left))] = rng.randrange(a.n_arrows)
        elif kind == "right":
            right[rng.choice(sorted(right))] = rng.randrange(h.n_arrows)
        elif kind == "shuffled":
            a, h = _shuffled(a, rng), _shuffled(h, rng)
            for table, n in ((left, a.n_arrows), (right, h.n_arrows)):
                key = rng.choice(sorted(table))
                table[key] = (table[key] + rng.randrange(n)) % n
        elif kind == "off the pairs":
            if rng.randrange(2):
                a = _with_entries_off_the_pairs(a, rng)
            else:
                h = _with_entries_off_the_pairs(h, rng)
        else:
            q = a if kind == "a product" else h
            prod = dict(q.prod)
            key = rng.choice(sorted(prod))
            if rng.randrange(2):
                del prod[key]
            else:
                prod[key] = rng.randrange(q.n_arrows)
            q = dataclasses.replace(q, prod=prod)
            a, h = (q, h) if kind == "a product" else (a, q)
        out.append((kind, MatchedPair(a, h, LeftAction(h, a, left), RightAction(h, a, right))))
    return out


def _report(report):
    return report.violations, report.data


def test_third_arrow_sweeps_equal_the_full_sweep(mp_family, z3):
    """Also against the suite as it stood before it looked products up by
    row (`tests/reference_sweeps.py`), report for report."""
    rng = random.Random(11)
    two_sided = [two_sided_pair(2, z3), two_sided_pair(2)]
    pairs = [("valid", mp) for mp in [*mp_family.values(), *two_sided]]
    corrupted = [bad for _, mp in list(pairs) for bad in corrupted_pairs(mp, rng, 12)]
    # the most third arrows failing one identity at one (x, y), per kind
    most = Counter()
    for kind, mp in pairs + corrupted:
        report = matched_pair_identity_suite(mp)
        assert _report(report) == _report(ref.matched_pair_identity_suite(mp))
        for tag, (evaluated, failures) in reference_third_arrow_sweeps(mp).items():
            assert report.data["evaluated"][tag] == evaluated, tag
            assert [(v.witness, v.detail) for v in report.violations_for(tag)] == failures, tag
            per_pair = Counter(witness[:2] for witness, _ in failures)
            most[kind, tag] = max(most[kind, tag], *per_pair.values(), 0)
    assert all(most["valid", tag] == 0 for tag in ("P-5", "P-6", "P-9", "P-10"))
    assert all(most["shuffled", tag] >= 3 for tag in ("P-5", "P-6", "P-9", "P-10")), most
    # entries off the composable pairs reach only P-5 and P-6: in P-9 and
    # P-10 such a third arrow makes an action lookup undefined
    assert all(most["off the pairs", tag] >= 3 for tag in ("P-5", "P-6")), most
