"""The endpoint index against the brute-force enumerations it replaces.

`composable_pairs`, `mixed_pairs` and the joins of fibered pairs used by the
mixed associativity sweeps must list exactly what scanning all pairs of
arrows and filtering them lists, in the same order.  P-5, P-6, P-9 and P-10
of the matched-pair identity suite, which visit only the third arrows that
their product lookups can find, must evaluate and fail exactly what the
sweep over every third arrow does, also on corrupted tables, among them
tables inserted out of order and entries off the composable pairs.  The
scans are kept here as the oracle.  Also: the sparse-base chain that the
index makes linear in the number of arrows.
"""

import dataclasses
import random
import time
from collections import Counter

import pytest

from nonassoc import (
    LeftAction,
    MatchedPair,
    Quasigroupoid,
    RightAction,
    StructureError,
    canonical_factorization,
    check_exact_factorization,
    check_morphism,
    coarse_groupoid,
    derived_identity_suite,
    discrete_groupoid,
    identity_morphism,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    mixed_pairs,
    mp_discrete_right,
    quasigroup_as_quasigroupoid,
)
from nonassoc.quasigroupoids import arrows_by_object, matching_arrows
from tests import reference_sweeps as ref
from tests.conftest import two_sided_pair


def brute_composable(q):
    return [
        (a, b) for a in range(q.n_arrows) for b in range(q.n_arrows) if q.src[a] == q.tgt[b]
    ]


def brute_mixed(left, right):
    return [
        (x, y)
        for x in range(left.n_arrows)
        for y in range(right.n_arrows)
        if left.src[x] == right.tgt[y]
    ]


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


def test_composable_pairs_equal_the_scan(structure_pairs):
    for left, _ in structure_pairs:
        assert list(left.composable_pairs()) == brute_composable(left)


def test_mixed_pairs_equal_the_nested_filter(structure_pairs):
    for left, right in structure_pairs:
        assert mixed_pairs(left, right) == brute_mixed(left, right)


def test_joins_equal_the_nested_filter(structure_pairs):
    """The six laws' triples: a fibered pair of (X, Y) extended by every z of
    Z with src(y) = tgt(z)."""
    for x_side, y_side in structure_pairs:
        for z_side in (x_side, y_side):
            after = matching_arrows(y_side.src, z_side.tgt, y_side.n_objects)
            joined = [(x, y, z) for (x, y) in mixed_pairs(x_side, y_side) for z in after[y]]
            first, second = brute_mixed(x_side, y_side), brute_mixed(y_side, z_side)
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
        list(q.composable_pairs())
    with pytest.raises(StructureError):
        mixed_pairs(q, coarse_groupoid(2))


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
        for (x, y) in brute_mixed(h, a):
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
