"""The combinatorial sweeps that look products and actions up by row
(`quasigroupoids.PairTable.rows`) against the tuple-keyed checkers they
replaced (`tests/reference_sweeps.py`).

Both must give the same report, violation for violation and in the same
order, with the same details, notes and data (theta in the same insertion
order, and the identity suite's counts of evaluated configurations), or
raise the same exception: on the test family, on the two-sided
pairs of pair(M12, m) for m = 2, 3, on every factorize candidate of the
one-object M12, on seeded corruptions of products, action tables,
inclusion arrow maps and component endpoints, and on product tables at the
edges of the shape check.  An action table that the library's action
constructor refuses is given to the reference checkers unchecked
(`reference_sweeps.UncheckedAction`), and each must raise the refusal's
StructureError, with its message.  One exception is allowed: where the
reference identity suite indexes past the last arrow with an `IndexError`,
the refusal must be the `StructureError` that the reference
`check_matched_pair` raises on the same pair.
"""

import dataclasses
import random

from nonassoc import (
    FactorizationCandidate,
    LeftAction,
    MatchedPair,
    QgpdMorphism,
    RightAction,
    canonical_factorization,
    check_exact_factorization,
    check_left_action,
    check_matched_pair,
    check_quasigroupoid,
    check_right_action,
    derived_identity_suite,
    matched_pair_identity_suite,
    quasigroup_as_quasigroupoid,
    sub_quasigroupoid,
)
from nonassoc.factorizations import closed_arrow_subsets
from nonassoc.matched_pairs import MIXED_LAWS
from nonassoc.quasigroupoids import PairTable
from nonassoc.reports import StructureError
from tests import reference_sweeps as ref
from tests.conftest import two_sided_pair


def _outcome(check, *args):
    """A report as everything it holds, theta's insertion order included,
    or the exception raised.  The library's factorization report also
    counts the configurations it evaluated; the reference does not."""
    try:
        report = check(*args)
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return "raised", type(exc), str(exc)
    data = [
        (key, list(value.items()) if isinstance(value, dict) else value)
        for key, value in report.data.items()
        if key != "evaluated"
    ]
    return report.ok, report.subject, report.axioms, report.violations, report.notes, data


CHECKERS = {
    "quasigroupoid": (check_quasigroupoid, ref.check_quasigroupoid),
    "derived": (derived_identity_suite, ref.derived_identity_suite),
    "left": (check_left_action, ref.check_left_action),
    "right": (check_right_action, ref.check_right_action),
    "matched pair": (check_matched_pair, ref.check_matched_pair),
    "factorization": (check_exact_factorization, ref.check_exact_factorization),
    "identities": (matched_pair_identity_suite, ref.matched_pair_identity_suite),
}


def _evaluated(c):
    """Per mixed law, the configurations where at least one side is
    defined, counted over every triple of component arrows."""
    b, components = c.b, {"A": c.ia, "H": c.ih}
    counts = {}
    for tag in MIXED_LAWS:
        (s1, f1), (s2, f2), (s3, f3) = (
            (components[k].source, components[k].arrow_map) for k in tag
        )
        counts[tag] = sum(
            b.compose(f1[x], b.compose(f2[y], f3[z])) is not None
            or b.compose(b.compose(f1[x], f2[y]), f3[z]) is not None
            for x in range(s1.n_arrows)
            for y in range(s2.n_arrows)
            if s1.src[x] == s2.tgt[y]
            for z in range(s3.n_arrows)
            if s2.src[y] == s3.tgt[z]
        )
    return counts


def _compare(name, arg):
    new, old = CHECKERS[name]
    got, expected = _outcome(new, arg), _outcome(old, arg)
    if name == "identities" and expected[:2] == ("raised", IndexError):
        expected = _outcome(check_matched_pair, arg)
        assert expected[:2] == ("raised", StructureError)
    assert got == expected, name
    if got[0] != "raised":
        if name == "factorization":
            assert new(arg).data["evaluated"] == _evaluated(arg)
        elif name == "identities":
            assert new(arg).data["evaluated"] == old(arg).data["evaluated"]
    return got


def _compare_all(mp, candidate):
    outcomes = []
    for q in (mp.a, mp.h, candidate.b):
        outcomes.append(_compare("quasigroupoid", q))
        outcomes.append(_compare("derived", q))
    outcomes.append(_compare("left", mp.left))
    outcomes.append(_compare("right", mp.right))
    outcomes.append(_compare("matched pair", mp))
    outcomes.append(_compare("identities", mp))
    outcomes.append(_compare("factorization", candidate))
    return outcomes


def test_the_family_and_the_two_sided_pairs_give_the_reference_reports(mp_family):
    pairs = dict(mp_family)
    pairs.update({f"two-sided m{m}": two_sided_pair(m) for m in (2, 3)})
    for name, mp in pairs.items():
        outcomes = _compare_all(mp, canonical_factorization(mp))
        assert all(outcome[0] is True for outcome in outcomes), name


def test_every_factorize_candidate_of_m12_gives_the_reference_report(m12):
    b = quasigroup_as_quasigroupoid(m12)
    inclusions = [sub_quasigroupoid(b, arrows)[1] for arrows in closed_arrow_subsets(b)]
    verdicts = [
        _compare("factorization", FactorizationCandidate(b, ia, ih))[0]
        for ia in inclusions
        for ih in inclusions
    ]
    assert (len(verdicts), verdicts.count(True)) == (576, 2)


def test_shape_edge_cases_give_the_reference_reports():
    b = canonical_factorization(two_sided_pair(2)).b
    k, rows = b.n_arrows, b.prod.rows
    first, *_, last = rows  # the first and the last row, in row order
    off = next(y for y in range(k) if not b.composable(first, y))
    # a pair that is not composable, then, later in row order, an entry past
    # the last arrow: the shape check raises on the second
    bad = {x: dict(row) for x, row in rows.items()}
    bad[first][off] = 0
    bad[last][k] = 0
    # an empty row keyed by a non-arrow, which holds no entry to check
    empty = PairTable({**rows, 10**6: {}})
    # True for the arrow 1 as a first and a second factor
    as_bool = {(True if x == 1 else x): {(True if y == 1 else y): v for y, v in row.items()}
               for x, row in rows.items()}
    outcomes = [
        _compare("quasigroupoid", dataclasses.replace(b, prod=table))
        for table in (PairTable(bad), empty, PairTable(as_bool))
    ]
    assert outcomes[0] == (
        "raised", StructureError, f"product entry ({last}, {k}) -> 0 out of range"
    )
    assert [outcome[0] for outcome in outcomes[1:]] == [True, True]


# ---------------------------------------------------------------------------
# seeded corruptions
# ---------------------------------------------------------------------------


def _with_prod(q, rng, kind):
    """q with one product entry changed, deleted, or added on a pair that is
    not composable.  Where every pair composes nothing is added, and where
    q has one arrow nothing is changed: the entry is deleted instead."""
    prod = dict(q.prod)
    key = rng.choice(sorted(prod))
    off = [(x, y) for x in range(q.n_arrows) for y in range(q.n_arrows) if not q.composable(x, y)]
    if kind == "add" and off:
        prod[rng.choice(off)] = rng.randrange(q.n_arrows)
    elif kind == "delete" or q.n_arrows == 1:
        del prod[key]
    else:
        prod[key] = (prod[key] + rng.randrange(1, q.n_arrows)) % q.n_arrows
    return dataclasses.replace(q, prod=prod)


ACTIONS = {"left": LeftAction, "right": RightAction}


def _with_components(mp, a, h):
    return MatchedPair(a, h, LeftAction(h, a, mp.left.table), RightAction(h, a, mp.right.table))


def _with_actions(mp, rng):
    """The action tables of mp, by side, with one to three values replaced
    by arbitrary values, one in twenty past the last arrow."""
    left, right = dict(mp.left.table), dict(mp.right.table)
    keys = sorted(left)
    for _ in range(rng.randint(1, 3)):
        table, n = (left, mp.a.n_arrows) if rng.random() < 0.5 else (right, mp.h.n_arrows)
        table[rng.choice(keys)] = rng.randrange(n + (rng.random() < 0.05))
    return {"left": left, "right": right}


def _refused(name, unchecked, refusal):
    """The reference checker `name` raises on the unchecked input the
    StructureError `refusal` of an action constructor, or, for the identity
    suite, an IndexError where the reference `check_matched_pair` raises it."""
    expected = _outcome(CHECKERS[name][1], unchecked)
    if name == "identities" and expected[:2] == ("raised", IndexError):
        expected = _outcome(ref.check_matched_pair, unchecked)
    assert expected == ("raised", StructureError, str(refusal)), name


def _permuted(f, rng):
    arrows = list(f.arrow_map)
    rng.shuffle(arrows)
    return QgpdMorphism(f.source, f.target, f.obj_map, tuple(arrows))


def _moved_endpoint(f, rng):
    """f with one end of one arrow of its source moved to the next object,
    so that some fibered lists of the mixed laws can come out empty."""
    q = f.source
    ends = rng.choice(("src", "tgt"))
    moved = list(getattr(q, ends))
    arrow = rng.randrange(q.n_arrows)
    moved[arrow] = (moved[arrow] + 1) % q.n_objects
    q = dataclasses.replace(q, **{ends: tuple(moved)})
    return QgpdMorphism(q, f.target, f.obj_map, f.arrow_map)


def _retargeted(f, b):
    return QgpdMorphism(f.source, b, f.obj_map, f.arrow_map)


def test_seeded_corruptions_give_the_reference_reports(mp_family):
    bases = [(mp, canonical_factorization(mp)) for mp in mp_family.values()]
    bases.append((two_sided_pair(2), canonical_factorization(two_sided_pair(2))))
    kinds = ("change", "delete", "add", "action", "inclusion", "endpoint")
    tally = {name: {"pass": 0, "fail": 0, "raised": 0} for name in CHECKERS}

    def compare(name, arg, refusal=None):
        if refusal is None:
            verdict = _compare(name, arg)[0]
        else:  # the library refused arg's table, so the reference must too
            _refused(name, arg, refusal)
            verdict = "raised"
        tally[name][{True: "pass", False: "fail"}.get(verdict, "raised")] += 1

    for seed in range(720):
        rng = random.Random(seed)
        mp, c = rng.choice(bases)
        kind = kinds[seed % len(kinds)]
        if kind == "action":
            a, h = mp.a, mp.h
            actions, refusal = {}, None  # the first refusal, in the order of building
            for name, table in _with_actions(mp, rng).items():
                try:
                    actions[name] = ACTIONS[name](h, a, table)
                except StructureError as exc:
                    actions[name] = ref.UncheckedAction(h, a, PairTable.of(table))
                    refusal = refusal or exc
                    compare(name, actions[name], exc)
                else:
                    compare(name, actions[name])
            bad = MatchedPair(a, h, actions["left"], actions["right"])
            compare("matched pair", bad, refusal)
            compare("identities", bad, refusal)
        elif kind == "inclusion":
            which = "ia" if rng.random() < 0.5 else "ih"
            permuted = _permuted(getattr(c, which), rng)
            compare("factorization", dataclasses.replace(c, **{which: permuted}))
        elif kind == "endpoint":
            which = rng.choice(("ia", "ih"))
            moved = _moved_endpoint(getattr(c, which), rng)
            compare("factorization", dataclasses.replace(c, **{which: moved}))
        else:
            which = rng.choice(("a", "h", "b"))
            q = _with_prod({"a": mp.a, "h": mp.h, "b": c.b}[which], rng, kind)
            compare("quasigroupoid", q)
            compare("derived", q)
            if which == "b":
                retargeted = FactorizationCandidate(q, _retargeted(c.ia, q), _retargeted(c.ih, q))
                compare("factorization", retargeted)
            else:
                bad = _with_components(mp, q if which == "a" else mp.a,
                                       q if which == "h" else mp.h)
                compare("left", bad.left)
                compare("right", bad.right)
                compare("matched pair", bad)
                compare("identities", bad)
    # how many corrupted inputs each checker passed, failed, or raised on
    assert tally == {
        "quasigroupoid": {"pass": 0, "fail": 360, "raised": 0},
        "derived": {"pass": 86, "fail": 274, "raised": 0},
        "left": {"pass": 204, "fail": 156, "raised": 1},
        "right": {"pass": 246, "fail": 114, "raised": 1},
        "matched pair": {"pass": 106, "fail": 253, "raised": 2},
        "factorization": {"pass": 97, "fail": 262, "raised": 0},
        "identities": {"pass": 162, "fail": 197, "raised": 2},
    }
