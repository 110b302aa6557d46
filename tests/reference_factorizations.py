"""The factorization enumerator as it stood before it grew closed subsets
by closure and skipped the pairs that cannot be exact, kept as the oracle
for `tests/test_factorizations.py`.

`closed_arrow_subsets` tries every set of non-identity arrows, in order of
size and then lexicographically, and keeps those on which `closure_fault`
finds none; `enumerate_factorizations` runs `check_exact_factorization`
on every ordered pair of their substructures.  Otherwise this is the
library's code from before that change.
"""

from itertools import combinations

from nonassoc.factorizations import (
    FactorizationCandidate,
    check_exact_factorization,
    closure_fault,
    sub_quasigroupoid,
)
from nonassoc.quasigroupoids import Quasigroupoid


def closed_arrow_subsets(b: Quasigroupoid) -> list[tuple[int, ...]]:
    identities = set(b.unit)
    others = sorted(set(range(b.n_arrows)) - identities)
    subsets = []
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            chosen = identities | set(extra)
            if closure_fault(b, chosen) is None:
                subsets.append(tuple(sorted(chosen)))
    return subsets


def enumerate_factorizations(b: Quasigroupoid) -> list[FactorizationCandidate]:
    inclusions = [sub_quasigroupoid(b, arrows)[1] for arrows in closed_arrow_subsets(b)]
    candidates = (FactorizationCandidate(b, ia, ih) for ia in inclusions for ih in inclusions)
    return [c for c in candidates if check_exact_factorization(c).ok]
