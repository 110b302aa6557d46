"""Matched pairs: two quasigroupoids on one base acting on each other
compatibly, and the double cross product quasigroupoid they generate.

Shows the two canonical families, the ten derived identities, the mixed
associativity laws satisfied by the canonical inclusions, and the pairing
map that glues a product pair back together.
"""

from nonassoc import (
    canonical_factorization,
    check_exact_factorization,
    check_matched_pair,
    coarse_groupoid,
    cyclic_group,
    matched_pair_identity_suite,
    mixed_associativity_suite,
    moufang_loop_12,
    mp_action_left,
    mp_discrete_right,
    pair_quasigroupoid,
    theta,
)

# Family one: any structure matched with the discrete groupoid on its base.
# The discrete side acts trivially; the other side acts by recording sources.
mp1 = mp_discrete_right(coarse_groupoid(2))
print("discrete-right pair on the coarse groupoid:", check_matched_pair(mp1).ok)

# Family two: a loop action turns the point set against the action structure.
z3 = cyclic_group(3)
mp2 = mp_action_left(z3, 3, lambda a, x: (a + x) % 3)
print("action-left pair from Z/3 translation:", check_matched_pair(mp2).ok)

# A genuinely nonassociative member.
m12 = moufang_loop_12()
mp3 = mp_discrete_right(pair_quasigroupoid(m12, 2))
print("Moufang-based pair:", check_matched_pair(mp3).ok)

for name, mp in [("coarse", mp1), ("z3-translation", mp2), ("moufang", mp3)]:
    # ten consequences of the axioms, swept exhaustively
    suite = matched_pair_identity_suite(mp)
    counts = suite.data["evaluated"]
    print(f"\n{name}: identity suite OK={suite.ok}, configurations={sum(counts.values())}")

    # the double cross product: arrows are composable (a, h) pairs with the
    # action-twisted product; it comes with the inclusions of both components
    c = canonical_factorization(mp)
    print(f"{name}: double cross product has {c.b.n_arrows} arrows")

    # the product factors exactly through the two inclusions: one check covers
    # the six mixed associativity laws and the pairing map, which recovers
    # every pair on the nose
    fact = check_exact_factorization(c)
    pairing = theta(c, fact)
    assert all(image == pair for pair, image in pairing.items())
    print(f"{name}: pairing map is the identity on {len(pairing)} pairs")

    # the mixed associativity laws as seen from the pair; the suite also
    # evaluates the variant of the last one with the right-hand factors
    # exchanged, which fails as soon as the second component is
    # noncommutative
    mixed = mixed_associativity_suite(c, fact)
    swapped = mixed.data["AHH-swapped"]
    print(
        f"{name}: mixed associativity OK={mixed.ok}; exchanged-factor variant "
        f"fails {swapped['failures']}/{swapped['checked']} times"
    )
