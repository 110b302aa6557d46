"""The double cross product build as it stood before its product table was
filled once per mixed pair, kept as the oracle for `tests/test_dcp_fill.py`.

It looks up both actions and both component products afresh for every
composable pair (i, j) of the result, visiting the pairs in lexicographic
order, and raises `double cross product not closed` at the first pair whose
product is not an arrow.  It neither validates its input nor checks its
result; otherwise it is the library's code from before that change.
"""

from nonassoc.matched_pairs import MatchedPair, dcp_pairs
from nonassoc.quasigroupoids import Quasigroupoid, matching_arrows
from nonassoc.reports import StructureError


def double_cross_product(mp: MatchedPair) -> Quasigroupoid:
    a, h = mp.a, mp.h
    pairs = dcp_pairs(mp)
    index = {pq: i for i, pq in enumerate(pairs)}

    def pair_index(p, q, context):
        if p is None or q is None or (p, q) not in index:
            raise StructureError(f"double cross product not closed at {context}")
        return index[(p, q)]

    src = tuple(h.src[q] for (_, q) in pairs)
    tgt = tuple(a.tgt[p] for (p, _) in pairs)
    unit = tuple(pair_index(a.unit[x], h.unit[x], ("unit", x)) for x in range(a.n_objects))
    inv = tuple(
        pair_index(
            mp.phi_a(h.inv[q], a.inv[p]),
            mp.phi_h(h.inv[q], a.inv[p]),
            ("inverse", p, q),
        )
        for (p, q) in pairs
    )
    prod = {}
    after = matching_arrows(src, tgt, a.n_objects)
    phi_a, phi_h, a_prod, h_prod = mp.left.table, mp.right.table, a.prod, h.prod
    for i, (p, g) in enumerate(pairs):
        for j in after[i]:
            b, q = pairs[j]
            pa, ph = phi_a.get((g, b)), phi_h.get((g, b))
            left = None if pa is None else a_prod.get((p, pa))
            right = None if ph is None else h_prod.get((ph, q))
            k = index.get((left, right))
            if k is None:
                context = ("product", (p, g), (b, q))
                raise StructureError(f"double cross product not closed at {context}")
            prod[(i, j)] = k
    names = tuple(f"({a.arrow_name(p)},{h.arrow_name(q)})" for (p, q) in pairs)
    return Quasigroupoid(
        n_objects=a.n_objects,
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=prod,
        object_names=a.object_names,
        arrow_names=names,
    )
