"""The lattice of downward-closed sets of small p-groups.

Subfunctors correspond to downward-closed subsets of the p-group
poset (ordered by embedding).  This demo walks the order <= 8 catalog
at p = 2: the embedding matrix, every closed set, and which ones are
principal, together with the dimension each closed set cuts out of
kR_k(A4).
"""

from repring.brauer import BrauerData
from repring.catalog import (
    build_catalog,
    enumerate_closed_sets,
    is_completely_prime,
    lattice_ops,
)
from repring.defects import closed_set_dimension, defect_classification
from repring.groups import parse_group_spec

cat = build_catalog(2, 8)
print(f"== catalog of 2-groups of order <= 8: {', '.join(cat.labels)}")
print("   embedding matrix (row embeds into column):")
for i in range(len(cat)):
    marks = "".join("X" if cat.embed[i][j] else "." for j in range(len(cat)))
    print(f"     {cat.label(i):>5} {marks}")

sets = enumerate_closed_sets(cat)
print(f"\n== {len(sets)} closed sets")
for C in sets:
    flag = "  principal" if is_completely_prime(C) else ""
    print(f"   {{{', '.join(C.labels())}}}{flag}")

A, B = cat.down_set(3), cat.down_set(4)  # C8 and C2^2
join, meet, leq = lattice_ops(A, B)
print(f"\n== lattice operations on down({cat.label(3)}), down({cat.label(4)})")
print(f"   join {join.labels()}, meet {meet.labels()}, A <= B: {leq}")

G = parse_group_spec("A4")
analysis = defect_classification(BrauerData(G, 2, seed=1), cat)
print("\n== dimension of each closed-set subfunctor evaluated at A4")
for C in sets:
    d = closed_set_dimension(analysis, C)
    print(f"   {{{', '.join(C.labels())}}}: {d}")

# A4 has three 2-regular classes: the identity (defect C2^2) and two
# classes of 3-cycles (defect zero), so the dimensions step 0 -> 2 -> 3
