"""Brauer characters and the Cartan matrix of S4 at p = 2 and p = 3.

The package picks the splitting field for you: the conductor m is the
lcm of the p-regular element orders, and the field degree is the
multiplicative order of p mod m.  Character values are exact
cyclotomic numbers, never floats.
"""

from repring.brauer import BrauerData
from repring.cyclo import value_text
from repring.groups import symmetric_group

G = symmetric_group(4)

for p in (2, 3):
    bd = BrauerData(G, p, seed=1)
    print(f"== S4 at p = {p}")
    print(f"   splitting field GF({bd.F.p}^{bd.F.d}) = GF({bd.F.q}), "
          f"conductor {bd.m}")
    print(f"   p-regular classes: {len(bd.pregular)} "
          f"(element orders {[G.element_order(x) for x in bd.class_reps]})")
    print(f"   simple dimensions: {[s.dim for s in bd.simples]}")

    print("   Brauer character table (rows = simples):")
    for s, row in zip(bd.simples, bd.phi_counts):
        print(f"     {s.name}: {[value_text(bd.m, v) for v in row]}")

    print("   projective characters:")
    for t, row in enumerate(bd.Phi_counts):
        print(f"     Phi_{t + 1}: {[value_text(bd.m, v) for v in row]}")

    print(f"   Cartan matrix: {[list(r) for r in bd.cartan]}")
    print(f"   elementary divisors: {list(bd.elementary_divisors())}")
    print(f"   centralizer p-parts: {sorted(bd.centralizer_p_parts())}")
    print()

# the two multisets above always agree; that is one of the laws the
# verify command checks for every corpus group
