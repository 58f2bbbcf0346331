"""Defect groups of p-regular classes and the gamma basis.

Each p-regular class x gets the isomorphism type of a Sylow p-subgroup
of its centralizer, looked up in the catalog of small p-groups.
Defect-zero classes contribute basis vectors gamma_{G,x} spanning the
reduced Cartan image; their coefficients are reductions of exact
p-local rationals.
"""

from repring.brauer import BrauerData
from repring.catalog import build_catalog
from repring.cyclo import value_text
from repring.defects import (
    cartan_image_basis,
    defect_classification,
    gamma_exact,
)
from repring.groups import parse_group_spec

for spec, p in [("S4", 2), ("A4", 2), ("S3xC2", 2), ("S3", 3)]:
    G = parse_group_spec(spec)
    catalog = build_catalog(p)
    bd = BrauerData(G, p, seed=1)
    analysis = defect_classification(bd, catalog)

    print(f"== {spec} at p = {p}")
    for row in analysis.rows:
        o = G.element_order(row.rep)
        tag = "  <- defect zero" if row.defect_zero else ""
        print(f"   class of order-{o} element: defect "
              f"{catalog.label(row.catalog_index)}{tag}")

    gammas = cartan_image_basis(bd)
    if gammas:
        print(f"   gamma vectors over GF({bd.F.q}) "
              "(one per defect-zero class):")
        for r, g in zip(analysis.defect_zero_rows(), gammas):
            counts, c = gamma_exact(bd, r.rep)
            exact = [value_text(bd.m, v, c) for v in counts]
            print(f"     class {r.class_index}: codes {list(g.coeffs)}, "
                  f"exact {exact}")
    else:
        print("   no defect-zero classes, the reduced Cartan image is 0")
    print()

# cartan_image_basis also re-derives each gamma from the induced
# indicator function of its class and fails loudly on any mismatch
