"""The filtration of kR_k(G) by p-subgroup type.

U_x is built by inducing an inflated defect-zero gamma from the
subgroup R_x C_G(R_x).  Spanning the U_x whose defect embeds into a
catalog entry P gives an increasing family of subspaces; the jumps
S_P are indexed by the defect types that actually occur.
"""

from repring.brauer import BrauerData
from repring.catalog import build_catalog
from repring.defects import (
    defect_classification,
    filtration_table,
    sp_dimension,
    u_element,
)
from repring.groups import parse_group_spec

G = parse_group_spec("S4")
p = 2
catalog = build_catalog(p)
analysis = defect_classification(BrauerData(G, p, seed=1), catalog)

print("== U_x vectors for S4 at p = 2")
for row in analysis.rows:
    u = u_element(analysis, row.rep)
    o = G.element_order(row.rep)
    print(f"   order-{o} class, defect {catalog.label(row.catalog_index)}: "
          f"U = {list(u.coeffs)}")

print()
print("== S_P dimensions (nonzero only)")
for j in range(len(catalog)):
    d = sp_dimension(analysis, j)
    if d:
        print(f"   S_{catalog.label(j)}(S4) has dimension {d}")

print()
print("== filtration rows (cumulative dimension over the catalog)")
for spec, prime in [("S4", 2), ("A4", 2), ("S3", 3), ("C8", 2)]:
    H = parse_group_spec(spec)
    cat = build_catalog(prime)
    row = filtration_table(
        defect_classification(BrauerData(H, prime, seed=1), cat))
    print(f"   {spec} p={prime}: {list(row)}   "
          f"(catalog: {', '.join(cat.labels)})")

# each row ends at the number of p-regular classes and only increases
# at entries that embed into the Sylow p-subgroup
