"""Independent routes to the same numbers.

Three of the package's strongest consistency checks, run directly:

 1. the Cartan matrix via the character pairing and via ranks of
    idempotent-compressed endomorphism spaces in the group algebra;
 2. dimension factorization on products L x Q with Q a p-group;
 3. byte-identical reports under a fixed seed.
"""

from repring.brauer import BrauerData, cartan_via_endomorphisms
from repring.catalog import build_catalog
from repring.defects import product_group_check
from repring.groups import cyclic_group, parse_group_spec, symmetric_group
from repring.report import analyze_report, to_canonical_json

print("== Cartan matrix, two ways")
for spec, p in [("S3", 2), ("S4", 2), ("A4", 3), ("Q8", 2)]:
    bd = BrauerData(parse_group_spec(spec), p, seed=1)
    via_pairing = [list(r) for r in bd.cartan]
    via_hom = [list(r) for r in cartan_via_endomorphisms(bd)]
    status = "agree" if via_pairing == via_hom else "DISAGREE"
    print(f"   {spec} p={p}: {via_pairing} ({status})")

print("\n== products L x Q, p coprime to |L|, Q a p-group")
cases = [
    (cyclic_group(3), cyclic_group(2), 2),
    (symmetric_group(3), cyclic_group(5), 5),
]
for L, Q, p in cases:
    cat = build_catalog(p)
    out = product_group_check(L, Q, p, cat, seed=1)
    nonzero = {cat.label(j): v for j, v in out["sp_dims"].items() if v}
    print(f"   {out['group']}: dim {out['dim_total']} = "
          f"{out['classes_of_L']} classes of L, S_P dims {nonzero}, "
          f"ok={out['ok']}")

print("\n== determinism")
a = to_canonical_json(analyze_report("S4", 2, seed=1))
b = to_canonical_json(analyze_report("S4", 2, seed=1))
c = analyze_report("S4", 2, seed=2)
d = analyze_report("S4", 2, seed=1)
c.pop("seed"), d.pop("seed")
print(f"   same seed: byte identical = {a == b} ({len(a)} bytes)")
print(f"   different seed: same mathematical content = {c == d}")
