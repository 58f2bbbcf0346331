"""Regenerate the bundled small p-group tables (src/repring/data/pgroups.json).

Each group of order 8 or 16 (p=2) and 27 (p=3) is constructed explicitly
as a permutation group, checked against its classical invariants
(involution counts, exponents, elementary abelian content), validated
as the catalog validates it in every process (counts per order against
catalog.KNOWN_COUNTS, one embedding search per pair, which rejects a
duplicate class), and stored as 1-based generator tables.  The groups
of order at most p^2 are not stored: the catalog builds them for every
prime.  The quotient (for C4oD8), exponent and center come from
tests/group_reference.py, since the package itself needs none of them.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from group_reference import center, exponent, quotient_group
from repring.catalog import catalog_from_dataset, largest_order
from repring.groups import (
    PermGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    embeds_into,
    perm_order,
    quaternion_group,
)

OUT = ROOT / "src" / "repring" / "data" / "pgroups.json"


def regular_rep(elements, mul, gens):
    """Right-translation permutation group from an abstract multiplication."""
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    perms = []
    for g in gens:
        perms.append(tuple(index[mul(e, g)] for e in elements))
    return PermGroup(len(elements), perms)


def group_c2sq_semi_c4():
    """(C2 x C2) : C4 with the C4 swapping the two C2 coordinates."""
    elements = [(a, b, c) for a in range(2) for b in range(2) for c in range(4)]

    def mul(x, y):
        a, b, c = x
        d, e, f = y
        if c % 2:
            d, e = e, d
        return ((a + d) % 2, (b + e) % 2, (c + f) % 4)

    return regular_rep(elements, mul, [(0, 0, 1), (1, 0, 0)])


def group_c4_semi_c4():
    """C4 : C4, the generator of the second factor inverting the first."""
    elements = [(i, j) for i in range(4) for j in range(4)]

    def mul(x, y):
        i, j = x
        k, l = y
        sign = -1 if j % 2 else 1
        return ((i + sign * k) % 4, (j + l) % 4)

    return regular_rep(elements, mul, [(1, 0), (0, 1)])


def group_q16():
    """Generalized quaternion of order 16: a^8=1, b^2=a^4, b a b^-1 = a^-1."""
    elements = [(i, j) for i in range(8) for j in range(2)]

    def mul(x, y):
        i, j = x
        k, l = y
        sign = -1 if j else 1
        i2 = (i + sign * k) % 8
        if j + l >= 2:
            i2 = (i2 + 4) % 8
        return (i2, (j + l) % 2)

    return regular_rep(elements, mul, [(1, 0), (0, 1)])


def affine_group(n, pairs):
    """Subgroup of Sym(Z_n) generated by maps x -> a*x + b for (a, b) pairs."""
    gens = [tuple((a * x + b) % n for x in range(n)) for a, b in pairs]
    return PermGroup(n, gens)


def group_heisenberg3():
    """Extraspecial 3^(1+2) of exponent 3 as affine maps of F_3^2."""
    def idx(u, v):
        return 3 * u + v

    x = [0] * 9
    y = [0] * 9
    for u in range(3):
        for v in range(3):
            x[idx(u, v)] = idx((u + 1) % 3, v)
            y[idx(u, v)] = idx(u, (v + u) % 3)
    return PermGroup(9, [tuple(x), tuple(y)])


def group_c4_central_d8():
    """Central product C4 o D8 (the order-16 Pauli group)."""
    prod = direct_product(cyclic_group(4), dihedral_group(8))
    # identify the square of the C4 with the central rotation of D8
    z = (2, 3, 0, 1, 6, 7, 4, 5)
    N = prod.generated_subgroup([z])
    quot, _ = quotient_group(prod, N)
    return quot


def n_involutions(G):
    return sum(1 for g in G.elements if perm_order(g) == 2)


def build_all():
    C2, C4, C8, C16 = (cyclic_group(n) for n in (2, 4, 8, 16))
    V4 = direct_product(C2, cyclic_group(2))
    entries = []

    def add(p, label, G, checks=()):
        for chk in checks:
            assert chk(G), f"structure check failed for {label}"
        entries.append((p, label, G))

    # --- p = 2
    add(2, "C8", C8)
    add(2, "C4xC2", direct_product(C4, C2))
    add(2, "C2^3", direct_product(V4, C2))
    add(2, "D8", dihedral_group(8), [lambda G: n_involutions(G) == 5])
    add(2, "Q8", quaternion_group(), [lambda G: n_involutions(G) == 1])
    add(2, "C16", C16)
    add(2, "C4^2", direct_product(C4, C4))
    add(2, "C2^2:C4", group_c2sq_semi_c4(),
        [lambda G: n_involutions(G) == 7,
         lambda G: embeds_into(direct_product(V4, C2), G)])
    add(2, "C4:C4", group_c4_semi_c4(), [lambda G: n_involutions(G) == 3])
    add(2, "C8xC2", direct_product(C8, C2))
    add(2, "M16", affine_group(8, [(1, 1), (5, 0)]),
        [lambda G: n_involutions(G) == 3, lambda G: exponent(G) == 8])
    add(2, "D16", affine_group(8, [(1, 1), (-1, 0)]),
        [lambda G: n_involutions(G) == 9])
    add(2, "SD16", affine_group(8, [(1, 1), (3, 0)]),
        [lambda G: n_involutions(G) == 5, lambda G: exponent(G) == 8])
    add(2, "Q16", group_q16(), [lambda G: n_involutions(G) == 1])
    add(2, "C4xC2^2", direct_product(C4, V4))
    add(2, "D8xC2", direct_product(dihedral_group(8), C2),
        [lambda G: n_involutions(G) == 11])
    add(2, "Q8xC2", direct_product(quaternion_group(), C2),
        [lambda G: n_involutions(G) == 3])
    add(2, "C4oD8", group_c4_central_d8(),
        [lambda G: n_involutions(G) == 7,
         lambda G: not embeds_into(direct_product(V4, C2), G)])
    add(2, "C2^4", direct_product(direct_product(V4, C2), C2),
        [lambda G: exponent(G) == 2])

    # --- p = 3
    C3, C9, C27 = (cyclic_group(n) for n in (3, 9, 27))
    add(3, "C27", C27)
    add(3, "C9xC3", direct_product(C9, C3))
    add(3, "C3^3", direct_product(direct_product(C3, C3), C3),
        [lambda G: exponent(G) == 3])
    add(3, "He3", group_heisenberg3(),
        [lambda G: exponent(G) == 3, lambda G: center(G).order == 3])
    add(3, "C9:C3", affine_group(9, [(1, 1), (4, 0)]),
        [lambda G: exponent(G) == 9, lambda G: center(G).order == 3])

    return entries


def validate(data):
    """Build each prime's catalog from the rows, as every process does."""
    for p in sorted({row["p"] for row in data}):
        cat = catalog_from_dataset(p, largest_order(p, data), data)
        print(f"p={p}: {len(cat)} classes up to order {cat.max_order}, "
              f"validated")


def main():
    data = [
        {
            "p": p,
            "order": G.order,
            "label": label,
            "degree": G.degree,
            "generators": [[i + 1 for i in g] for g in G.gens],
        }
        for p, label, G in build_all()
    ]
    validate(data)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} entries to {OUT}")


if __name__ == "__main__":
    main()
