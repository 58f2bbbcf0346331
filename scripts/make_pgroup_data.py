"""Regenerate the bundled p-group table (src/repring/data/pgroups.json).

Each of the fourteen groups of order 16 is constructed explicitly as a
permutation group, checked against its classical invariants (involution
counts, exponents, elementary abelian content), and stored as 1-based
generator tables with its "contains" list: the labels of the smaller
catalog entries that embed in it, in catalog order, found by the
reference embedding search.  Before writing, the script checks that no
two rows of one order share a fingerprint (so no class is listed twice)
and builds each prime's catalog from the rows as every process does,
which checks the count against catalog.KNOWN_COUNTS and that every list
names smaller entries and is down-closed.  The groups of order at most
p^3 are not stored: the catalog builds them for every prime.  The
search, the quotient (for C4oD8) and the exponent come from
tests/group_reference.py, since the package itself needs none of them.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from group_reference import embeds_into, exponent, quotient_group
from repring.catalog import catalog_from_dataset, largest_order
from repring.groups import (
    PermGroup,
    _fingerprint,
    affine_group,
    cyclic_group,
    dihedral_group,
    direct_product,
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

    def add(label, G, checks=()):
        for chk in checks:
            assert chk(G), f"structure check failed for {label}"
        entries.append((label, G))

    add("C16", C16)
    add("C4^2", direct_product(C4, C4))
    add("C2^2:C4", group_c2sq_semi_c4(),
        [lambda G: n_involutions(G) == 7,
         lambda G: embeds_into(direct_product(V4, C2), G)])
    add("C4:C4", group_c4_semi_c4(), [lambda G: n_involutions(G) == 3])
    add("C8xC2", direct_product(C8, C2))
    add("M16", affine_group(8, [(1, 1), (5, 0)]),
        [lambda G: n_involutions(G) == 3, lambda G: exponent(G) == 8])
    add("D16", affine_group(8, [(1, 1), (-1, 0)]),
        [lambda G: n_involutions(G) == 9])
    add("SD16", affine_group(8, [(1, 1), (3, 0)]),
        [lambda G: n_involutions(G) == 5, lambda G: exponent(G) == 8])
    add("Q16", group_q16(), [lambda G: n_involutions(G) == 1])
    add("C4xC2^2", direct_product(C4, V4))
    add("D8xC2", direct_product(dihedral_group(8), C2),
        [lambda G: n_involutions(G) == 11])
    add("Q8xC2", direct_product(quaternion_group(), C2),
        [lambda G: n_involutions(G) == 3])
    add("C4oD8", group_c4_central_d8(),
        [lambda G: n_involutions(G) == 7,
         lambda G: not embeds_into(direct_product(V4, C2), G)])
    add("C2^4", direct_product(direct_product(V4, C2), C2),
        [lambda G: exponent(G) == 2])

    return entries


def contains_lists(p, groups):
    """For each (label, G) of prime p, in order, the labels of the
    smaller catalog entries that embed in G, in catalog order: the
    generated groups of order at most p^3, then the earlier rows."""
    base = catalog_from_dataset(p, p ** 3, [])
    smaller = [(base.label(i), base.group(i)) for i in range(len(base))]
    out = []
    for label, G in groups:
        out.append([name for name, H in smaller
                    if H.order < G.order and embeds_into(H, G)])
        smaller.append((label, G))
    return out


def check_distinct_classes(data):
    """Raise ValueError if two rows of one prime and order share a
    fingerprint, that is, if one isomorphism class is listed twice."""
    seen = {}
    for row in data:
        G = PermGroup(row["degree"],
                      [[v - 1 for v in g] for g in row["generators"]])
        key = (row["p"], row["order"], _fingerprint(G))
        if key in seen:
            raise ValueError(f"duplicate isomorphism class: {seen[key]} and "
                             f"{row['label']} share a fingerprint")
        seen[key] = row["label"]


def validate(data):
    """Build each prime's catalog from the rows, as every process does."""
    check_distinct_classes(data)
    for p in sorted({row["p"] for row in data}):
        cat = catalog_from_dataset(p, largest_order(p, data), data)
        print(f"p={p}: {len(cat)} classes up to order {cat.max_order}, "
              f"validated")


def main():
    groups = build_all()
    data = [
        {
            "p": 2,
            "order": G.order,
            "label": label,
            "degree": G.degree,
            "generators": [[i + 1 for i in g] for g in G.gens],
            "contains": contains,
        }
        for (label, G), contains in zip(groups, contains_lists(2, groups))
    ]
    validate(data)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} entries to {OUT}")


if __name__ == "__main__":
    main()
