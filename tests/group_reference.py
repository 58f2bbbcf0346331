"""Quotients, centers, exponents and isomorphism of permutation groups.

No analysis needs these: U is read off the projective characters, with
no quotient group, and the p-group catalog tells its classes apart by
fingerprint, with no isomorphism search.  They stay here as the
reference route that tests/test_defects.py checks U and the inflated
Brauer rows against, as the oracle the catalog tests check lookups
against, and as the structure checks and the C4oD8 construction of
scripts/make_pgroup_data.py.
"""

from math import lcm

from repring.errors import NotSubgroup
from repring.groups import (
    PermGroup,
    embeds_into,
    perm_inv,
    perm_mul,
    perm_order,
)


class NotNormal(ValueError):
    """A quotient by a subgroup that is not normal."""


def is_isomorphic(G: PermGroup, H: PermGroup) -> bool:
    """G and H of one order, and G embeds in H: an isomorphism."""
    return G.order == H.order and embeds_into(G, H)


def exponent(G: PermGroup) -> int:
    return lcm(*map(perm_order, G.elements))


def centralizer_of_subgroup(G: PermGroup, sub: PermGroup) -> PermGroup:
    elts = [g for g in G.elements
            if all(perm_mul(g, r) == perm_mul(r, g) for r in sub.gens)]
    return PermGroup.from_elements(G.degree, elts)


def center(G: PermGroup) -> PermGroup:
    return centralizer_of_subgroup(G, G)


def quotient_group(G: PermGroup, normal: PermGroup):
    """(G/normal as a permutation group on the cosets, projection map).

    The projection maps each element of G to an element of the quotient.
    The quotient by the trivial subgroup is G with the identity map, and
    the quotient by G is the 1-point group.  Cosets are labelled in the
    lexicographic order of their smallest members.
    """
    for e in normal.elements:
        if e not in G:
            raise NotSubgroup("quotient by a non-subgroup")
    members = set(normal.elements)
    if any(perm_mul(perm_mul(perm_inv(g), x), g) not in members
           for g in G.gens for x in normal.gens):
        raise NotNormal("quotient by a non-normal subgroup")
    if normal.order == 1:
        return G, {e: e for e in G.elements}
    if normal.order == G.order:
        return PermGroup(1, [], name="1"), {e: (0,) for e in G.elements}
    coset_of, reps = {}, []
    for e in G.elements:
        if e in coset_of:
            continue
        coset = sorted(perm_mul(n, e) for n in normal.elements)
        reps.append(coset[0])
        for y in coset:
            coset_of[y] = len(reps) - 1
    proj = {e: tuple(coset_of[perm_mul(r, e)] for r in reps)
            for e in G.elements}
    name = f"{G.name}/{normal.name}" if G.name and normal.name else None
    return PermGroup(len(reps), [proj[g] for g in G.gens], name=name), proj
