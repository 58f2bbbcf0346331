"""Quotients, centers, exponents, embedding and isomorphism of
permutation groups.

No analysis needs these: U is read off the projective characters, with
no quotient group, and the p-group catalog states its embeddings and
tells its classes apart by fingerprint, with no search.  They stay here
as the reference route that tests/test_defects.py checks U and the
inflated Brauer rows against, as the oracle the catalog tests check
lookups and stated embeddings against, and as the search, structure
checks and C4oD8 construction of scripts/make_pgroup_data.py, which
writes each bundled row's embeddings into the table.

The embedding search works on element indices.  A group that takes part
(at most ISO_ORDER_BOUND elements) gets, once, a SearchTable with its
Cayley table, element orders and greedy generating sequence; the
backtracking search then does integer lookups only.
"""

from math import lcm
from weakref import WeakKeyDictionary

from repring.errors import NotSubgroup, OrderBoundExceeded
from repring.groups import (
    PermGroup,
    _fingerprint,
    perm_inv,
    perm_mul,
    perm_order,
)

# isomorphism / embedding backtracking bound
ISO_ORDER_BOUND = 256


class NotNormal(ValueError):
    """A quotient by a subgroup that is not normal."""


class SearchTable:
    """What the search reads of G, by element index (element i is
    ``G.elements[i]``): ``mul[i][j]``, the index of elements[i] *
    elements[j], ``identity``, the identity's index, ``orders[i]`` the order of element i, and ``by_order``, which maps an
    element order to its indices in ascending order.  ``gens``/``sizes``
    are the greedy generating sequence: each generator is the first
    index outside the span of the earlier ones, and ``sizes[t]`` is the
    order of the span of ``gens[:t + 1]``.
    """

    def __init__(self, G: PermGroup):
        index = G._index
        self.mul = tuple(tuple(index[perm_mul(x, y)] for y in G.elements)
                         for x in G.elements)
        self.identity = index[G.identity]
        n = G.order
        self.orders = orders = tuple(map(perm_order, G.elements))
        self.by_order = {}
        for i, o in enumerate(orders):
            self.by_order.setdefault(o, []).append(i)

        self.gens, self.sizes = [], []
        span = {self.identity}
        for x in range(n):
            if len(span) == n:
                break
            if x in span:
                continue
            self.gens.append(x)
            span = self.span(self.gens, n)
            self.sizes.append(len(span))

    def span(self, gens, bound):
        """Indices of the subgroup generated by ``gens``, by breadth-first
        search; stops early once more than ``bound`` are found."""
        mul = self.mul
        seen = {self.identity}
        frontier = [self.identity]
        while frontier and len(seen) <= bound:
            nxt = []
            for e in frontier:
                row = mul[e]
                for g in gens:
                    h = row[g]
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen


_TABLES = WeakKeyDictionary()


def _table(G: PermGroup) -> SearchTable:
    """G's SearchTable, built on first use and kept while G lives."""
    if G not in _TABLES:
        _TABLES[G] = SearchTable(G)
    return _TABLES[G]


def _extends_to_hom(P: SearchTable, pgens, Q: SearchTable, qimages) -> bool:
    """Does pgens[t] -> qimages[t] extend to a homomorphism P -> Q?

    pgens generate P.  Walks P breadth-first from the identity, giving each
    element the image of the first word that reaches it.  The map is a
    homomorphism exactly when f(a * g_t) = f(a) * q_t on every edge, since
    every element of a finite group is a word in the generators.  When the
    images generate a subgroup of order |P|, as the search has checked, the
    homomorphism is onto it and hence injective.
    """
    pmul, qmul = P.mul, Q.mul
    image = [None] * len(pmul)
    image[P.identity] = Q.identity
    frontier = [P.identity]
    while frontier:
        nxt = []
        for a in frontier:
            row, frow = pmul[a], qmul[image[a]]
            for g, q in zip(pgens, qimages):
                b, fb = row[g], frow[q]
                if image[b] is None:
                    image[b] = fb
                    nxt.append(b)
                elif image[b] != fb:
                    return False
        frontier = nxt
    return True


def _search_embedding(P: PermGroup, Q: PermGroup) -> bool:
    TP, TQ = _table(P), _table(Q)
    pgens, psizes = TP.gens, TP.sizes
    if not pgens:
        return True
    pords = [TP.orders[g] for g in pgens]
    # conjugating an embedding moves the first image within its class
    firsts = [Q._index[c[0]] for c in Q.conjugacy_classes()]
    firsts = [g for g in firsts if TQ.orders[g] == pords[0]]

    def backtrack(i, chosen):
        if i == len(pgens):
            return _extends_to_hom(TP, pgens, TQ, chosen)
        for g in firsts if i == 0 else TQ.by_order.get(pords[i], ()):
            trial = chosen + [g]
            if len(TQ.span(trial, psizes[i])) != psizes[i]:
                continue
            if backtrack(i + 1, trial):
                return True
        return False

    return backtrack(0, [])


def embeds_into(P: PermGroup, Q: PermGroup) -> bool:
    """Is P isomorphic to some subgroup of Q (to Q itself, at equal
    orders)?"""
    if Q.order % P.order:
        return False
    if Q.order > ISO_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"embedding test beyond bound {ISO_ORDER_BOUND}")
    if P.order == Q.order:
        if _fingerprint(P) != _fingerprint(Q):
            return False
    elif not _table(P).by_order.keys() <= _table(Q).by_order.keys():
        return False
    return _search_embedding(P, Q)


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
