"""Finite permutation groups, small and exact.

Permutations on n points are tuples of 0-based images.  Products compose
left to right: (a * b)(i) = b[a[i]], i.e. apply a first.  With row
vectors this makes every matrix representation a homomorphism, so no
transposition bookkeeping is needed downstream.

Everything is deterministic: elements are kept in lexicographic order,
conjugacy classes are sorted by (element order, class size, smallest
representative), and all searches scan in that canonical order.

Isomorphism and embedding tests work on element indices.  A group that
takes part in one (at most ISO_ORDER_BOUND elements) builds, once, a
Cayley table over ``elements`` with its element orders and greedy
generating sequence, and keeps it together with its isomorphism
fingerprint; the backtracking search then does integer lookups only and
repeated tests against the same group recompute nothing.
"""

import json
from math import gcd, lcm

from .config import ISO_ORDER_BOUND, ORDER_BOUND
from .errors import (
    ElementNotInGroup,
    InvalidGroupSpec,
    MalformedPermutation,
    NotNormal,
    NotSubgroup,
    OrderBoundExceeded,
)


def perm_mul(a, b):
    """Apply a first, then b."""
    return tuple(b[i] for i in a)


def perm_inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_order(a):
    n = 1
    x = a
    ident = tuple(range(len(a)))
    while x != ident:
        x = perm_mul(x, a)
        n += 1
    return n


def _check_perm(g, degree):
    if len(g) != degree or sorted(g) != list(range(degree)):
        raise MalformedPermutation(f"{g} is not a permutation of {degree} points")


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class PermGroup:
    """A concrete finite permutation group with full element enumeration."""

    def __init__(self, degree: int, generators, name: str = None):
        if (isinstance(degree, bool) or not isinstance(degree, int)
                or degree < 1):
            raise InvalidGroupSpec(
                f"degree must be an integer >= 1, got {degree!r}")
        self.degree = degree
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            _check_perm(g, degree)
        self.gens = gens
        self.name = name
        self.identity = tuple(range(degree))
        self._closure()
        self._classes = None
        self._class_of = None
        self._table = None
        self._fp = None

    def _closure(self):
        ident = self.identity
        words = {ident: ()}
        queue = [ident]
        while queue:
            nxt = []
            for e in queue:
                w = words[e]
                for t, g in enumerate(self.gens):
                    ne = perm_mul(e, g)
                    if ne not in words:
                        words[ne] = w + (t,)
                        nxt.append(ne)
                        if len(words) > ORDER_BOUND:
                            raise OrderBoundExceeded(
                                f"group order exceeds bound {ORDER_BOUND}")
            queue = nxt
        self.elements = tuple(sorted(words))
        self.words = words
        self._index = {e: i for i, e in enumerate(self.elements)}

    @classmethod
    def from_elements(cls, degree: int, elements, name: str = None) -> "PermGroup":
        """Wrap a set already known to be closed; closure is re-verified."""
        elements = sorted(set(tuple(e) for e in elements))
        grp = cls(degree, elements, name=name)
        if len(grp.elements) != len(elements):
            raise NotSubgroup("element set is not multiplicatively closed")
        return grp

    # -- basics

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, g) -> int:
        i = self._index.get(tuple(g))
        if i is None:
            raise ElementNotInGroup(f"{g} not in {self.describe()}")
        return i

    def __contains__(self, g):
        return tuple(g) in self._index

    def mul(self, a, b):
        return perm_mul(a, b)

    def inv(self, a):
        return perm_inv(a)

    def conjugate(self, x, g):
        """g^-1 x g."""
        return perm_mul(perm_mul(perm_inv(g), x), g)

    def element_order(self, g) -> int:
        return perm_order(g)

    def exponent(self) -> int:
        e = 1
        for g in self.elements:
            o = perm_order(g)
            e = e * o // gcd(e, o)
        return e

    def describe(self) -> str:
        return self.name or f"group of order {self.order} on {self.degree} points"

    def key(self):
        """Hashable identity for caching."""
        return (self.degree, self.elements)

    # -- conjugacy

    def conjugacy_classes(self):
        """Sorted tuples of elements; classes ordered by
        (representative order, size, smallest member)."""
        if self._classes is not None:
            return self._classes
        seen = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            orbit = {self.conjugate(x, g) for g in self.elements}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        classes.sort(key=lambda c: (perm_order(c[0]), len(c), c[0]))
        self._classes = classes
        return classes

    def class_index_of(self, x):
        if self._class_of is None:
            self._class_of = {y: i for i, c in
                              enumerate(self.conjugacy_classes()) for y in c}
        i = self._class_of.get(tuple(x))
        if i is None:
            raise ElementNotInGroup(f"{x} not in {self.describe()}")
        return i

    def p_regular_classes(self, p: int):
        """Indices into conjugacy_classes() of classes of p'-order elements."""
        return [i for i, c in enumerate(self.conjugacy_classes())
                if perm_order(c[0]) % p != 0]

    def inverse_class_map(self):
        """index i -> index of the class of inverses."""
        classes = self.conjugacy_classes()
        out = []
        for c in classes:
            out.append(self.class_index_of(perm_inv(c[0])))
        return out

    # -- subgroups

    def subgroup(self, elements, name=None) -> "PermGroup":
        sub = PermGroup.from_elements(self.degree, elements, name=name)
        for e in sub.elements:
            if e not in self._index:
                raise NotSubgroup(f"{e} not in {self.describe()}")
        return sub

    def generated_subgroup(self, gens, name=None) -> "PermGroup":
        sub = PermGroup(self.degree, gens, name=name)
        for e in sub.gens:
            if e not in self._index:
                raise NotSubgroup(f"{e} not in {self.describe()}")
        return sub

    def centralizer(self, x) -> "PermGroup":
        x = tuple(x)
        elts = [g for g in self.elements
                if perm_mul(g, x) == perm_mul(x, g)]
        return PermGroup.from_elements(self.degree, elts)

    def centralizer_of_subgroup(self, sub: "PermGroup") -> "PermGroup":
        elts = [g for g in self.elements
                if all(perm_mul(g, r) == perm_mul(r, g) for r in sub.gens)]
        return PermGroup.from_elements(self.degree, elts)

    def center(self) -> "PermGroup":
        return self.centralizer_of_subgroup(self)

    def derived_subgroup(self) -> "PermGroup":
        """The normal closure of the commutators of the generators
        (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
        2005): a conjugate of a generator by a generator of G that falls
        outside the subgroup joins the generators, until none does."""
        gens = sorted({perm_mul(perm_inv(perm_mul(b, a)), perm_mul(a, b))
                       for a in self.gens for b in self.gens}
                      - {self.identity})
        sub = self.generated_subgroup(gens)
        queue = list(gens)
        while queue:
            x = queue.pop()
            for g in self.gens:
                c = self.conjugate(x, g)
                if c not in sub:
                    gens.append(c)
                    queue.append(c)
                    sub = self.generated_subgroup(gens)
        return sub

    def sylow_subgroup(self, p: int) -> "PermGroup":
        """The canonical greedy Sylow p-subgroup.

        Grows a p-subgroup by adjoining, at each step, the first element
        in canonical order whose join with the current subgroup is still
        a p-group; Sylow theory guarantees this always terminates at full
        p-part order, and the scan order makes the choice reproducible.
        """
        target = p_part(self.order, p)
        current = PermGroup.from_elements(self.degree, [self.identity])
        while current.order < target:
            extended = None
            for x in self.elements:
                if x in current._index or not is_p_power(perm_order(x), p):
                    continue
                join = PermGroup(self.degree, list(current.elements) + [x])
                if is_p_power(join.order, p):
                    extended = join
                    break
            if extended is None:
                raise RuntimeError("greedy Sylow growth stalled")  # unreachable
            current = extended
        return current

    def is_normal(self, sub: "PermGroup") -> bool:
        sub_set = set(sub.elements)
        return all(self.conjugate(x, g) in sub_set
                   for g in self.gens for x in sub.gens)

    def quotient_group(self, normal: "PermGroup"):
        """(quotient as a permutation group on cosets, projection map).

        The projection maps each element of self to an element of the
        quotient.  Two shortcuts keep downstream identifications clean:
        quotient by the trivial subgroup returns self with the identity
        map, and quotient by the whole group returns the 1-point group.
        """
        for e in normal.elements:
            if e not in self._index:
                raise NotSubgroup("quotient by a non-subgroup")
        if not self.is_normal(normal):
            raise NotNormal("quotient by a non-normal subgroup")
        if normal.order == 1:
            return self, {e: e for e in self.elements}
        if normal.order == self.order:
            triv = PermGroup(1, [], name="1")
            return triv, {e: (0,) for e in self.elements}
        nset = sorted(normal.elements)
        coset_of = {}
        reps = []
        for e in self.elements:  # lex order, so coset labels are lex-min reps
            if e in coset_of:
                continue
            members = sorted(perm_mul(n, e) for n in nset)
            label = len(reps)
            reps.append(members[0])
            for mbr in members:
                coset_of[mbr] = label
        k = len(reps)
        proj = {e: None for e in self.elements}
        for e in self.elements:
            proj[e] = tuple(coset_of[perm_mul(reps[i], e)] for i in range(k))
        qgens = [proj[g] for g in self.gens]
        qname = None
        if self.name and normal.name:
            qname = f"{self.name}/{normal.name}"
        quotient = PermGroup(k, qgens, name=qname)
        return quotient, proj


# ---------------------------------------------------------------------
# builders


def trivial_group() -> PermGroup:
    return PermGroup(1, [], name="C1")


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise InvalidGroupSpec(f"cyclic order must be positive, got {n}")
    if n == 1:
        return trivial_group()
    shift = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [shift], name=f"C{n}")


def symmetric_group(n: int) -> PermGroup:
    if n <= 1:
        return trivial_group()
    if n == 2:
        return PermGroup(2, [(1, 0)], name="S2")
    cycle = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return PermGroup(n, [swap, cycle], name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n <= 2:
        return trivial_group()
    gens = []
    for i in range(n - 2):
        img = list(range(n))
        img[i], img[i + 1], img[i + 2] = img[i + 1], img[i + 2], img[i]
        gens.append(tuple(img))
    return PermGroup(n, gens, name=f"A{n}")


def dihedral_group(order: int) -> PermGroup:
    """Dihedral group of the given order 2n, acting on the n-gon."""
    if order % 2 or order < 2:
        raise InvalidGroupSpec(f"dihedral order must be even, got {order}")
    n = order // 2
    if n == 1:
        return PermGroup(2, [(1, 0)], name="D2")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup(n, [rot, ref], name=f"D{order}")


_QUAT_I = (2, 3, 1, 0, 7, 6, 4, 5)
_QUAT_J = (4, 5, 6, 7, 1, 0, 3, 2)


def quaternion_group() -> PermGroup:
    """Q8 by right translation on the units {1,-1,i,-i,j,-j,k,-k}."""
    return PermGroup(8, [_QUAT_I, _QUAT_J], name="Q8")


def direct_product(a: PermGroup, b: PermGroup, name: str = None) -> PermGroup:
    da, db = a.degree, b.degree
    gens = []
    for g in a.gens:
        gens.append(tuple(g) + tuple(da + i for i in range(db)))
    for g in b.gens:
        gens.append(tuple(range(da)) + tuple(da + i for i in g))
    if name is None and a.name and b.name:
        name = f"{a.name}x{b.name}"
    return PermGroup(da + db, gens, name=name)


def group_from_spec_dict(obj) -> PermGroup:
    try:
        degree = obj["degree"]
        gens = [tuple(g) for g in obj["generators"]]
        name = obj.get("name")
    except (KeyError, TypeError) as exc:
        raise InvalidGroupSpec(f"bad group spec object: {exc}") from None
    for g in gens:
        if any(isinstance(v, bool) or not isinstance(v, int) for v in g):
            raise InvalidGroupSpec(
                f"generator {list(g)} has a non-integer image")
    return PermGroup(degree, [tuple(v - 1 for v in g) for g in gens],
                     name=name)


def parse_group_spec(spec) -> PermGroup:
    """Build a group from a name like S4, C6, D8, Q8, A5, products with x,
    or a dict/JSON string {"degree": n, "generators": [[1-based images]]}.
    """
    if isinstance(spec, dict):
        return group_from_spec_dict(spec)
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InvalidGroupSpec(f"bad JSON group spec: {exc}") from None
        return group_from_spec_dict(obj)
    if "x" in spec:
        parts = spec.split("x")
        grp = parse_group_spec(parts[0])
        for part in parts[1:]:
            grp = direct_product(grp, parse_group_spec(part))
        grp.name = spec
        return grp
    head, tail = spec[:1], spec[1:]
    if head in ("C", "S", "A", "D", "Q") and tail.isdigit():
        n = int(tail)
        if head == "C":
            return cyclic_group(n)
        if head == "S":
            return symmetric_group(n)
        if head == "A":
            return alternating_group(n)
        if head == "D":
            return dihedral_group(n)
        if head == "Q" and n == 8:
            return quaternion_group()
    raise InvalidGroupSpec(f"unrecognized group spec {spec!r}")


# ---------------------------------------------------------------------
# isomorphism and embedding, by bounded backtracking over element indices


class CayleyTable:
    """A group in index form: element i is ``G.elements[i]``.

    ``mul[i][j]`` is the index of elements[i] * elements[j], ``orders[i]``
    the order of element i and ``identity`` the identity's index.
    ``by_order`` maps an element order to its indices in ascending order.
    ``gens``/``sizes`` are the greedy generating sequence: each generator
    is the first index outside the span of the earlier ones, and
    ``sizes[t]`` is the order of the span of ``gens[:t + 1]``.
    """

    def __init__(self, G: PermGroup):
        index = G._index
        n = G.order
        self.identity = ident = index[G.identity]
        # column j holds i -> index(x_i * y_j).  The closure's words are in
        # breadth-first order, so y_j = y_k * gens[t] with column k built.
        right = {}
        cols = [None] * n
        for e, w in G.words.items():
            if not w:
                cols[index[e]] = list(range(n))
                continue
            t = w[-1]
            g = G.gens[t]
            if t not in right:
                right[t] = [index[perm_mul(x, g)] for x in G.elements]
            rt = right[t]
            parent = cols[index[perm_mul(e, perm_inv(g))]]
            cols[index[e]] = [rt[c] for c in parent]
        self.mul = mul = tuple(zip(*cols))

        orders = []
        for i in range(n):
            k, x = 1, i
            while x != ident:
                x = mul[x][i]
                k += 1
            orders.append(k)
        self.orders = tuple(orders)
        self.by_order = {}
        for i, o in enumerate(orders):
            self.by_order.setdefault(o, []).append(i)

        self.gens, self.sizes = [], []
        span = {ident}
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


def _cayley(G: PermGroup) -> CayleyTable:
    """G's index layer, built on first use and kept on G.  The table has
    |G|^2 entries, so callers keep |G| small: the isomorphism and
    embedding tests check ISO_ORDER_BOUND, and cartan_via_endomorphisms,
    meant for small groups, already works in the |G|-dimensional group
    algebra."""
    if G._table is None:
        G._table = CayleyTable(G)
    return G._table


def _fingerprint(G: PermGroup):
    if G._fp is None:
        orders = _cayley(G).orders
        classes = G.conjugacy_classes()
        G._fp = (
            G.order,
            lcm(*orders),
            tuple(sorted(orders)),
            tuple(sorted(len(c) for c in classes)),
            G.center().order,
            G.derived_subgroup().order,
            len(classes),
        )
    return G._fp


def _extends_to_hom(P: CayleyTable, pgens, Q: CayleyTable, qimages) -> bool:
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
    TP, TQ = _cayley(P), _cayley(Q)
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


def is_isomorphic(G: PermGroup, H: PermGroup) -> bool:
    if G.order != H.order:
        return False
    if G.order > ISO_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"isomorphism test beyond bound {ISO_ORDER_BOUND}")
    if _fingerprint(G) != _fingerprint(H):
        return False
    return _search_embedding(G, H)


def embeds_into(P: PermGroup, Q: PermGroup) -> bool:
    """Is P isomorphic to some subgroup of Q?"""
    if Q.order % P.order:
        return False
    if P.order == Q.order:
        return is_isomorphic(P, Q)
    if Q.order > ISO_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"embedding test beyond bound {ISO_ORDER_BOUND}")
    if not _cayley(P).by_order.keys() <= _cayley(Q).by_order.keys():
        return False
    return _search_embedding(P, Q)
