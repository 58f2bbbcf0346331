"""Finite permutation groups, small and brute-force honest.

Permutations on n points are tuples of 0-based images.  Products compose
left to right: (a * b)(i) = b[a[i]], i.e. apply a first.  With row
vectors this makes every matrix representation a homomorphism, so no
transposition bookkeeping is needed downstream.

Everything is deterministic: elements are kept in lexicographic order,
conjugacy classes are sorted by (element order, class size, smallest
representative), and all searches scan in that canonical order.
"""

import json
from math import gcd

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
        self.degree = degree
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            _check_perm(g, degree)
        self.gens = gens
        self.name = name
        self.identity = tuple(range(degree))
        self._closure()
        self._classes = None

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
        x = tuple(x)
        for i, c in enumerate(self.conjugacy_classes()):
            if x in c:
                return i
        raise ElementNotInGroup(f"{x} not in {self.describe()}")

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
        comms = set()
        for a in self.elements:
            for b in self.elements:
                comms.add(perm_mul(perm_inv(perm_mul(b, a)), perm_mul(a, b)))
        return self.generated_subgroup(sorted(comms))

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
        degree = int(obj["degree"])
        gens = [tuple(int(v) - 1 for v in g) for g in obj["generators"]]
        name = obj.get("name")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGroupSpec(f"bad group spec object: {exc}") from None
    return PermGroup(degree, gens, name=name)


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
# isomorphism and embedding, by bounded backtracking


def _fingerprint(G: PermGroup):
    orders = sorted(perm_order(g) for g in G.elements)
    classes = G.conjugacy_classes()
    return (
        G.order,
        G.exponent(),
        tuple(orders),
        tuple(sorted(len(c) for c in classes)),
        G.center().order,
        G.derived_subgroup().order,
        len(classes),
    )


def _generating_sequence(G: PermGroup):
    """Greedy minimal generating sequence with prefix subgroup sizes."""
    gens = []
    sizes = []
    current = {G.identity}
    for x in G.elements:
        if x in current:
            continue
        gens.append(x)
        current = set(PermGroup(G.degree, gens).elements)
        sizes.append(len(current))
        if len(current) == G.order:
            break
    return gens, sizes


def _extends_to_hom(P: PermGroup, pgens, Q: PermGroup, qimages):
    """Does pgens -> qimages extend to an injective homomorphism P -> Q?"""
    word_group = PermGroup(P.degree, pgens)
    if word_group.order != P.order:
        return False
    images = {}
    for e, w in word_group.words.items():
        img = Q.identity
        for t in w:
            img = perm_mul(img, qimages[t])
        images[e] = img
    if len(set(images.values())) != P.order:
        return False
    for a in P.elements:
        fa = images[a]
        for b in P.elements:
            if images[perm_mul(a, b)] != perm_mul(fa, images[b]):
                return False
    return True


def _search_embedding(P: PermGroup, Q: PermGroup) -> bool:
    pgens, psizes = _generating_sequence(P)
    pords = [perm_order(g) for g in pgens]
    qclasses = Q.conjugacy_classes()

    def candidates(i, chosen):
        if i == 0:
            # conjugating an embedding moves the first image within its class
            return [c[0] for c in qclasses if perm_order(c[0]) == pords[0]]
        return [g for g in Q.elements if perm_order(g) == pords[i]]

    def backtrack(i, chosen):
        if i == len(pgens):
            return _extends_to_hom(P, pgens, Q, chosen)
        for g in candidates(i, chosen):
            trial = PermGroup(Q.degree, chosen + [g])
            if trial.order != psizes[i]:
                continue
            if backtrack(i + 1, chosen + [g]):
                return True
        return False

    if not pgens:
        return True
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
    p_orders = {perm_order(g) for g in P.elements}
    q_orders = {perm_order(g) for g in Q.elements}
    if not p_orders <= q_orders:
        return False
    return _search_embedding(P, Q)
