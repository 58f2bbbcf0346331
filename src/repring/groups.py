"""Finite permutation groups, small and exact.

Permutations on n points are tuples of 0-based images.  Products compose
left to right: (a * b)(i) = b[a[i]], i.e. apply a first.  With row
vectors this makes every matrix representation a homomorphism, so no
transposition bookkeeping is needed downstream.

Everything is deterministic: elements are kept in lexicographic order,
conjugacy classes are sorted by (element order, class size, smallest
representative), and all searches scan in that canonical order.  The
element order of each class is computed once, for that sort, and kept
(class_orders).

A group offers what an analysis uses: classes, centralizers, Sylow
subgroups and an isomorphism fingerprint.  There is no Cayley table,
quotient, normality test, center, isomorphism or embedding search: U is
read off the projective characters (defects._u_from), the p-group
catalog states its embeddings and tells its classes apart by
fingerprint.  The quotient route that checks U and the embedding search
that writes and checks the catalog's stated embeddings live in
tests/group_reference.py.

Classes, centralizers and Sylow subgroups cost no loop over pairs of
elements.  Orbit and closure methods follow Holt, Eick and O'Brien,
Handbook of Computational Group Theory (2005): a conjugacy class is the
orbit of its smallest element under conjugation by the generators, a
centralizer's order is |G| divided by the class size, and a subgroup
given by its elements (a centralizer) or grown one element at a time
(a Sylow subgroup) is closed from a greedy generating set of at most
log2 of its order elements, not from all of its elements.  Where the
group already gives the answer no search runs: the centralizer of a
central element is G, and a p-group is its own Sylow p-subgroup.

The isomorphism fingerprint (sorted element orders, class sizes and
p-th root counts) needs no table of products, so it decides catalog
lookups at any order.

The named builders (cyclic, dihedral, symmetric, alternating,
Heisenberg, direct product) and product specs of named groups know their
group's order, and raise OrderBoundExceeded past ORDER_BOUND before
building any permutation.
"""

import json
from math import factorial, lcm, prod

from .config import ORDER_BOUND
from .errors import (
    ElementNotInGroup,
    InvalidGroupSpec,
    MalformedPermutation,
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
    """The lcm of the cycle lengths of a."""
    seen = [False] * len(a)
    out = 1
    for i in range(len(a)):
        k = 0
        while not seen[i]:
            seen[i] = True
            i = a[i]
            k += 1
        if k:
            out = lcm(out, k)
    return out


def _perm_power(a, k):
    """a^k, read off the cycles of a."""
    out = list(a)
    seen = [False] * len(a)
    for start in range(len(a)):
        cycle, i = [], start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = a[i]
        for t, i in enumerate(cycle):
            out[i] = cycle[(t + k) % len(cycle)]
    return tuple(out)


def _adjoin(span, gens, x, bound):
    """The subgroup generated by gens and x, where span is the subgroup
    generated by gens.  Breadth-first: the old elements are multiplied
    on the right by x only, since span is already closed under gens, and
    each new element by every generator.  Stops once more than bound
    elements are found."""
    out = set(span)
    frontier = []
    for h in span:
        y = perm_mul(h, x)
        if y not in out:
            out.add(y)
            frontier.append(y)
    gens = list(gens) + [x]
    while frontier and len(out) <= bound:
        nxt = []
        for e in frontier:
            for g in gens:
                y = perm_mul(e, g)
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


def _check_degree(degree):
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise InvalidGroupSpec(
            f"degree must be an integer >= 1, got {degree!r}")


def _check_perm(g, degree, first=0):
    if len(g) != degree or sorted(g) != list(range(first, first + degree)):
        raise MalformedPermutation(f"{g} is not a permutation of {degree} points")


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _check_order(order):
    if order > ORDER_BOUND:
        raise OrderBoundExceeded(f"group order exceeds bound {ORDER_BOUND}")


def _check_factorial_order(n, index):
    """Raise OrderBoundExceeded if n! / index does: the partial products
    k! / index, for k <= n, are checked as they grow."""
    order = 1
    for k in range(2, n + 1):
        order *= k
        _check_order(order // index)


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class PermGroup:
    """A concrete finite permutation group with full element enumeration."""

    def __init__(self, degree: int, generators, name: str = None):
        _check_degree(degree)
        self.degree = degree
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            _check_perm(g, degree)
        self.gens = gens
        self.name = name
        self.identity = tuple(range(degree))
        self._closure()
        self._classes = None
        self._class_orders = None
        self._class_of = None
        self._fp = None
        self._sylow = {}

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
                        _check_order(len(words))
            queue = nxt
        self.elements = tuple(sorted(words))
        self.words = words
        self._index = {e: i for i, e in enumerate(self.elements)}

    @classmethod
    def from_elements(cls, degree: int, elements, name: str = None) -> "PermGroup":
        """The group whose elements are the given set, generated by a
        greedy generating set: each element of the sorted set outside
        the span of the earlier generators joins them.  That span is a
        group containing the set, so the set is closed exactly when the
        two have the same size; otherwise NotSubgroup is raised."""
        elements = sorted(set(tuple(e) for e in elements))
        gens, span = [], {tuple(range(degree))}
        for x in elements:
            _check_perm(x, degree)
            if x not in span:
                span = _adjoin(span, gens, x, len(elements))
                gens.append(x)
                if len(span) > len(elements):
                    break
        if len(span) != len(elements):
            raise NotSubgroup("element set is not multiplicatively closed")
        return cls(degree, gens, name=name)

    # -- basics

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g):
        return tuple(g) in self._index

    def conjugate(self, x, g):
        """g^-1 x g."""
        return perm_mul(perm_mul(perm_inv(g), x), g)

    def element_order(self, g) -> int:
        return perm_order(g)

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
        # the class of x is its orbit under conjugation by the generators
        pairs = [(perm_inv(g), g) for g in self.gens]
        seen = set()
        classes = []
        for x in self.elements:
            if x in seen:
                continue
            orbit = {x}
            frontier = [x]
            while frontier:
                nxt = []
                for y in frontier:
                    for gi, g in pairs:
                        z = tuple(g[y[i]] for i in gi)  # g^-1 y g
                        if z not in orbit:
                            orbit.add(z)
                            nxt.append(z)
                frontier = nxt
            seen |= orbit
            c = tuple(sorted(orbit))
            classes.append((perm_order(c[0]), len(c), c))
        classes.sort()
        self._classes = [c for _, _, c in classes]
        self._class_orders = [o for o, _, _ in classes]
        return self._classes

    def class_orders(self):
        """The element order of each class, in conjugacy_classes() order."""
        self.conjugacy_classes()
        return self._class_orders

    def class_index_of(self, x):
        if self._class_of is None:
            self._class_of = {y: i for i, c in
                              enumerate(self.conjugacy_classes()) for y in c}
        i = self._class_of.get(tuple(x))
        if i is None:
            raise ElementNotInGroup(f"{x} not in {self.describe()}")
        return i

    def centralizer_order(self, x) -> int:
        """|C_G(x)| = |G| / |x^G|, read off the conjugacy classes."""
        return self.order // len(
            self.conjugacy_classes()[self.class_index_of(x)])

    def p_regular_classes(self, p: int):
        """Indices into conjugacy_classes() of classes of p'-order elements."""
        return [i for i, o in enumerate(self.class_orders()) if o % p]

    def inverse_class_map(self):
        """index i -> index of the class of inverses."""
        classes = self.conjugacy_classes()
        out = []
        for c in classes:
            out.append(self.class_index_of(perm_inv(c[0])))
        return out

    # -- subgroups

    def generated_subgroup(self, gens, name=None) -> "PermGroup":
        sub = PermGroup(self.degree, gens, name=name)
        for e in sub.gens:
            if e not in self._index:
                raise NotSubgroup(f"{e} not in {self.describe()}")
        return sub

    def centralizer(self, x) -> "PermGroup":
        """C_G(x); G itself, with no closure, when x is central, i.e.
        |x^G| = 1: an element of G that commutes with every generator."""
        x = tuple(x)
        if x in self._index and all(perm_mul(g, x) == perm_mul(x, g)
                                    for g in self.gens):
            return self
        elts = [g for g in self.elements
                if perm_mul(g, x) == perm_mul(x, g)]
        return PermGroup.from_elements(self.degree, elts)

    def sylow_subgroup(self, p: int) -> "PermGroup":
        """The canonical greedy Sylow p-subgroup.

        Grows a p-subgroup by adjoining, at each step, the first element
        in canonical order whose join with the current subgroup is still
        a p-group; Sylow theory guarantees this always terminates at full
        p-part order, and the scan order makes the choice reproducible.
        Each trial join is closed from the generators adjoined so far and
        the new element, and abandoned once it outgrows the p-part.

        A group whose order is a power of p is its own Sylow subgroup and
        is returned as it is.  The result is kept per p on the group.
        """
        if p not in self._sylow:
            self._sylow[p] = (self if is_p_power(self.order, p)
                              else self._greedy_sylow(p))
        return self._sylow[p]

    def _greedy_sylow(self, p):
        target = p_part(self.order, p)
        candidates = [x for x in self.elements
                      if is_p_power(perm_order(x), p)]
        gens, span = [], {self.identity}
        while len(span) < target:
            for x in candidates:
                if x in span:
                    continue
                join = _adjoin(span, gens, x, target)
                if len(join) <= target and is_p_power(len(join), p):
                    gens.append(x)
                    span = join
                    break
            else:
                raise RuntimeError("greedy Sylow growth stalled")  # unreachable
        return PermGroup(self.degree, gens)


# ---------------------------------------------------------------------
# builders


def trivial_group() -> PermGroup:
    return PermGroup(1, [], name="C1")


def cyclic_group(n: int) -> PermGroup:
    if n < 1:
        raise InvalidGroupSpec(f"cyclic order must be positive, got {n}")
    if n == 1:
        return trivial_group()
    _check_order(n)
    shift = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [shift], name=f"C{n}")


def symmetric_group(n: int) -> PermGroup:
    if n <= 1:
        return trivial_group()
    if n == 2:
        return PermGroup(2, [(1, 0)], name="S2")
    _check_factorial_order(n, 1)
    cycle = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return PermGroup(n, [swap, cycle], name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n <= 2:
        return trivial_group()
    _check_factorial_order(n, 2)
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
    _check_order(order)
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


def affine_group(n: int, pairs) -> PermGroup:
    """The subgroup of Sym(Z_n) generated by the maps x -> a*x + b, one
    per (a, b) in pairs."""
    return PermGroup(n, [tuple((a * x + b) % n for x in range(n))
                         for a, b in pairs])


def heisenberg_group(p: int) -> PermGroup:
    """The Heisenberg group of order p^3 (exponent p for odd p), as the
    affine maps (u, v) -> (u + 1, v) and (u, v) -> (u, v + u) of the p^2
    points (u, v) = p*u + v."""
    _check_order(p ** 3)
    shift = tuple(p * ((u + 1) % p) + v for u in range(p) for v in range(p))
    shear = tuple(p * u + (v + u) % p for u in range(p) for v in range(p))
    return PermGroup(p * p, [shift, shear], name=f"He{p}")


def direct_product(a: PermGroup, b: PermGroup, name: str = None) -> PermGroup:
    _check_order(a.order * b.order)
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
    if name is not None and not isinstance(name, str):
        raise InvalidGroupSpec(f"group name must be a string, got {name!r}")
    _check_degree(degree)
    for g in gens:
        if any(isinstance(v, bool) or not isinstance(v, int) for v in g):
            raise InvalidGroupSpec(
                f"generator {list(g)} has a non-integer image")
        _check_perm(list(g), degree, first=1)
    return PermGroup(degree, [tuple(v - 1 for v in g) for g in gens],
                     name=name)


_NAMED = {"C": cyclic_group, "S": symmetric_group, "A": alternating_group,
          "D": dihedral_group}


def _name_order(spec):
    """A lower bound on the order of the group spec builds, known before
    building it: the order of a named group (C6, S4, A5, D8), else 1.  A
    factorial raises OrderBoundExceeded as soon as it passes ORDER_BOUND."""
    head, tail = spec.strip()[:1], spec.strip()[1:]
    if head in ("S", "A") and tail.isdigit():
        index = 2 if head == "A" else 1
        _check_factorial_order(int(tail), index)
        return max(factorial(int(tail)) // index, 1)
    return max(int(tail), 1) if head in ("C", "D") and tail.isdigit() else 1


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
        _check_order(prod(_name_order(part) for part in parts))
        grp = parse_group_spec(parts[0])
        for part in parts[1:]:
            grp = direct_product(grp, parse_group_spec(part))
        grp.name = spec
        return grp
    head, tail = spec[:1], spec[1:]
    if head in _NAMED and tail.isdigit():
        return _NAMED[head](int(tail))
    if spec == "Q8":
        return quaternion_group()
    raise InvalidGroupSpec(f"unrecognized group spec {spec!r}")


# ---------------------------------------------------------------------
# the isomorphism fingerprint


def _fingerprint(G: PermGroup):
    """G's sorted element orders, sorted class sizes and sorted counts of
    p-th roots (how many h have h^p = g, for each g), with p the smallest
    prime dividing |G|.  Isomorphic groups share them, and they fix the
    order, the exponent, the number of classes and the order of the
    center (the classes of size 1).  No two catalog entries of one order
    share one."""
    if G._fp is None:
        classes = G.conjugacy_classes()
        p = next((q for q in range(2, G.order + 1) if G.order % q == 0), 2)
        roots = dict.fromkeys(G.elements, 0)
        for x in G.elements:
            roots[_perm_power(x, p)] += 1
        G._fp = (tuple(sorted(o for o, c in zip(G.class_orders(), classes)
                              for _ in c)),
                 tuple(sorted(map(len, classes))),
                 tuple(sorted(roots.values())))
    return G._fp
