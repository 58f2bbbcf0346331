"""Truncated poset of small p-groups under subgroup embedding.

The catalog lists one permutation group per isomorphism class of
p-groups of order up to a bound, ordered by group order and then by
bundled-table position, so that P_i embedding in P_j forces i <= j.
Every prime's groups of order at most p^2 (1, C_p, C_{p^2}, C_p x C_p)
are built directly, embeddings included; the bundled table adds those of
order p^3 and up (8 and 16 at p = 2, 27 at p = 3), checked against the
known class counts and searched once per pair.  A truncation that would
need an order past the largest one listed (p times it or more) raises
DatasetMissing rather than return a catalog that misses groups.
Closed (downward-closed) subsets of the catalog are the lattice the
rest of the package evaluates against.
"""

import functools
import json
import os

from .config import CLOSED_SET_ENTRY_BOUND
from .errors import (
    CatalogMismatch,
    DatasetMissing,
    EnumerationBoundExceeded,
    ValidationFailed,
)
from .gf import _is_prime
from .groups import (
    PermGroup,
    _fingerprint,
    cyclic_group,
    direct_product,
    embeds_into,
    is_isomorphic,
    trivial_group,
)

# counts of isomorphism classes of order p^3 and up; the bundled table
# must reproduce them, and an order it lists must have an entry here
KNOWN_COUNTS = {(2, 8): 5, (2, 16): 14, (3, 27): 5}


_BUNDLED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "data", "pgroups.json")


@functools.lru_cache(maxsize=None)
def _load_bundled():
    try:
        with open(_BUNDLED_PATH, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DatasetMissing(f"bundled p-group table unavailable: {exc}") from None
    return json.loads(text)


def _entries_from_dataset(dataset, p, max_order):
    """(label, group) for p's rows up to max_order, by order and then by
    position in the dataset."""
    rows = sorted((row for row in dataset
                   if row["p"] == p and row["order"] <= max_order),
                  key=lambda row: row["order"])
    return [(row["label"],
             PermGroup(row["degree"],
                       [[v - 1 for v in g] for g in row["generators"]],
                       name=row["label"]))
            for row in rows]


def largest_order(p, dataset=None):
    """The largest order of a p-group the catalog can list at p: the
    largest bundled order for p (from dataset, the bundled table by
    default), or p^2 for a prime with no bundled rows."""
    if dataset is None:
        dataset = _load_bundled()
    return max((row["order"] for row in dataset if row["p"] == p),
               default=p * p)


def _entries_up_to_p_squared(p, max_order):
    """Every p-group of order at most min(max_order, p^2): 1, C_p,
    C_{p^2} and C_p x C_p, in catalog order, and their embedding matrix,
    known by construction: 1 < C_p < C_{p^2} and C_p < C_p^2."""
    if not _is_prime(p):
        raise DatasetMissing(f"no entries for p={p} in dataset")
    entries = [("1", trivial_group())] if max_order >= 1 else []
    if max_order >= p:
        entries.append((f"C{p}", cyclic_group(p)))
    if max_order >= p * p:
        entries.append((f"C{p * p}", cyclic_group(p * p)))
        entries.append((f"C{p}^2", direct_product(cyclic_group(p),
                                                  cyclic_group(p))))
    n = len(entries)
    return entries, [[i == j or i < min(j, 2) for j in range(n)]
                     for i in range(n)]


class PGroupCatalog:
    def __init__(self, p, max_order, entries, embed):
        self.p = p
        self.max_order = max_order
        self.entries = entries  # list of (label, PermGroup)
        self.embed = embed      # embed[i][j] <=> entries[i] embeds in entries[j]
        self._down_sets = None

    def __len__(self):
        return len(self.entries)

    def label(self, i) -> str:
        return self.entries[i][0]

    def group(self, i) -> PermGroup:
        return self.entries[i][1]

    @property
    def labels(self):
        return [label for label, _ in self.entries]

    def key(self):
        return (self.p, self.max_order, tuple(self.labels))

    def index_of_isomorphic(self, P: PermGroup):
        """Catalog index of P's isomorphism class, or None if absent.
        The catalog lists every p-group of order at most max_order, and a
        group with a p-group's element orders is a p-group, so an entry
        whose fingerprint no other entry shares is P's class.  Of a tie,
        the entry that is P itself (the same degree and elements) is
        taken at once; only a tie with no such entry is left to the
        search."""
        same = [i for i, (_, G) in enumerate(self.entries)
                if G.order == P.order and _fingerprint(G) == _fingerprint(P)]
        if len(same) == 1:
            return same[0]
        key = P.key()
        for i in same:
            if self.group(i).key() == key:
                return i
        return next((i for i in same if is_isomorphic(P, self.group(i))),
                    None)

    def down_set(self, j) -> "ClosedSet":
        """The entries that embed in entry j, built once per catalog."""
        if self._down_sets is None:
            self._down_sets = tuple(self.closure([i])
                                    for i in range(len(self.entries)))
        if not 0 <= j < len(self.entries):
            raise IndexError(f"catalog index {j} out of range")
        return self._down_sets[j]

    def closure(self, indices) -> "ClosedSet":
        members = set()
        for j in indices:
            if not 0 <= j < len(self.entries):
                raise IndexError(f"catalog index {j} out of range")
            members.update(i for i in range(len(self.entries))
                           if self.embed[i][j])
        return ClosedSet(self, frozenset(members))


def _validated_embedding(p, max_order, entries, embed, bundled):
    """The embedding matrix of entries + bundled, given entries' own, once
    the bundled rows check: their orders are the powers of p in [p^3,
    max_order], as many of each as KNOWN_COUNTS lists, and one search per
    pair (i, j) with j bundled finds an embedding below j's order or, at
    equal order, an isomorphism: a duplicate class."""
    counts, expected, order = {}, {}, p ** 3
    for _, G in bundled:
        counts[G.order] = counts.get(G.order, 0) + 1
    while order <= max_order:
        expected[order] = KNOWN_COUNTS.get((p, order))
        order *= p
    if counts != expected:
        raise ValidationFailed(f"entries per order for p={p}: {counts}, "
                               f"expected {expected}")
    everything = entries + bundled
    n = len(everything)
    embed = [row + [False] * len(bundled) for row in embed]
    embed += [[i == j for j in range(n)] for i in range(len(entries), n)]
    for j in range(len(entries), n):
        label_j, Q = everything[j]
        for i, (label_i, P) in enumerate(everything[:j]):
            if P.order < Q.order:
                embed[i][j] = embeds_into(P, Q)
            elif is_isomorphic(P, Q):
                raise ValidationFailed(
                    f"duplicate isomorphism class: {label_i} and {label_j}")
    return embed


def build_catalog(p: int, max_order: int = None) -> PGroupCatalog:
    """Validated catalog from the bundled table; cached per (p, max_order),
    with max_order None meaning largest_order(p)."""
    if max_order is None:
        max_order = largest_order(p)
    return _cached_catalog(p, max_order)


@functools.lru_cache(maxsize=None)
def _cached_catalog(p, max_order):
    return catalog_from_dataset(p, max_order, _load_bundled())


def catalog_from_dataset(p, max_order, dataset) -> PGroupCatalog:
    # p-group orders are powers of p, so a catalog is complete exactly
    # below p times the largest order it can list
    top = largest_order(p, dataset)
    if max_order >= p * top:
        raise DatasetMissing(
            f"the groups of order {p * top} are not in the catalog for "
            f"p={p}: max_order must be below {p * top}")
    entries, embed = _entries_up_to_p_squared(p, max_order)
    bundled = _entries_from_dataset(dataset, p, max_order)
    embed = _validated_embedding(p, max_order, entries, embed, bundled)
    return PGroupCatalog(p, max_order, entries + bundled, embed)


class ClosedSet:
    """A downward-closed set of catalog indices."""

    def __init__(self, catalog: PGroupCatalog, members):
        members = frozenset(members)
        for j in members:
            for i in range(len(catalog.entries)):
                if catalog.embed[i][j] and i not in members:
                    raise ValidationFailed(
                        f"set not closed: contains {catalog.label(j)} "
                        f"but not {catalog.label(i)}")
        self.catalog = catalog
        self.members = members

    def __eq__(self, other):
        return (isinstance(other, ClosedSet)
                and self.catalog.key() == other.catalog.key()
                and self.members == other.members)

    def __hash__(self):
        return hash((self.catalog.key(), self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, i):
        return i in self.members

    def sorted_members(self):
        return sorted(self.members)

    def labels(self):
        return [self.catalog.label(i) for i in self.sorted_members()]

    def __repr__(self):
        return "ClosedSet{" + ", ".join(self.labels()) + "}"


def lattice_ops(A: ClosedSet, B: ClosedSet):
    """(join, meet, A <= B).  Join is union, meet is intersection."""
    if A.catalog.key() != B.catalog.key():
        raise CatalogMismatch("closed sets from different catalogs")
    join = ClosedSet(A.catalog, A.members | B.members)
    meet = ClosedSet(A.catalog, A.members & B.members)
    return join, meet, A.members <= B.members


def is_completely_prime(C: ClosedSet) -> bool:
    """Is C a principal down-set, that is, has it exactly one maximal
    member?  (Truncation-relative notion.)"""
    embed = C.catalog.embed
    maximal = [j for j in C.members
               if not any(i != j and embed[j][i] for i in C.members)]
    return len(maximal) == 1


def enumerate_closed_sets(cat: PGroupCatalog):
    """Every downward-closed subset, in a deterministic order."""
    n = len(cat.entries)
    if n > CLOSED_SET_ENTRY_BOUND:
        raise EnumerationBoundExceeded(
            f"{n} catalog entries exceed enumeration bound {CLOSED_SET_ENTRY_BOUND}")
    downs = [frozenset(i for i in range(n) if cat.embed[i][j])
             for j in range(n)]
    sets = [frozenset()]
    for j in range(n):
        need = downs[j] - {j}
        sets.extend([s | {j} for s in sets if need <= s])
    ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
    return [ClosedSet(cat, s) for s in ordered]
