"""Truncated poset of small p-groups under subgroup embedding.

The catalog lists one permutation group per isomorphism class of
p-groups of order up to a bound, ordered by group order and then by
bundled-table position, so that P_i embedding in P_j forces i <= j.
Closed (downward-closed) subsets of the catalog are the lattice the rest
of the package evaluates against.
"""

import functools
import importlib.resources
import json

from .config import CLOSED_SET_ENTRY_BOUND, default_max_order
from .errors import (
    CatalogMismatch,
    DatasetMissing,
    EnumerationBoundExceeded,
    ValidationFailed,
)
from .groups import PermGroup, embeds_into, is_isomorphic, is_p_power

# counts of isomorphism classes the bundled table must reproduce
_KNOWN_COUNTS = {
    (2, 1): 1, (2, 2): 1, (2, 4): 2, (2, 8): 5, (2, 16): 14,
    (3, 1): 1, (3, 3): 1, (3, 9): 2, (3, 27): 5,
    (5, 1): 1, (5, 5): 1, (5, 25): 2,
}


@functools.lru_cache(maxsize=None)
def _load_bundled():
    try:
        text = (importlib.resources.files("repring") / "data" / "pgroups.json").read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise DatasetMissing(f"bundled p-group table unavailable: {exc}") from None
    return json.loads(text)


def _entries_from_dataset(dataset, p, max_order):
    picked = []
    for pos, row in enumerate(dataset):
        if row["p"] != p or row["order"] > max_order:
            continue
        gens = [tuple(v - 1 for v in g) for g in row["generators"]]
        G = PermGroup(row["degree"], gens, name=row["label"])
        picked.append((row["order"], pos, row["label"], G))
    picked.sort(key=lambda t: (t[0], t[1]))
    return [(label, G) for _, _, label, G in picked]


class PGroupCatalog:
    def __init__(self, p, max_order, entries, embed):
        self.p = p
        self.max_order = max_order
        self.entries = entries  # list of (label, PermGroup)
        self.embed = embed      # embed[i][j] <=> entries[i] embeds in entries[j]

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
        """Catalog index of P's isomorphism class, or None if absent."""
        for i, (_, G) in enumerate(self.entries):
            if G.order == P.order and is_isomorphic(P, G):
                return i
        return None

    def down_set(self, j) -> "ClosedSet":
        members = frozenset(i for i in range(len(self.entries))
                            if self.embed[i][j])
        return ClosedSet(self, members)

    def closure(self, indices) -> "ClosedSet":
        members = set()
        for j in indices:
            if not 0 <= j < len(self.entries):
                raise IndexError(f"catalog index {j} out of range")
            members.update(i for i in range(len(self.entries))
                           if self.embed[i][j])
        return ClosedSet(self, frozenset(members))


def _validate(p, max_order, entries, check_counts):
    if not entries:
        raise ValidationFailed(f"no catalog entries for p={p}")
    counts = {}
    for label, G in entries:
        if not is_p_power(G.order, p) or G.order > max_order:
            raise ValidationFailed(
                f"{label}: order {G.order} invalid for p={p} <= {max_order}")
        counts[G.order] = counts.get(G.order, 0) + 1
    if entries[0][1].order != 1:
        raise ValidationFailed("first catalog entry must be the trivial group")
    if max_order >= p and (len(entries) < 2 or entries[1][1].order != p):
        raise ValidationFailed(f"second catalog entry must be C_{p}")
    if check_counts:
        for order, n in counts.items():
            expected = _KNOWN_COUNTS.get((p, order))
            if expected is not None and n != expected:
                raise ValidationFailed(
                    f"{n} entries of order {order} for p={p}, expected {expected}")
    by_order = {}
    for label, G in entries:
        by_order.setdefault(G.order, []).append((label, G))
    for bucket in by_order.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                if is_isomorphic(bucket[i][1], bucket[j][1]):
                    raise ValidationFailed(
                        f"duplicate isomorphism class: {bucket[i][0]} and {bucket[j][0]}")


def build_catalog(p: int, max_order: int = None) -> PGroupCatalog:
    """Validated catalog from the bundled table; cached per (p, max_order),
    with max_order None meaning default_max_order(p)."""
    if max_order is None:
        max_order = default_max_order(p)
    return _cached_catalog(p, max_order)


@functools.lru_cache(maxsize=None)
def _cached_catalog(p, max_order):
    return catalog_from_dataset(p, max_order, _load_bundled(), check_counts=True)


def catalog_from_dataset(p, max_order, dataset, check_counts=False) -> PGroupCatalog:
    if max_order is None:
        max_order = default_max_order(p)
    if not any(row["p"] == p for row in dataset):
        raise DatasetMissing(f"no entries for p={p} in dataset")
    entries = _entries_from_dataset(dataset, p, max_order)
    _validate(p, max_order, entries, check_counts)
    n = len(entries)
    embed = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if entries[i][1].order <= entries[j][1].order:
                embed[i][j] = embeds_into(entries[i][1], entries[j][1])
    for i in range(n):
        for j in range(n):
            if embed[i][j] and i != j and not entries[i][1].order < entries[j][1].order:
                raise ValidationFailed(
                    "embedding between distinct classes of equal order")
    return PGroupCatalog(p, max_order, entries, embed)


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
    """Is C a principal down-set?  (Truncation-relative notion.)"""
    if not C.members:
        return False
    for j in range(len(C.catalog.entries)):
        if C.catalog.down_set(j).members == C.members:
            return True
    return False


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
