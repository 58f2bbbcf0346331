"""Truncated poset of small p-groups under subgroup embedding.

The catalog lists one permutation group per isomorphism class of
p-groups of order up to a bound, ordered by group order and then by
position, so that P_i embedding in P_j forces i <= j.  Every prime's
groups of order at most p^3 are built by one construction, with their
embeddings stated: 1, C_p, C_{p^2}, C_p^2, C_{p^3}, C_{p^2} x C_p and
C_p^3, then D8 and Q8 at p = 2, or the Heisenberg group He_p and
C_{p^2}:C_p at odd p (Hoelder, Math. Ann. 43, 1893).  The bundled table
adds the fourteen groups of order 16, each row stating the smaller
entries that embed in it (its "contains" list), which
scripts/make_pgroup_data.py finds by search when it writes the table.
So every embedding in the catalog is stated, and building a catalog
builds no group and runs no search.  The bundled rows are checked
against their known count and for lists that name smaller entries and
are down-closed; a second row of one isomorphism class is caught where
it would give a wrong answer, by the lookup of that class.

An entry holds its label, its order and a builder; its permutation group
is built only when group(i) or a lookup of that order asks for it, so
neither a lattice nor a catalog builds any.  A truncation that would
need an order past the largest one listed (p times it or more) raises
DatasetMissing rather than return a catalog that misses groups.  Closed
(downward-closed) subsets of the catalog are the lattice the rest of the
package evaluates against.
"""

import functools
import json
import os
from typing import Callable, NamedTuple

from .config import CLOSED_SET_ENTRY_BOUND, default_max_order
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
    affine_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    heisenberg_group,
    quaternion_group,
    trivial_group,
)

# counts of isomorphism classes past order p^3; the bundled table must
# reproduce them, and an order it lists must have an entry here
KNOWN_COUNTS = {(2, 16): 14}


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


class Entry(NamedTuple):
    """A catalog entry; group() builds its group on the first call."""
    label: str
    order: int
    group: Callable[[], PermGroup]


def _entry(label, order, build):
    return Entry(label, order, functools.cache(build))


def _rows_from_dataset(dataset, p, max_order):
    """p's rows up to max_order, by order and then by position in the
    dataset."""
    return sorted((row for row in dataset
                   if row["p"] == p and row["order"] <= max_order),
                  key=lambda row: row["order"])


def _row_entry(row):
    return _entry(row["label"], row["order"],
                  lambda: PermGroup(row["degree"],
                                    [[v - 1 for v in g]
                                     for g in row["generators"]],
                                    name=row["label"]))


def largest_order(p, dataset=None):
    """The largest order of a p-group the catalog can list at p: p^3, or
    the largest order dataset (the bundled table by default) lists for p
    if that is larger."""
    if dataset is None:
        dataset = _load_bundled()
    return max([p ** 3] + [row["order"] for row in dataset if row["p"] == p])


def _entries_up_to_p_cubed(p, max_order):
    """Every p-group of order at most min(max_order, p^3), in catalog
    order, and their embedding matrix, known by construction.  1 and C_p
    embed in every later entry, and an entry of order p^3 contains the
    groups of order p^2 it lists: C_{p^3} and Q8 only C_{p^2}, C_p^3 and
    He_p only C_p^2, the others both."""
    if not _is_prime(p):
        raise DatasetMissing(f"no entries for p={p} in dataset")
    C, q, r = cyclic_group, p * p, p ** 3
    cyclic, elementary = 2, 3  # the positions of C_{p^2} and C_p^2
    specs = [
        ("1", 1, trivial_group, ()),
        (f"C{p}", p, lambda: C(p), ()),
        (f"C{q}", q, lambda: C(q), ()),
        (f"C{p}^2", q, lambda: direct_product(C(p), C(p)), ()),
        (f"C{r}", r, lambda: C(r), (cyclic,)),
        (f"C{q}xC{p}", r, lambda: direct_product(C(q), C(p)),
         (cyclic, elementary)),
        (f"C{p}^3", r,
         lambda: direct_product(direct_product(C(p), C(p)), C(p)),
         (elementary,)),
    ]
    if p == 2:
        specs += [("D8", r, lambda: dihedral_group(8), (cyclic, elementary)),
                  ("Q8", r, quaternion_group, (cyclic,))]
    else:
        specs += [(f"He{p}", r, lambda: heisenberg_group(p), (elementary,)),
                  (f"C{q}:C{p}", r,
                   lambda: affine_group(q, [(1, 1), (1 + p, 0)]),
                   (cyclic, elementary))]
    specs = [spec for spec in specs if spec[1] <= max_order]
    entries = [_entry(label, order, build) for label, order, build, _ in specs]
    return entries, [[i == j or (i < j and (i <= 1 or i in specs[j][3]))
                      for j in range(len(specs))]
                     for i in range(len(specs))]


class PGroupCatalog:
    def __init__(self, p, max_order, entries, embed):
        self.p = p
        self.max_order = max_order
        self.entries = entries  # list of Entry
        self.embed = embed      # embed[i][j] <=> entries[i] embeds in entries[j]
        self._down_sets = None

    def __len__(self):
        return len(self.entries)

    def label(self, i) -> str:
        return self.entries[i].label

    def group(self, i) -> PermGroup:
        return self.entries[i].group()

    @property
    def labels(self):
        return [entry.label for entry in self.entries]

    def key(self):
        return (self.p, self.max_order, tuple(self.labels))

    def index_of_isomorphic(self, P: PermGroup):
        """Catalog index of P's isomorphism class, or None if absent.
        The catalog lists every p-group of order at most max_order, so
        the entry with P's fingerprint is P's class.  Every entry of P's
        order is built and compared, and a second match, which would
        make the answer depend on the order of the rows, raises
        ValidationFailed."""
        fp = _fingerprint(P)
        found = [i for i, entry in enumerate(self.entries)
                 if entry.order == P.order
                 and _fingerprint(self.group(i)) == fp]
        if len(found) > 1:
            raise ValidationFailed(
                f"duplicate isomorphism class: {self.label(found[0])} and "
                f"{self.label(found[1])} share a fingerprint")
        return found[0] if found else None

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


def _validated_embedding(p, max_order, entries, embed, rows):
    """The embedding matrix of entries + rows, given entries' own and
    each row's "contains" list, once the rows check: their orders are
    the powers of p in (p^3, max_order], as many of each as KNOWN_COUNTS
    lists, each list names entries of smaller order only, and each list
    is down-closed (an entry that embeds in a listed entry is listed
    too).  Rows come in order, so a listed row's own list is checked
    first."""
    counts, expected, order = {}, {}, p ** 4
    for row in rows:
        counts[row["order"]] = counts.get(row["order"], 0) + 1
    while order <= max_order:
        expected[order] = KNOWN_COUNTS.get((p, order))
        order *= p
    if counts != expected:
        raise ValidationFailed(f"entries per order for p={p}: {counts}, "
                               f"expected {expected}")
    labels = [e.label for e in entries] + [row["label"] for row in rows]
    orders = [e.order for e in entries] + [row["order"] for row in rows]
    n = len(labels)
    position = {label: i for i, label in enumerate(labels)}
    embed = [line + [False] * len(rows) for line in embed]
    embed += [[i == j for j in range(n)] for i in range(len(entries), n)]
    for j, row in enumerate(rows, start=len(entries)):
        for label in row["contains"]:
            i = position.get(label, j)  # a missing label fails as j would
            if orders[i] >= orders[j]:
                raise ValidationFailed(
                    f"{labels[j]} contains {label!r}, which is no catalog "
                    f"entry of smaller order")
            embed[i][j] = True
        gap = next(((i, k) for i in range(j) if embed[i][j]
                    for k in range(i) if embed[k][i] and not embed[k][j]),
                   None)
        if gap:
            raise ValidationFailed(
                f"{labels[j]} contains {labels[gap[0]]} but not "
                f"{labels[gap[1]]}, which embeds in it")
    return embed


def build_catalog(p: int, max_order: int = None) -> PGroupCatalog:
    """Validated catalog; cached per (p, max_order), with max_order None
    meaning config.default_max_order(p)."""
    if max_order is None:
        max_order = default_max_order(p)
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
    entries, embed = _entries_up_to_p_cubed(p, max_order)
    rows = _rows_from_dataset(dataset, p, max_order)
    embed = _validated_embedding(p, max_order, entries, embed, rows)
    return PGroupCatalog(p, max_order,
                         entries + [_row_entry(row) for row in rows], embed)


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
    n = len(cat)
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
