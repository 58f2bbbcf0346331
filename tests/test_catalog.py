import hashlib
import importlib.util
import pathlib
import re

import pytest

from group_reference import _TABLES, embeds_into
from repring import groups as groups_module
from repring.catalog import (
    KNOWN_COUNTS,
    ClosedSet,
    _cached_catalog,
    _load_bundled,
    build_catalog,
    catalog_from_dataset,
    enumerate_closed_sets,
    is_completely_prime,
    largest_order,
    lattice_ops,
)
from repring.errors import (
    CatalogMismatch,
    DatasetMissing,
    EnumerationBoundExceeded,
    ValidationFailed,
)
from repring.groups import (
    PermGroup,
    _fingerprint,
    alternating_group,
    cyclic_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)
from repring.report import lattice_report

# the embedding search lives in tests/group_reference.py only
SEARCH_NAMES = ("embeds_into", "_search_embedding", "_extends_to_hom")

# the embedding matrix of 1, C_p, C_{p^2}, C_p^2
P_SQUARED_EMBED = [
    [1, 1, 1, 1],
    [0, 1, 1, 1],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
]


def test_catalog_2_8_entries():
    cat = build_catalog(2, 8)
    assert cat.labels == ["1", "C2", "C4", "C2^2", "C8", "C4xC2", "C2^3",
                          "D8", "Q8"]
    assert cat.group(0).order == 1
    assert cat.group(1).order == 2


def test_catalog_sizes():
    assert len(build_catalog(2, 1)) == 1
    assert len(build_catalog(2, 4)) == 4
    assert len(build_catalog(2, 16)) == 23
    assert build_catalog(3, 9).labels == ["1", "C3", "C9", "C3^2"]
    assert len(build_catalog(3, 27)) == 9
    assert build_catalog(5, 25).labels == ["1", "C5", "C25", "C5^2"]


def test_catalog_cache_key_normalizes_default_order():
    assert build_catalog(2) is build_catalog(2, 16)
    assert build_catalog(3) is build_catalog(3, 27)


def test_catalog_missing_prime():
    # no bundled rows for p = 7: every 7-group of order at most 7^3 is built
    assert build_catalog(7, 7).labels == ["1", "C7"]
    assert build_catalog(7, 7).embed == [[True, True], [False, True]]
    cat = build_catalog(7)
    assert cat.labels == ["1", "C7", "C49", "C7^2"]
    assert [[int(e) for e in row] for row in cat.embed] == P_SQUARED_EMBED
    # the stated embeddings agree with the search, which is in range here
    groups = [cat.group(i) for i in range(len(cat))]
    assert cat.embed == [[embeds_into(P, Q) for Q in groups] for P in groups]
    assert build_catalog(7, 343).labels[4:] == [
        "C343", "C49xC7", "C7^3", "He7", "C49:C7"]
    with pytest.raises(DatasetMissing):
        build_catalog(7, 2401)  # order 7^4 would need the groups of order 2401
    with pytest.raises(DatasetMissing):
        build_catalog(4)  # not a prime
    # C289 and C17^2 are past the reference search's ISO_ORDER_BOUND, but
    # their embeddings are known by construction
    cat = build_catalog(17)
    assert cat.labels == ["1", "C17", "C289", "C17^2"]
    assert [[int(e) for e in row] for row in cat.embed] == P_SQUARED_EMBED


@pytest.mark.parametrize("p,top", [(2, 16), (3, 27), (5, 125), (7, 343)])
def test_catalog_stops_below_p_times_largest_order(p, top):
    """A truncation that would need an order past the largest listed one
    is an error, not a catalog silently missing those groups."""
    assert largest_order(p) == top
    assert build_catalog(p, p * top - 1).max_order == p * top - 1
    with pytest.raises(DatasetMissing):
        build_catalog(p, p * top)


def test_catalog_generated_at_p13():
    """The four groups of order at most 13^2; classes and centers of C169
    and C13^2 no longer cost |G|^2 conjugations."""
    cat = build_catalog(13)
    assert cat.labels == ["1", "C13", "C169", "C13^2"]
    assert [cat.group(i).order for i in range(4)] == [1, 13, 169, 169]
    assert [[int(e) for e in row] for row in cat.embed] == P_SQUARED_EMBED


# sha256 of the full embedding matrix, one "0"/"1" string per row joined
# by newlines; no golden report covers the 23-entry p = 2 matrix
EMBED_SHA256 = {
    (2, 16): "c8c5f53a14211bb9cd94f4dfcfc23a25507fd43a66d260f911e8ba0bf918b7fe",
    (3, 27): "0a0c0fd895f1bcf1e96379ea829a00adc1534a30a616c2bf136c6d93d42c915e",
}


@pytest.mark.parametrize("p,max_order", sorted(EMBED_SHA256))
def test_embedding_matrix_pinned(p, max_order):
    cat = build_catalog(p, max_order)
    text = "\n".join("".join("1" if e else "0" for e in row)
                     for row in cat.embed)
    assert hashlib.sha256(text.encode()).hexdigest() == EMBED_SHA256[p, max_order]


def test_embed_matrix_order_and_axioms():
    cat = build_catalog(2, 16)
    n = len(cat)
    for i in range(n):
        assert cat.embed[i][i]
        for j in range(n):
            if cat.embed[i][j] and i != j:
                assert cat.group(i).order < cat.group(j).order
                assert i < j
            for k in range(n):
                if cat.embed[i][j] and cat.embed[j][k]:
                    assert cat.embed[i][k]


def test_down_sets_match_subgroup_facts():
    cat = build_catalog(2, 8)
    lab = cat.labels
    assert cat.down_set(lab.index("D8")).labels() == ["1", "C2", "C4", "C2^2", "D8"]
    assert cat.down_set(lab.index("Q8")).labels() == ["1", "C2", "C4", "Q8"]
    assert cat.down_set(0).labels() == ["1"]


def test_down_sets_are_built_once_per_catalog(monkeypatch):
    cat = catalog_from_dataset(2, 8, _load_bundled())
    first = [cat.down_set(j) for j in range(len(cat))]

    def no_check(*args):
        raise AssertionError("closedness checked again")

    monkeypatch.setattr(ClosedSet, "__init__", no_check)
    assert all(cat.down_set(j) is d for j, d in enumerate(first))
    for j in (-1, len(cat)):
        with pytest.raises(IndexError):
            cat.down_set(j)
    with pytest.raises(AssertionError):
        cat.closure([0])  # a caller-supplied set is still validated


def test_closure():
    cat = build_catalog(2, 8)
    c = cat.closure([cat.labels.index("D8")])
    assert c == cat.down_set(cat.labels.index("D8"))
    assert cat.closure([]).members == frozenset()
    both = cat.closure([cat.labels.index("D8"), cat.labels.index("Q8")])
    assert both.labels() == ["1", "C2", "C4", "C2^2", "D8", "Q8"]


def test_closed_set_rejects_non_closed():
    cat = build_catalog(2, 8)
    with pytest.raises(ValidationFailed):
        ClosedSet(cat, {cat.labels.index("D8")})


def test_lattice_ops():
    cat = build_catalog(2, 8)
    c4 = cat.down_set(cat.labels.index("C4"))
    v4 = cat.down_set(cat.labels.index("C2^2"))
    join, meet, leq = lattice_ops(c4, v4)
    assert join.labels() == ["1", "C2", "C4", "C2^2"]
    assert meet.labels() == ["1", "C2"]
    assert not leq
    empty = ClosedSet(cat, frozenset())
    j2, m2, leq2 = lattice_ops(c4, empty)
    assert j2 == c4 and m2 == empty and not leq2
    _, _, leq3 = lattice_ops(meet, c4)
    assert leq3

    other = build_catalog(3, 9)
    with pytest.raises(CatalogMismatch):
        lattice_ops(c4, ClosedSet(other, frozenset()))


def test_completely_prime():
    cat = build_catalog(2, 8)
    assert is_completely_prime(cat.down_set(cat.labels.index("D8")))
    assert not is_completely_prime(ClosedSet(cat, frozenset()))
    c4 = cat.down_set(cat.labels.index("C4"))
    v4 = cat.down_set(cat.labels.index("C2^2"))
    union, _, _ = lattice_ops(c4, v4)
    assert not is_completely_prime(union)
    # one maximal member against a scan of the principal down-sets
    for p, max_order in [(2, 8), (3, 27), (5, 25), (7, 49)]:
        cat = build_catalog(p, max_order)
        downs = {cat.down_set(j).members for j in range(len(cat))}
        for C in enumerate_closed_sets(cat):
            assert is_completely_prime(C) == (C.members in downs)


def test_enumerate_small_lattices():
    # poset 1 < C2 < {C4, C2^2}: the 6 downward-closed sets
    assert len(enumerate_closed_sets(build_catalog(2, 4))) == 6
    assert len(enumerate_closed_sets(build_catalog(3, 3))) == 3
    assert len(enumerate_closed_sets(build_catalog(2, 1))) == 2
    assert len(enumerate_closed_sets(build_catalog(3, 9))) == 6


def test_enumerate_against_brute_force():
    cat = build_catalog(2, 8)
    n = len(cat)
    brute = []
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        ok = all(cat.embed[i][j] <= (i in s)
                 for j in s for i in range(n))
        if ok:
            brute.append(frozenset(s))
    enumerated = enumerate_closed_sets(cat)
    assert len(enumerated) == len(brute)
    assert {c.members for c in enumerated} == set(brute)
    # every nonempty closed set contains the trivial group
    for c in enumerated:
        if c.members:
            assert 0 in c.members


def test_enumeration_bound():
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_closed_sets(build_catalog(2, 16))


def test_principal_down_set_has_unique_maximal_proper_closed_subset():
    cat = build_catalog(2, 8)
    all_closed = enumerate_closed_sets(cat)
    for j in (cat.labels.index("D8"), cat.labels.index("Q8"),
              cat.labels.index("C4")):
        dj = cat.down_set(j)
        proper = [c for c in all_closed if c.members < dj.members]
        maximal = [c for c in proper
                   if not any(c.members < d.members for d in proper)]
        assert len(maximal) == 1
        assert maximal[0].members == dj.members - {j}


def test_index_of_isomorphic():
    cat = build_catalog(2, 8)
    syl = symmetric_group(4).sylow_subgroup(2)
    assert cat.label(cat.index_of_isomorphic(syl)) == "D8"
    a4syl = alternating_group(4).sylow_subgroup(2)
    assert cat.label(cat.index_of_isomorphic(a4syl)) == "C2^2"
    assert cat.index_of_isomorphic(cyclic_group(16)) is None


def _script():
    """scripts/make_pgroup_data.py, loaded as a module."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
            / "make_pgroup_data.py")
    spec = importlib.util.spec_from_file_location("make_pgroup_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_validation_catches_corruption(monkeypatch):
    # the bundled rows of order 16 on top of the generated orders <= 8
    rows = _load_bundled()
    cat = catalog_from_dataset(2, 16, rows)
    assert cat.labels == build_catalog(2, 16).labels
    assert cat.embed == build_catalog(2, 16).embed

    # the count per order is right and the stated list is C16's, so the
    # catalog builds; a lookup of C16 finds two classes, and the script's
    # check rejects the rows before writing them
    dup = rows[:13] + [{"p": 2, "order": 16, "label": "C16again",
                        "degree": 16,
                        "generators": [list(range(2, 17)) + [1]],
                        "contains": rows[0]["contains"]}]
    cat = catalog_from_dataset(2, 16, dup)
    with pytest.raises(ValidationFailed, match="duplicate isomorphism class"):
        cat.index_of_isomorphic(cyclic_group(16))
    with pytest.raises(ValueError, match="duplicate isomorphism class"):
        _script().check_distinct_classes(dup)

    with pytest.raises(ValidationFailed, match="{16: 13}, expected {16: 14}"):
        catalog_from_dataset(2, 16, rows[:13])

    # orders up to p^3 are generated, and 6 is no power of 2
    for extra in ({"p": 2, "order": 8, "label": "C8", "degree": 8,
                   "generators": [[2, 3, 4, 5, 6, 7, 8, 1]]},
                  {"p": 2, "order": 6, "label": "C6", "degree": 6,
                   "generators": [[2, 3, 4, 5, 6, 1]]}):
        with pytest.raises(ValidationFailed, match="entries per order"):
            catalog_from_dataset(2, 16, rows + [extra])

    # a bundled order needs a known count, or completeness is unchecked
    c625 = {"p": 5, "order": 625, "label": "C625", "degree": 625,
            "generators": [list(range(2, 626)) + [1]]}
    with pytest.raises(ValidationFailed, match="expected {625: None}"):
        catalog_from_dataset(5, 625, [c625])

    # a stated list names a missing entry, one of the same order (listed
    # later or earlier) or a larger one; C32 is a row of its own in the
    # last case, with a count for order 32 so that only its list fails
    c32 = {"p": 2, "order": 32, "label": "C32", "degree": 32,
           "generators": [list(range(2, 33)) + [1]],
           "contains": rows[0]["contains"] + ["C16"]}
    monkeypatch.setitem(KNOWN_COUNTS, (2, 32), 1)
    assert catalog_from_dataset(2, 32, rows + [c32]).labels[-1] == "C32"
    for k, wrong, extra in ((0, "C32", []), (0, "C4^2", []),
                            (1, "C16", []), (0, "C32", [c32])):
        bad = list(rows)
        bad[k] = dict(rows[k], contains=rows[k]["contains"] + [wrong])
        with pytest.raises(ValidationFailed, match=re.escape(
                f"{rows[k]['label']} contains '{wrong}', which is no")):
            catalog_from_dataset(2, 16 * (1 + len(extra)), bad + extra)

    # a list that is not down-closed: C8 embeds in C16, but C4 is dropped
    bad = [dict(rows[0], contains=["1", "C2", "C8"])]
    with pytest.raises(ValidationFailed,
                       match="C16 contains C8 but not C4"):
        catalog_from_dataset(2, 16, bad + rows[1:])


def test_catalog_below_order_1_is_empty():
    for max_order in (0, -1):
        cat = build_catalog(2, max_order)
        assert (cat.labels, cat.embed) == ([], [])
        assert [C.members for C in enumerate_closed_sets(cat)] == [frozenset()]
        assert cat.index_of_isomorphic(cyclic_group(1)) is None


def test_lookup_by_unique_fingerprint_runs_no_search():
    """A fingerprint that one entry of the complete catalog holds names
    the class; the lookup builds no search table (a Cayley table), and
    the package has no search to run."""
    assert not any(hasattr(groups_module, name) for name in SEARCH_NAMES)
    cat = build_catalog(2, 16)
    for P, label in ((symmetric_group(4).sylow_subgroup(2), "D8"),
                     (direct_product(quaternion_group(), cyclic_group(1)),
                      "Q8"),
                     (direct_product(cyclic_group(8), cyclic_group(2)),
                      "C8xC2")):
        assert cat.label(cat.index_of_isomorphic(P)) == label
        assert P not in _TABLES


# the order-16 pairs that element orders and class sizes alone do not
# tell apart; the counts of square roots do
TIED_BEFORE_ROOT_COUNTS = [("C2^2:C4", "C4oD8"), ("C4:C4", "Q8xC2")]


def test_tied_fingerprints_resolve_to_their_own_label():
    """Fresh copies of the order-16 rows that element orders and class
    sizes tie are told apart by their square-root counts, with no
    search."""
    assert not any(hasattr(groups_module, name) for name in SEARCH_NAMES)
    rows = {row["label"]: row for row in _load_bundled()}
    cat = build_catalog(2, 16)
    for label in ("C2^2:C4", "C4oD8", "C4:C4", "Q8xC2"):
        row = rows[label]
        # a fresh copy of the row, so the catalog entry's caches are unused
        P = PermGroup(row["degree"], [[v - 1 for v in g]
                                      for g in row["generators"]])
        assert cat.label(cat.index_of_isomorphic(P)) == label


def test_tied_catalog_entries_resolve_without_a_search():
    """An entry looked up by itself is found by its fingerprint, as
    verify's p-group indicator suite looks up each entry of the
    catalog."""
    assert not any(hasattr(groups_module, name) for name in SEARCH_NAMES)
    cat = build_catalog(2, 16)
    for label in ("C2^2:C4", "C4oD8", "C4:C4", "Q8xC2"):
        i = cat.labels.index(label)
        assert cat.index_of_isomorphic(cat.group(i)) == i


def test_fingerprint_separates_every_catalog_class():
    """No two entries of one order share a fingerprint, in the default
    catalogs and up to order p^3 at p = 2, 3, 5 and 7; without the
    p-th-root counts, element orders and class sizes would tie two pairs
    of order 16."""
    for p in (2, 3, 5, 7):
        for max_order in (None, p ** 3):
            cat = build_catalog(p, max_order)
            seen = {}
            for i in range(len(cat)):
                G = cat.group(i)
                key = (G.order, _fingerprint(G))
                assert key not in seen, (seen.get(key), cat.label(i))
                seen[key] = cat.label(i)
    cat = build_catalog(2)
    for a, b in TIED_BEFORE_ROOT_COUNTS:
        P, Q = (cat.group(cat.labels.index(x)) for x in (a, b))
        assert _fingerprint(P)[:2] == _fingerprint(Q)[:2]
        assert _fingerprint(P) != _fingerprint(Q)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stated_order_p_cubed_embeddings_match_the_search(p):
    """The embeddings stated for the generated groups of order at most
    p^3 are the ones embeds_into finds."""
    cat = build_catalog(p, p ** 3)
    assert len(cat) == 9
    groups = [cat.group(i) for i in range(len(cat))]
    assert cat.embed == [[embeds_into(P, Q) for Q in groups] for P in groups]


def test_stated_bundled_embeddings_match_the_search():
    """The embeddings the bundled rows state are the ones embeds_into
    finds, over the whole 23-entry catalog at p = 2."""
    cat = build_catalog(2, 16)
    assert len(cat) == 23
    groups = [cat.group(i) for i in range(len(cat))]
    assert cat.embed == [[embeds_into(P, Q) for Q in groups] for P in groups]


@pytest.mark.parametrize("p", [2, 3])
def test_generated_order_p_cubed_groups_match_the_former_rows(p):
    """At p = 2 and 3 the builder gives the degrees and generators of the
    rows of order p^3 the bundled table used to hold."""
    former = {
        2: [("C8", 8, [[2, 3, 4, 5, 6, 7, 8, 1]]),
            ("C4xC2", 6, [[2, 3, 4, 1, 5, 6], [1, 2, 3, 4, 6, 5]]),
            ("C2^3", 6, [[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6],
                         [1, 2, 3, 4, 6, 5]]),
            ("D8", 4, [[2, 3, 4, 1], [1, 4, 3, 2]]),
            ("Q8", 8, [[3, 4, 2, 1, 8, 7, 5, 6], [5, 6, 7, 8, 2, 1, 4, 3]])],
        3: [("C27", 27, [list(range(2, 28)) + [1]]),
            ("C9xC3", 12, [[2, 3, 4, 5, 6, 7, 8, 9, 1, 10, 11, 12],
                           [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 10]]),
            ("C3^3", 9, [[2, 3, 1, 4, 5, 6, 7, 8, 9],
                         [1, 2, 3, 5, 6, 4, 7, 8, 9],
                         [1, 2, 3, 4, 5, 6, 8, 9, 7]]),
            ("He3", 9, [[4, 5, 6, 7, 8, 9, 1, 2, 3],
                        [1, 2, 3, 5, 6, 4, 9, 7, 8]]),
            ("C9:C3", 9, [[2, 3, 4, 5, 6, 7, 8, 9, 1],
                          [1, 5, 9, 4, 8, 3, 7, 2, 6]])],
    }[p]
    cat = build_catalog(p, p ** 3)
    for i, (label, degree, gens) in enumerate(former, start=4):
        G = cat.group(i)
        assert (cat.label(i), G.degree) == (label, degree)
        assert [[v + 1 for v in g] for g in G.gens] == gens


def test_lattice_builds_no_group(monkeypatch):
    """A lattice reads labels, orders and stated embeddings only: at
    p = 71 it builds no permutation group, not even C_{p^2} on p^2
    points."""
    built = []
    real = PermGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    _cached_catalog.cache_clear()
    monkeypatch.setattr(PermGroup, "__init__", counted)
    report = lattice_report(71)
    assert [e["order"] for e in report["entries"]] == [1, 71, 5041, 5041]
    assert built == []


def test_catalog_builds_no_group(monkeypatch):
    """Every embedding is stated, so building the default p = 2 catalog,
    bundled rows included, constructs no permutation group."""
    assert not any(hasattr(groups_module, name) for name in SEARCH_NAMES)
    built = []
    real = PermGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    _cached_catalog.cache_clear()
    monkeypatch.setattr(PermGroup, "__init__", counted)
    cat = build_catalog(2)
    assert build_catalog(2, 16) is cat
    assert (len(cat), built) == (23, [])


def test_catalog_deterministic():
    a = _cached_catalog.__wrapped__(2, 8)
    b = _cached_catalog.__wrapped__(2, 8)
    assert a.labels == b.labels
    assert a.embed == b.embed
    assert ([a.group(i).elements for i in range(len(a))]
            == [b.group(i).elements for i in range(len(b))])
