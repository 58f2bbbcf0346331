import json

import pytest

from repring.catalog import (
    ClosedSet,
    _cached_catalog,
    build_catalog,
    catalog_from_dataset,
    enumerate_closed_sets,
    is_completely_prime,
    lattice_ops,
)
from repring.errors import (
    CatalogMismatch,
    DatasetMissing,
    EnumerationBoundExceeded,
    ValidationFailed,
)
from repring.groups import alternating_group, cyclic_group, symmetric_group


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
    with pytest.raises(DatasetMissing):
        build_catalog(7, 7)


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


def test_validation_catches_corruption():
    good = [
        {"p": 2, "order": 1, "label": "1", "degree": 1, "generators": []},
        {"p": 2, "order": 2, "label": "C2", "degree": 2, "generators": [[2, 1]]},
        {"p": 2, "order": 4, "label": "C4", "degree": 4,
         "generators": [[2, 3, 4, 1]]},
    ]
    cat = catalog_from_dataset(2, 4, good)
    assert cat.labels == ["1", "C2", "C4"]

    dup = good + [{"p": 2, "order": 4, "label": "C4again", "degree": 4,
                   "generators": [[4, 1, 2, 3]]}]
    with pytest.raises(ValidationFailed):
        catalog_from_dataset(2, 4, dup)

    bad_order = good + [{"p": 2, "order": 6, "label": "C6", "degree": 6,
                         "generators": [[2, 3, 4, 5, 6, 1]]}]
    with pytest.raises(ValidationFailed):
        catalog_from_dataset(2, 8, bad_order)

    no_trivial = good[1:]
    with pytest.raises(ValidationFailed):
        catalog_from_dataset(2, 4, no_trivial)


def test_catalog_deterministic():
    a = _cached_catalog.__wrapped__(2, 8)
    b = _cached_catalog.__wrapped__(2, 8)
    assert a.labels == b.labels
    assert a.embed == b.embed
    assert [g.elements for _, g in a.entries] == [g.elements for _, g in b.entries]
