from fractions import Fraction
from math import log2

import pytest
from hypothesis import assume, given, settings, strategies as st

from repring.brauer import induce_class_function
from repring.catalog import build_catalog
from repring.errors import (
    ElementNotInGroup,
    InvalidGroupSpec,
    MalformedPermutation,
    NotSubgroup,
    OrderBoundExceeded,
)
from repring.groups import (
    PermGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    is_p_power,
    p_part,
    parse_group_spec,
    perm_inv,
    perm_mul,
    perm_order,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from repring.verify import DEFAULT_CORPUS

from cyclo_reference import RefCyc
from group_reference import (
    ISO_ORDER_BOUND,
    NotNormal,
    center,
    embeds_into,
    is_isomorphic,
    quotient_group,
)


def test_perm_primitives():
    a = (1, 2, 0)
    b = (1, 0, 2)
    # apply a first, then b
    assert perm_mul(a, b) == (0, 2, 1)
    assert perm_inv(a) == (2, 0, 1)
    assert perm_order(a) == 3
    assert p_part(24, 2) == 8
    assert is_p_power(27, 3)
    assert not is_p_power(12, 2)


def test_builder_orders():
    assert trivial_group().order == 1
    assert cyclic_group(6).order == 6
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert dihedral_group(8).order == 8
    assert quaternion_group().order == 8
    assert direct_product(symmetric_group(3), cyclic_group(2)).order == 12


def test_quaternion_relations():
    Q = quaternion_group()
    i, j = Q.gens
    assert perm_order(i) == 4 and perm_order(j) == 4
    i2 = perm_mul(i, i)
    assert i2 == perm_mul(j, j)  # i^2 = j^2 = -1
    assert perm_order(i2) == 2
    # j^-1 i j = i^-1
    assert Q.conjugate(i, j) == perm_inv(i)
    orders = sorted(perm_order(g) for g in Q.elements)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_words_evaluate_to_elements():
    G = symmetric_group(4)
    for e, w in G.words.items():
        acc = G.identity
        for t in w:
            acc = perm_mul(acc, G.gens[t])
        assert acc == e


def test_s3_classes():
    G = symmetric_group(3)
    classes = G.conjugacy_classes()
    assert [perm_order(c[0]) for c in classes] == [1, 2, 3]
    assert [len(c) for c in classes] == [1, 3, 2]
    assert G.p_regular_classes(2) == [0, 2]
    assert G.p_regular_classes(3) == [0, 1]
    assert G.p_regular_classes(5) == [0, 1, 2]


def test_s4_classes_and_order():
    G = symmetric_group(4)
    classes = G.conjugacy_classes()
    assert [(perm_order(c[0]), len(c)) for c in classes] == [
        (1, 1), (2, 3), (2, 6), (3, 8), (4, 6)]
    # 2-regular: identity and 3-cycles
    assert G.p_regular_classes(2) == [0, 3]


def test_class_order_is_deterministic():
    a = symmetric_group(4).conjugacy_classes()
    b = symmetric_group(4).conjugacy_classes()
    assert a == b


def test_inverse_class_map():
    C3 = cyclic_group(3)
    m = C3.inverse_class_map()
    assert m[0] == 0
    assert sorted(m[1:]) == [1, 2] and m[1] == 2
    # in S3 every element is conjugate to its inverse
    assert symmetric_group(3).inverse_class_map() == [0, 1, 2]


def test_centralizers():
    G = symmetric_group(4)
    three_cycle = G.conjugacy_classes()[3][0]
    assert G.centralizer(three_cycle).order == 3
    transposition = G.conjugacy_classes()[2][0]
    assert G.centralizer(transposition).order == 4
    assert G.centralizer(G.identity).order == 24
    assert center(G).order == 1
    assert center(quaternion_group()).order == 2


@pytest.mark.parametrize("make,outside", [
    (lambda: symmetric_group(4), (0, 1, 2, 3, 4)),  # wrong degree
    (lambda: alternating_group(5), (1, 0, 2, 3, 4)),  # odd
], ids=["S4", "A5"])
def test_class_index_of_matches_scan(make, outside):
    G = make()
    classes = G.conjugacy_classes()
    for x in G.elements:
        scan = next(i for i, c in enumerate(classes) if x in c)
        assert G.class_index_of(x) == scan
    with pytest.raises(ElementNotInGroup):
        G.class_index_of(outside)


def test_sylow_subgroups():
    G = symmetric_group(4)
    P2 = G.sylow_subgroup(2)
    assert P2.order == 8
    assert is_isomorphic(P2, dihedral_group(8))
    P3 = G.sylow_subgroup(3)
    assert P3.order == 3
    # determinism: same subgroup both times
    assert G.sylow_subgroup(2).elements == P2.elements
    A = alternating_group(4)
    assert A.sylow_subgroup(2).order == 4
    assert trivial_group().sylow_subgroup(2).order == 1


def test_sylow_of_p_group_is_whole():
    D = dihedral_group(8)
    assert D.sylow_subgroup(2).order == 8


def test_central_centralizer_builds_no_group(monkeypatch):
    D = dihedral_group(8)
    G = direct_product(symmetric_group(3), cyclic_group(2))
    central = [(D, D.identity), (D, center(D).elements[1]),
               (G, G.identity), (G, center(G).elements[1])]

    def no_group(*args, **kwargs):
        raise AssertionError("PermGroup built")

    monkeypatch.setattr(PermGroup, "__init__", no_group)
    for H, z in central:
        assert H.centralizer(z) is H


def test_sylow_of_p_group_is_the_group_and_is_kept():
    for H in (dihedral_group(8), quaternion_group(), cyclic_group(9),
              trivial_group()):
        p = 3 if H.order == 9 else 2
        assert H.sylow_subgroup(p) is H
    G = symmetric_group(4)
    assert G.sylow_subgroup(2) is G.sylow_subgroup(2)
    assert G.sylow_subgroup(3) is G.sylow_subgroup(3)
    assert G.sylow_subgroup(2) is not G.sylow_subgroup(3)


def test_quotients():
    G = symmetric_group(4)
    v4_elements = [G.identity] + list(G.conjugacy_classes()[1])
    V4 = PermGroup.from_elements(G.degree, v4_elements)
    Q, proj = quotient_group(G, V4)
    assert Q.order == 6
    assert is_isomorphic(Q, symmetric_group(3))
    # projection is a homomorphism
    els = G.elements[::5]
    for a in els:
        for b in els:
            assert proj[perm_mul(a, b)] == perm_mul(proj[a], proj[b])

    Q8 = quaternion_group()
    Q2, _ = quotient_group(Q8, center(Q8))
    assert is_isomorphic(Q2, parse_group_spec("C2xC2"))


def test_quotient_shortcuts():
    G = symmetric_group(3)
    same, proj = quotient_group(G, trivial_group_in(G))
    assert same is G
    assert proj[G.gens[0]] == G.gens[0]
    T, proj_all = quotient_group(G, G)
    assert T.order == 1
    assert proj_all[G.gens[0]] == (0,)


def trivial_group_in(G):
    return PermGroup.from_elements(G.degree, [G.identity])


def test_quotient_rejects_non_normal():
    G = symmetric_group(3)
    C2 = G.generated_subgroup([G.conjugacy_classes()[1][0]])
    with pytest.raises(NotNormal):
        quotient_group(G, C2)


def test_isomorphism_positive():
    assert is_isomorphic(cyclic_group(6),
                         direct_product(cyclic_group(2), cyclic_group(3)))
    assert is_isomorphic(dihedral_group(6), symmetric_group(3))
    assert is_isomorphic(quaternion_group(), quaternion_group())


def test_isomorphism_negative():
    assert not is_isomorphic(dihedral_group(8), quaternion_group())
    assert not is_isomorphic(cyclic_group(8),
                             direct_product(cyclic_group(4), cyclic_group(2)))
    assert not is_isomorphic(cyclic_group(4), cyclic_group(8))
    # same order multiset, non-isomorphic: C4xC4 vs the modular group of
    # order 16 would need catalog data; at this level test D8xC2 vs Q8xC2
    assert not is_isomorphic(direct_product(dihedral_group(8), cyclic_group(2)),
                             direct_product(quaternion_group(), cyclic_group(2)))


def test_embeddings():
    D8 = dihedral_group(8)
    Q8 = quaternion_group()
    C4 = cyclic_group(4)
    V4 = parse_group_spec("C2xC2")
    assert embeds_into(C4, D8)
    assert embeds_into(C4, Q8)
    assert embeds_into(V4, D8)
    assert not embeds_into(V4, Q8)  # Q8 has a single involution
    assert embeds_into(D8, symmetric_group(4))
    assert not embeds_into(Q8, symmetric_group(4))
    assert embeds_into(trivial_group(), Q8)
    assert not embeds_into(cyclic_group(3), D8)


def test_parse_group_spec():
    assert parse_group_spec("S4").order == 24
    assert parse_group_spec("C1").order == 1
    assert parse_group_spec("D8").name == "D8"
    assert parse_group_spec("Q8").order == 8
    assert parse_group_spec("C2xC2xC2").order == 8
    g = parse_group_spec('{"degree": 3, "generators": [[2, 3, 1]], "name": "rot"}')
    assert g.order == 3 and g.name == "rot"
    g2 = parse_group_spec({"degree": 2, "generators": [[2, 1]]})
    assert g2.order == 2
    with pytest.raises(InvalidGroupSpec):
        parse_group_spec("E8")
    with pytest.raises(InvalidGroupSpec):
        parse_group_spec("D7")
    with pytest.raises(MalformedPermutation):
        parse_group_spec({"degree": 3, "generators": [[1, 1, 2]]})


def test_named_builders_check_the_order_bound_first(monkeypatch):
    """A named group past ORDER_BOUND raises before any of its elements
    is enumerated; one of order exactly ORDER_BOUND is still built."""
    monkeypatch.setattr("repring.groups.ORDER_BOUND", 24)
    assert symmetric_group(4).order == 24
    C5 = cyclic_group(5)

    def no_closure(self):
        raise AssertionError(f"closure of a group on {self.degree} points")

    monkeypatch.setattr(PermGroup, "_closure", no_closure)
    for build in (lambda: cyclic_group(25), lambda: dihedral_group(26),
                  lambda: symmetric_group(5), lambda: alternating_group(6),
                  lambda: direct_product(C5, C5),
                  lambda: parse_group_spec("S100000")):
        with pytest.raises(OrderBoundExceeded):
            build()


def test_product_spec_checks_the_order_bound_first(monkeypatch):
    """A product spec past ORDER_BOUND raises before any factor is built,
    and a factorial factor stops growing once it passes the bound."""
    def no_closure(self):
        raise AssertionError(f"closure of a group on {self.degree} points")

    monkeypatch.setattr(PermGroup, "_closure", no_closure)
    for spec in ("C2000xC2000", "C4000xC4000", "S7xS4", "A8xC2xQ8",
                 "C2xS1000000000"):
        with pytest.raises(OrderBoundExceeded):
            parse_group_spec(spec)


@pytest.mark.parametrize("degree", [-1, 0, 2.5, True, "3", None])
def test_degree_must_be_a_positive_int(degree):
    with pytest.raises(InvalidGroupSpec):
        PermGroup(degree, [])
    with pytest.raises(InvalidGroupSpec):
        parse_group_spec({"degree": degree, "generators": []})


def test_element_membership_errors():
    G = cyclic_group(3)
    assert (1, 2, 0) in G
    assert (1, 0, 2) not in G
    with pytest.raises(ElementNotInGroup):
        G.class_index_of((1, 0, 2))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_generated_subgroup_satisfies_lagrange(data):
    G = symmetric_group(4)
    k = data.draw(st.integers(min_value=1, max_value=3))
    gens = [data.draw(st.sampled_from(G.elements)) for _ in range(k)]
    H = G.generated_subgroup(gens)
    assert G.order % H.order == 0
    for e in H.elements:
        assert e in G


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_class_sizes_divide_order(data):
    G = data.draw(st.sampled_from([
        symmetric_group(4), alternating_group(4), dihedral_group(8),
        quaternion_group(), cyclic_group(6)]))
    total = 0
    for c in G.conjugacy_classes():
        assert G.order % len(c) == 0
        total += len(c)
        # class size * centralizer size = group order
        assert len(c) * G.centralizer(c[0]).order == G.order
    assert total == G.order


# -- isomorphism and embedding properties ---------------------------------

@st.composite
def small_groups(draw):
    """Groups on at most 6 points small enough for isomorphism tests."""
    n = draw(st.integers(min_value=1, max_value=6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    G = PermGroup(n, [tuple(g) for g in gens])
    assume(G.order <= ISO_ORDER_BOUND)
    return G


def relabel(G, sigma):
    """G with each point i renamed sigma[i]."""
    inv = perm_inv(sigma)
    return PermGroup(G.degree,
                     [perm_mul(perm_mul(inv, g), sigma) for g in G.gens])


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.data())
def test_isomorphic_to_relabelled_copy(G, data):
    sigma = tuple(data.draw(st.permutations(range(G.degree))))
    H = relabel(G, sigma)
    assert H.order == G.order
    assert is_isomorphic(G, H) and is_isomorphic(H, G)


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.data())
def test_generated_subgroups_embed(G, data):
    gens = data.draw(st.lists(st.sampled_from(G.elements), max_size=3))
    sigma = tuple(data.draw(st.permutations(range(G.degree))))
    H = G.generated_subgroup(gens)
    assert embeds_into(H, G)
    assert embeds_into(relabel(H, sigma), G)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_isomorphism_is_symmetric_on_catalog_buckets(data):
    cat = build_catalog(data.draw(st.sampled_from((2, 3, 5, 7))))
    copies = [relabel(G, tuple(data.draw(st.permutations(range(G.degree)))))
              for G in map(cat.group, range(len(cat)))]
    for i, A in enumerate(copies):
        for j in range(len(cat)):
            B = cat.group(j)
            if A.order == B.order:
                assert is_isomorphic(A, B) == is_isomorphic(B, A) == (i == j)


# -- the group stage against direct |G|^2 algorithms ---------------------
#
# Each reference below is the direct algorithm, kept as an oracle:
# classes and induction by conjugating with every element of G, element
# orders by repeated multiplication, centralizers and Sylow joins closed
# from all of their elements.

def equivalence_corpus():
    """(id, group): the default verify corpus, A5, S5 and every group of
    the p = 2 and p = 3 catalogs."""
    out = [(spec, parse_group_spec(spec)) for spec in DEFAULT_CORPUS]
    out += [("A5", alternating_group(5)), ("S5", symmetric_group(5))]
    for p in (2, 3):
        cat = build_catalog(p)
        out += [(f"p{p}-{cat.label(i)}", cat.group(i))
                for i in range(len(cat))]
    return out


CORPUS = equivalence_corpus()
over_corpus = pytest.mark.parametrize(
    "G", [G for _, G in CORPUS], ids=[name for name, _ in CORPUS])


def order_by_powers(a):
    n, x = 1, a
    while x != tuple(range(len(a))):
        x = perm_mul(x, a)
        n += 1
    return n


def classes_by_scan(G):
    seen, classes = set(), []
    for x in G.elements:
        if x in seen:
            continue
        orbit = {G.conjugate(x, g) for g in G.elements}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (order_by_powers(c[0]), len(c), c[0]))
    return classes


def closed_from_all_elements(degree, elements):
    return PermGroup(degree, sorted(set(elements)))


def sylow_by_element_joins(G, p):
    target = p_part(G.order, p)
    current = closed_from_all_elements(G.degree, [G.identity])
    while current.order < target:
        for x in G.elements:
            if x in current or not is_p_power(order_by_powers(x), p):
                continue
            join = closed_from_all_elements(
                G.degree, list(current.elements) + [x])
            if is_p_power(join.order, p):
                current = join
                break
    return current


def induce_by_conjugation(G, H, values, class_indices=None):
    classes = G.conjugacy_classes()
    if class_indices is None:
        class_indices = range(len(classes))
    hset = set(H.elements)
    out = []
    for ci in class_indices:
        g = classes[ci][0]
        total = 0
        for t in G.elements:
            u = G.conjugate(g, t)
            if u in hset:
                total = total + values[u]
        out.append(total * Fraction(1, H.order))
    return out


@over_corpus
def test_classes_match_scan_over_all_conjugations(G):
    assert G.conjugacy_classes() == classes_by_scan(G)


@over_corpus
def test_perm_order_matches_repeated_multiplication(G):
    for x in G.elements:
        assert perm_order(x) == order_by_powers(x)


@over_corpus
def test_centralizer_order_matches_centralizer(G):
    for c in G.conjugacy_classes():
        x = c[-1]  # not the class's first element, which the classes key on
        C = G.centralizer(x)
        assert G.centralizer_order(x) == len(C.elements)
        assert C.elements == closed_from_all_elements(
            G.degree, [g for g in G.elements
                       if perm_mul(g, x) == perm_mul(x, g)]).elements
        # each greedy generator at least doubles the span
        assert len(C.gens) <= log2(C.order)


@over_corpus
def test_sylow_matches_joins_of_all_elements(G):
    for p in (2, 3, 5):
        assert G.sylow_subgroup(p).elements == \
            sylow_by_element_joins(G, p).elements


@over_corpus
def test_induction_matches_sum_over_all_conjugators(G):
    classes = G.conjugacy_classes()
    subgroups = [G.sylow_subgroup(2), G.sylow_subgroup(3)]
    subgroups += [G.generated_subgroup([c[0]]) for c in classes]
    regular = G.p_regular_classes(2)
    for H in subgroups:
        # any function on H induces by the same formula, class function
        # or not, so the values depend on the element's position too
        values = {h: RefCyc.zeta(perm_order(h), i) + i
                  for i, h in enumerate(H.elements)}
        assert induce_class_function(G, H, values) == \
            induce_by_conjugation(G, H, values)
        # with class_indices, values only needs those classes' elements
        wanted = {y for ci in regular for y in classes[ci]}
        some = {h: v for h, v in values.items() if h in wanted}
        assert induce_class_function(G, H, some, class_indices=regular) == \
            induce_by_conjugation(G, H, some, class_indices=regular)


@pytest.mark.parametrize("make, spec", [
    (lambda G: [G.identity, G.conjugacy_classes()[3][0]], "S4"),
    (lambda G: [g for g in G.elements if g != G.gens[0]], "S4"),
    (lambda G: [g for g in G.elements if g != G.identity], "A4"),
    (lambda G: list(G.conjugacy_classes()[1]), "A4"),
    (lambda G: [G.identity] + list(G.conjugacy_classes()[-1]), "S5"),
], ids=["identity-and-3-cycle", "S4-minus-a-generator", "no-identity",
        "class-of-involutions", "identity-and-5-cycles"])
def test_from_elements_rejects_sets_that_are_not_closed(make, spec):
    G = parse_group_spec(spec)
    with pytest.raises(NotSubgroup):
        PermGroup.from_elements(G.degree, make(G))


# -- known answers that needed the |G|^2 loops gone ----------------------

def test_a7_p7_defect_labels():
    """A Sylow 7-subgroup of A7 is C7 and is self-centralizing, so only
    the identity's centralizer has 7 in its order."""
    G = alternating_group(7)
    cat = build_catalog(7)
    classes = G.conjugacy_classes()
    labels = []
    for ci in G.p_regular_classes(7):
        R = G.centralizer(classes[ci][0]).sylow_subgroup(7)
        labels.append(cat.label(cat.index_of_isomorphic(R)))
    assert labels == ["C7"] + ["1"] * 6
