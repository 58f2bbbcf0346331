import pytest
from hypothesis import assume, given, settings, strategies as st

from repring.catalog import build_catalog
from repring.config import ISO_ORDER_BOUND
from repring.errors import (
    ElementNotInGroup,
    InvalidGroupSpec,
    MalformedPermutation,
    NotNormal,
)
from repring.groups import (
    PermGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    embeds_into,
    is_isomorphic,
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
    assert G.center().order == 1
    assert quaternion_group().center().order == 2


def test_derived_subgroups():
    assert symmetric_group(4).derived_subgroup().order == 12
    assert alternating_group(4).derived_subgroup().order == 4
    assert cyclic_group(6).derived_subgroup().order == 1


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


def test_quotients():
    G = symmetric_group(4)
    v4_elements = [G.identity] + list(G.conjugacy_classes()[1])
    V4 = G.subgroup(v4_elements)
    Q, proj = G.quotient_group(V4)
    assert Q.order == 6
    assert is_isomorphic(Q, symmetric_group(3))
    # projection is a homomorphism
    els = G.elements[::5]
    for a in els:
        for b in els:
            assert proj[perm_mul(a, b)] == perm_mul(proj[a], proj[b])

    Q8 = quaternion_group()
    Z = Q8.center()
    Q2, _ = Q8.quotient_group(Z)
    assert is_isomorphic(Q2, parse_group_spec("C2xC2"))


def test_quotient_shortcuts():
    G = symmetric_group(3)
    same, proj = G.quotient_group(trivial_group_in(G))
    assert same is G
    assert proj[G.gens[0]] == G.gens[0]
    T, proj_all = G.quotient_group(G)
    assert T.order == 1
    assert proj_all[G.gens[0]] == (0,)


def trivial_group_in(G):
    return PermGroup.from_elements(G.degree, [G.identity])


def test_quotient_rejects_non_normal():
    G = symmetric_group(3)
    C2 = G.generated_subgroup([G.conjugacy_classes()[1][0]])
    with pytest.raises(NotNormal):
        G.quotient_group(C2)


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
    with pytest.raises(Exception):
        G.index_of((1, 0, 2))


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


def derived_by_all_commutators(G):
    """G' by definition: generated by the |G|^2 commutators."""
    comms = {perm_mul(perm_inv(perm_mul(b, a)), perm_mul(a, b))
             for a in G.elements for b in G.elements}
    return G.generated_subgroup(sorted(comms))


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_derived_subgroup_is_normal_closure(G):
    assert G.derived_subgroup().elements == \
        derived_by_all_commutators(G).elements


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

