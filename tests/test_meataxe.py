import random

import pytest

from repring.errors import ChopStalled, MalformedModule
from repring.gf import gf_field
from repring.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from repring.linalg import gf_identity, gf_matmul
from repring.meataxe import (
    Module,
    chop,
    chop_regular,
    quotient_action,
    regular_module,
    spin,
    standard_form,
    submodule_action,
)


def dims_with_counts(G, F, seed=1):
    reps, counts = chop_regular(G, F, seed)
    return sorted((r.dim, c) for r, c in zip(reps, counts))


def test_s3_mod2_factors():
    # k(S3) over F4: trivial and a 2-dim simple, each twice
    assert dims_with_counts(symmetric_group(3), gf_field(2, 2)) == \
        [(1, 2), (2, 2)]


def test_s3_mod3_factors():
    assert dims_with_counts(symmetric_group(3), gf_field(3, 1)) == \
        [(1, 3), (1, 3)]


def test_s4_mod2_factors():
    assert dims_with_counts(symmetric_group(4), gf_field(2, 2)) == \
        [(1, 8), (2, 8)]


def test_s4_mod3_factors():
    assert dims_with_counts(symmetric_group(4), gf_field(3, 2)) == \
        [(1, 3), (1, 3), (3, 3), (3, 3)]


def test_a4_mod2_three_linears():
    # three pairwise non-isomorphic one-dimensional simples
    assert dims_with_counts(alternating_group(4), gf_field(2, 2)) == \
        [(1, 4), (1, 4), (1, 4)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_p_single_trivial(p):
    assert dims_with_counts(cyclic_group(p), gf_field(p, 1)) == [(1, p)]


@pytest.mark.parametrize("make", [lambda: dihedral_group(8),
                                  quaternion_group,
                                  lambda: cyclic_group(8)])
def test_2group_single_simple(make):
    assert dims_with_counts(make(), gf_field(2, 1)) == [(1, 8)]


def test_trivial_group():
    assert dims_with_counts(trivial_group(), gf_field(3, 1)) == [(1, 1)]


def test_coprime_order_multiplicity_matches_dimension():
    # p does not divide |C7|, so k(C7) over F8 is a sum of 7 linears
    assert dims_with_counts(cyclic_group(7), gf_field(2, 3)) == [(1, 1)] * 7


def test_dimension_count_conserved():
    for G, F in [(symmetric_group(4), gf_field(2, 2)),
                 (direct_product(symmetric_group(3), cyclic_group(2)),
                  gf_field(2, 1)),
                 (alternating_group(4), gf_field(3, 1))]:
        reps, counts = chop_regular(G, F, 1)
        assert sum(r.dim * c for r, c in zip(reps, counts)) == G.order


def test_representation_is_homomorphism():
    G = symmetric_group(3)
    F = gf_field(2, 2)
    reps, _ = chop_regular(G, F, 1)
    V = next(r for r in reps if r.dim == 2)
    for a in G.elements:
        for b in G.elements:
            lhs = gf_matmul(F, V.element_matrix(G, a), V.element_matrix(G, b))
            rhs = V.element_matrix(G, G.mul(a, b))
            assert [list(r) for r in lhs] == [list(r) for r in rhs]


def test_identity_matrix_on_identity_element():
    G = symmetric_group(4)
    F = gf_field(3, 2)
    reps, _ = chop_regular(G, F, 1)
    ident = G.elements[G.index_of(tuple(range(4)))]
    for r in reps:
        assert r.element_matrix(G, ident) == gf_identity(r.dim)


def test_same_seed_identical_output():
    G = symmetric_group(4)
    F = gf_field(2, 2)
    a = chop_regular(G, F, 7)
    b = chop_regular(G, F, 7)
    assert a[1] == b[1]
    assert all(x.mats == y.mats for x, y in zip(a[0], b[0]))


@pytest.mark.parametrize("seed", [1, 2, 17, 123])
def test_dims_stable_across_seeds(seed):
    G = symmetric_group(4)
    F = gf_field(2, 2)
    reps, counts = chop_regular(G, F, seed)
    assert sorted((r.dim, c) for r, c in zip(reps, counts)) == \
        [(1, 8), (2, 8)]


def test_chop_returns_irreducible_input():
    G = symmetric_group(3)
    F = gf_field(2, 2)
    reps, _ = chop_regular(G, F, 1)
    V = next(r for r in reps if r.dim == 2)
    rng = random.Random("direct")
    out = chop(V, rng)
    assert len(out) == 1 and out[0].dim == 2


def test_spin_socle_of_cyclic_group():
    # the all-ones vector spans the socle of the regular module of C4
    G = cyclic_group(4)
    F = gf_field(2, 1)
    M = regular_module(G, F)
    ech, basis = spin(F, [[1, 1, 1, 1]], M.mats, 4)
    assert ech.rows == [[1, 1, 1, 1]] and ech.pivots == [0]
    assert basis == [[1, 1, 1, 1]]
    sub = submodule_action(M, ech)
    assert sub.dim == 1 and sub.mats == [((1,),)]
    quot = quotient_action(M, ech)
    assert quot.dim == 3


def test_spin_of_basis_vector_is_full():
    # a group element is a unit, so it spins to the whole algebra
    G = cyclic_group(4)
    F = gf_field(2, 1)
    M = regular_module(G, F)
    ech, basis = spin(F, [[1, 0, 0, 0]], M.mats, 4)
    assert len(ech) == 4 and ech.pivots == [0, 1, 2, 3]
    # the spanning vectors are the raw images, breadth-first: g^0..g^3
    assert sorted(basis, reverse=True) == [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, 1]]


def test_standard_form_separates_a4_linears():
    G = alternating_group(4)
    F = gf_field(2, 2)
    reps, _ = chop_regular(G, F, 1)
    assert len(reps) == 3
    # a 3-cycle acts on the three linears by the three cube roots of
    # unity in F4, which are exactly the codes 1, 2, 3
    x = G.gens[0]
    vals = {r.element_matrix(G, x)[0][0] for r in reps}
    assert vals == {1, 2, 3}


def test_nonsplitting_field_stalls_identification():
    # over F2 the two 3-dim factors of k(C7) have endomorphism ring F8,
    # so no algebra element has a 1-dim eigenspace
    with pytest.raises(ChopStalled):
        chop_regular(cyclic_group(7), gf_field(2, 1), 1)


def test_quotient_action_is_representation():
    G = symmetric_group(3)
    F = gf_field(3, 1)
    M = regular_module(G, F)
    ech, _ = spin(F, [[1] * 6], M.mats, 6)
    quot = quotient_action(M, ech)
    for i, a in enumerate(G.gens):
        for j, b in enumerate(G.gens):
            lhs = gf_matmul(F, quot.mats[i], quot.mats[j])
            rhs = quot.word_matrix((i, j))
            assert [list(r) for r in lhs] == [list(r) for r in rhs]


def test_standard_form_none_when_eigenspace_too_big():
    # identity recipe on a 2-dim module has a 2-dim eigenspace
    G = symmetric_group(3)
    F = gf_field(2, 2)
    reps, _ = chop_regular(G, F, 1)
    V = next(r for r in reps if r.dim == 2)
    assert standard_form(V, [(1, ())], 1) is None


def test_module_rejects_bad_shapes():
    F = gf_field(2, 1)
    with pytest.raises(MalformedModule):
        Module(F, 2, [[[1, 0]]])
