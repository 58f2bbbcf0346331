import random
import sys
from fractions import Fraction

import pytest

from repring import brauer, linalg
from repring.brauer import (
    BrauerData,
    _block_idempotents,
    _phi_sort_key,
    _phi_value,
    _regular_algebra,
    cartan_via_endomorphisms,
    induce_class_function,
    splitting_field,
)
from repring.cyclo import root_product, value_json
from repring.catalog import build_catalog
from repring.config import CHOP_RESEEDS
from repring import defects
from repring.defects import (
    _u_basis,
    cartan_image_basis,
    defect_classification,
)
from repring.errors import (
    ChopStalled,
    InvariantViolated,
    NonIntegralCartan,
    NonIntegralDecomposition,
    NonSplitCharPoly,
    NotSubgroup,
    SingularPhi,
)
from repring.gf import gf_field
from repring.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group_spec,
    perm_mul,
    perm_order,
    quaternion_group,
    symmetric_group,
)
from repring.lift import BrauerLift
from repring.linalg import (
    gf_charpoly,
    gf_mat_inv,
    gf_matmul,
    gf_rank,
    gf_vec_mat,
)
from repring.meataxe import (
    Module,
    chop,
    natural_module,
    simple_modules,
    tensor_product,
)
from repring.verify import DEFAULT_CORPUS
from cyclo_reference import (
    CYC,
    RefCyc,
    cyc_row,
    cyc_rows,
    decompose_by_dense_dot,
    dot,
    dual_table,
    mul,
)
from meataxe_reference import find_id_recipe, standard_form
from test_defects import GOLDEN_ANALYZE


def rational_rows(bd, rows):
    """Rows of root counts as rationals, None where irrational."""
    return [[RefCyc.from_counts(bd.m, c).as_rational() for c in row]
            for row in rows]


def test_splitting_fields():
    cases = [
        (symmetric_group(3), 2, (2, 2), 3),
        (symmetric_group(3), 3, (3, 1), 2),
        (symmetric_group(4), 2, (2, 2), 3),
        (symmetric_group(4), 3, (3, 2), 4),
        (cyclic_group(7), 2, (2, 3), 7),
        (cyclic_group(5), 5, (5, 1), 1),
        (symmetric_group(3), 5, (5, 2), 6),
    ]
    for G, p, (ep, ed), em in cases:
        F, lift, m = splitting_field(G, p)
        assert (F.p, F.d) == (ep, ed)
        assert m == em
        assert lift.root_codes[0] == 1


def test_s3_mod2_tables():
    bd = BrauerData(symmetric_group(3), 2)
    assert [s.dim for s in bd.simples] == [1, 2]
    assert rational_rows(bd, bd.phi_counts) == [[1, 1], [2, -1]]
    assert rational_rows(bd, bd.Phi_counts) == [[2, 2], [2, -1]]
    assert bd.cartan == ((2, 0), (0, 1))
    assert bd.elementary_divisors() == (1, 2)
    assert sorted(bd.centralizer_p_parts()) == [1, 2]


def test_s3_mod3_tables():
    bd = BrauerData(symmetric_group(3), 3)
    assert rational_rows(bd, bd.phi_counts) == [[1, 1], [1, -1]]
    assert rational_rows(bd, bd.Phi_counts) == [[3, 1], [3, -1]]
    assert bd.cartan == ((2, 1), (1, 2))
    assert bd.elementary_divisors() == (1, 3)


def test_s4_mod2_tables():
    bd = BrauerData(symmetric_group(4), 2)
    assert [s.dim for s in bd.simples] == [1, 2]
    assert rational_rows(bd, bd.phi_counts) == [[1, 1], [2, -1]]
    assert rational_rows(bd, bd.Phi_counts) == [[8, 2], [8, -1]]
    assert bd.cartan == ((4, 2), (2, 3))
    assert bd.elementary_divisors() == (1, 8)
    assert sorted(bd.centralizer_p_parts()) == [1, 8]


def test_s4_mod3_tables():
    bd = BrauerData(symmetric_group(4), 3)
    assert [s.dim for s in bd.simples] == [1, 1, 3, 3]
    # classes in column order: 1, (12)(34), (12), (1234)
    assert rational_rows(bd, bd.phi_counts) == [[1, 1, 1, 1],
                                                 [1, 1, -1, -1],
                                                 [3, -1, 1, -1],
                                                 [3, -1, -1, 1]]
    assert bd.cartan == ((2, 1, 0, 0), (1, 2, 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, 1))
    assert bd.elementary_divisors() == (1, 1, 1, 3)
    assert bd.projective_dims == (3, 3, 3, 3)


def test_a4_mod2_tables():
    bd = BrauerData(alternating_group(4), 2)
    assert [s.dim for s in bd.simples] == [1, 1, 1]
    z, z2 = RefCyc.zeta(3), RefCyc.zeta(3, 2)
    one = RefCyc(3, [1, 0])
    assert cyc_rows(bd.m, bd.phi_counts[1:]) == [[one, z, z2], [one, z2, z]]
    assert bd.phi_counts[1] == (((0, 1),), ((1, 1),), ((2, 1),))
    assert bd.phi_counts[2] == (((0, 1),), ((2, 1),), ((1, 1),))
    assert bd.cartan == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    assert bd.elementary_divisors() == (1, 1, 4)


def test_a4_mod3_tables():
    bd = BrauerData(alternating_group(4), 3)
    assert rational_rows(bd, bd.phi_counts) == [[1, 1], [3, -1]]
    assert bd.cartan == ((3, 0), (0, 1))
    assert bd.elementary_divisors() == (1, 3)


def test_product_and_cyclic_tables():
    bd = BrauerData(direct_product(symmetric_group(3), cyclic_group(2)), 2)
    assert bd.cartan == ((4, 0), (0, 2))
    assert bd.elementary_divisors() == (2, 4)
    bd = BrauerData(cyclic_group(6), 2)
    assert bd.cartan == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    bd = BrauerData(cyclic_group(6), 3)
    assert bd.cartan == ((3, 0), (0, 3))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_p_cartan_is_p(p):
    bd = BrauerData(cyclic_group(p), p)
    assert bd.cartan == ((p,),)
    assert bd.elementary_divisors() == (p,)


CORPUS = [
    (symmetric_group(3), 2), (symmetric_group(3), 3),
    (symmetric_group(4), 2), (symmetric_group(4), 3),
    (alternating_group(4), 2), (alternating_group(4), 3),
    (dihedral_group(8), 2), (quaternion_group(), 2),
    (cyclic_group(6), 2), (cyclic_group(6), 3),
    (cyclic_group(5), 2), (cyclic_group(4), 2),
    (direct_product(symmetric_group(3), cyclic_group(2)), 2),
    (direct_product(cyclic_group(3), cyclic_group(3)), 3),
]


@pytest.mark.parametrize("G,p", CORPUS,
                         ids=[f"{g.name}-p{p}" for g, p in CORPUS])
def test_structural_invariants(G, p):
    bd = BrauerData(G, p)
    n = len(bd.simples)
    assert n == len(G.p_regular_classes(p))
    # trivial module sorts first
    assert bd.simples[0].dim == 1
    assert all(v == ((0, 1),) for v in bd.phi_counts[0])
    # identity column carries the dimensions
    assert [row[0] for row in rational_rows(bd, bd.phi_counts)] == \
        [s.dim for s in bd.simples]
    # Cartan symmetric, SNF matches centralizer p-parts as multisets
    assert bd.cartan == tuple(tuple(bd.cartan[j][i] for j in range(n))
                              for i in range(n))
    assert sorted(bd.elementary_divisors()) == \
        sorted(bd.centralizer_p_parts())
    assert sum(pd * s.dim for pd, s in
               zip(bd.projective_dims, bd.simples)) == G.order


@pytest.mark.parametrize("G,p", CORPUS + [(alternating_group(5), 5),
                                          (cyclic_group(7), 3)],
                         ids=[f"{g.name}-p{p}" for g, p in CORPUS]
                         + ["A5-p5", "C7-p3"])
def test_decompose_table_is_phi_table_inverse(G, p):
    # decompose reads Phi_S(x_i^-1) |class i| / |G|; the reference is the
    # inverse of the phi table by elimination
    bd = BrauerData(G, p)
    n = len(bd.simples)
    phi = [cyc_row(bd.m, row) for row in bd.phi_counts]
    want = gf_mat_inv(CYC, [[phi[s][i] for i in range(n)]
                            for s in range(n)])
    assert dual_table(bd) == want


@pytest.mark.parametrize("G,p", [(cyclic_group(5), 2),
                                 (cyclic_group(7), 3),
                                 (symmetric_group(3), 5)])
def test_coprime_order_semisimple(G, p):
    # p does not divide |G|: projectives are simple, Cartan is identity
    bd = BrauerData(G, p)
    n = len(bd.simples)
    assert bd.cartan == tuple(tuple(1 if i == j else 0 for j in range(n))
                              for i in range(n))
    assert bd.Phi_counts == bd.phi_counts


def test_phi_reduces_to_trace():
    bd = BrauerData(symmetric_group(4), 2)
    F = bd.F
    for s in bd.simples:
        for k, x in enumerate(bd.class_reps):
            mat = s.module.element_matrix(bd.G, x)
            tr = 0
            for i in range(s.dim):
                tr = F.add(tr, mat[i][i])
            counts = bd.phi_counts[s.index][k]
            assert bd.lift.reduce(counts) == tr
            assert RefCyc.from_counts(bd.m, counts).reduce(bd.lift) == tr


def test_class_reps_have_the_shortest_words():
    """Each simple is keyed at the member of its p-regular class with the
    shortest word, the fewest matrix products; in S5 at p = 3 that word
    is shorter than the printed representative's in two classes."""
    G = symmetric_group(5)
    bd = BrauerData(G, 3)
    classes = G.conjugacy_classes()
    shorter = 0
    for x, ci in zip(bd.class_reps, bd.pregular):
        assert x in classes[ci]
        assert len(G.words[x]) == min(len(G.words[g]) for g in classes[ci])
        shorter += len(G.words[x]) < len(G.words[classes[ci][0]])
    assert shorter == 2


def test_endomorphism_route_matches_pairing_route():
    for G, p in [(symmetric_group(3), 2), (symmetric_group(3), 3),
                 (symmetric_group(4), 2), (symmetric_group(4), 3),
                 (alternating_group(4), 2), (alternating_group(4), 3),
                 (quaternion_group(), 2), (cyclic_group(6), 2)]:
        bd = BrauerData(G, p)
        assert cartan_via_endomorphisms(bd) == bd.cartan


def cartan_all_pairs(bd):
    """Reference for cartan_via_endomorphisms: e_s kG e_t spanned by
    e_s g e_t for all |G| elements g, separately for every pair (s, t);
    row g of right(e_s) is e_s g, and times left(e_t) it is e_s g e_t."""
    F = bd.F
    left, right = _regular_algebra(bd.G)
    idems = _block_idempotents(bd, left)
    dims = [s.dim for s in bd.simples]
    out = []
    for t, et in enumerate(idems):
        row = []
        for s, es in enumerate(idems):
            r = gf_rank(F, gf_matmul(F, right(es), left(et)))
            assert r % (dims[s] * dims[t]) == 0
            row.append(r // (dims[s] * dims[t]))
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3])
def test_endomorphism_route_matches_all_pairs_reference(p):
    for spec in DEFAULT_CORPUS:
        G = parse_group_spec(spec)
        if G.order > 24:
            continue
        bd = BrauerData(G, p)
        assert cartan_via_endomorphisms(bd) == cartan_all_pairs(bd) \
            == bd.cartan, spec


def test_translations_multiply_like_the_group():
    """left(b) and right(a) are the matrices of a -> a b and b -> a b on
    the coordinates of G.elements: e_g e_h = e_gh either way."""
    G = symmetric_group(3)
    F = gf_field(5, 1)
    left, right = _regular_algebra(G)
    unit = [[int(i == j) for j in range(G.order)] for i in range(G.order)]
    for h, y in enumerate(G.elements):
        L, R = left(unit[h]), right(unit[h])
        for g, x in enumerate(G.elements):
            assert gf_vec_mat(F, unit[g], L) == L[g] \
                == unit[G._index[perm_mul(x, y)]]
            assert R[g] == unit[G._index[perm_mul(y, x)]]


@pytest.mark.parametrize("spec, p", [("S4", 3), ("A4", 2), ("D8", 3),
                                     ("C3xC3", 2)])
def test_missing_simple_stops_the_idempotent_lift(spec, p):
    """With the last simple dropped, the kernel of kG -> blocks is no
    longer nilpotent, and the lift, which settles within
    bit_length(|G|) + 1 passes on a full list, raises instead of
    looping."""
    bd = BrauerData(parse_group_spec(spec), p)
    bd.simples = bd.simples[:-1]
    with pytest.raises(InvariantViolated, match="does not settle"):
        cartan_via_endomorphisms(bd)


@pytest.mark.parametrize("spec, p, name", [("S3", 2, "S2"), ("S4", 3, "S4")])
def test_repeated_simple_has_no_block_preimage(spec, p, name):
    """Two copies of one simple take the same value at every group
    element, so no element of kG is the identity on one copy and zero
    on the other; the message names the simple as the report does."""
    bd = BrauerData(parse_group_spec(spec), p)
    bd.simples = bd.simples + bd.simples[-1:]
    with pytest.raises(InvariantViolated,
                       match=f"identity of {name}'s matrix block has no "
                             "preimage"):
        cartan_via_endomorphisms(bd)


def test_decompose_tensor_square():
    bd = BrauerData(symmetric_group(4), 2)
    row = [root_product(bd.m, a, a) for a in bd.phi_counts[1]]
    assert bd.decompose(row) == [2, 1]


def test_decompose_rejects_non_integral():
    bd = BrauerData(symmetric_group(3), 2)
    # the indicator of the identity has coefficients 1/3 and 1/3
    with pytest.raises(NonIntegralDecomposition, match=r"S1 is Cyc\(1/3\)"):
        bd.decompose([((0, 1),), ()])
    assert [RefCyc.from_counts(bd.m, enumerate(acc)) * Fraction(1, 6)
            for acc in bd._coefficient_counts([((0, 1),), ()])] == \
        [Fraction(1, 3), Fraction(1, 3)]


def test_decompose_roundtrips_projectives():
    bd = BrauerData(symmetric_group(4), 3)
    for t, row in enumerate(bd.Phi_counts):
        coeffs = bd.decompose(row)
        assert coeffs == list(bd.cartan[t])


def test_induced_character_of_cyclic_line():
    S3 = symmetric_group(3)
    C3 = S3.generated_subgroup([(1, 2, 0)])
    vals = {(0, 1, 2): RefCyc(1, [1]), (1, 2, 0): RefCyc.zeta(3),
            (2, 0, 1): RefCyc.zeta(3, 2)}
    assert induce_class_function(S3, C3, vals) == [2, 0, -1]
    # ints induce to rationals: the indicator of the 3-cycle (0 1 2)
    ones = {h: int(h == (1, 2, 0)) for h in C3.elements}
    assert induce_class_function(S3, C3, ones) == [0, 0, 1]


def test_induce_requires_subgroup():
    with pytest.raises(NotSubgroup):
        induce_class_function(symmetric_group(4),
                              symmetric_group(3),
                              {e: 1 for e in symmetric_group(3).elements})


@pytest.mark.parametrize("spec, p", GOLDEN_ANALYZE)
def test_phi_by_division_matches_factoring(spec, p):
    """Dividing out the m-th roots of unity gives the value that the
    eigenspaces give, on every p-regular class of every simple.  x is
    p-regular, so its matrix is semisimple and each eigenvalue r, an
    o-th root of unity for o the order of x, occurs as often as the
    nullity of mat - r*I."""
    bd = BrauerData(parse_group_spec(spec), p, seed=1)
    F = bd.F
    for s in bd.simples:
        for x, counts in zip(bd.class_reps, bd.phi_counts[s.index]):
            mat = s.module.element_matrix(bd.G, x)
            o = perm_order(x)
            assert (F.q - 1) % o == 0
            want = []
            for k in range(o):
                r = F.exp[k * (F.q - 1) // o]
                shifted = [[F.add(c, F.neg(r)) if i == j else c
                            for j, c in enumerate(row)]
                           for i, row in enumerate(mat)]
                nullity = s.dim - gf_rank(F, shifted)
                if nullity:
                    want.append((bd.lift.exponent(r), nullity))
            want.sort()
            assert sum(n for _, n in want) == s.dim
            assert (_phi_value(bd.lift, F, gf_charpoly(F, mat))
                    == tuple(want) == counts)
            assert dot([n for _, n in want],
                       [RefCyc.zeta(bd.m, e) for e, _ in want]) == \
                RefCyc.from_counts(bd.m, counts)


@pytest.mark.parametrize("spec, p", GOLDEN_ANALYZE)
def test_phi_values_have_conductor_m_and_denominator_1(spec, p):
    """Every phi value is a root of unity or an integer combination of
    them, so its conductor is m and its denominator 1: _phi_sort_key
    compares numerators on that ground, and they are the coordinates."""
    bd = BrauerData(parse_group_spec(spec), p, seed=1)
    assert all(0 <= e < bd.m and type(a) is int
               for row in bd.phi_counts for v in row for e, a in v)
    for row in bd.phi_counts:
        coords = [RefCyc.from_counts(bd.m, v).coeffs for v in row]
        assert all(type(c) is int for v in coords for c in v)
        assert _phi_sort_key(bd.m, row) == tuple(
            tuple(-c for c in v) for v in coords)


def test_brauer_data_factors_charpolys_only_inside_simple_modules(
        monkeypatch):
    """Each simple's characteristic polynomials come from the search that
    found it; building the Brauer data computes none of its own."""
    real = linalg.gf_charpoly
    calls, outside, depth = [], [], [0]

    def traced(F, M):
        calls.append(M)
        if not depth[0]:
            outside.append(M)
        return real(F, M)

    def search(*args):
        depth[0] += 1
        try:
            return real_search(*args)
        finally:
            depth[0] -= 1

    real_search = brauer.simple_modules
    monkeypatch.setattr(brauer, "simple_modules", search)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repring"
                and getattr(module, "gf_charpoly", None) is real):
            monkeypatch.setattr(module, "gf_charpoly", traced)
    assert not hasattr(brauer, "gf_charpoly")
    BrauerData(symmetric_group(4), 3, 1)
    assert calls and not outside


ABELIAN_GOLDEN = [
    (spec, p) for spec, p in GOLDEN_ANALYZE
    if all(perm_mul(a, b) == perm_mul(b, a)
           for G in [parse_group_spec(spec)] for a in G.gens for b in G.gens)]


@pytest.mark.parametrize("spec, p", ABELIAN_GOLDEN)
def test_linear_simple_scalar_matches_word_product(spec, p):
    """A linear simple's closed-form key, x - v for v its value at each
    p-regular representative, is the characteristic polynomial of the
    word product of its generator matrices there, for every abelian
    golden group (all of whose simples are linear)."""
    G = parse_group_spec(spec)
    bd = BrauerData(G, p, seed=1)
    for mod, key in simple_modules(G, bd.F, 1, bd.class_reps):
        assert mod.dim == 1
        assert key == tuple(gf_charpoly(bd.F, mod.element_matrix(G, x))
                            for x in bd.class_reps)


def test_nonsplit_charpoly_raises():
    F = gf_field(2, 1)
    lift = BrauerLift(F, 1)
    with pytest.raises(NonSplitCharPoly):
        _phi_value(lift, F, gf_charpoly(F, [[0, 1], [1, 1]]))
    # x^2 - 1 splits over F_3, but -1 is not a 1st root of unity
    with pytest.raises(NonSplitCharPoly):
        F = gf_field(3, 1)
        _phi_value(BrauerLift(F, 1), F, gf_charpoly(F, [[0, 1], [1, 0]]))


def test_cartan_is_seed_independent():
    a = BrauerData(symmetric_group(3), 2)
    c = BrauerData(symmetric_group(3), 2, seed=99)
    assert c.cartan == a.cartan


def test_tampered_multiplicities_raise_invariant_violated():
    bd = BrauerData(symmetric_group(4), 2, 1)
    bd.composition_multiplicities = (bd.composition_multiplicities[0] + 1,
                                     *bd.composition_multiplicities[1:])
    with pytest.raises(InvariantViolated) as info:
        bd._check_invariants()
    assert info.value.module == "brauer"


@pytest.mark.parametrize("G,p", [(symmetric_group(4), 3),
                                 (alternating_group(4), 2),
                                 (alternating_group(5), 5)])
def test_structure_constants_decompose_every_ordered_product(G, p):
    bd = BrauerData(G, p)
    assert bd.structure_constants() == structure_by_decompose(bd)


# -- the routes the Brauer data used before the Gram-matrix Cartan and
# the face-value reading of one-dimensional simples, kept as references

CHOP_MID = [(g, p) for g in ("A5", "S5") for p in (2, 3, 5)]
REFERENCE_CASES = sorted(set(GOLDEN_ANALYZE) | set(CHOP_MID))


def projectives_by_inverse(bd):
    """(Phi, C): Phi by inverting the table of phi weighted by class
    sizes over the inverse classes, C by pairing the Phi rows."""
    n, order = len(bd.simples), bd.G.order
    table = [[RefCyc.from_counts(bd.m, bd.phi_counts[s][bd._inv_pos[i]])
              * Fraction(bd.class_sizes[i], order)
              for s in range(n)] for i in range(n)]
    Phi = [[RefCyc.of(v).promote(bd.m) for v in row]
           for row in gf_mat_inv(CYC, table)]

    # <alpha, beta> = |G|^-1 sum_i |class i| alpha(x_i) beta(x_i^-1) is
    # symmetric (x -> x^-1 permutes the classes), so each is formed once
    weighted = [[size * a for size, a in zip(bd.class_sizes, row)]
                for row in Phi]
    at_inverse = [[row[j] for j in bd._inv_pos] for row in Phi]
    cartan = [[None] * n for _ in range(n)]
    for t in range(n):
        for s in range(t, n):
            c = dot(weighted[t], at_inverse[s]) * Fraction(1, order)
            cartan[t][s] = cartan[s][t] = c.as_rational()
    return Phi, tuple(map(tuple, cartan))


def simples_by_standard_form(G, F, seed, count):
    """The tensor closure identifying every factor, of any dimension, by
    an identification recipe and its standard form."""
    if count == 1:
        return [Module(F, 1, [((1,),)] * len(G.gens))]
    base = f"meataxe:{F.p}:{F.d}:{seed}:{G.key()!r}"
    for attempt in range(CHOP_RESEEDS):
        rng = random.Random(f"{base}:{attempt}")
        simples, ids = [], []

        def absorb(module):
            new = []
            for f in chop(module, rng):
                if len(simples) == count:
                    break
                if any(s.dim == f.dim and standard_form(f, r, lam) == form
                       for s, (r, lam, form) in zip(simples, ids)):
                    continue
                r, lam = find_id_recipe(f, rng)
                simples.append(f)
                ids.append((r, lam, standard_form(f, r, lam)))
                new.append(f)
            return new

        try:
            natural = absorb(natural_module(G, F))
            factors = [t for t in natural
                       if t.dim > 1 or any(m != ((1,),) for m in t.mats)]
            pending = list(natural)
            while len(simples) < count:
                s = pending.pop(0)
                for t in factors:
                    if len(simples) < count:
                        pending += absorb(tensor_product(s, t))
            return simples
        except ChopStalled:
            continue
    raise ChopStalled("reference closure stalled")


def structure_by_decompose(bd, dual=None):
    """Every product of two simples multiplied over the phi values, read
    as RefCyc values.  The product with a linear simple
    must be another simple's phi row, which is what decomposing it would
    show, since the phi rows are a basis; any other product is
    decomposed by the dense dot against dual, dual_table(bd) when not
    given.  The product is commutative, so (t, s) repeats (s, t)."""
    n, dual = len(bd.simples), dual or dual_table(bd)
    rows = cyc_rows(bd.m, bd.phi_counts)
    table = [[None] * n for _ in range(n)]
    for s in range(n):
        for t in range(s, n):
            values = [mul(a, b) for a, b in zip(rows[s], rows[t])]
            if bd.simples[s].dim == 1:
                assert rows.count(values) == 1
                coeffs = [int(row == values) for row in rows]
            else:
                coeffs = [c.as_rational() for c in
                          decompose_by_dense_dot(bd, values, dual)]
                assert all(c.denominator == 1 for c in coeffs)
            table[s][t] = table[t][s] = tuple(int(c) % bd.p for c in coeffs)
    return tuple(tuple(row) for row in table)


def decompose_inputs(bd):
    """Root-count rows: the all-zero row, the regular character, the phi
    rows, their products with the last phi row, and a row non-zero at
    one class only, for each class: the shape of an induced indicator."""
    n = len(bd.pregular)
    yield [()] * n
    yield [((0, bd.G.order),)] + [()] * (n - 1)
    yield from bd.phi_counts
    for row in bd.phi_counts:
        yield [root_product(bd.m, a, b)
               for a, b in zip(row, bd.phi_counts[-1])]
    for k in range(n):
        yield [bd.Phi_counts[0][k] if i == k else () for i in range(n)]


@pytest.mark.parametrize("spec, p", REFERENCE_CASES)
def test_brauer_data_matches_reference_routes(spec, p):
    G = parse_group_spec(spec)
    bd = BrauerData(G, p, seed=1)
    Phi, cartan = projectives_by_inverse(bd)
    assert cyc_rows(bd.m, bd.Phi_counts) == Phi
    assert bd.cartan == cartan
    modules = simples_by_standard_form(G, bd.F, 1, len(bd.pregular))
    rows = sorted(((mod.dim, [_phi_value(
                      bd.lift, bd.F, gf_charpoly(
                          bd.F, mod.element_matrix(G, x)))
                      for x in bd.class_reps]) for mod in modules),
                  key=lambda pair: (pair[0], _phi_sort_key(bd.m, pair[1])))
    assert cyc_rows(bd.m, (row for _, row in rows)) == \
        cyc_rows(bd.m, bd.phi_counts)
    dual = dual_table(bd)
    assert bd.structure_constants() == structure_by_decompose(bd, dual)
    # each root count of decompose, over |G|, prints as the dense dot's
    # value, and decompose returns it where it is an integer and raises
    # where one is not
    for values in decompose_inputs(bd):
        got = [value_json(bd.m, enumerate(acc), G.order)
               for acc in bd._coefficient_counts(values)]
        want = decompose_by_dense_dot(bd, cyc_row(bd.m, values), dual)
        assert got == [w.to_json() for w in want]
        if all(c.as_rational() is not None
               and c.as_rational().denominator == 1 for c in want):
            assert bd.decompose(values) == [c.as_rational() for c in want]
        else:
            with pytest.raises(NonIntegralDecomposition):
                bd.decompose(values)


def linear_only(found, entry):
    """The (module, key) pairs with every non-trivial 1-dim module's
    matrices and key polynomials replaced by entry's."""
    out = []
    for m, key in found:
        if m.dim == 1 and m.mats != [((1,),)] * len(m.mats):
            m = Module(m.F, 1, [((entry,),)] * len(m.mats))
            key = ((m.F.neg(entry), 1),) * len(key)
        out.append((m, key))
    return out


def test_non_root_1x1_entry_raises_non_split(monkeypatch):
    # GF(7) holds the cube roots 1, 2, 4 of C3; 3 has order 6
    F = gf_field(7, 1)
    lift = BrauerLift(F, 3)
    with pytest.raises(NonSplitCharPoly):
        _phi_value(lift, F, (F.neg(3), 1))
    with pytest.raises(NonSplitCharPoly):
        lift.exponent(3)
    real = brauer.simple_modules
    monkeypatch.setattr(brauer, "simple_modules",
                        lambda *a: linear_only(real(*a), 3))
    with pytest.raises(NonSplitCharPoly):
        BrauerData(cyclic_group(3), 7)


def test_irrational_gram_entry_raises_non_integral_cartan():
    bd = BrauerData(alternating_group(4), 2)
    one, z = ((0, 1),), ((1, 1),)
    # S2, whose values are 1, z, z^2, with its value at the second
    # 3-cycle class set to 1: <phi_0, phi_1> is (5 + 4z) / 12, irrational.
    # A trace would make every entry rational, and the Cartan matrix
    # would then fail to be integral, so the error must name the entry.
    bd.phi_counts = (bd.phi_counts[0], (one, z, one), bd.phi_counts[2])
    with pytest.raises(NonIntegralCartan, match="irrational"):
        bd._cartan_and_projectives()


@pytest.mark.parametrize("spec, p, s", [
    ("S3", 2, 1), ("S4", 3, 2), ("A4", 2, 1), ("S4", 2, 1)])
def test_rational_gram_with_non_integral_inverse_raises(spec, p, s):
    """phi_s doubled keeps every Gram entry rational and the phi table
    non-singular, but scales row and column s of Gram(phi)^-1 by 1/2
    and its (s, s) entry by 1/4, so the Cartan matrix is not integral."""
    bd = BrauerData(parse_group_spec(spec), p)
    doubled = tuple(tuple((e, 2 * a) for e, a in v) for v in bd.phi_counts[s])
    bd.phi_counts = bd.phi_counts[:s] + (doubled,) + bd.phi_counts[s + 1:]
    with pytest.raises(NonIntegralCartan):
        bd._cartan_and_projectives()


def test_character_arithmetic_builds_no_cyc(monkeypatch):
    """The Gram matrix, Cartan matrix, Phi, the integral decompositions,
    the structure constants, the gamma and U vectors and the checks of
    cartan_image_basis run on root counts: none of them prints a value
    as Cyc text, which brauer does only for a non-integral coefficient,
    and defects imports no printer."""
    bd = BrauerData(alternating_group(5), 2, 1)
    a = defect_classification(bd, build_catalog(2))

    def refuse(*args):
        raise AssertionError("a value was printed")

    monkeypatch.setattr(brauer, "value_text", refuse)
    assert not {"value_text", "value_json"} & set(vars(defects))
    assert bd._cartan_and_projectives() == (bd.cartan, bd.Phi_counts)
    regular = [((0, bd.G.order),)] + [()] * (len(bd.pregular) - 1)
    assert bd.decompose(regular) == list(bd.composition_multiplicities)
    bd.structure_constants()
    assert len(_u_basis(a)) == len(bd.pregular)
    assert cartan_image_basis(bd)
    with pytest.raises(AssertionError, match="value was printed"):
        bd.decompose([((0, 1),)] + [()] * (len(bd.pregular) - 1))


def test_duplicated_simple_raises_singular_phi(monkeypatch):
    """A simple found twice, in place of one that is missing, makes the
    phi table singular: its Gram matrix has no inverse."""
    real = brauer.simple_modules

    def duplicated(*args):
        found = real(*args)
        return found[:-1] + found[:1]

    monkeypatch.setattr(brauer, "simple_modules", duplicated)
    with pytest.raises(SingularPhi, match="singular"):
        BrauerData(symmetric_group(4), 3)


def test_linear_tensor_product_outside_the_simples_raises():
    bd = BrauerData(alternating_group(4), 2)
    one, z = ((0, 1),), ((1, 1),)
    # S2 with values 1, z, z: S2 (x) S2 has values 1, z^2, z^2, no simple's
    bd.phi_counts = (bd.phi_counts[0], (one, z, z), bd.phi_counts[2])
    with pytest.raises(InvariantViolated, match="is not simple"):
        bd.structure_constants()
