import json
import random
import sys
import time

import pytest
from test_defects import GOLDEN_ANALYZE

from repring import meataxe
from repring.brauer import BrauerData, _phi_value, splitting_field
from repring.catalog import build_catalog
from repring.config import CHOP_RESEEDS
from repring.errors import ChopStalled, ClosureSaturated, MalformedModule
from repring.gf import gf_field
from repring.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group_spec,
    perm_mul,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from repring.linalg import gf_charpoly, gf_identity, gf_mat_inv, gf_matmul
from repring.meataxe import (
    Module,
    _tensor_closure,
    chop,
    natural_module,
    quotient_action,
    simple_modules,
    spin,
    submodule_action,
)
from repring.report import analyze_report


def regular_module(G, F):
    """Right translation of G on its own group algebra over F."""
    n = G.order
    index = {h: i for i, h in enumerate(G.elements)}
    mats = []
    for g in G.gens:
        m = [[0] * n for _ in range(n)]
        for i, h in enumerate(G.elements):
            m[i][index[perm_mul(h, g)]] = 1
        mats.append(m)
    return Module(F, n, mats)


def pregular_reps(G, p):
    """The p-regular class representatives, in BrauerData.class_reps
    order."""
    classes = G.conjugacy_classes()
    return [classes[i][0] for i in G.p_regular_classes(p)]


def simples(G, F, seed=1):
    return [m for m, _ in simple_modules(G, F, seed, pregular_reps(G, F.p))]


def dims_with_counts(G, F, seed=1):
    """(dim, multiplicity in kG) per simple: the dims from the tensor
    closure, the multiplicities from the regular Brauer character."""
    dims = sorted(r.dim for r in simples(G, F, seed))
    bd = BrauerData(G, F.p, seed)
    assert [s.dim for s in bd.simples] == dims
    return sorted(zip(dims, bd.composition_multiplicities))


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


@pytest.mark.parametrize("p,max_order", [(2, 16), (3, 27)])
def test_pgroup_natural_module_chops_to_trivial_factors(p, max_order):
    """simple_modules returns the trivial module of a p-group without a
    chop, so the chop is exercised here: the natural module of every
    catalog group, on its moved points, has only trivial factors, and
    simple_modules returns exactly the trivial module, keyed by x - 1."""
    F = gf_field(p, 1)
    cat = build_catalog(p, max_order)
    for i in range(len(cat)):
        G = cat.group(i)
        trivial = [((1,),)] * len(G.gens)
        factors = chop(natural_module(G, F), random.Random(f"{p}:{i}"))
        moved = [pt for pt in range(G.degree)
                 if any(g[pt] != pt for g in G.gens)]
        assert sum(f.dim for f in factors) == len(moved)
        assert all(f.dim == 1 and f.mats == trivial for f in factors)
        reps = pregular_reps(G, p)
        assert reps == [G.identity]
        ((only, key),) = simple_modules(G, F, 1, reps)
        assert (only.dim, only.mats) == (1, trivial)
        assert key == (gf_charpoly(F, [[1]]),)


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
        assert sum(d * c for d, c in dims_with_counts(G, F)) == G.order


def test_representation_is_homomorphism():
    G = symmetric_group(3)
    F = gf_field(2, 2)
    reps = simples(G, F)
    V = next(r for r in reps if r.dim == 2)
    for a in G.elements:
        for b in G.elements:
            lhs = gf_matmul(F, V.element_matrix(G, a), V.element_matrix(G, b))
            rhs = V.element_matrix(G, perm_mul(a, b))
            assert [list(r) for r in lhs] == [list(r) for r in rhs]


def test_identity_matrix_on_identity_element():
    G = symmetric_group(4)
    F = gf_field(3, 2)
    reps = simples(G, F)
    for r in reps:
        assert r.element_matrix(G, G.identity) == gf_identity(r.dim)


def test_same_seed_identical_output():
    G = symmetric_group(4)
    F = gf_field(2, 2)
    a = simples(G, F, 7)
    b = simples(G, F, 7)
    assert len(a) == len(b)
    assert all(x.mats == y.mats for x, y in zip(a, b))


@pytest.mark.parametrize("seed", [1, 2, 17, 123])
def test_dims_stable_across_seeds(seed):
    G = symmetric_group(4)
    F = gf_field(2, 2)
    assert dims_with_counts(G, F, seed) == [(1, 8), (2, 8)]


def test_chop_returns_irreducible_input():
    G = symmetric_group(3)
    F = gf_field(2, 2)
    reps = simples(G, F)
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


def test_charpoly_keys_separate_a4_linears():
    G = alternating_group(4)
    F = gf_field(2, 2)
    reps = simples(G, F)
    assert len(reps) == 3
    # a 3-cycle acts on the three linears by the three cube roots of
    # unity in F4, which are exactly the codes 1, 2, 3
    x = G.gens[0]
    vals = {r.element_matrix(G, x)[0][0] for r in reps}
    assert vals == {1, 2, 3}


def test_nonsplitting_field_saturates_the_closure():
    # over F2, k(C7) has the trivial module and two 3-dim simples, whose
    # endomorphism ring is F8: three F-irreducibles, with distinct keys,
    # for seven absolutely irreducible ones, so the closure saturates
    with pytest.raises(ClosureSaturated, match="at 3 of 7"):
        simples(cyclic_group(7), gf_field(2, 1))


def class_key(G, F, module):
    """The characteristic polynomials at the p-regular class
    representatives, as _tensor_closure keys a factor."""
    return tuple(gf_charpoly(F, module.element_matrix(G, x))
                 for x in pregular_reps(G, F.p))


def conjugated(module, rng):
    """The module rewritten in a random basis: B M B^-1 per generator."""
    F, n = module.F, module.dim
    while True:
        B = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        try:
            inv = gf_mat_inv(F, B)
        except ZeroDivisionError:
            continue
        return Module(F, n, [gf_matmul(F, gf_matmul(F, B, m), inv)
                             for m in module.mats])


def test_conjugated_simple_has_its_key_and_is_not_added_again(monkeypatch):
    """Every chop factor comes back twice, once as it is and once in a
    random basis; the closure keeps the same simples, none of them a
    conjugate, since a conjugate has the key of the factor it copies."""
    G = symmetric_group(4)
    F = gf_field(3, 2)
    reps = pregular_reps(G, 3)
    plain = _tensor_closure(G, F, random.Random("conj"), reps)
    twin_rng = random.Random("basis")
    real = meataxe.chop
    twins = []

    def doubled(module, rng):
        out = []
        for f in real(module, rng):
            twin = conjugated(f, twin_rng)
            assert class_key(G, F, twin) == class_key(G, F, f)
            twins.append((f, twin))
            out += [f, twin]
        return out

    monkeypatch.setattr(meataxe, "chop", doubled)
    got = _tensor_closure(G, F, random.Random("conj"), reps)
    assert ([(m.mats, key) for m, key in got]
            == [(m.mats, key) for m, key in plain])
    assert all(key == class_key(G, F, m) for m, key in got)
    assert any(f.dim > 1 and t.mats != f.mats for f, t in twins)
    assert not {id(t) for _, t in twins} & {id(m) for m, _ in got}


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


def test_module_rejects_bad_shapes():
    F = gf_field(2, 1)
    with pytest.raises(MalformedModule):
        Module(F, 2, [[[1, 0]]])


def test_s6_mod2_simples_and_multiplicities():
    bd = BrauerData(symmetric_group(6), 2, 1)
    assert [s.dim for s in bd.simples] == [1, 4, 4, 16]
    assert bd.composition_multiplicities == bd.projective_dims


def test_saturation_short_of_count_is_not_reseeded(monkeypatch):
    G = symmetric_group(3)
    F = gf_field(2, 2)
    calls = []

    def counted(*args):
        calls.append(args)
        return natural_module(*args)

    monkeypatch.setattr(meataxe, "natural_module", counted)
    # one simple more than there are: a representative asked for twice
    reps = pregular_reps(G, 2)
    with pytest.raises(ClosureSaturated):
        simple_modules(G, F, 1, reps + reps[:1])
    assert len(calls) == 1


def test_s5_p3_closure_chops_under_100_dimensions(monkeypatch):
    """The tensor closure chops its smallest pending product first, so
    S5's five 3-modular simples (dims 1, 1, 4, 4 and 6) cost fewer than
    100 chopped dimensions at every seed, recursive chops included;
    first in, first out, seeds 3 and 4 chopped 158 and 157."""
    real = meataxe.chop

    def counted(module, rng):
        dims.append(module.dim)
        return real(module, rng)

    monkeypatch.setattr(meataxe, "chop", counted)
    G = symmetric_group(5)
    F, _, _ = splitting_field(G, 3)
    for seed in range(1, 6):
        dims = []
        simple_modules(G, F, seed, pregular_reps(G, 3))
        assert 0 < sum(dims) < 100, seed


def test_chop_spins_each_side_at_most_once_per_factor(monkeypatch):
    """For each algebra element z and factor f of its characteristic
    polynomial, chop spins one kernel vector of f(z) under the module's
    matrices and, for Norton's test, at most one under their transposes.
    A factor whose kernel is larger than deg f and whose spin fills the
    module is passed over: a proper submodule that meets the kernel need
    not contain any given kernel vector, so spinning the others proves
    nothing.  In A6's closure at p = 2, seed 1, such factors occur."""
    real_chop, real_spin, real_poly = (
        meataxe.chop, meataxe.spin, meataxe._poly_of_matrix)
    modules, pairs = [], []

    def chop(module, rng):
        modules.append(module)
        try:
            return real_chop(module, rng)
        finally:
            modules.pop()

    def poly_of_matrix(F, poly, mat, dim):
        pairs.append({"module": [], "transpose": []})
        return real_poly(F, poly, mat, dim)

    def spin(F, seeds, mats, dim):
        ech, basis = real_spin(F, seeds, mats, dim)
        side = "module" if mats is modules[-1].mats else "transpose"
        pairs[-1][side].append(len(ech) == dim)
        return ech, basis

    monkeypatch.setattr(meataxe, "chop", chop)
    monkeypatch.setattr(meataxe, "spin", spin)
    monkeypatch.setattr(meataxe, "_poly_of_matrix", poly_of_matrix)
    G = alternating_group(6)
    F, _, _ = splitting_field(G, 2)
    simple_modules(G, F, 1, pregular_reps(G, 2))
    assert all(len(pair["module"]) <= 1 and len(pair["transpose"]) <= 1
               for pair in pairs)
    assert any(pair["module"] == [True] and not pair["transpose"]
               for pair in pairs)


def test_natural_module_is_homomorphism():
    G = symmetric_group(4)
    F = gf_field(3, 1)
    N = natural_module(G, F)
    for a in G.elements:
        ma = N.element_matrix(G, a)
        assert [r.index(1) for r in ma] == list(a)
        for b in G.elements:
            lhs = gf_matmul(F, ma, N.element_matrix(G, b))
            rhs = N.element_matrix(G, perm_mul(a, b))
            assert [list(r) for r in lhs] == [list(r) for r in rhs]


def test_natural_module_is_built_on_the_moved_points():
    """S3 on 240 points, 237 of them fixed, chops a 3-dim natural module
    and reports what S3 on 3 points reports."""
    points = list(range(1, 241))
    swap, cycle = points[:], points[:]
    swap[:2], cycle[:3] = [2, 1], [2, 3, 1]
    spec = json.dumps({"degree": 240, "generators": [swap, cycle]})
    assert natural_module(parse_group_spec(spec), gf_field(2, 2)).dim == 3
    start = time.perf_counter()
    wide = analyze_report(spec, 2)
    assert time.perf_counter() - start < 1
    small = analyze_report("S3", 2)
    for field in ("simple_dimensions", "phi", "Phi", "cartan"):
        assert wide[field] == small[field], field


def closure_simples(G, F, seed, reps):
    """The simples by tensor closure, with simple_modules' random streams
    and reseeds: the route an abelian group took before its closed form,
    kept as the reference."""
    for attempt in range(CHOP_RESEEDS):
        rng = random.Random(f"meataxe:{F.p}:{F.d}:{seed}:{G.key()!r}:"
                            f"{attempt}")
        try:
            return _tensor_closure(G, F, rng, reps)
        except ChopStalled:
            pass
    raise ChopStalled("reference closure stalled")


def golden_abelian_cases():
    """(spec, p) of the golden analyze cases of abelian groups whose
    simples are more than the trivial module, so that the closed form
    runs; a p-group (one simple) returns before it."""
    cases = []
    for spec, p in GOLDEN_ANALYZE:
        G = parse_group_spec(spec)
        gens = G.gens
        if (all(perm_mul(a, b) == perm_mul(b, a) for a in gens for b in gens)
                and len(G.p_regular_classes(p)) > 1):
            cases.append((spec, p))
    return cases


GOLDEN_ABELIAN = golden_abelian_cases()


def test_golden_abelian_cases_include_the_new_pins():
    assert ("C15", 2) in GOLDEN_ABELIAN and ("C5xC5", 3) in GOLDEN_ABELIAN


@pytest.mark.parametrize("spec,p", GOLDEN_ABELIAN,
                         ids=[f"{g}-p{p}" for g, p in GOLDEN_ABELIAN])
def test_linear_characters_match_the_tensor_closure(spec, p):
    G = parse_group_spec(spec)
    bd = BrauerData(G, p, 1)
    closed = simple_modules(G, bd.F, 1, bd.class_reps)
    ref = closure_simples(G, bd.F, 1, bd.class_reps)
    assert len(closed) == len(bd.pregular)
    assert all(m.dim == 1 for m, _ in closed)
    # the closed-form x - v keys are the closure's charpoly keys
    assert (sorted((m.mats, key) for m, key in closed)
            == sorted((m.mats, key) for m, key in ref))
    ref_rows = {tuple(_phi_value(bd.lift, bd.F, gf_charpoly(
        bd.F, m.element_matrix(G, x))) for x in bd.class_reps)
        for m, _ in ref}
    assert set(bd.phi_counts) == ref_rows


def test_abelian_simples_use_no_random_stream(monkeypatch):
    def no_recipe(*args):
        raise AssertionError("random recipe drawn")

    monkeypatch.setattr(meataxe, "random_recipe", no_recipe)
    for spec, p in GOLDEN_ABELIAN + [("C6", 2), ("C3xC2xC2", 2)]:
        G = parse_group_spec(spec)
        F = splitting_field(G, p)[0]
        assert len(simples(G, F)) == len(G.p_regular_classes(p))


LINE_BOUND = 100_000


def lines_run_in(function, call):
    """call() and the number of lines that function, and the
    comprehensions and generator expressions inside it, execute there;
    AssertionError as soon as that passes LINE_BOUND.  The count is a
    deterministic measure of work, where a wall time is not."""
    code, count = function.__code__, [0]

    def count_lines(frame, event, arg):
        if event == "line":
            count[0] += 1
            if count[0] > LINE_BOUND:
                raise AssertionError(f"{function.__name__} ran more than "
                                     f"{LINE_BOUND} lines")
        return count_lines

    def on_call(frame, event, arg):
        if frame.f_code is code or (frame.f_back is not None
                                    and frame.f_back.f_code is code):
            return count_lines
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        out = call()
    finally:
        sys.settrace(previous)
    return out, count[0]


def test_linear_characters_are_pruned_generator_by_generator():
    # C60 by g, g^2, ..., g^6: 60 * 30 * 20 * 15 * 12 * 10, about 6.5e7
    # tuples of generator images, of which 60 are homomorphisms.  Pruned
    # generator by generator, the 60 characters of the span so far are
    # extended by 60 + 60 * (30 + 20 + 15 + 12 + 10) = 5280 candidate
    # images in all, and linear_characters runs a few times that many
    # lines; a search that forms the product first runs at least 6.5e7
    g = cyclic_group(60).gens[0]
    powers = [g]
    for _ in range(5):
        powers.append(perm_mul(powers[-1], g))
    G = parse_group_spec(json.dumps(
        {"degree": 60, "generators": [[v + 1 for v in x] for x in powers]}))
    F = gf_field(7, 4)
    reps = pregular_reps(G, 7)
    found, lines = lines_run_in(meataxe.linear_characters,
                                lambda: simple_modules(G, F, 1, reps))
    assert 5280 <= lines <= LINE_BOUND
    mods = [m for m, _ in found]
    at_g = [m.mats[0][0][0] for m in mods]
    roots = {F.exp[k] for k in range(0, F.q - 1, (F.q - 1) // 60)}
    assert sorted(at_g) == sorted(roots)
    for m in mods:
        v = m.mats[0][0][0]
        assert [t[0][0] for t in m.mats] == [F.pow(v, k) for k in range(1, 7)]
