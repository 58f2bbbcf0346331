import json
import os
import sys
from fractions import Fraction

import pytest

from repring import defects, groups
from repring.brauer import BrauerData, induce_class_function
from repring.catalog import build_catalog, enumerate_closed_sets
from repring.defects import (
    RkElement,
    _indicator_check,
    _u_from,
    cartan_image_basis,
    closed_set_dimension,
    defect_classification,
    filtration_table,
    gamma_element,
    gamma_exact,
    genk_basis,
    product_group_check,
    rk_basis_element,
    rk_multiply,
    sp_dimension,
    u_element,
)
from repring.errors import (
    CatalogTooSmall,
    DefectNotZeroInQuotient,
    InvariantViolated,
    NotDefectZero,
    PreconditionViolated,
)
from repring.groups import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    parse_group_spec,
    perm_order,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from repring.linalg import gf_rank
from repring.report import analyze_report

from cyclo_reference import (
    RefCyc,
    decompose_by_dense_dot,
    cyc_rows,
    dot,
    dual_table,
)
from group_reference import centralizer_of_subgroup, quotient_group


def gamma_values(bd, x):
    """gamma_{G,x} before reduction, as RefCyc values."""
    counts, c = gamma_exact(bd, x)
    return [RefCyc.from_counts(bd.m, v) * Fraction(1, c) for v in counts]


CAT2 = build_catalog(2, 8)
CAT2_SMALL = build_catalog(2, 2)
CAT3 = build_catalog(3, 9)


def ident(G):
    return tuple(range(G.degree))


def analysis(G, p, cat):
    return defect_classification(BrauerData(G, p), cat)


def u_by_quotient(a, x, R, cache=None):
    """U_x by the definition: gamma of the image of x in the quotient
    H/R, H = R C_G(R), inflated to H and induced to G.  The reference
    that defects._u_from's orthogonality sum is checked against.  A
    cache dict, when given, keeps each quotient's Brauer data and the
    dual of G's phi table across the calls of one test."""
    G, p, bd = a.G, a.p, a.bd
    cache = {} if cache is None else cache
    CR = centralizer_of_subgroup(G, R)
    H = G.generated_subgroup(list(R.gens) + list(CR.gens))
    key = ("quotient", R.elements, H.elements)
    if key not in cache:
        Hbar, proj = quotient_group(H, R)
        bq = BrauerData(Hbar, p, bd.seed)
        columns = list(zip(*cyc_rows(bq.m, bq.phi_counts)))
        cache[key] = Hbar, proj, bq, columns
    Hbar, proj, bq, columns = cache[key]
    xbar = proj[tuple(x)]
    if Hbar.centralizer(xbar).order % p == 0:
        raise DefectNotZeroInQuotient("image of x has positive defect")
    gamma = gamma_values(bq, xbar)
    vals = {}
    for h in H.elements:
        if perm_order(h) % p:
            k = bq._pos[Hbar.class_index_of(proj[h])]
            vals[h] = dot(gamma, columns[k])
    ind = induce_class_function(G, H, vals, class_indices=bd.pregular)
    if "dual" not in cache:
        cache["dual"] = dual_table(bd)
    return tuple(c.reduce(bd.lift)
                 for c in decompose_by_dense_dot(bd, ind, cache["dual"]))


def golden_analyze_cases():
    """(group spec, p) of every analyze op in tests/golden/reports.json."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "reports.json")
    with open(path, encoding="ascii") as fh:
        ops = json.load(fh)
    return [(op.split()[1], int(op.split()[2][1:])) for op in sorted(ops)
            if op.startswith("analyze ")]


GOLDEN_ANALYZE = golden_analyze_cases()


def test_defect_classification_s4():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    got = [(r.class_index, CAT2.label(r.catalog_index), r.defect_zero)
           for r in rep.rows]
    assert got == [(0, "D8", False), (3, "1", True)]
    for r in rep.rows:
        assert r.sylow.order == max(1, 8 if r.catalog_index == 7 else 1)


def test_defect_classification_a4():
    rep = analysis(alternating_group(4), 2, CAT2)
    labels = [CAT2.label(r.catalog_index) for r in rep.rows]
    assert labels == ["C2^2", "1", "1"]


@pytest.mark.parametrize("make,label", [
    (lambda: dihedral_group(8), "D8"),
    (quaternion_group, "Q8"),
    (lambda: cyclic_group(4), "C4"),
])
def test_defect_of_p_group_identity_is_itself(make, label):
    Q = make()
    rep = analysis(Q, 2, CAT2)
    assert len(rep.rows) == 1
    assert CAT2.label(rep.rows[0].catalog_index) == label


def test_catalog_too_small():
    with pytest.raises(CatalogTooSmall):
        analysis(symmetric_group(4), 2, build_catalog(2, 4))


def test_defect_sylow_is_of_centralizer():
    G = direct_product(symmetric_group(3), cyclic_group(2))
    rep = analysis(G, 2, CAT2)
    for r in rep.rows:
        C = G.centralizer(r.rep)
        for e in r.sylow.elements:
            assert e in C


def test_gamma_s3_examples():
    g = gamma_element(BrauerData(symmetric_group(3), 2), (1, 2, 0))
    assert g.coeffs == (0, 1)
    assert [v.as_rational() for v in gamma_values(g.bd, (1, 2, 0))] == \
        [Fraction(2, 3), Fraction(-1, 3)]
    g = gamma_element(BrauerData(symmetric_group(3), 3), (1, 0, 2))
    assert g.coeffs == (2, 1)
    assert [v.as_rational() for v in gamma_values(g.bd, (1, 0, 2))] == \
        [Fraction(1, 2), Fraction(-1, 2)]


def test_gamma_trivial_group():
    assert gamma_element(BrauerData(trivial_group(), 2), (0,)).coeffs == (1,)


def test_gamma_rejects_positive_defect():
    with pytest.raises(NotDefectZero):
        G = symmetric_group(4)
        gamma_element(BrauerData(G, 2), ident(G))
    # p-singular element is not even p-regular
    with pytest.raises(NotDefectZero):
        gamma_element(BrauerData(symmetric_group(3), 2), (1, 0, 2))


def test_gamma_class_invariance():
    G = symmetric_group(4)
    x = (1, 2, 0, 3)
    bd = BrauerData(G, 2)
    base = gamma_element(bd, x)
    for t in G.elements:
        assert gamma_element(bd, G.conjugate(x, t)).coeffs == base.coeffs


def test_cartan_image_basis_s3():
    basis = cartan_image_basis(BrauerData(symmetric_group(3), 2))
    assert [b.coeffs for b in basis] == [(0, 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cartan_image_basis_empty_for_cyclic_p(p):
    assert cartan_image_basis(BrauerData(cyclic_group(p), p)) == []


def test_cartan_image_basis_full_when_coprime():
    # p does not divide |G|: every class has defect zero
    G = symmetric_group(3)
    bd = BrauerData(G, 5)
    basis = cartan_image_basis(bd)
    assert len(basis) == 3
    assert gf_rank(bd.F, [list(b.coeffs) for b in basis]) == 3


def test_u_element_s4():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    assert u_element(rep, ident(G)).coeffs == (1, 1)
    # trivial defect collapses the pipeline to gamma
    u = u_element(rep, (1, 2, 0, 3))
    assert u.coeffs == gamma_element(rep.bd, (1, 2, 0, 3)).coeffs == (0, 1)


def test_u_element_central_p_part():
    G = direct_product(symmetric_group(3), cyclic_group(2), name="S3xC2")
    rep = analysis(G, 2, CAT2)
    assert [CAT2.label(r.catalog_index) for r in rep.rows] == ["C2^2", "C2"]
    assert u_element(rep, rep.rows[0].rep).coeffs == (1, 1)
    assert u_element(rep, rep.rows[1].rep).coeffs == (0, 1)


@pytest.mark.parametrize("make", [quaternion_group,
                                  lambda: dihedral_group(8),
                                  lambda: cyclic_group(8)])
def test_u_element_p_group_is_unit(make):
    Q = make()
    rep = analysis(Q, 2, CAT2)
    assert u_element(rep, ident(Q)).coeffs == (1,)


def test_u_independent_of_sylow_choice():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    row = rep.rows[0]
    for t in [(1, 2, 0, 3), (1, 0, 3, 2), (3, 2, 1, 0)]:
        conj = G.generated_subgroup(
            [G.conjugate(x, t) for x in row.sylow.gens])
        assert _u_from(rep, row.rep, conj).coeffs == (1, 1)


@pytest.mark.parametrize("spec,p", GOLDEN_ANALYZE,
                         ids=[f"{g}-p{p}" for g, p in GOLDEN_ANALYZE])
def test_u_matches_quotient_route(spec, p):
    a = analysis(parse_group_spec(spec), p,
                 build_catalog(p))
    cache = {}
    for r in a.rows:
        assert u_element(a, r.rep).coeffs == \
            u_by_quotient(a, r.rep, r.sylow, cache)


def test_u_from_conjugates_by_the_centralizer_only(monkeypatch):
    # the product set R C_G(R) of an abelian group is all of G x G
    a = analysis(parse_group_spec("C289"), 17, build_catalog(17))
    calls = []
    real = groups.perm_mul

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(groups, "perm_mul", counted)
    monkeypatch.setattr(defects, "perm_mul", counted)
    row = a.rows[0]
    assert _u_from(a, row.rep, row.sylow).coeffs == (1,)
    assert len(calls) <= 6 * a.G.order


def u_by_scan(a, x, R):
    """U_x with x^H and |C_H(x)| from a scan of G for C_G(R): the route
    that _u_from keeps for an R with a non-central generator."""
    G, bd = a.G, a.bd
    cent = [g for g in G.elements
            if all(groups.perm_mul(g, r) == groups.perm_mul(r, g)
                   for r in R.gens)]
    orbit = {G.conjugate(x, c) for c in cent}
    centre = set(cent).intersection(R.elements)
    c_h = R.order * len(cent) // len(centre) // len(orbit)
    inv = bd._inv_pos[a.row_of(x).position]
    return tuple((RefCyc.from_counts(bd.m, P[inv]) * Fraction(1, c_h))
                 .reduce(bd.lift) for P in bd.Phi_counts)


def is_central(G, R):
    return all(groups.perm_mul(g, r) == groups.perm_mul(r, g)
               for r in R.gens for g in G.gens)


@pytest.mark.parametrize("spec,p", GOLDEN_ANALYZE,
                         ids=[f"{g}-p{p}" for g, p in GOLDEN_ANALYZE])
def test_central_defect_group_matches_the_scan(spec, p):
    a = analysis(parse_group_spec(spec), p,
                 build_catalog(p))
    for r in a.rows:
        if is_central(a.G, r.sylow):
            assert _u_from(a, r.rep, r.sylow).coeffs == \
                u_by_scan(a, r.rep, r.sylow)


def test_golden_cases_take_both_routes():
    central = set()
    for spec, p in GOLDEN_ANALYZE:
        a = analysis(parse_group_spec(spec), p,
                     build_catalog(p))
        central.update(is_central(a.G, r.sylow) for r in a.rows)
    assert central == {False, True}


def test_defect_zero_class_builds_no_centralizer(monkeypatch):
    G = symmetric_group(4)
    asked = []
    real = groups.PermGroup.centralizer

    def recorded(self, x):
        asked.append(tuple(x))
        return real(self, x)

    monkeypatch.setattr(groups.PermGroup, "centralizer", recorded)
    for p, cat in ((2, CAT2), (3, CAT3)):
        asked.clear()
        a = analysis(G, p, cat)
        zero = [r.rep for r in a.rows if r.defect_zero]
        assert zero
        assert asked == [r.rep for r in a.rows if not r.defect_zero]
        assert all(a.row_of(x).sylow.order == 1 for x in zero)


@pytest.mark.parametrize("route", [_u_from, u_by_quotient])
def test_wrong_sylow_raises_defect_not_zero_in_quotient(route):
    # <(0 1)> is not a Sylow 2-subgroup of C_G(1) = S4
    G = symmetric_group(4)
    a = analysis(G, 2, CAT2)
    with pytest.raises(DefectNotZeroInQuotient):
        route(a, ident(G), G.generated_subgroup([(1, 0, 2, 3)]))


def test_u_independent_of_representative():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    x = (1, 2, 0, 3)
    base = u_element(rep, x).coeffs
    for t in G.elements:
        assert u_element(rep, G.conjugate(x, t)).coeffs == base


def test_u_rejects_p_singular():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    with pytest.raises(PreconditionViolated):
        u_element(rep, (1, 0, 2, 3))


def test_genk_bases_s4():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    d8 = [u.coeffs for u in genk_basis(rep, 7)]
    assert sorted(d8) == [(0, 1), (1, 1)]
    assert [u.coeffs for u in genk_basis(rep, 1)] == [(0, 1)]
    assert [u.coeffs for u in genk_basis(rep, 0)] == [(0, 1)]


def test_genk_monotone_and_sylow_saturation():
    G = alternating_group(4)
    rep = analysis(G, 2, CAT2)
    bd = rep.bd
    spans = {}
    for j in range(len(CAT2)):
        vecs = [list(u.coeffs) for u in genk_basis(rep, j)]
        spans[j] = vecs
    for i in range(len(CAT2)):
        for j in range(len(CAT2)):
            if CAT2.embed[i][j]:
                joint = gf_rank(bd.F, spans[i] + spans[j])
                assert joint == len(spans[j])  # span_i inside span_j
    sylow_idx = CAT2.index_of_isomorphic(G.sylow_subgroup(2))
    assert gf_rank(bd.F, spans[sylow_idx]) == len(bd.simples)


def test_sp_dimensions_s4_a4():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    dims = {CAT2.label(j): sp_dimension(rep, j)
            for j in range(len(CAT2))}
    assert dims == {"1": 1, "C2": 0, "C4": 0, "C2^2": 0, "C8": 0,
                    "C4xC2": 0, "C2^3": 0, "D8": 1, "Q8": 0}
    A = alternating_group(4)
    repa = analysis(A, 2, CAT2)
    dimsa = {CAT2.label(j): sp_dimension(repa, j)
             for j in range(len(CAT2))}
    assert dimsa == {"1": 2, "C2": 0, "C4": 0, "C2^2": 1, "C8": 0,
                     "C4xC2": 0, "C2^3": 0, "D8": 0, "Q8": 0}


def give_row_the_u_of(monkeypatch, row, other):
    """Patch defects._u_from so that row's representative gets the U of
    other's: the U of the rows become linearly dependent."""
    real = defects._u_from

    def tampered(a, x, R):
        if tuple(x) == row.rep:
            return real(a, other.rep, other.sylow)
        return real(a, x, R)

    monkeypatch.setattr(defects, "_u_from", tampered)


def test_tampered_u_makes_sp_dimension_raise(monkeypatch):
    """The U of all rows are ranked once per Analysis, from the vectors
    themselves: a U made equal to another row's fails the check."""
    G = symmetric_group(4)
    clean = analysis(G, 2, CAT2)
    dims = [sp_dimension(clean, j) for j in range(len(CAT2))]
    a = defect_classification(clean.bd, CAT2)
    ident_row, three_cycles = a.rows  # defects D8 and 1
    d8 = CAT2.index_of_isomorphic(G.sylow_subgroup(2))
    with monkeypatch.context() as m:
        give_row_the_u_of(m, ident_row, three_cycles)
        with pytest.raises(InvariantViolated):
            sp_dimension(a, d8)
    assert [sp_dimension(clean, j) for j in range(len(CAT2))] == dims
    assert dims[d8] == 1


def test_u_basis_is_ranked_once_per_analysis(monkeypatch):
    """Every span of U vectors is a subset of one checked basis: over a
    report and every closed set, defects ranks the U of each Analysis
    once, besides the gamma rank inside cartan_image_basis."""
    calls = []
    real = defects.gf_rank

    def counted(F, rows):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(F, rows)

    monkeypatch.setattr(defects, "gf_rank", counted)
    analyze_report("S4", 2, max_p_order=8)
    assert calls == ["cartan_image_basis", "_u_basis"]
    a = analysis(symmetric_group(4), 2, CAT2)
    dims = [closed_set_dimension(a, c) for c in enumerate_closed_sets(CAT2)]
    assert calls == ["cartan_image_basis", "_u_basis", "_u_basis"]
    assert max(dims) == len(a.rows)


@pytest.mark.parametrize("make,p,cat", [
    (lambda: dihedral_group(8), 2, CAT2),
    (quaternion_group, 2, CAT2),
    (lambda: cyclic_group(9), 3, CAT3),
])
def test_sp_of_p_group_is_indicator(make, p, cat):
    Q = make()
    rep = analysis(Q, p, cat)
    own = cat.index_of_isomorphic(Q)
    for j in range(len(cat)):
        assert sp_dimension(rep, j) == (1 if j == own else 0)


def test_sp_total_is_class_count():
    for G, p, cat in [(symmetric_group(4), 2, CAT2),
                      (alternating_group(4), 2, CAT2),
                      (symmetric_group(4), 3, CAT3),
                      (cyclic_group(6), 2, CAT2),
                      (direct_product(symmetric_group(3), cyclic_group(2)),
                       2, CAT2)]:
        rep = analysis(G, p, cat)
        total = sum(sp_dimension(rep, j) for j in range(len(cat)))
        assert total == len(G.p_regular_classes(p))


def test_filtration_tables():
    assert filtration_table(analysis(symmetric_group(4), 2, CAT2)) == \
        (1, 1, 1, 1, 1, 1, 1, 2, 2)
    assert filtration_table(analysis(cyclic_group(2), 2, CAT2_SMALL)) \
        == (0, 1)
    assert filtration_table(analysis(cyclic_group(3), 3, CAT3)) \
        == (0, 1, 1, 1)
    # coprime order: everything sits at the trivial group
    assert filtration_table(analysis(symmetric_group(3), 5,
                                     build_catalog(5, 25))) == (3, 3, 3, 3)


def test_filtration_needs_sylow_in_catalog():
    with pytest.raises(CatalogTooSmall):
        filtration_table(analysis(symmetric_group(4), 2, CAT2_SMALL))


def test_analyze_keeps_the_filtration_checks(monkeypatch):
    # a class dropped from the S_P count stops the report with the
    # filtration's own check instead of printing a short filtration
    count = defects.sp_dimension

    def drop_one(a, P):
        d = count(a, P)
        return d - 1 if P == a.rows[0].catalog_index else d

    monkeypatch.setattr(defects, "sp_dimension", drop_one)
    with pytest.raises(InvariantViolated) as exc:
        analyze_report("S4", 2, seed=1)
    assert exc.value.module == "defects"


def test_rk_multiply_examples():
    bd = BrauerData(symmetric_group(3), 2)
    V = rk_basis_element(bd, 1)
    assert rk_multiply(V, V).coeffs == (0, 1)
    bd3 = BrauerData(symmetric_group(3), 3)
    sgn = rk_basis_element(bd3, 1)
    assert rk_multiply(sgn, sgn).coeffs == (1, 0)


def test_rk_identity_and_commutativity():
    bd = BrauerData(symmetric_group(4), 3)
    one = rk_basis_element(bd, 0)
    elems = [rk_basis_element(bd, s) for s in range(len(bd.simples))]
    for a in elems:
        assert rk_multiply(one, a) == a
        for b in elems:
            assert rk_multiply(a, b) == rk_multiply(b, a)


def test_rk_context_mismatch():
    a = rk_basis_element(BrauerData(symmetric_group(3), 2), 0)
    b = rk_basis_element(BrauerData(symmetric_group(3), 3), 0)
    with pytest.raises(PreconditionViolated):
        rk_multiply(a, b)


def test_genk_is_ideal():
    G = symmetric_group(4)
    rep = analysis(G, 2, CAT2)
    bd = rep.bd
    for j in [0, 1, 7]:
        basis = genk_basis(rep, j)
        span = [list(u.coeffs) for u in basis]
        r = gf_rank(bd.F, span)
        for s in range(len(bd.simples)):
            for u in basis:
                prod = rk_multiply(rk_basis_element(bd, s), u)
                assert gf_rank(bd.F, span + [list(prod.coeffs)]) == r


def test_closed_set_dimensions_a4():
    G = alternating_group(4)
    rep = analysis(G, 2, CAT2)
    assert closed_set_dimension(rep, CAT2.closure([0])) == 2
    assert closed_set_dimension(rep, CAT2.closure([1])) == 2
    assert closed_set_dimension(rep, CAT2.closure([3])) == 3
    assert closed_set_dimension(rep, CAT2.closure([7])) == 3
    # C2^2 does not embed in Q8, so the identity class never qualifies
    assert closed_set_dimension(rep, CAT2.closure([8])) == 2


def test_inflation_matches_direct_chop():
    # simples of H and of H/R agree when R is a normal p-subgroup: the
    # inflated Brauer rows must be exactly the rows computed by chopping
    # H itself
    H = direct_product(symmetric_group(3), cyclic_group(2), name="S3xC2")
    R = H.generated_subgroup([(0, 1, 2, 4, 3)])
    Hbar, proj = quotient_group(H, R)
    bh = BrauerData(H, 2)
    bq = BrauerData(Hbar, 2)
    assert len(bh.simples) == len(bq.simples)
    direct = cyc_rows(bh.m, bh.phi_counts)
    inflated = cyc_rows(bq.m, (
        [row[bq._pos[Hbar.class_index_of(proj[x])]] for x in bh.class_reps]
        for row in bq.phi_counts))
    for row in inflated:
        assert direct.count(row) == 1


def test_product_group_checks():
    out = product_group_check(cyclic_group(3), cyclic_group(2), 2,
                              CAT2_SMALL)
    assert out["ok"] and out["dim_total"] == 3
    assert out["sp_dims"] == {0: 0, 1: 3}
    out = product_group_check(trivial_group(), cyclic_group(2), 2,
                              CAT2_SMALL)
    assert out["ok"] and out["dim_total"] == 1
    cat5 = build_catalog(5, 25)
    out = product_group_check(symmetric_group(3), cyclic_group(5), 5, cat5)
    assert out["ok"] and out["dim_total"] == 3
    assert out["sp_dims"][cat5.index_of_isomorphic(cyclic_group(5))] == 3


def test_product_group_preconditions():
    with pytest.raises(PreconditionViolated):
        product_group_check(cyclic_group(2), cyclic_group(2), 2, CAT2_SMALL)
    with pytest.raises(PreconditionViolated):
        product_group_check(cyclic_group(3), symmetric_group(3), 2, CAT2)


def test_gamma_exact_reduces_to_gamma():
    """gamma_exact gives the root counts and the denominator |C_G(x)|
    whose reductions are gamma_element's coefficients, at every
    defect-zero class."""
    for spec, p in (("S3", 2), ("S4", 3), ("A5", 2), ("A5", 5)):
        bd = BrauerData(parse_group_spec(spec), p, seed=1)
        for x in bd.class_reps:
            c = bd.G.centralizer_order(x)
            if c % p:
                assert gamma_exact(bd, x)[1] == c
                assert tuple(v.reduce(bd.lift) for v in gamma_values(bd, x)) \
                    == gamma_element(bd, x).coeffs


def test_tampered_inputs_raise_invariant_violated():
    G = symmetric_group(3)
    bd = BrauerData(G, 2)
    x = (1, 2, 0)  # a 3-cycle: centralizer C3, defect zero at p = 2
    cyc = G.generated_subgroup([x])
    vals = {h: 3 if h == x else 0 for h in cyc.elements}
    ind = induce_class_function(G, cyc, vals, class_indices=bd.pregular)
    _indicator_check(bd, G, x, 3, ind)
    tampered = [v + 1 if k == 0 else v for k, v in enumerate(ind)]
    with pytest.raises(InvariantViolated) as info:
        _indicator_check(bd, G, x, 3, tampered)
    assert info.value.module == "defects"
    with pytest.raises(InvariantViolated) as info:
        RkElement(bd, (1,) * (len(bd.simples) + 1))
    assert info.value.module == "defects"
