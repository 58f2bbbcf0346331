"""Defect classification and the functor layer on kR_k(G).

A p-regular class has defect [R] where R is a Sylow p-subgroup of the
centralizer of a representative.  Defect-zero classes carry the basis
elements gamma_{G,x} of the reduced Cartan image; general classes carry
U_x, the induction to G of the gamma of x R_x in R_x C_G(R_x) / R_x,
inflated.  By second orthogonality U_x is read off the projective
characters of G (see _u_from), so no quotient group is built.  Spans
of the U_x over prefixes of the p-group catalog give the dimensions of
the subquotient functors evaluated at G.  An element of kR_k(G) holds
field coefficients only: gamma_exact gives gamma's coefficients before
reduction, root counts over |C_G(x)|, for a report or demo to print.

An Analysis holds one group's Brauer data, catalog and defect rows at
one prime and seed, and the U of its rows, built and checked to be
independent once, on it rather than in a module-level cache.  Every span
below is a set of rows, so its dimension is a count of rows.
"""

from .brauer import BrauerData, induce_class_function
from .catalog import PGroupCatalog
from .errors import (
    CatalogTooSmall,
    DefectNotZeroInQuotient,
    InvariantViolated,
    NotDefectZero,
    PreconditionViolated,
)
from .groups import PermGroup, p_part, perm_mul, perm_order
from .linalg import gf_rank


class RkElement:
    """A vector in kR_k(G): one field coefficient per simple module."""

    __slots__ = ("bd", "coeffs")

    def __init__(self, bd: BrauerData, coeffs):
        if len(coeffs) != len(bd.simples):
            raise InvariantViolated(
                "defects", f"{len(coeffs)} coefficients for "
                f"{len(bd.simples)} simple modules")
        self.bd = bd
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if self.bd is not other.bd:
            raise PreconditionViolated("elements of different group contexts")

    def __add__(self, other):
        self._check(other)
        return RkElement(self.bd, tuple(
            self.bd.F.axpy(self.coeffs, 1, other.coeffs)))

    def scale(self, c):
        zero = [0] * len(self.coeffs)
        return RkElement(self.bd, tuple(self.bd.F.axpy(zero, c, self.coeffs)))

    def __eq__(self, other):
        return (isinstance(other, RkElement)
                and self.bd.G.key() == other.bd.G.key()
                and self.bd.p == other.bd.p
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.bd.G.key(), self.bd.p, self.coeffs))

    def __repr__(self):
        return f"RkElement{self.coeffs}"


class DefectRow:
    __slots__ = ("position", "class_index", "rep", "sylow",
                 "catalog_index", "defect_zero")

    def __init__(self, position, class_index, rep, sylow, catalog_index):
        self.position = position
        self.class_index = class_index
        self.rep = rep
        self.sylow = sylow
        self.catalog_index = catalog_index
        self.defect_zero = sylow.order == 1


class Analysis:
    """One group at one prime and seed: its Brauer data, the catalog,
    the defect row of every p-regular class, and the U of every row."""

    def __init__(self, bd: BrauerData, catalog: PGroupCatalog, rows):
        self.bd = bd
        self.G = bd.G
        self.p = bd.p
        self.catalog = catalog
        self.rows = tuple(rows)
        self._by_class = {r.class_index: r for r in self.rows}
        self._us = None  # U of each row, in row order; see _u_basis

    def row_of(self, x) -> DefectRow:
        ci = self.G.class_index_of(x)
        row = self._by_class.get(ci)
        if row is None:
            raise PreconditionViolated(
                f"element of order {perm_order(tuple(x))} is not "
                f"{self.p}-regular")
        return row

    def defect_zero_rows(self):
        return [r for r in self.rows if r.defect_zero]


def defect_classification(bd: BrauerData,
                          catalog: PGroupCatalog) -> Analysis:
    """Assign each p-regular class the catalog index of the isomorphism
    type of a Sylow p-subgroup of its centralizer.

    |C_G(x)| is read off the class sizes, so a class of defect zero (p
    does not divide it) gets the trivial subgroup, one per call, without
    building C_G(x).  A central x has C_G(x) = G, and a p-group is its
    own Sylow subgroup (see PermGroup.centralizer and sylow_subgroup).
    """
    G, p = bd.G, bd.p
    classes = G.conjugacy_classes()
    rows = []
    trivial = None
    for pos, ci in enumerate(bd.pregular):
        rep = classes[ci][0]
        if G.centralizer_order(rep) % p:
            if trivial is None:
                trivial = PermGroup(G.degree, [])
            R = trivial
        else:
            R = G.centralizer(rep).sylow_subgroup(p)
        j = catalog.index_of_isomorphic(R)
        if j is None:
            raise CatalogTooSmall(
                f"defect group of order {R.order} for class {ci} of "
                f"{G.describe()} is not in the catalog "
                f"(p={p}, max order {catalog.max_order})")
        rows.append(DefectRow(pos, ci, rep, R, j))
    return Analysis(bd, catalog, rows)


def gamma_exact(bd: BrauerData, x):
    """(counts, c) for a defect-zero x: the coefficient of gamma_{G,x}
    at S, before reduction, is Phi_S(x^-1) / c with c = |C_G(x)|, and
    counts holds the root counts of the Phi_S(x^-1) in simple order."""
    G, p = bd.G, bd.p
    x = tuple(x)
    ci = G.class_index_of(x)
    if ci not in bd._pos:
        raise NotDefectZero(f"element of {G.describe()} is not {p}-regular")
    csize = G.centralizer_order(x)
    if csize % p == 0:
        raise NotDefectZero(
            f"class has defect of order {p_part(csize, p)}, not zero")
    inv = bd._inv_pos[bd._pos[ci]]
    return tuple(P[inv] for P in bd.Phi_counts), csize


def gamma_element(bd: BrauerData, x) -> RkElement:
    """gamma_{G,x} for a defect-zero x: coefficient at S is the
    reduction of Phi_S(x^-1) / |C_G(x)|."""
    counts, c = gamma_exact(bd, x)
    return RkElement(bd, tuple(bd.lift.reduce(v, c) for v in counts))


def _phi_over(bd: BrauerData, k: int, c: int):
    """The reductions of Phi_S(x^-1) / c over the simples S, for x in
    the p-regular class at position k: U with c = |C_H(x)|, which p may
    divide (see BrauerLift.reduce)."""
    inv = bd._inv_pos[k]
    return tuple(bd.lift.reduce(P[inv], c) for P in bd.Phi_counts)


def _indicator_check(bd: BrauerData, G, x, csize, ind_vals):
    """The induced function of |x| * 1_x on <x> must be |C_G(x)| at the
    class of x and 0 at every other p-regular class."""
    xci = G.class_index_of(x)
    for pos, ci in enumerate(bd.pregular):
        want = csize if ci == xci else 0
        if ind_vals[pos] != want:
            raise InvariantViolated(
                "defects", f"induced indicator is {ind_vals[pos]} at "
                f"p-regular class {ci}, expected {want}")


def cartan_image_basis(bd: BrauerData):
    """{gamma_{G,x} : x defect zero}, with the reduced-Cartan-image
    identities verified along the way."""
    G, p, F = bd.G, bd.p, bd.F
    n = len(bd.simples)
    zero_pos = [k for k in range(n)
                if G.centralizer_order(bd.class_reps[k]) % p != 0]
    gammas = [gamma_element(bd, bd.class_reps[k]) for k in zero_pos]

    if gf_rank(F, [list(g.coeffs) for g in gammas]) != len(gammas):
        raise InvariantViolated(
            "defects", "defect-zero gamma elements are linearly dependent")

    # each reduced Cartan column equals the Phi-weighted sum of gammas
    for t in range(n):
        col = tuple(c % p for c in bd.cartan[t])
        acc = [0] * n
        for k, g in zip(zero_pos, gammas):
            acc = F.axpy(acc, bd.lift.reduce(bd.Phi_counts[t][k]), g.coeffs)
        if tuple(acc) != col:
            raise InvariantViolated(
                "defects", f"reduced Cartan column {t} is not the "
                "Phi-weighted sum of the gammas")

    # the reduced Cartan image of v_x = Ind_<x>^G(|x| 1_x) is |C| gamma_x
    for k, g in zip(zero_pos, gammas):
        x = bd.class_reps[k]
        csize = G.centralizer_order(x)
        cyc = G.generated_subgroup([x])
        o = cyc.order
        vals = {h: o if h == x else 0 for h in cyc.elements}
        ind = induce_class_function(G, cyc, vals,
                                    class_indices=bd.pregular)
        _indicator_check(bd, G, x, csize, ind)
        # so ind is the integer csize at the class of x and 0 elsewhere;
        # each coefficient of its decomposition is a count over |G|
        counts = bd._coefficient_counts(
            [((0, csize),) if v else () for v in ind])
        lhs = tuple(bd.lift.reduce(enumerate(acc), G.order)
                    for acc in counts)
        if lhs != g.scale(csize % p).coeffs:
            raise InvariantViolated(
                "defects", "reduced Cartan image of the induced indicator "
                "is not |C_G(x)| gamma_x")
    return gammas


def _u_from(a: Analysis, x, R):
    """U_x with an explicit Sylow subgroup R of C_G(x).

    Let H = R C_G(R).  By second orthogonality, gamma of the image of x
    in H/R is, as a class function, the indicator of its class; inflated
    to H it is the indicator of the H-conjugates of the coset xR.  Since
    R centralizes x, the only p-regular element of xR is x, so by
    Frobenius reciprocity U_x[S] = reduce(Phi_S(x^-1) / |C_H(x)|): the
    gamma_{G,x} formula with C_H(x) in place of C_G(x).

    So the class x^H is x's orbit under C_G(R) alone, and |C_H(x)| =
    |H| / |x^H| with |H| = |R| |C_G(R)| / |Z(R)|, Z(R) being the
    elements of R in C_G(R).  When every generator of R is central in G
    (R trivial, or R = G abelian), C_G(R) = G, Z(R) = R and H = G, so
    x^H is the class x^G and |C_H(x)| = |G| / |x^G|, with no scan.
    """
    G, p, bd = a.G, a.p, a.bd
    x = tuple(x)
    if all(perm_mul(g, r) == perm_mul(r, g) for r in R.gens for g in G.gens):
        orbit = set(G.conjugacy_classes()[G.class_index_of(x)])
        c_h = G.order // len(orbit)
    else:
        cent = [g for g in G.elements
                if all(perm_mul(g, r) == perm_mul(r, g) for r in R.gens)]
        orbit = {G.conjugate(x, c) for c in cent}
        centre = set(cent).intersection(R.elements)
        c_h = R.order * len(cent) // len(centre) // len(orbit)
    # the k in H that fix the coset xR are the preimage of the centralizer
    # of its image in H/R, so their count over |R| is that order; each
    # conjugate of x in the coset is x^k for |C_H(x)| of them
    coset = {perm_mul(x, r) for r in R.elements}
    if len(orbit & coset) * c_h // R.order % p == 0:
        raise DefectNotZeroInQuotient(
            f"image of x in R C_G(R)/{R.describe()} has positive defect; "
            "the Sylow subgroup R was not correct")
    return RkElement(bd, _phi_over(bd, a.row_of(x).position, c_h))


def _u_basis(a: Analysis):
    """The U of every row, in row order, built on first use and checked
    once to be independent: every span below is a subset of it, so its
    rank is its size.  The Sylow entry's rows are all the rows, so the
    error names it."""
    if a._us is None:
        us = tuple(_u_from(a, r.rep, r.sylow) for r in a.rows)
        if gf_rank(a.bd.F, [list(u.coeffs) for u in us]) != len(us):
            raise InvariantViolated(
                "defects", "U elements under catalog entry "
                f"{a.rows[0].catalog_index} are linearly dependent")
        a._us = us
    return a._us


def _rows_under(a: Analysis, entries):
    """Positions of the rows whose defect embeds into one of the catalog
    entries."""
    embed = a.catalog.embed
    return [r.position for r in a.rows
            if any(embed[r.catalog_index][j] for j in entries)]


def u_element(a: Analysis, x) -> RkElement:
    """U_x: induced inflation of the defect-zero gamma over R_x C_G(R_x).

    Uses the analysis' Sylow subgroup when x is the stored representative
    and recomputes one otherwise; the result is independent of both
    choices.
    """
    x = tuple(x)
    row = a.row_of(x)
    if x != row.rep:
        return _u_from(a, x, a.G.centralizer(x).sylow_subgroup(a.p))
    return _u_basis(a)[row.position]


def genk_basis(a: Analysis, P: int):
    """{U_x : defect of x embeds into catalog entry P}; a basis."""
    us = _u_basis(a)
    return tuple(us[k] for k in _rows_under(a, (P,)))


def sp_dimension(a: Analysis, P: int) -> int:
    """dim S_P(G) = number of classes with defect isomorphic to P,
    cross-checked as a rank difference of spanning sets, each rank the
    size of a subset of the checked U basis."""
    _u_basis(a)
    direct = sum(1 for r in a.rows if r.catalog_index == P)
    upper = len(_rows_under(a, (P,)))
    lower = len(_rows_under(a, a.catalog.down_set(P).members - {P}))
    if upper - lower != direct:
        raise InvariantViolated(
            "defects", f"S_P by rank is {upper - lower}, "
            f"by class count {direct}")
    return direct


def filtration_table(a: Analysis):
    """Cumulative dim over the catalog prefix order; ends at the number
    of p-regular classes, increasing only under the Sylow subgroup."""
    G, p, catalog = a.G, a.p, a.catalog
    # the identity class has centralizer G, so its defect is the Sylow
    sylow_idx = a.rows[0].catalog_index
    out = []
    total = 0
    for j in range(len(catalog)):
        step = sp_dimension(a, j)
        if step and not catalog.embed[j][sylow_idx]:
            raise InvariantViolated(
                "defects", f"S_P is nonzero at {catalog.label(j)}, which "
                "does not embed in the Sylow subgroup")
        total += step
        out.append(total)
    if total != len(G.p_regular_classes(p)):
        raise InvariantViolated(
            "defects", f"filtration ends at {total}, not at the number "
            "of p-regular classes")
    return tuple(out)


def rk_multiply(a: RkElement, b: RkElement) -> RkElement:
    """Product in kR_k(G): structure constants from decomposing the
    pointwise products of Brauer characters, reduced mod p."""
    a._check(b)
    bd = a.bd
    F = bd.F
    n = len(bd.simples)
    table = bd.structure_constants()
    out = [0] * n
    for s in range(n):
        if not a.coeffs[s]:
            continue
        for t in range(n):
            if not b.coeffs[t]:
                continue
            out = F.axpy(out, F.mul(a.coeffs[s], b.coeffs[t]), table[s][t])
    return RkElement(bd, tuple(out))


def rk_basis_element(bd: BrauerData, s: int) -> RkElement:
    coeffs = [0] * len(bd.simples)
    coeffs[s] = 1
    return RkElement(bd, tuple(coeffs))


def closed_set_dimension(a: Analysis, closed) -> int:
    """dim of the subfunctor attached to a closed catalog subset,
    evaluated at G: rank of the union of the genk bases over members,
    the size of a subset of the checked U basis."""
    _u_basis(a)
    rank = len(_rows_under(a, closed.members))
    expect = sum(1 for r in a.rows if r.catalog_index in closed.members)
    if rank != expect:
        raise InvariantViolated(
            "defects", f"closed-set span has rank {rank}, class count "
            f"{expect}")
    return rank


def product_group_check(L: PermGroup, Q: PermGroup, p: int,
                        catalog: PGroupCatalog, seed=None) -> dict:
    """Evaluate the functor on L x Q with p coprime to |L| and Q a
    p-group: dimensions must factor through the class count of L."""
    if L.order % p == 0:
        raise PreconditionViolated(f"|{L.describe()}| is divisible by {p}")
    if any(p_part(Q.element_order(g), p) != Q.element_order(g)
           for g in Q.elements):
        raise PreconditionViolated(f"{Q.describe()} is not a {p}-group")
    from .groups import direct_product
    GxQ = direct_product(L, Q)
    nl = len(L.conjugacy_classes())
    a = defect_classification(BrauerData(GxQ, p, seed), catalog)
    qidx = catalog.index_of_isomorphic(Q)
    if qidx is None:
        raise CatalogTooSmall(f"{Q.describe()} not in catalog")
    dim_total = len(GxQ.p_regular_classes(p))
    dims = {j: sp_dimension(a, j) for j in range(len(catalog))}
    expected = {j: (nl if j == qidx else 0) for j in range(len(catalog))}
    ok = dim_total == nl * 1 and dims == expected
    return {
        "group": GxQ.describe(),
        "classes_of_L": nl,
        "dim_total": dim_total,
        "sp_dims": dims,
        "expected": expected,
        "ok": ok,
    }
