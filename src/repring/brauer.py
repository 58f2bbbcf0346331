"""Brauer characters, projective characters, and the Cartan matrix.

Everything is exact.  Character values live in a cyclotomic field whose
conductor is the lcm of the p-regular element orders; the working finite
field is the splitting field F_{p^d} with d the multiplicative order of
p modulo that conductor.  Eigenvalues of p-regular elements are lifted
to roots of unity through a fixed multiplicative section, so character
values are reproducible, not just well defined up to Galois action.

The Cartan matrix comes from Brauer's relations Phi = C phi and
C = Gram(phi)^-1: the Gram matrix of the phi rows under the p-regular
pairing is rational (its entries are Galois-invariant), its inverse
over Q is C, and the projective characters Phi are the integer
combinations of the phi rows that C gives.  The phi rows are lifted from
the characteristic polynomials the simple-module search keys each simple
by, at each p-regular class's shortest-word member (fewest matrix
products); a linear one names its root.  A one-dimensional simple is a
homomorphism G -> F^*, and tensoring with it permutes the simples.
"""

from fractions import Fraction
from math import lcm

from .config import default_seed
from .cyclo import QQ, Cyc, dot
from .errors import (
    InvariantViolated,
    NonIntegralCartan,
    NonIntegralDecomposition,
    NonSplitCharPoly,
    NotSubgroup,
    SingularPhi,
)
from .gf import gf_field, multiplicative_order, poly_divmod
from .groups import PermGroup, _cayley, p_part
from .lift import BrauerLift
from .linalg import (
    Echelon,
    gf_mat_inv,
    gf_rank,
    gf_solve,
    gf_transpose,
    smith_normal_form,
)
from .meataxe import simple_modules


def splitting_field(G: PermGroup, p: int):
    """(field, lift, conductor) for G at p.

    The conductor m is the lcm of the orders of p-regular elements and
    the field degree is the order of p modulo m, the smallest degree
    over which every simple module is absolutely irreducible.
    """
    orders = G.class_orders()
    m = lcm(1, *(orders[i] for i in G.p_regular_classes(p)))
    d = multiplicative_order(p, m)
    F = gf_field(p, d)
    return F, BrauerLift(F, m), m


class SimpleModule:
    """A simple kG-module with its Brauer character."""

    __slots__ = ("name", "index", "module", "dim", "phi")

    def __init__(self, name, index, module, phi):
        self.name = name
        self.index = index
        self.module = module
        self.dim = module.dim
        self.phi = tuple(phi)

    def __repr__(self):
        return f"SimpleModule({self.name}, dim={self.dim})"


def _require(ok, message):
    if not ok:
        raise InvariantViolated("brauer", message)


def _phi_value(lift, F, f):
    """Brauer character value: eigenvalues lifted to roots of unity.

    f is the characteristic polynomial of a p-regular element, so its
    roots are m-th roots of unity, the roots lift.root_codes lists.  A
    linear x - r names its root r.  Otherwise each root r is divided
    out, as x - r, as often as it divides; a degree left over means the
    polynomial does not split into those roots.
    """
    if len(f) == 2:
        return lift.lift(F.neg(f[0]))
    mults, lifts = [], []
    for code in lift.root_codes:
        k = 0
        x_minus_root = (F.neg(code), 1)
        while len(f) > 1:
            quo, rem = poly_divmod(F, f, x_minus_root)
            if rem:
                break
            f, k = quo, k + 1
        if k:
            mults.append(k)
            lifts.append(lift.lift(code))
    if len(f) > 1:
        raise NonSplitCharPoly(
            "characteristic polynomial does not split over "
            f"GF({F.p},{F.d}); field is not a splitting field")
    return dot(mults, lifts)


def _row_key(row):
    """A hashable form of a row of Cyc values of one conductor."""
    return tuple((v.m, v.num, v.den) for v in row)


def _phi_sort_key(row):
    """Descending-lex on numerators.  Every phi value is a sum of m-th
    roots of unity with integer coefficients, so all share the conductor
    m and denominator 1, and their numerators are their coordinates."""
    return tuple(tuple(-c for c in v.num) for v in row)


class BrauerData:
    """All modular character data of one group at one prime."""

    def __init__(self, G: PermGroup, p: int, seed=None):
        if seed is None:
            seed = default_seed()
        self.G = G
        self.p = p
        self.seed = seed
        self.F, self.lift, self.m = splitting_field(G, p)
        classes = G.conjugacy_classes()
        self.pregular = tuple(G.p_regular_classes(p))
        self.class_reps = tuple(min(classes[i], key=lambda g: len(G.words[g]))
                                for i in self.pregular)
        self.class_sizes = tuple(len(classes[i]) for i in self.pregular)
        self._pos = {ci: k for k, ci in enumerate(self.pregular)}
        inv_map = G.inverse_class_map()
        self._inv_pos = tuple(self._pos[inv_map[ci]] for ci in self.pregular)

        found = simple_modules(G, self.F, seed, self.class_reps)
        rows = [tuple(_phi_value(self.lift, self.F, f) for f in key)
                for _, key in found]
        order = sorted(range(len(found)),
                       key=lambda i: (found[i][0].dim,
                                      _phi_sort_key(rows[i])))
        self.simples = tuple(
            SimpleModule(f"S{k + 1}", k, found[i][0], rows[i])
            for k, i in enumerate(order))
        self.phi = tuple(s.phi for s in self.simples)
        self._structure = None
        self.cartan, self.Phi = self._cartan_and_projectives()
        # the inverse of the phi table: row i, column S is
        # Phi_S(x_i^-1) |class i| / |G|, since <phi_T, Phi_S> = delta_TS
        self._dual = tuple(
            tuple(P[self._inv_pos[i]] * Fraction(size, G.order)
                  for P in self.Phi)
            for i, size in enumerate(self.class_sizes))
        # the regular character is |G| at the identity class, 0 elsewhere
        self.composition_multiplicities = tuple(self.decompose(
            [G.order] + [0] * (len(self.pregular) - 1)))
        self._check_invariants()

    # -- construction helpers

    def _cartan_and_projectives(self):
        """(C, Phi) from the Gram matrix of phi under the p-regular
        pairing: Phi_t = sum_s c_ts phi_s is the dual basis of phi, so
        C Gram(phi) = I and C = Gram(phi)^-1."""
        n = len(self.simples)
        weighted = [[size * v for size, v in zip(self.class_sizes, row)]
                    for row in self.phi]
        at_inverse = [[row[j] for j in self._inv_pos] for row in self.phi]
        gram = [[None] * n for _ in range(n)]
        for s in range(n):
            for t in range(s, n):
                v = dot(weighted[s], at_inverse[t]).as_rational()
                if v is None:
                    raise NonIntegralCartan(
                        f"<phi_{s}, phi_{t}> is irrational")
                gram[s][t] = gram[t][s] = v / self.G.order
        try:
            inv = gf_mat_inv(QQ, gram)
        except ZeroDivisionError as exc:
            raise SingularPhi(
                "Brauer character table is singular; simples are "
                "incomplete or duplicated") from exc
        for t in range(n):
            for s in range(n):
                v = inv[t][s]
                if v.denominator != 1 or v < 0:
                    raise NonIntegralCartan(
                        f"c_({t},{s}) = {v} is not a non-negative integer")
                if v != inv[s][t]:
                    raise NonIntegralCartan("Cartan matrix not symmetric")
        cartan = tuple(tuple(int(v) for v in row) for row in inv)
        Phi = []
        for row in cartan:
            terms = [(c, self.phi[s]) for s, c in enumerate(row) if c]
            Phi.append(tuple(dot([c for c, _ in terms], column)
                             for column in zip(*(r for _, r in terms))))
        return cartan, tuple(Phi)

    def _check_invariants(self):
        G, n = self.G, len(self.simples)
        _require(n == len(self.pregular),
                 f"{n} simples for {len(self.pregular)} p-regular classes")
        one = Cyc.from_rational(1)
        first = self.simples[0]
        _require(first.dim == 1 and all(v == one for v in first.phi),
                 "first simple is not the trivial module")
        for s in self.simples:
            _require(s.phi[0] == s.dim,  # value at the identity class
                     f"{s.name}: Brauer character at 1 is not its dimension")
        # dim P_S from Phi at the identity, and mass formula
        proj_dims = [self.Phi[t][0].as_rational() for t in range(n)]
        _require(all(d is not None and d.denominator == 1
                     for d in proj_dims),
                 "a projective dimension is not an integer")
        self.projective_dims = tuple(int(d) for d in proj_dims)
        _require(sum(pd * s.dim
                     for pd, s in zip(self.projective_dims, self.simples))
                 == G.order,
                 "sum of dim P_S * dim S is not |G|")
        # composition multiplicity of S in kG equals sum_T dim T * c_{T,S}
        for s in range(n):
            expect = sum(self.simples[t].dim * self.cartan[t][s]
                         for t in range(n))
            _require(self.composition_multiplicities[s] == expect,
                     f"multiplicity of {self.simples[s].name} in kG is "
                     f"{self.composition_multiplicities[s]}, but "
                     f"sum_T dim T * c_(T,S) is {expect}")

    # -- derived data

    def elementary_divisors(self):
        """Nonzero Smith normal form divisors of the Cartan matrix."""
        divs = smith_normal_form([list(r) for r in self.cartan])
        _require(all(divs), "Cartan matrix is singular")
        return tuple(divs)

    def centralizer_p_parts(self):
        """p-part of |C_G(x)| per p-regular class; by Brauer-Nesbitt
        this multiset equals the Cartan elementary divisors."""
        out = []
        for x in self.class_reps:
            out.append(p_part(self.G.centralizer_order(x), self.p))
        return tuple(out)

    def structure_constants(self):
        """table[s][t][u]: multiplicity of S_u in S_s (x) S_t, reduced mod
        p.  The product is commutative, so only t >= s is computed.  A
        one-dimensional S_s (these sort first) maps simples to simples,
        so S_s (x) S_t is the simple whose phi row is phi_s phi_t; a
        product of two larger simples is decomposed."""
        if self._structure is None:
            n = len(self.simples)
            by_row = {_row_key(row): u for u, row in enumerate(self.phi)}
            table = [[None] * n for _ in range(n)]
            for s in range(n):
                for t in range(s, n):
                    vals = [a * b for a, b in zip(self.phi[s], self.phi[t])]
                    if self.simples[s].dim == 1:
                        u = by_row.get(_row_key(vals))
                        _require(u is not None,
                                 f"{self.simples[s].name} (x) "
                                 f"{self.simples[t].name} is not simple")
                        ints = [int(k == u) for k in range(n)]
                    else:
                        ints = self.decompose(vals)  # integral by Brauer
                    table[s][t] = table[t][s] = tuple(
                        self.lift.reduce_rational(Fraction(c)) for c in ints)
            self._structure = tuple(tuple(row) for row in table)
        return self._structure

    def decompose(self, values, require_integral=True):
        """Coefficients of a class function on p-regular classes in the
        Brauer character basis.  values is a row over the p-regular
        classes in table order.

        Only the non-zero entries of values are multiplied out; each sum
        is then put at the conductor a dot over every entry gives, the
        lcm of all their conductors.
        """
        support = [k for k, v in enumerate(values) if v]
        m_values = lcm(*(Cyc.coerce(v).m for v in values))
        coeffs = []
        for s, column in enumerate(zip(*self._dual)):
            total = dot([values[k] for k in support],
                        [column[k] for k in support]).promote(
                lcm(m_values, *(c.m for c in column)))
            if not require_integral:
                coeffs.append(total)
            elif total.den != 1 or any(total.num[1:]):
                raise NonIntegralDecomposition(
                    f"coefficient of {self.simples[s].name} is {total!r}")
            else:
                coeffs.append(total.num[0])
        return coeffs


def induce_class_function(G: PermGroup, H: PermGroup, values,
                          class_indices=None):
    """Induce a class function from a subgroup.

    values maps elements of H (as tuples padded to G's degree) to Cyc.
    Returns a list over G's conjugacy classes, or over class_indices
    when given (values then only needs keys for the elements of H in
    those classes).  Each conjugate of g arises from |C_G(g)| elements
    t, so (Ind f)(g) = (1/|H|) sum over t in G with t^-1 g t in H of
    f(t^-1 g t) = (|C_G(g)|/|H|) sum over the h in H that lie in the
    class of g of f(h).
    """
    classes = G.conjugacy_classes()
    if class_indices is None:
        class_indices = range(len(classes))
    sums = {ci: Cyc.from_rational(0) for ci in class_indices}
    for h in H.elements:
        if h not in G:
            raise NotSubgroup("induction subgroup is not contained in G")
        ci = G.class_index_of(h)
        if ci in sums:
            sums[ci] = sums[ci] + Cyc.coerce(values[h])
    return [sums[ci] * Fraction(G.centralizer_order(classes[ci][0]), H.order)
            for ci in class_indices]


def _regular_algebra(G: PermGroup, F):
    """(alg_mul, times_element) on kG, whose coordinates follow
    G.elements: the product of two algebra elements, and an algebra
    element times the group element of a given index."""
    n = G.order
    table = _cayley(G)
    mul_table = table.mul
    # left translation by element i moves coordinate j to mul[i][j], so
    # its inverse reads coordinate k from row inv(i) of the table
    shifts = [mul_table[row.index(table.identity)] for row in mul_table]

    def alg_mul(a, b):
        out = [0] * n
        for ai, shift in zip(a, shifts):
            if ai:
                out = F.axpy(out, ai, [b[j] for j in shift])
        return out

    def times_element(a, g):
        """coordinate i of a moves to the index of elements[i] * elements[g]"""
        out = [0] * n
        for i, ai in enumerate(a):
            out[mul_table[i][g]] = ai
        return out

    return alg_mul, times_element


def _block_idempotents(bd: BrauerData, alg_mul):
    """One idempotent e_s of kG per simple S_s: a preimage of the
    identity of S_s's matrix block (zero on the other blocks), lifted
    to a genuine idempotent."""
    G, F = bd.G, bd.F
    sims = [s.module for s in bd.simples]
    dims = [s.dim for s in bd.simples]
    # pi : kG -> sum of matrix blocks, one row per group element
    pi = []
    for g in G.elements:
        row = []
        for mod in sims:
            for r in mod.element_matrix(G, g):
                row.extend(r)
        pi.append(row)
    pit = gf_transpose(pi)
    idems = []
    for s in range(len(dims)):
        target = []
        for t, dt in enumerate(dims):
            target.extend(1 if (t == s and i == j) else 0
                          for i in range(dt) for j in range(dt))
        e = gf_solve(F, pit, target)
        if e is None:
            raise InvariantViolated(
                "brauer", f"the identity of simple {s}'s matrix block has "
                "no preimage in kG")
        # lift to a genuine idempotent: e <- 3e^2 - 2e^3 squares the
        # radical error term each pass
        while True:
            e2 = alg_mul(e, e)
            if e2 == e:
                break
            e3 = alg_mul(e2, e)
            e = F.axpy(F.axpy([0] * len(e), 3 % F.p, e2), (-2) % F.p, e3)
        idems.append(e)
    return idems


def cartan_via_endomorphisms(bd: BrauerData):
    """Recompute the Cartan matrix as Hom dimensions between projective
    isotypic summands of the regular module, via lifted idempotents:
    c_(t,s) = dim(e_s kG e_t) / (dim S_s dim S_t).

    Since e_s kG e_t = (e_s kG) e_t, each e_s kG is spanned once, from
    the e_s g that are independent when met, and only those basis
    vectors are multiplied by each e_t: the dimensions of the e_s kG
    sum to |G|, so each e_t costs |G| algebra products in all.
    Independent of the character-theoretic route; intended for small
    groups (the regular algebra is |G|-dimensional).
    """
    F = bd.F
    alg_mul, times_element = _regular_algebra(bd.G, F)
    idems = _block_idempotents(bd, alg_mul)
    dims = [s.dim for s in bd.simples]
    spans = []
    for e in idems:
        ech = Echelon(F)
        spans.append([v for v in (times_element(e, g)
                                  for g in range(bd.G.order))
                      if ech.add(v)])
    out = []
    for t, et in enumerate(idems):
        row = []
        for s, basis in enumerate(spans):
            num = gf_rank(F, [alg_mul(b, et) for b in basis])
            den = dims[s] * dims[t]
            if num % den:
                raise InvariantViolated(
                    "brauer", f"rank {num} of e_{s} kG e_{t} is not a "
                    f"multiple of {den}")
            row.append(num // den)
        out.append(row)
    return tuple(tuple(r) for r in out)
