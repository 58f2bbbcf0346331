"""Brauer characters, projective characters, and the Cartan matrix.

Everything is exact.  Character values live in a cyclotomic field whose
conductor m is the lcm of the p-regular element orders; the working
finite field is the splitting field F_{p^d} with d the multiplicative
order of p modulo m.  Eigenvalues of p-regular elements are lifted to
roots of unity through a fixed multiplicative section, so character
values are reproducible, not just well defined up to Galois action.
Each value phi_S(x) is kept as a root count (see cyclo): the exponent e
of each eigenvalue w^e with its multiplicity.  The phi rows are lifted
from the characteristic polynomials the simple-module search keys each
simple by, at each p-regular class's shortest-word member (fewest
matrix products); a linear one names its root.

All character arithmetic runs on root counts in plain ints.  The Cartan
matrix comes from Brauer's relations Phi = C phi and C = Gram(phi)^-1:
each Gram entry of the phi rows under the p-regular pairing is a sum of
products of root counts, reduced once; it must be rational (its entries
are Galois-invariant), its inverse over Q is C, and the projective
characters Phi are the integer combinations of the phi rows that C
gives.  Decompositions and structure constants pair root counts with
Phi the same way.  A one-dimensional simple is a homomorphism G -> F^*,
and tensoring with it permutes the simples.  phi_counts and Phi_counts
hold each character once; a report or demo prints their values through
cyclo.value_json and cyclo.value_text.

cartan_via_endomorphisms recomputes C in the regular algebra kG, whose
coordinates follow G.elements, with no character theory.  kG acts on
itself by left and right translations, each a permutation of
coordinates; one rref gives a preimage of every block identity, and
ranks of translated idempotents give the Hom dimensions.
"""

from fractions import Fraction
from math import lcm

from .config import default_seed
from .cyclo import (
    QQ,
    convolve_into,
    root_combination,
    root_product,
    root_sum,
    value_text,
)
from .errors import (
    InvariantViolated,
    NonIntegralCartan,
    NonIntegralDecomposition,
    NonSplitCharPoly,
    NotSubgroup,
    SingularPhi,
)
from .gf import gf_field, multiplicative_order, poly_divmod
from .groups import PermGroup, p_part, perm_inv, perm_mul
from .lift import BrauerLift
from .linalg import (
    Echelon,
    gf_mat_inv,
    gf_matmul,
    gf_rank,
    gf_rref,
    gf_vec_mat,
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
    """A simple kG-module; its Brauer character is the row of
    BrauerData.phi_counts at its index."""

    __slots__ = ("name", "index", "module", "dim")

    def __init__(self, name, index, module):
        self.name = name
        self.index = index
        self.module = module
        self.dim = module.dim

    def __repr__(self):
        return f"SimpleModule({self.name}, dim={self.dim})"


def _require(ok, message):
    if not ok:
        raise InvariantViolated("brauer", message)


def _phi_value(lift, F, f):
    """Brauer character value as a root count: the (e, multiplicity) of
    each eigenvalue w^e, e ascending, w = lift.root.

    f is the characteristic polynomial of a p-regular element, so its
    roots are m-th roots of unity, the roots lift.root_codes lists.  A
    linear x - r names its root r.  Otherwise each root r is divided
    out, as x - r, as often as it divides; a degree left over means the
    polynomial does not split into those roots.
    """
    if len(f) == 2:
        return ((lift.exponent(F.neg(f[0])), 1),)
    counts = []
    for e, code in enumerate(lift.root_codes):
        k = 0
        x_minus_root = (F.neg(code), 1)
        while len(f) > 1:
            quo, rem = poly_divmod(F, f, x_minus_root)
            if rem:
                break
            f, k = quo, k + 1
        if k:
            counts.append((e, k))
    if len(f) > 1:
        raise NonSplitCharPoly(
            "characteristic polynomial does not split over "
            f"GF({F.p},{F.d}); field is not a splitting field")
    return tuple(counts)


def _phi_sort_key(m, row):
    """Descending-lex on the power-basis numerators of a row of root
    counts.  Every phi value is a sum of m-th roots of unity with
    integer coefficients, so its numerators are its coordinates."""
    return tuple(tuple(-c for c in root_sum(m, v)) for v in row)


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
        counts = [tuple(_phi_value(self.lift, self.F, f) for f in key)
                  for _, key in found]
        order = sorted(range(len(found)),
                       key=lambda i: (found[i][0].dim,
                                      _phi_sort_key(self.m, counts[i])))
        self.simples = tuple(SimpleModule(f"S{k + 1}", k, found[i][0])
                             for k, i in enumerate(order))
        # phi_counts[s][k] is the root count of phi_s at class k
        self.phi_counts = tuple(counts[i] for i in order)
        self._structure = None
        self.cartan, self.Phi_counts = self._cartan_and_projectives()
        # the regular character is |G| at the identity class, 0 elsewhere
        self.composition_multiplicities = tuple(self.decompose(
            [((0, G.order),)] + [()] * (len(self.pregular) - 1)))
        self._check_invariants()

    # -- construction helpers

    def _cartan_and_projectives(self):
        """(C, Phi counts) from the Gram matrix of phi under the p-regular
        pairing: Phi_t = sum_s c_ts phi_s is the dual basis of phi, so
        C Gram(phi) = I and C = Gram(phi)^-1.

        |G| <phi_s, phi_t> = sum_k |class k| phi_s(x_k) phi_t(x_k^-1) is
        summed as one root count over the classes and reduced once; an
        irrational value raises NonIntegralCartan."""
        n, m = len(self.simples), self.m
        at_inverse = [[row[j] for j in self._inv_pos]
                      for row in self.phi_counts]
        gram = [[None] * n for _ in range(n)]
        for s in range(n):
            for t in range(s, n):
                acc = [0] * m
                for size, a, b in zip(self.class_sizes, self.phi_counts[s],
                                      at_inverse[t]):
                    convolve_into(acc, a, b, size)
                v = root_sum(m, enumerate(acc))
                if any(v[1:]):
                    raise NonIntegralCartan(
                        f"<phi_{s}, phi_{t}> is irrational")
                gram[s][t] = gram[t][s] = Fraction(v[0], self.G.order)
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
        Phi = tuple(
            tuple(root_combination((c, self.phi_counts[s][k])
                                   for s, c in enumerate(row) if c)
                  for k in range(len(self.pregular)))
            for row in cartan)
        return cartan, Phi

    def _check_invariants(self):
        G, n = self.G, len(self.simples)
        _require(n == len(self.pregular),
                 f"{n} simples for {len(self.pregular)} p-regular classes")
        _require(self.simples[0].dim == 1
                 and all(v == ((0, 1),) for v in self.phi_counts[0]),
                 "first simple is not the trivial module")
        for s, row in zip(self.simples, self.phi_counts):
            _require(row[0] == ((0, s.dim),),  # value at the identity class
                     f"{s.name}: Brauer character at 1 is not its dimension")
        # dim P_S is Phi_S at the identity; mass formula
        self.projective_dims = tuple(sum(a for _, a in P[0])
                                     for P in self.Phi_counts)
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
        so S_s (x) S_t is the simple whose root counts are those of
        phi_s phi_t; a product of two larger simples is decomposed."""
        if self._structure is None:
            n, m, p = len(self.simples), self.m, self.p
            by_row = {row: u for u, row in enumerate(self.phi_counts)}
            table = [[None] * n for _ in range(n)]
            for s in range(n):
                for t in range(s, n):
                    vals = tuple(root_product(m, a, b) for a, b in
                                 zip(self.phi_counts[s], self.phi_counts[t]))
                    if self.simples[s].dim == 1:
                        u = by_row.get(vals)
                        _require(u is not None,
                                 f"{self.simples[s].name} (x) "
                                 f"{self.simples[t].name} is not simple")
                        ints = [int(k == u) for k in range(n)]
                    else:
                        ints = self.decompose(vals)  # integral by Brauer
                    table[s][t] = table[t][s] = tuple(c % p for c in ints)
            self._structure = tuple(tuple(row) for row in table)
        return self._structure

    def _coefficient_counts(self, values):
        """For each simple S in turn, the dense root count of |G| times
        the coefficient of S in a class function on p-regular classes,
        values being a row of root counts over them in table order.

        Since <phi_T, Phi_S> = delta_TS, that count is
        sum_k |class k| values[k] Phi_S(x_k^-1), over the non-zero
        entries of values."""
        support = [k for k, v in enumerate(values) if v]
        for P in self.Phi_counts:
            acc = [0] * self.m
            for k in support:
                convolve_into(acc, values[k], P[self._inv_pos[k]],
                              self.class_sizes[k])
            yield acc

    def decompose(self, values):
        """The integer coefficients of a class function on p-regular
        classes in the Brauer character basis, each one root count
        reduced once; values is a row of root counts over the p-regular
        classes in table order.  A coefficient that is not an integer
        raises NonIntegralDecomposition."""
        m, order = self.m, self.G.order
        coeffs = []
        for S, acc in zip(self.simples, self._coefficient_counts(values)):
            total = root_sum(m, enumerate(acc))
            if any(total[1:]) or total[0] % order:
                raise NonIntegralDecomposition(
                    f"coefficient of {S.name} is "
                    f"{value_text(m, enumerate(acc), order)}")
            coeffs.append(total[0] // order)
        return coeffs


def induce_class_function(G: PermGroup, H: PermGroup, values,
                          class_indices=None):
    """Induce a class function from a subgroup.

    values maps elements of H (as tuples padded to G's degree) to values
    that add to 0 and take rational multiples, such as ints.  Returns a
    list over G's conjugacy classes, or over class_indices when given
    (values then only needs keys for the elements of H in those
    classes).  Each conjugate of g arises from |C_G(g)| elements
    t, so (Ind f)(g) = (1/|H|) sum over t in G with t^-1 g t in H of
    f(t^-1 g t) = (|C_G(g)|/|H|) sum over the h in H that lie in the
    class of g of f(h).
    """
    classes = G.conjugacy_classes()
    if class_indices is None:
        class_indices = range(len(classes))
    sums = dict.fromkeys(class_indices, 0)
    for h in H.elements:
        if h not in G:
            raise NotSubgroup("induction subgroup is not contained in G")
        ci = G.class_index_of(h)
        if ci in sums:
            sums[ci] += values[h]
    return [sums[ci] * Fraction(G.centralizer_order(classes[ci][0]), H.order)
            for ci in class_indices]


def _regular_algebra(G: PermGroup):
    """(left, right) translation maps of kG, whose coordinates follow
    G.elements: row g of left(a) is g a and row g of right(a) is a g.

    Each row permutes a's coordinates, so building one takes no field
    arithmetic, and a b is a times the matrix left(b)."""
    elements, index = G.elements, G._index
    # mul[i][j] is the index of elements[i] * elements[j]
    mul = [[index[perm_mul(x, y)] for y in elements] for x in elements]
    inv = [index[perm_inv(x)] for x in elements]
    # g a reads coordinate k of a at g^-1 g_k, a g reads it at g_k g^-1

    def left(a):
        return [[a[j] for j in mul[i]] for i in inv]

    def right(a):
        return [[a[row[i]] for row in mul] for i in inv]

    return left, right


def _block_idempotents(bd: BrauerData, left):
    """One idempotent e_s of kG per simple S_s: a preimage of the
    identity of S_s's matrix block (zero on the other blocks), lifted
    to a genuine idempotent.

    All preimages come from one rref.  It has one row per matrix entry
    (s, i, j): the entry at each group element, then one indicator
    column per block identity.  A pivot past the |G| group columns
    names the first block identity that no element of kG maps to."""
    G, F, n = bd.G, bd.F, bd.G.order
    words = [G.words[g] for g in G.elements]
    rows = []
    for s, S in enumerate(bd.simples):
        mats = S.module.word_matrices(words)
        for i in range(S.dim):
            for j in range(S.dim):
                rows.append([mat[i][j] for mat in mats]
                            + [int(i == j and t == s)
                               for t in range(len(bd.simples))])
    red, pivots = gf_rref(F, rows)
    missing = [c - n for c in pivots if c >= n]
    if missing:
        raise InvariantViolated(
            "brauer", f"the identity of {bd.simples[missing[0]].name}'s "
            "matrix block has no preimage in kG")
    passes = n.bit_length() + 1
    idems = []
    for s, S in enumerate(bd.simples):
        e = [0] * n
        for row, c in zip(red, pivots):
            e[c] = row[n + s]
        # lift to a genuine idempotent: e <- 3e^2 - 2e^3 squares the
        # error e^2 - e, which lies in the radical J, and J^|G| = 0
        for _ in range(passes):
            times_e = left(e)
            e2 = gf_vec_mat(F, e, times_e)
            if e2 == e:
                break
            e3 = gf_vec_mat(F, e2, times_e)
            e = F.axpy(F.axpy([0] * n, 3 % F.p, e2), (-2) % F.p, e3)
        else:
            raise InvariantViolated(
                "brauer", f"the idempotent lift for {S.name} does not "
                f"settle within {passes} passes")
        idems.append(e)
    return idems


def cartan_via_endomorphisms(bd: BrauerData):
    """Recompute the Cartan matrix as Hom dimensions between projective
    isotypic summands of the regular module, via lifted idempotents:
    c_(t,s) = dim(e_s kG e_t) / (dim S_s dim S_t).

    e_s kG is the row space of right(e_s), whose rows are the e_s g,
    and a basis of it times left(e_t) spans e_s kG e_t; left(e_t) is
    built once per t.  Independent of the character-theoretic route;
    intended for small groups (the regular algebra is |G|-dimensional).
    """
    F = bd.F
    left, right = _regular_algebra(bd.G)
    idems = _block_idempotents(bd, left)
    dims = [s.dim for s in bd.simples]
    spans = [Echelon(F, right(e)).rows for e in idems]
    out = []
    for t, et in enumerate(idems):
        times_et = left(et)
        row = []
        for s, basis in enumerate(spans):
            num = gf_rank(F, gf_matmul(F, basis, times_et))
            den = dims[s] * dims[t]
            if num % den:
                raise InvariantViolated(
                    "brauer", f"rank {num} of e_{s} kG e_{t} is not a "
                    f"multiple of {den}")
            row.append(num // den)
        out.append(row)
    return tuple(tuple(r) for r in out)
