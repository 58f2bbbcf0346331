"""Splitting modules over group algebras into simple factors.

Modules are given by one action matrix per group generator, acting on
row vectors (v -> v*M), so g -> M_g is a homomorphism under the
left-to-right product convention of the groups module.

The chop loop is the classic randomized meataxe: pick an algebra element
z from a reproducible PRNG, take the irreducible factors f of its
characteristic polynomial smallest degree first, and spin one vector of
ker f(z).  A proper span splits the module; a full one certifies it by
Norton's dual spin if the nullity is deg f, else the next f is tried
(Holt and Rees 1994).  The factors come from a generator, so a chop that
splits or certifies at a small factor never factors further.  Two
irreducible factors are isomorphic exactly when their characteristic
polynomials agree at every p-regular class: these fix the Brauer
character, and the Brauer characters of the F-irreducibles are linearly
independent.  A module of any dimension is compared by that key alone,
with no random stream.

The simples of kG are found by tensor closure of the natural permutation
module on the moved points (`simple_modules`), never by chopping the
|G|-dimensional regular module.  The closure chops the smallest pending
tensor product next, so its cost does not hang on the order in which a
chop emits factors.  An abelian G needs neither: over a splitting field
its simples are its homomorphisms to F^*, listed in closed form
(`linear_characters`) with no random stream; the closure remains the
route when F is too small to hold them all.  Each simple comes with its
characteristic polynomials at the caller's p-regular representatives,
from which the brauer module lifts its Brauer character.

The chop rests on one breadth-first `spin`, which keeps its subspace as
a linalg `Echelon`; sub- and quotient actions are read off that echelon.
"""

import random
from math import gcd

from .config import CHOP_RESEEDS, CHOP_RETRY
from .errors import ChopStalled, ClosureSaturated, MalformedModule
from .gf import irreducible_factors, poly_deg
from .groups import PermGroup, perm_mul, perm_order
from .linalg import (
    Echelon,
    gf_charpoly,
    gf_identity,
    gf_matmul,
    gf_right_kernel,
    gf_transpose,
    gf_vec_mat,
)


class Module:
    """A finite-dimensional representation: one matrix per generator."""

    __slots__ = ("F", "dim", "mats")

    def __init__(self, F, dim, mats):
        self.F = F
        self.dim = dim
        self.mats = [tuple(tuple(row) for row in m) for m in mats]
        for m in self.mats:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise MalformedModule(
                    f"action matrix is not {dim} x {dim}")

    def word_matrix(self, word):
        return self.word_matrices([word])[0]

    def word_matrices(self, words):
        """The matrix of each word, each prefix shared by the words
        multiplied out once, in a memo that lives for this call only."""
        memo = {(): gf_identity(self.dim)}

        def at(word):
            if word not in memo:
                memo[word] = gf_matmul(self.F, at(word[:-1]),
                                       self.mats[word[-1]])
            return memo[word]
        return [at(tuple(w)) for w in words]

    def recipe_matrix(self, recipe):
        """Sum of coeff * word over the recipe's (coeff, word) terms."""
        axpy = self.F.axpy
        out = [[0] * self.dim for _ in range(self.dim)]
        mats = self.word_matrices([word for _, word in recipe])
        for (coeff, _), mat in zip(recipe, mats):
            out = [axpy(orow, coeff, row) for orow, row in zip(out, mat)]
        return out

    def element_matrix(self, group: PermGroup, g):
        return self.word_matrix(group.words[tuple(g)])


def natural_module(G: PermGroup, F) -> Module:
    """The permutation module of G over F on the points some generator
    moves: e_i * g = e_{g[i]}.  It is faithful, since an element that
    moves a point moves one that a generator moves."""
    moved = [i for i in range(G.degree) if any(g[i] != i for g in G.gens)]
    at = {i: k for k, i in enumerate(moved)}
    mats = []
    for g in G.gens:
        m = [[0] * len(moved) for _ in moved]
        for k, i in enumerate(moved):
            m[k][at[g[i]]] = 1
        mats.append(m)
    return Module(F, len(moved), mats)


def tensor_product(a: Module, b: Module) -> Module:
    """a (x) b under the diagonal action: Kronecker product per generator."""
    axpy = a.F.axpy
    zero = [0] * b.dim
    mats = []
    for ma, mb in zip(a.mats, b.mats):
        rows = []
        for ra in ma:
            for rb in mb:
                row = []
                for x in ra:
                    row.extend(axpy(zero, x, rb) if x else zero)
                rows.append(row)
        mats.append(rows)
    return Module(a.F, a.dim * b.dim, mats)


def random_recipe(rng: random.Random, ngens: int, F):
    terms = []
    for _ in range(rng.randrange(2, 5)):
        if ngens:
            word = tuple(rng.randrange(ngens)
                         for _ in range(rng.randrange(0, 6)))
        else:
            word = ()
        terms.append((rng.randrange(1, F.q), word))
    return terms


def spin(F, seeds, mats, dim):
    """Smallest subspace through seeds closed under mats.

    Returns (Echelon of the subspace, spanning vectors): the seeds and
    images that were independent when met, breadth-first in generator
    order, kept as they are rather than reduced.
    """
    ech = Echelon(F)
    basis = [list(s) for s in seeds if ech.add(s)]
    i = 0
    while i < len(basis) and len(ech) < dim:
        u = basis[i]
        i += 1
        for m in mats:
            w = gf_vec_mat(F, u, m)
            if ech.add(w):
                basis.append(w)
    return ech, basis


def submodule_action(module: Module, ech: Echelon) -> Module:
    """Restrict the action to the span of an invariant echelon."""
    F = module.F
    mats = []
    for m in module.mats:
        rows = []
        for b in ech.rows:
            u = gf_vec_mat(F, b, m)
            rows.append([u[p] for p in ech.pivots])
        mats.append(rows)
    return Module(F, len(ech), mats)


def quotient_action(module: Module, ech: Echelon) -> Module:
    """Action on the quotient by the span of an invariant echelon."""
    pivots = set(ech.pivots)
    rest = [c for c in range(module.dim) if c not in pivots]
    mats = []
    for m in module.mats:
        rows = []
        for c in rest:
            u = ech.reduce(m[c])
            rows.append([u[j] for j in rest])
        mats.append(rows)
    return Module(module.F, len(rest), mats)


def _kernel_rows(F, mat):
    """Basis of {v : v * mat = 0}, echelonized."""
    return gf_right_kernel(F, gf_transpose(mat))


def _poly_of_matrix(F, poly, mat, dim):
    out = [[0] * dim for _ in range(dim)]
    power = gf_identity(dim)
    for k, c in enumerate(poly):
        if c:
            out = [F.axpy(orow, c, prow) for orow, prow in zip(out, power)]
        if k + 1 < len(poly):
            power = gf_matmul(F, power, mat)
    return out


def chop(module: Module, rng: random.Random):
    """Composition factors of the module, with repetition.

    One spin on each side per factor f at most: f is passed over when
    ker f(z) is larger than deg f and its spin is full (Holt and Rees,
    "Testing modules for irreducibility", J. Austral. Math. Soc. A 57,
    1994).  Deterministic given the PRNG state; raises ChopStalled when
    the random-element budget is exhausted without progress.
    """
    if module.dim == 0:
        return []
    if module.dim == 1:
        return [module]
    F = module.F
    dim = module.dim

    def split(ech):
        sub = submodule_action(module, ech)
        quot = quotient_action(module, ech)
        return chop(sub, rng) + chop(quot, rng)

    for _ in range(CHOP_RETRY):
        recipe = random_recipe(rng, len(module.mats), F)
        z = module.recipe_matrix(recipe)
        charpoly = gf_charpoly(F, z)
        for factor in irreducible_factors(F, charpoly, rng):
            theta = _poly_of_matrix(F, factor, z, dim)
            kernel = _kernel_rows(F, theta)
            ech, _ = spin(F, [kernel[0]], module.mats, dim)
            if len(ech) < dim:
                return split(ech)
            if len(kernel) == poly_deg(factor):
                tmats = [gf_transpose(m) for m in module.mats]
                wkernel = gf_right_kernel(F, theta)
                tech, _ = spin(F, [wkernel[0]], tmats, dim)
                if len(tech) < dim:
                    return split(Echelon(F, gf_right_kernel(F, tech.rows)))
                return [module]
    raise ChopStalled(
        f"no certificate after {CHOP_RETRY} algebra elements (dim {dim})")


def _tensor_closure(G: PermGroup, F, rng: random.Random, reps):
    """The first len(reps) pairwise non-isomorphic composition factors
    of the natural module and of the tensor products s (x) t of each new
    simple s with each non-trivial factor t of the natural module, as
    (module, key) pairs.

    The pending products are chopped smallest dimension first, ties in
    the order met; ClosureSaturated is raised when none is left.

    reps are the p-regular class representatives.  A factor is new
    exactly when its key is: its characteristic polynomials at reps,
    which fix its Brauer character.  An F-irreducible's character is the
    sum over one Galois orbit of absolutely irreducible ones, which are
    linearly independent, so len(reps) distinct keys certify that every
    factor kept is absolutely irreducible.
    """
    count = len(reps)
    simples = []
    keys = set()

    def absorb(module):
        """Chop module; record and return its factors not seen before."""
        new = []
        for f in chop(module, rng):
            if len(simples) == count:
                break
            key = tuple(gf_charpoly(F, mat) for mat in
                        f.word_matrices([G.words[x] for x in reps]))
            if key in keys:
                continue
            keys.add(key)
            simples.append((f, key))
            new.append(f)
        return new

    natural = absorb(natural_module(G, F))
    # tensoring with the trivial module gives nothing new
    factors = [t for t in natural
               if t.dim > 1 or any(m != ((1,),) for m in t.mats)]
    pending = [(s, t) for s in natural for t in factors]
    while len(simples) < count:
        if not pending:
            raise ClosureSaturated(
                f"tensor closure saturated at {len(simples)} of {count} "
                "simples")
        # the smallest product next; min takes the first met on a tie
        k = min(range(len(pending)),
                key=lambda k: pending[k][0].dim * pending[k][1].dim)
        s, t = pending.pop(k)
        pending += [(n, u) for n in absorb(tensor_product(s, t))
                    for u in factors]
    return simples


def linear_characters(G: PermGroup, F, reps):
    """The homomorphisms G -> F^* of an abelian G, in a fixed order, as
    (generator images, values at reps) pairs of field codes; G must be
    abelian.

    The generators are adjoined one at a time.  The image of g_t is one
    of the elements of F^* whose order divides that of g_t, and it must
    agree on the one edge that leaves the span H of the earlier
    generators: for the least k with g_t^k in H, the value at g_t^k
    read off H.  Since H<g_t> is the union of the cosets H g_t^j, j < k,
    a character of H extends by exactly those images (the check that
    the embedding search of tests/group_reference.py makes edge by
    edge).  Pruning at each step keeps the work near the number of
    characters, not the product of the candidate counts.  Values are
    kept as logarithms to the base of F's primitive element; the last
    span, all of G, gives the exponents a value at x is read off.
    """
    n = F.q - 1
    span = {G.identity: ()}  # element -> its exponents over the gens so far
    chars = [()]
    for g in G.gens:
        k, y = 1, g
        while y not in span:
            y, k = perm_mul(y, g), k + 1
        word = span[y]
        step = n // gcd(perm_order(g), n)
        extended = []
        for chi in chars:
            at_word = sum(a * v for a, v in zip(word, chi))
            extended += [chi + (c,) for c in range(0, n, step)
                         if (k * c - at_word) % n == 0]
        chars = extended
        joined, power = {}, G.identity
        for j in range(k):
            for h, w in span.items():
                joined[perm_mul(h, power)] = w + (j,)
            power = perm_mul(power, g)
        span = joined
    words = [span[x] for x in reps]
    return [(tuple(F.exp[c] for c in chi),
             tuple(F.exp[sum(a * c for a, c in zip(w, chi)) % n]
                   for w in words))
            for chi in chars]


def simple_modules(G: PermGroup, F, seed, reps) -> list:
    """The len(reps) pairwise non-isomorphic simple FG-modules, each as a
    (module, key) pair whose key is the tuple of its characteristic
    polynomials at reps, the p-regular class representatives.

    Every simple module is a composition factor of a tensor power of a
    faithful module (Steinberg 1962), and the natural permutation module
    is faithful.  So the search chops the natural module, then the
    tensor products of each new simple with each factor of the natural
    module, smallest first, keeping the factors whose key matches no
    simple found so far (see _tensor_closure), until len(reps) simples
    are known (the number of p-regular classes, by Brauer); that count
    certifies every simple found absolutely irreducible.  Deterministic
    per seed, reseeding if a random stream stalls; a closure that stops
    short, as over a field that does not split G, raises
    ClosureSaturated.

    Two cases need no search and no random stream; their keys are the
    x - v for v the value at each representative.  One representative
    means the identity is the only p-regular element, so G is a p-group
    and the trivial module is its only simple.  When the generators
    commute, G is abelian and, by Schur's lemma, its simples over a
    splitting field are its homomorphisms to F^* (Serre, Linear
    Representations of Finite Groups, 3.1), which linear_characters
    lists with their values.  Fewer than len(reps) of them means F is
    not a splitting field (only a direct caller can pass one), and the
    tensor closure runs as for any other group.
    """
    if len(reps) == 1:
        return [(Module(F, 1, [((1,),)] * len(G.gens)), ((F.neg(1), 1),))]
    if all(perm_mul(a, b) == perm_mul(b, a)
           for i, a in enumerate(G.gens) for b in G.gens[i + 1:]):
        chars = linear_characters(G, F, reps)
        if len(chars) == len(reps):
            return [(Module(F, 1, [((v,),) for v in images]),
                     tuple((F.neg(v), 1) for v in values))
                    for images, values in chars]
    base = f"meataxe:{F.p}:{F.d}:{seed}:{G.key()!r}"
    last = None
    for attempt in range(CHOP_RESEEDS):
        rng = random.Random(f"{base}:{attempt}")
        try:
            return _tensor_closure(G, F, rng, reps)
        except ChopStalled as exc:
            last = exc
    raise ChopStalled(
        f"simple-module search failed after {CHOP_RESEEDS} reseeds: {last}")
