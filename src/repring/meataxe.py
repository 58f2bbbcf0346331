"""Splitting modules over group algebras into simple factors.

Modules are given by one action matrix per group generator, acting on
row vectors (v -> v*M), so g -> M_g is a homomorphism under the
left-to-right product convention of the groups module.

The chop loop is the classic randomized meataxe: pick an algebra element
z from a reproducible PRNG, factor its characteristic polynomial, spin
kernel vectors of f(z) into submodules, and certify irreducibility with
Norton's criterion when f(z) has minimal nullity (one spin on each side
of the duality).  Isomorphism of simples is decided by standard-basis
comparison seeded at a one-dimensional eigenspace, which at the same
time certifies absolute irreducibility over the working field.

Both rest on one breadth-first `spin`, which keeps its subspace as a
linalg `Echelon`; sub- and quotient actions are read off that echelon.
"""

import random

from .config import CHOP_RESEEDS, CHOP_RETRY
from .errors import ChopStalled, MalformedModule
from .gf import factor_poly, poly_deg
from .groups import PermGroup, perm_mul
from .linalg import (
    Echelon,
    gf_charpoly,
    gf_identity,
    gf_mat_inv,
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
        out = gf_identity(self.dim)
        for t in word:
            out = gf_matmul(self.F, out, self.mats[t])
        return out

    def recipe_matrix(self, recipe):
        """Sum of coeff * word over the recipe's (coeff, word) terms."""
        F = self.F
        n = self.dim
        out = [[0] * n for _ in range(n)]
        for coeff, word in recipe:
            wm = self.word_matrix(word)
            for i in range(n):
                row = wm[i]
                orow = out[i]
                for j in range(n):
                    if row[j]:
                        orow[j] = F.add(orow[j], F.mul(coeff, row[j]))
        return out

    def element_matrix(self, group: PermGroup, g):
        return self.word_matrix(group.words[tuple(g)])


def regular_module(G: PermGroup, F) -> Module:
    """Right translation of G on its own group algebra over F."""
    n = G.order
    mats = []
    for g in G.gens:
        m = [[0] * n for _ in range(n)]
        for i, h in enumerate(G.elements):
            m[i][G.index_of(perm_mul(h, g))] = 1
        mats.append(m)
    return Module(F, n, mats)


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


def _eigenspace(F, z, lam):
    """Basis of {v : v * z = lam * v}, echelonized."""
    theta = [list(row) for row in z]
    for i in range(len(theta)):
        theta[i][i] = F.sub(theta[i][i], lam)
    return _kernel_rows(F, theta)


def _poly_of_matrix(F, poly, mat, dim):
    out = [[0] * dim for _ in range(dim)]
    power = gf_identity(dim)
    for k, c in enumerate(poly):
        if c:
            for i in range(dim):
                prow = power[i]
                orow = out[i]
                for j in range(dim):
                    if prow[j]:
                        orow[j] = F.add(orow[j], F.mul(c, prow[j]))
        if k + 1 < len(poly):
            power = gf_matmul(F, power, mat)
    return out


def chop(module: Module, rng: random.Random):
    """Composition factors of the module, with repetition.

    Deterministic given the PRNG state; raises ChopStalled when the
    random-element budget is exhausted without progress.
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
        for factor, _mult in factor_poly(F, charpoly, rng=rng):
            theta = _poly_of_matrix(F, factor, z, dim)
            kernel = _kernel_rows(F, theta)
            if not kernel:
                continue
            ech, _ = spin(F, [kernel[0]], module.mats, dim)
            if len(ech) < dim:
                return split(ech)
            if len(kernel) == poly_deg(factor):
                # Norton: one full spin on each side certifies irreducibility
                tmats = [gf_transpose(m) for m in module.mats]
                wkernel = gf_right_kernel(F, theta)
                tech, _ = spin(F, [wkernel[0]], tmats, dim)
                if len(tech) < dim:
                    perp = Echelon(F)
                    for v in gf_right_kernel(F, tech.rows):
                        perp.add(v)
                    return split(perp)
                return [module]
            for v in kernel[1:]:
                ech, _ = spin(F, [v], module.mats, dim)
                if len(ech) < dim:
                    return split(ech)
    raise ChopStalled(
        f"no certificate after {CHOP_RETRY} algebra elements (dim {dim})")


def find_id_recipe(module: Module, rng: random.Random):
    """A (recipe, eigenvalue) whose matrix has a 1-dim eigenspace.

    Existence certifies that the endomorphism ring is the ground field,
    i.e. the module is absolutely irreducible; used as the seed for
    standard-basis comparison.
    """
    F = module.F
    dim = module.dim
    for _ in range(CHOP_RETRY):
        recipe = random_recipe(rng, len(module.mats), F)
        z = module.recipe_matrix(recipe)
        for factor, _mult in factor_poly(F, gf_charpoly(F, z), rng=rng):
            if poly_deg(factor) != 1:
                continue
            lam = F.neg(factor[0])
            if len(_eigenspace(F, z, lam)) == 1:
                return recipe, lam
    raise ChopStalled(
        f"no identification element after {CHOP_RETRY} tries (dim {dim})")


def standard_form(module: Module, recipe, lam):
    """Action matrices rewritten in the standard basis spun from the
    lam-eigenspace of the recipe element; None when that eigenspace is
    not 1-dimensional.  Two simples are isomorphic iff their standard
    forms under a shared (recipe, lam) are identical.
    """
    F = module.F
    kernel = _eigenspace(F, module.recipe_matrix(recipe), lam)
    if len(kernel) != 1:
        return None
    # the spanning vectors themselves (not residues) make the basis canonical
    _, basis = spin(F, kernel, module.mats, module.dim)
    if len(basis) != module.dim:
        return None  # not spanning: module was not irreducible
    binv = gf_mat_inv(F, basis)
    forms = []
    for m in module.mats:
        forms.append(tuple(tuple(r) for r in
                           gf_matmul(F, gf_matmul(F, basis, m), binv)))
    return tuple(forms)


def dedup_simples(factors, rng: random.Random):
    """Group isomorphic factors.  Returns (representatives, counts)."""
    reps = []
    counts = []
    ids = []
    forms = []
    for f in factors:
        hit = None
        for i, r in enumerate(reps):
            if r.dim != f.dim:
                continue
            sf = standard_form(f, ids[i][0], ids[i][1])
            if sf is not None and sf == forms[i]:
                hit = i
                break
        if hit is None:
            rid = find_id_recipe(f, rng)
            reps.append(f)
            counts.append(1)
            ids.append(rid)
            forms.append(standard_form(f, rid[0], rid[1]))
        else:
            counts[hit] += 1
    return reps, counts


def chop_regular(G: PermGroup, F, seed) -> tuple:
    """(pairwise non-isomorphic simples of kG, multiplicities in the
    regular module's composition series); deterministic per seed, with
    automatic reseeding if a random stream stalls.
    """
    base = f"meataxe:{F.p}:{F.d}:{seed}:{G.key()!r}"
    last = None
    for attempt in range(CHOP_RESEEDS):
        rng = random.Random(f"{base}:{attempt}")
        try:
            factors = chop(regular_module(G, F), rng)
            return dedup_simples(factors, rng)
        except ChopStalled as exc:
            last = exc
    raise ChopStalled(f"chop failed after {CHOP_RESEEDS} reseeds: {last}")
