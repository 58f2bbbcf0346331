"""Standard forms of simple modules, the identification the tensor
closure used before it compared characteristic polynomials.

No run needs these: the closure tells simples apart by the
characteristic polynomials of their matrices at the p-regular classes.
They stay here as the reference that tests/test_brauer.py's
simples_by_standard_form rebuilds the closure with, on every reference
case.  find_id_recipe certifies one module at a time that it is
absolutely irreducible, by an algebra element with a one-dimensional
eigenspace, and standard_form rewrites a module in the basis spun from
that eigenspace (Holt and Rees, "Testing modules for irreducibility",
J. Austral. Math. Soc. A 57, 1994).
"""

import random

from repring.config import CHOP_RETRY
from repring.errors import ChopStalled
from repring.gf import irreducible_factors, poly_deg
from repring.linalg import gf_charpoly, gf_mat_inv, gf_matmul
from repring.meataxe import Module, _kernel_rows, random_recipe, spin


def _eigenspace(F, z, lam):
    """Basis of {v : v * z = lam * v}, echelonized."""
    theta = [list(row) for row in z]
    for i in range(len(theta)):
        theta[i][i] = F.add(theta[i][i], F.neg(lam))
    return _kernel_rows(F, theta)


def find_id_recipe(module: Module, rng: random.Random):
    """A (recipe, eigenvalue) whose matrix has a 1-dim eigenspace.

    Existence certifies that the endomorphism ring is the ground field,
    i.e. the module is absolutely irreducible; used as the seed for
    standard-basis comparison.  Only a linear factor of the
    characteristic polynomial names an eigenvalue, so each element's
    factors are taken up to the first of higher degree.
    """
    F = module.F
    dim = module.dim
    for _ in range(CHOP_RETRY):
        recipe = random_recipe(rng, len(module.mats), F)
        z = module.recipe_matrix(recipe)
        for factor in irreducible_factors(F, gf_charpoly(F, z), rng):
            if poly_deg(factor) > 1:
                break  # the linear factors come first
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
