"""The Brauer lift between m-th roots of unity in F_q and in Q(zeta_m).

With q = p^d and m | q - 1, the cyclic group of m-th roots of unity in
F_q* is generated by w = g^((q-1)/m) for the field's fixed primitive
element g.  The lift pairs w^e with zeta_m^e, so an eigenvalue lifts to
its exponent e, the unit of a root count (see cyclo).  The reduction map
goes the other way: zeta_m -> w is a ring map on the p-local part of
Z[zeta_m], so a root count over a positive integer c reduces by one
route, whether or not p divides c: its power-basis numerators over c,
in lowest terms, go to F_q coordinate by coordinate.
"""

from math import gcd

from .cyclo import root_sum
from .errors import NonSplitCharPoly, NotPLocal
from .gf import GF


class BrauerLift:
    def __init__(self, F: GF, m: int):
        if m < 1 or (F.q - 1) % m != 0:
            raise ValueError(f"conductor {m} does not divide q-1 = {F.q - 1}")
        self.F = F
        self.m = m
        step = (F.q - 1) // m
        self.root = F.exp[step % (F.q - 1)]
        # root_codes[e] = the field element paired with zeta_m^e
        self.root_codes = [F.pow(self.root, e) for e in range(m)]
        self._log = {code: e for e, code in enumerate(self.root_codes)}

    def exponent(self, code: int) -> int:
        """The e with code = w^e, for an m-th root of unity in F_q."""
        e = self._log.get(code)
        if e is None:
            raise NonSplitCharPoly(
                f"field element {code} is not an {self.m}-th root of "
                "unity; field is not a splitting field")
        return e

    def reduce(self, counts, c=1) -> int:
        """Reduction to F_q of sum a zeta_m^e / c over the (e, a) in a
        root count, for a positive integer c.  The count is reduced once
        to its power-basis numerators; their common factor with c is
        divided out, the denominator left must be prime to p (NotPLocal
        otherwise), and each zeta_m^j goes to w^j."""
        F, p = self.F, self.F.p
        num = root_sum(self.m, counts)
        g = gcd(c, *num)
        c //= g
        if c % p == 0:
            raise NotPLocal(f"denominator {c} divisible by p = {p}")
        out = 0
        for code, a in zip(self.root_codes, num):
            a = a // g % p
            if a:
                out = F.add(out, F.mul(a, code))
        return F.mul(out, F.inv(c % p))
