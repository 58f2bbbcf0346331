"""The Brauer lift between m-th roots of unity in F_q and in Q(zeta_m).

With q = p^d and m | q - 1, the cyclic group of m-th roots of unity in
F_q* is generated by w = g^((q-1)/m) for the field's fixed primitive
element g.  The lift pairs w^e with zeta_m^e, so an eigenvalue lifts to
its exponent e, the unit of a root count (see cyclo).  The reduction map
goes the other way, sending zeta_m to w and inverting denominators prime
to p: a root count reduces root by root, and a Cyc value, which is
reduced mod the cyclotomic polynomial, coordinate by coordinate.
"""

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

    def reduce_counts(self, counts, c=1) -> int:
        """Reduction of sum a zeta_m^e / c to F_q, over the (e, a) in a
        root count, for an integer c prime to p: each zeta_m^e goes to
        w^e, with no cyclotomic polynomial in between."""
        F, p = self.F, self.F.p
        out = 0
        for e, a in counts:
            a %= p
            if a:
                out = F.add(out, F.mul(a, self.root_codes[e]))
        return F.mul(out, F.inv(c % p))

    def reduce(self, v) -> int:
        """Reduction of a Cyc value to F_q, which must be p-local: its
        power-basis numerators are a root count over its denominator."""
        if self.m % v.m:
            raise ValueError(f"conductor {v.m} does not divide lift conductor {self.m}")
        v = v.promote(self.m)
        if v.den % self.F.p == 0:
            raise NotPLocal(f"denominator {v.den} divisible by p = {self.F.p}")
        return self.reduce_counts(enumerate(v.num), v.den)
