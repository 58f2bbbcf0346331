"""The Brauer lift between m-th roots of unity in F_q and in Q(zeta_m).

With q = p^d and m | q - 1, the cyclic group of m-th roots of unity in
F_q* is generated by w = g^((q-1)/m) for the field's fixed primitive
element g.  The lift pairs w^j with zeta_m^j; the reduction map goes the
other way, sending zeta_m to w and inverting denominators prime to p.
"""

from fractions import Fraction

from .cyclo import Cyc
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
        # root_codes[j] = the field element paired with zeta_m^j
        self.root_codes = [F.pow(self.root, j) for j in range(m)]
        self._log = {code: j for j, code in enumerate(self.root_codes)}

    def lift(self, code: int) -> Cyc:
        """The cyclotomic root of unity over an m-th root of unity in F_q."""
        j = self._log.get(code)
        if j is None:
            raise NonSplitCharPoly(
                f"field element {code} is not an {self.m}-th root of "
                "unity; field is not a splitting field")
        return Cyc.zeta(self.m, j)

    def reduce_rational(self, c) -> int:
        c = Fraction(c)
        p = self.F.p
        if c.denominator % p == 0:
            raise NotPLocal(f"denominator {c.denominator} divisible by p = {p}")
        num = c.numerator % p
        den = c.denominator % p
        return self.F.mul(num, self.F.inv(den))

    def reduce(self, v: Cyc) -> int:
        """Reduction to F_q: substitute the paired field root for zeta_m.

        The value must be p-local: its denominator coprime to p.
        """
        if self.m % v.m:
            raise ValueError(f"conductor {v.m} does not divide lift conductor {self.m}")
        v = v.promote(self.m)
        F, p = self.F, self.F.p
        if v.den % p == 0:
            raise NotPLocal(f"denominator {v.den} divisible by p = {p}")
        out = 0
        for c, code in zip(v.num, self.root_codes):
            c %= p
            if c:
                out = F.add(out, F.mul(c, code))
        return F.mul(out, F.inv(v.den % p))
