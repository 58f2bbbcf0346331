"""Products in Q(zeta_m) and the dense decomposition, as references.

The package multiplies character values as root counts and builds Cyc
values only to print them, so it has no product of two Cyc values, no
inverse and no dot product.  These are kept here, on the same stored
form (integer numerators over one denominator), as the references that
the root-count route is checked against: ``mul``, ``power``,
``inverse`` and ``dot``, the field object ``CYC`` that runs
``linalg.Echelon`` over Cyc values, and ``decompose_by_dense_dot``,
which decomposes a class function of Cyc values by one dot over every
class against the dual of the phi table.
"""

import math
from fractions import Fraction

from repring.cyclo import (
    QQ,
    Cyc,
    _make,
    _power_rows,
    conductor_degree,
    cyclotomic_poly,
)
from repring.gf import poly_divmod, poly_mul, poly_sub, poly_trim


def _mul_into(acc, an, bn, scale=1):
    """acc += scale * an * bn, as unreduced integer polynomials."""
    for i, x in enumerate(an):
        if x:
            x *= scale
            for j, y in enumerate(bn):
                if y:
                    acc[i + j] += x * y


def _reduce(m, prod, deg):
    """A polynomial of degree < 2 * deg mod Phi_m, deg = phi(m): x^k is
    zeta_m^(k mod m), row k mod m of _power_rows(m)."""
    out = prod[:deg]
    rows = _power_rows(m)
    for k in range(deg, len(prod)):
        c = prod[k]
        if c:
            for j, r in rows[k % m]:
                out[j] += c * r
    return out


def _common(a, b):
    a, b = Cyc.coerce(a), Cyc.coerce(b)
    m = math.lcm(a.m, b.m)
    return a.promote(m), b.promote(m), m


def mul(a, b) -> Cyc:
    """The product of two values (Cyc, int or Fraction)."""
    a, b, m = _common(a, b)
    deg = len(a.num)
    prod = [0] * (2 * deg - 1)
    _mul_into(prod, a.num, b.num)
    return _make(m, _reduce(m, prod, deg), a.den * b.den)


def inverse(v) -> Cyc:
    """1 / v, by the extended Euclid in Q[x] against the cyclotomic
    polynomial, on the numerator polynomial; den scales the result."""
    v = Cyc.coerce(v)
    if not v:
        raise ZeroDivisionError("inverse of zero cyclotomic value")
    m, num = v.m, v.num
    r0, s0 = cyclotomic_poly(m), ()
    r1, s1 = poly_trim(num), (1,)
    while len(r1) > 1:
        q, rem = poly_divmod(QQ, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(QQ, s0, poly_mul(QQ, q, s1))
    c = QQ.inv(r1[0]) * v.den
    deg = len(num)
    out = [x * c for x in s1] + [0] * deg
    return Cyc(m, out[:deg])


def power(v, e: int) -> Cyc:
    if e < 0:
        return power(inverse(v), -e)
    out = Cyc.from_rational(1, Cyc.coerce(v).m)
    for _ in range(e):
        out = mul(out, v)
    return out


def dot(xs, ys) -> Cyc:
    """Sum of x * y over paired entries (each a Cyc, int or Fraction),
    accumulated unreduced over one running denominator and reduced once,
    at the lcm of all the conductors."""
    pairs = [(Cyc.coerce(x), Cyc.coerce(y)) for x, y in zip(xs, ys)]
    m = math.lcm(1, *(a.m for a, _ in pairs), *(b.m for _, b in pairs))
    deg = conductor_degree(m)
    acc = [0] * (2 * deg - 1)
    den = 1
    for a, b in pairs:
        d = a.den * b.den
        scale = 1
        if d != den:
            g = math.gcd(den, d)
            scale = den // g
            if d != g:
                grow = d // g
                acc = [c * grow for c in acc]
                den *= grow
        _mul_into(acc, a.promote(m).num, b.promote(m).num, scale)
    return _make(m, _reduce(m, acc, deg), den)


class _CycField:
    """Q(zeta_m) as a field object over Cyc values, ints and Fractions."""

    @staticmethod
    def axpy(y, a, x):
        return [Cyc.coerce(s) + mul(a, t) for s, t in zip(y, x)]

    @staticmethod
    def neg(a):
        return -Cyc.coerce(a)

    @staticmethod
    def inv(a):
        return inverse(a)

    @staticmethod
    def mul(a, b):
        return mul(a, b)


CYC = _CycField()


def cyc_row(m, counts_row):
    """A row of root counts as Cyc values."""
    return [Cyc.from_counts(m, c) for c in counts_row]


def dual_table(bd):
    """The inverse of the phi table over Cyc values: row i, column S is
    Phi_S(x_i^-1) |class i| / |G|, since <phi_T, Phi_S> = delta_TS."""
    return [[Cyc.from_counts(bd.m, P[bd._inv_pos[i]])
             * Fraction(size, bd.G.order) for P in bd.Phi_counts]
            for i, size in enumerate(bd.class_sizes)]


def decompose_by_dense_dot(bd, values, dual=None):
    """The coefficients of a class function of Cyc values, each one dot
    over every class, the zeros included; dual is dual_table(bd), built
    here when not given."""
    return [dot(values, column)
            for column in zip(*(dual or dual_table(bd)))]
