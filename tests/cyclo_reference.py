"""Arithmetic in Q(zeta_m) and the dense decomposition, as references.

The package keeps character values as root counts and turns them into
power-basis coordinates only to print them (``cyclo.value_json`` and
``cyclo.value_text``), so it has no cyclotomic value with a sum,
product, inverse or comparison.  ``RefCyc`` is that value here: one
rational per power-basis coordinate, reduced by long division by the
cyclotomic polynomial, and reduced to F_q one coordinate at a time.  On
it stand the references that the root-count route is checked against:
``mul``, ``power``, ``inverse`` and ``dot``, the field object ``CYC``
that runs ``linalg.Echelon`` over RefCyc values, and
``decompose_by_dense_dot``, which decomposes a class function by one
dot over every class against the dual of the phi table.
"""

import math
from fractions import Fraction

from repring.cyclo import QQ, conductor_degree, cyclotomic_poly
from repring.errors import NotPLocal
from repring.gf import poly_divmod, poly_mul, poly_sub, poly_trim


def ref_reduce(m, poly):
    """Remainder of a rational polynomial mod the m-th cyclotomic one."""
    phi = cyclotomic_poly(m)  # monic
    deg = len(phi) - 1
    terms = [(i, a) for i, a in enumerate(phi) if a]
    poly = list(poly) + [0] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i, a in terms:
                poly[k - deg + i] -= c * a
    return tuple(poly[:deg])


def _rational(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _over(m, nums, den):
    """The RefCyc of conductor m whose coordinates are nums over den."""
    v = object.__new__(RefCyc)
    v.m, v._integral = m, None
    v.coeffs = tuple([c // den if c % den == 0 else Fraction(c, den)
                      for c in nums])
    return v


class RefCyc:
    """An element of Q(zeta_m): one rational per power-basis coordinate,
    an int where it is integral and a Fraction otherwise.  It compares
    only with RefCyc values, ints and Fractions; a package root count is
    read in with ``from_counts``, a report's value with ``from_json``."""

    __slots__ = ("m", "coeffs", "_integral")

    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = tuple(map(_rational, coeffs))
        self._integral = None
        assert len(self.coeffs) == conductor_degree(m)

    @staticmethod
    def of(v) -> "RefCyc":
        """The value of an int, a Fraction or a RefCyc."""
        if isinstance(v, RefCyc):
            return v
        return RefCyc(1, [v])

    @staticmethod
    def from_json(obj) -> "RefCyc":
        """The value a report's {"conductor", "num", "den"} object names."""
        return RefCyc(obj["conductor"], [Fraction(n, d) for n, d in
                                         zip(obj["num"], obj["den"])])

    @staticmethod
    def from_counts(m, counts) -> "RefCyc":
        """sum a zeta_m^e over the (e, a) of a root count."""
        poly = [0] * m
        for e, a in counts:
            poly[e % m] += a
        return RefCyc(m, ref_reduce(m, poly))

    @staticmethod
    def zeta(m, k=1) -> "RefCyc":
        return RefCyc.from_counts(m, [(k, 1)])

    def promote(self, big) -> "RefCyc":
        if big == self.m:
            return self
        assert big % self.m == 0
        if not any(self.coeffs[1:]):  # a rational is the constant term
            return RefCyc(big, self.coeffs[:1]
                          + (0,) * (conductor_degree(big) - 1))
        step = big // self.m
        poly = [0] * big
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return RefCyc(big, ref_reduce(big, poly))

    def _common(self, other):
        other = RefCyc.of(other)
        m = math.lcm(self.m, other.m)
        return self.promote(m), other.promote(m), m

    def __add__(self, other):
        a, b, m = self._common(other)
        (an, ad), (bn, bd) = a.integral(), b.integral()
        den = math.lcm(ad, bd)
        wa, wb = den // ad, den // bd
        return _over(m, [x * wa + y * wb for x, y in zip(an, bn)], den)

    __radd__ = __add__

    def __neg__(self):
        return RefCyc(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -RefCyc.of(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefCyc(self.m, [c * other for c in self.coeffs])
        a, b, m = self._common(other)
        (an, ad), (bn, bd) = a.integral(), b.integral()
        prod = [0] * (2 * len(an) - 1)
        _convolve_into(prod, an, bn, 1)
        return _over(m, ref_reduce(m, prod), ad * bd)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (RefCyc, int, Fraction)):
            raise TypeError(f"RefCyc compared with {type(other).__name__}")
        if isinstance(other, RefCyc) and other.m == self.m:
            return self.coeffs == other.coeffs
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def __bool__(self):
        return any(self.coeffs)

    def integral(self):
        """(numerators, denominator): the coordinates over the lcm of
        their denominators, worked out once."""
        if self._integral is None:
            den = math.lcm(*(c.denominator for c in self.coeffs))
            self._integral = ([c.numerator * (den // c.denominator)
                               for c in self.coeffs], den)
        return self._integral

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def to_json(self):
        return {"conductor": self.m,
                "num": [c.numerator for c in self.coeffs],
                "den": [c.denominator for c in self.coeffs]}

    def reduce(self, lift):
        """The reduction to F_q, one Fraction at a time: NotPLocal when
        p divides a coordinate's denominator."""
        F = lift.F
        out = 0
        for code, c in zip(lift.root_codes, self.promote(lift.m).coeffs):
            if c:
                if c.denominator % F.p == 0:
                    raise NotPLocal(f"denominator {c.denominator}")
                r = F.mul(c.numerator % F.p, F.inv(c.denominator % F.p))
                out = F.add(out, F.mul(r, code))
        return out

    def __repr__(self):
        return f"RefCyc({self.m}, {[str(c) for c in self.coeffs]})"


def _convolve_into(acc, an, bn, w):
    """acc += w * an * bn, as integer polynomials."""
    for i, x in enumerate(an):
        if x:
            x *= w
            for j, y in enumerate(bn):
                if y:
                    acc[i + j] += x * y


def mul(a, b) -> RefCyc:
    """The product of two values (RefCyc, int or Fraction)."""
    return RefCyc.of(a) * RefCyc.of(b)


def inverse(v) -> RefCyc:
    """1 / v, by the extended Euclid in Q[x] against the cyclotomic
    polynomial."""
    v = RefCyc.of(v)
    if not v:
        raise ZeroDivisionError("inverse of zero cyclotomic value")
    r0, s0 = cyclotomic_poly(v.m), ()
    r1, s1 = poly_trim(v.coeffs), (1,)
    while len(r1) > 1:
        q, rem = poly_divmod(QQ, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(QQ, s0, poly_mul(QQ, q, s1))
    deg = len(v.coeffs)
    out = [x * QQ.inv(r1[0]) for x in s1] + [0] * deg
    return RefCyc(v.m, out[:deg])


def power(v, e: int) -> RefCyc:
    if e < 0:
        return power(inverse(v), -e)
    out = RefCyc(1, [1])
    for _ in range(e):
        out = mul(out, v)
    return out


def dot(xs, ys) -> RefCyc:
    """Sum of x * y over paired entries (each a RefCyc, int or Fraction),
    at the lcm of all the conductors: the products are summed
    as integer polynomials over one common denominator and reduced
    once."""
    pairs = [(RefCyc.of(x), RefCyc.of(y)) for x, y in zip(xs, ys)]
    m = math.lcm(1, *(a.m for a, _ in pairs), *(b.m for _, b in pairs))
    terms = [(a.promote(m).integral(), b.promote(m).integral())
             for a, b in pairs if a and b]
    den = math.lcm(1, *(ad * bd for (_, ad), (_, bd) in terms))
    acc = [0] * (2 * conductor_degree(m) - 1)
    for (an, ad), (bn, bd) in terms:
        _convolve_into(acc, an, bn, den // (ad * bd))
    return _over(m, ref_reduce(m, acc), den)


class _CycField:
    """Q(zeta_m) as a field object over RefCyc values, ints and
    Fractions."""

    @staticmethod
    def axpy(y, a, x):
        return [dot((1, a), (s, t)) if t else s for s, t in zip(y, x)]

    @staticmethod
    def neg(a):
        return -RefCyc.of(a)

    @staticmethod
    def inv(a):
        return inverse(a)

    @staticmethod
    def mul(a, b):
        return mul(a, b)


CYC = _CycField()


def cyc_row(m, counts_row):
    """A row of root counts as RefCyc values."""
    return [RefCyc.from_counts(m, c) for c in counts_row]


def cyc_rows(m, rows):
    """Rows of root counts as rows of RefCyc values."""
    return [cyc_row(m, row) for row in rows]


def dual_table(bd):
    """The inverse of the phi table over RefCyc values: row i, column S
    is Phi_S(x_i^-1) |class i| / |G|, since <phi_T, Phi_S> = delta_TS."""
    return [[RefCyc.from_counts(bd.m, P[bd._inv_pos[i]])
             * Fraction(size, bd.G.order) for P in bd.Phi_counts]
            for i, size in enumerate(bd.class_sizes)]


def decompose_by_dense_dot(bd, values, dual=None):
    """The coefficients of a class function of RefCyc values, each one
    dot over every class, the zeros included; dual is dual_table(bd),
    built here when not given."""
    return [dot(values, column)
            for column in zip(*(dual or dual_table(bd)))]
