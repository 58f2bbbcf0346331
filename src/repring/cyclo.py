"""Exact arithmetic in cyclotomic fields Q(zeta_m), on root counts.

A character value of a p-regular element is a sum of m-th roots of
unity, so it is kept as a root count: the (e, a) pairs, e ascending and
a non-zero, of the value sum a zeta_m^e.  Root counts multiply by adding
exponents mod m (``root_product``, ``convolve_into``) and combine by
adding counts (``root_combination``), all in plain ints; ``root_sum``
reduces a count mod the m-th cyclotomic polynomial once, which is where
a Gram entry or a decomposition shows whether it is rational.

``Cyc`` is the value at the print edge, where a report writes it or
sorts by it.  A value of conductor m is stored over the power basis 1,
z, ..., z^(phi(m)-1) of Q(zeta_m) as a tuple ``num`` of integer
numerators over one positive integer denominator ``den``, in lowest
terms: gcd(den, *num) == 1, and zero has den == 1.  The stored form of
a value of a given conductor is therefore unique.  Cyc values add and
take rational multiples; values of different conductors mix by
promotion to the lcm M, zeta_m going to the root count of
zeta_M^(M/m).  No floating point is involved anywhere.

``QQ`` is the field object of ints and Fractions, so the shared
elimination (``linalg.Echelon``) and polynomial routines (``gf.poly_*``)
run over Q as they run over GF(q): the cyclotomic polynomials and the
inverse of the Gram matrix are computed with it.
"""

import functools
import math
from fractions import Fraction

from .gf import poly_divmod


class _Rationals:
    """Q as a field object: the row kernel and the operations that
    ``linalg.Echelon`` and ``gf.poly_*`` call, on ints and Fractions."""

    @staticmethod
    def axpy(y, a, x):
        return [s + a * t for s, t in zip(y, x)]

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        # Fraction(1) keeps the inverse of an int exact
        return Fraction(1) / a

    @staticmethod
    def mul(a, b):
        return a * b


QQ = _Rationals()


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Integer coefficients of the m-th cyclotomic polynomial (little endian)."""
    if m < 1:
        raise ValueError("conductor must be positive")
    poly = (-1,) + (0,) * (m - 1) + (1,)  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = poly_divmod(QQ, poly, cyclotomic_poly(d))
            if rem:
                raise ArithmeticError("non-exact polynomial division")
    # monic divisors of an integer polynomial leave integer quotients
    return tuple(int(c) for c in poly)


@functools.lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple:
    """Row e, for e < m, is zeta_m^e over the power basis, x^e reduced
    mod the m-th cyclotomic polynomial, as its non-zero (j, coordinate)
    pairs."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(m - 1):
        nxt = [0] + cur[:-1] if deg > 1 else [0]
        top = cur[-1]
        if top:
            # x^deg = -(phi without leading term)
            for i in range(deg):
                nxt[i] -= top * phi[i]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(tuple((j, r) for j, r in enumerate(row) if r)
                 for row in rows)


def conductor_degree(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


def root_sum(m: int, counts) -> tuple:
    """The power-basis numerators of sum a zeta_m^e over the (e, a) in
    counts, 0 <= e < m: the root count reduced once."""
    out = [0] * conductor_degree(m)
    rows = _power_rows(m)
    for e, a in counts:
        if a:
            for j, r in rows[e]:
                out[j] += a * r
    return tuple(out)


def root_combination(terms) -> tuple:
    """The root count of sum c * counts over the (c, counts) in terms."""
    acc = {}
    for c, counts in terms:
        for e, a in counts:
            acc[e] = acc.get(e, 0) + c * a
    return tuple(sorted((e, a) for e, a in acc.items() if a))


def root_product(m: int, a, b) -> tuple:
    """The root count of the product of two: exponents add mod m."""
    return root_combination((x, [((e + f) % m, y) for f, y in b])
                            for e, x in a)


def convolve_into(acc, a, b, w=1):
    """acc[(e + f) % m] += w * x * y over the (e, x) in a and (f, y) in
    b, m = len(acc): a weighted product of two root counts added to a
    dense one, to be reduced once by root_sum(m, enumerate(acc))."""
    m = len(acc)
    for e, x in a:
        wx = w * x
        for f, y in b:
            acc[(e + f) % m] += wx * y


_new = object.__new__
_set = object.__setattr__


def _raw(m, num, den):
    """The Cyc num/den of conductor m; num/den must be in lowest terms."""
    v = _new(Cyc)
    _set(v, "m", m)
    _set(v, "num", num)
    _set(v, "den", den)
    return v


def _make(m, num, den):
    """The Cyc num/den of conductor m (den > 0), put in lowest terms."""
    g = math.gcd(den, *num)
    if g != 1:
        return _raw(m, tuple([c // g for c in num]), den // g)
    return _raw(m, tuple(num), den)


class Cyc:
    """An element of Q(zeta_m) in the power basis; immutable."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m, coeffs):
        """The value whose power-basis coordinates are the rationals coeffs."""
        deg = conductor_degree(m)
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                  for c in coeffs]
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for conductor {m}")
        # the lcm of reduced denominators leaves no common factor behind
        den = math.lcm(*(c.denominator for c in coeffs))
        _set(self, "m", m)
        _set(self, "num", tuple(c.numerator * (den // c.denominator)
                                for c in coeffs))
        _set(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    # -- constructors

    @staticmethod
    def from_rational(c, m: int = 1) -> "Cyc":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _raw(m, (c.numerator,) + (0,) * (conductor_degree(m) - 1),
                    c.denominator)

    @staticmethod
    def from_counts(m: int, counts) -> "Cyc":
        """The value sum a zeta_m^e of a root count."""
        return _raw(m, root_sum(m, counts), 1)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyc":
        return Cyc.from_counts(m, ((k % m, 1),))

    @staticmethod
    def coerce(v, m: int = 1) -> "Cyc":
        if isinstance(v, Cyc):
            return v
        return Cyc.from_rational(v, m)

    # -- structure

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def promote(self, big: int) -> "Cyc":
        m = self.m
        if big == m:
            return self
        if big % m:
            raise ValueError(f"{big} is not a multiple of conductor {m}")
        # zeta_m^i is zeta_big^(i * step); Z[zeta_big] meets Q(zeta_m) in
        # Z[zeta_m], so no common factor appears
        step = big // m
        return _raw(big, root_sum(big, ((i * step, c) for i, c in
                                        enumerate(self.num))), self.den)

    def _common(self, other):
        other = Cyc.coerce(other, 1)
        if other.m == self.m:
            return self, other, self.m
        m = math.lcm(self.m, other.m)
        return self.promote(m), other.promote(m), m

    def __bool__(self):
        return any(self.num)

    def as_rational(self):
        """The value as a Fraction, or None if it is irrational."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    # -- arithmetic

    def __add__(self, other):
        a, b, m = self._common(other)
        da, db = a.den, b.den
        if da == db:
            return _make(m, [x + y for x, y in zip(a.num, b.num)], da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _make(m, [x * fa + y * fb for x, y in zip(a.num, b.num)],
                     da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.m, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return self + (-Cyc.coerce(other, 1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """A rational multiple.  A product of two Cyc values is never
        formed: character products are taken on root counts."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n = other.numerator
        return _make(self.m, [c * n for c in self.num],
                     self.den * other.denominator)

    __rmul__ = __mul__

    # -- comparison and rendering

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b, _ = self._common(other)
        return a.den == b.den and a.num == b.num

    __hash__ = None

    def _lowest_terms(self):
        """(numerator, denominator) of each coordinate num[i]/den in lowest
        terms, as Fraction would give them (0 is 0/1)."""
        den, out = self.den, []
        for c in self.num:
            g = math.gcd(c, den)
            out.append((c // g, den // g))
        return out

    def key(self):
        """Deterministic sort key; values must share a conductor to be compared."""
        return (self.m,) + tuple(self._lowest_terms())

    def to_json(self):
        pairs = self._lowest_terms()
        return {
            "conductor": self.m,
            "num": [n for n, _ in pairs],
            "den": [d for _, d in pairs],
        }

    def __repr__(self):
        coeffs = self.coeffs
        if self.as_rational() is not None:
            return f"Cyc({coeffs[0]})"
        terms = []
        for i, c in enumerate(coeffs):
            if c:
                terms.append(f"{c}*z{self.m}^{i}" if i else f"{c}")
        return "Cyc(" + " + ".join(terms) + ")"
