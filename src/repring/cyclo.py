"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value of conductor m is stored over the power basis 1, z, ...,
z^(phi(m)-1) of Q(zeta_m) as a tuple ``num`` of integer numerators over
one positive integer denominator ``den``, in lowest terms:
gcd(den, *num) == 1, and zero has den == 1.  The stored form of a value
of a given conductor is therefore unique.  Arithmetic runs on Python
ints modulo the m-th cyclotomic polynomial and divides out one gcd per
result.  Values of different conductors mix by promotion to the lcm
(zeta_m maps to zeta_M^(M/m)) through a cached integer matrix.  Rational
coordinates appear only at the edges: the constructor, ``coeffs``, JSON
and ``inverse``.  No floating point is involved anywhere.

``QQ`` is the field object of ints, Fractions and Cyc values, so the
shared elimination (``linalg.Echelon``) and polynomial routines
(``gf.poly_*``) run over Q(zeta_m) as they run over GF(q): the
cyclotomic polynomials and the extended Euclid of ``inverse`` are
``gf.poly_*`` over ``QQ``.
"""

import functools
import math
from fractions import Fraction

from .gf import poly_divmod, poly_mul, poly_sub, poly_trim


class _Rationals:
    """Q and its cyclotomic extensions as a field object: the row kernel
    and the operations that ``linalg.Echelon`` and ``gf.poly_*`` call.
    Elements are ints, Fractions and Cyc values, which must be falsy
    exactly when zero."""

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
    """Rows of x^k reduced mod the m-th cyclotomic polynomial.

    Integer tuples of length phi(m), for k up to max(2*phi(m)-2, m-1),
    enough for products of reduced values and for any zeta_m power.
    """
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    bound = max(2 * deg - 2, m - 1, deg - 1)
    rows = []
    cur = [0] * deg
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(bound):
        nxt = [0] + cur[:-1] if deg > 1 else [0]
        top = cur[-1]
        if top:
            # x^deg = -(phi without leading term)
            for i in range(deg):
                nxt[i] -= top * phi[i]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _promotion(m: int, big: int) -> tuple:
    """Integer matrix of Q(zeta_m) -> Q(zeta_big): row i is zeta_m^i."""
    step = big // m
    rows = _power_rows(big)
    return tuple(rows[i * step] for i in range(conductor_degree(m)))


def conductor_degree(m: int) -> int:
    return len(cyclotomic_poly(m)) - 1


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


def _mul_into(acc, an, bn, scale=1):
    """acc += scale * an * bn, as unreduced integer polynomials."""
    for i, x in enumerate(an):
        if x:
            x *= scale
            for j, y in enumerate(bn):
                if y:
                    acc[i + j] += x * y


def _reduce(m, prod, deg):
    """A product of reduced polynomials (length 2*deg - 1) mod Phi_m: only
    the degrees >= deg = phi(m) are rewritten, through _power_rows."""
    out = prod[:deg]
    rows = _power_rows(m)
    for k in range(deg, len(prod)):
        c = prod[k]
        if c:
            for j, r in enumerate(rows[k]):
                if r:
                    out[j] += c * r
    return out


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
    def zeta(m: int, k: int = 1) -> "Cyc":
        return _raw(m, _power_rows(m)[k % m], 1)

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
        out = [0] * conductor_degree(big)
        for c, row in zip(self.num, _promotion(m, big)):
            if c:
                for j, r in enumerate(row):
                    if r:
                        out[j] += c * r
        # Z[zeta_big] meets Q(zeta_m) in Z[zeta_m]: no common factor appears
        return _raw(big, tuple(out), self.den)

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
        if isinstance(other, (int, Fraction)):
            # scalar: no conductor promotion needed
            n = other.numerator
            return _make(self.m, [c * n for c in self.num],
                         self.den * other.denominator)
        a, b, m = self._common(other)
        deg = len(a.num)
        prod = [0] * (2 * deg - 1)
        _mul_into(prod, a.num, b.num)
        return _make(m, _reduce(m, prod, deg), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        m, num = self.m, self.num
        if not any(num[1:]):
            s = 1 if num[0] > 0 else -1
            return _raw(m, (s * self.den,) + num[1:], s * num[0])
        # extended Euclid in Q[x] against the (irreducible) cyclotomic
        # poly, on the numerator polynomial; den scales the result
        r0, s0 = cyclotomic_poly(m), ()
        r1, s1 = poly_trim(num), (1,)
        while len(r1) > 1:
            q, rem = poly_divmod(QQ, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, poly_sub(QQ, s0, poly_mul(QQ, q, s1))
        if not r1:
            raise ZeroDivisionError("zero divisor mod cyclotomic polynomial")
        c = QQ.inv(r1[0]) * self.den
        deg = len(num)
        out = [x * c for x in s1] + [0] * deg
        return Cyc(m, out[:deg])

    def __truediv__(self, other):
        other = Cyc.coerce(other, 1)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyc.coerce(other, 1) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = Cyc.from_rational(1, self.m)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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


def dot(xs, ys) -> Cyc:
    """Sum of x * y over paired entries (each a Cyc, int or Fraction).

    The products are accumulated unreduced over one running denominator,
    then reduced mod the cyclotomic polynomial and put in lowest terms
    once, at the lcm of all the conductors.
    """
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

