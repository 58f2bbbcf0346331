"""Exact arithmetic in cyclotomic fields Q(zeta_m), on root counts.

A character value of a p-regular element is a sum of m-th roots of
unity, so it is kept as a root count: the (e, a) pairs, e ascending and
a non-zero, of the value sum a zeta_m^e.  Root counts are the only
exact form the package computes with.  They multiply by adding
exponents mod m (``root_product``, ``convolve_into``) and combine by
adding counts (``root_combination``), all in plain ints; ``root_sum``
reduces a count mod the m-th cyclotomic polynomial once, to its
numerators over the power basis 1, z, ..., z^(phi(m)-1).  That is where
a Gram entry or a decomposition shows whether it is rational, and where
``lift.BrauerLift.reduce`` starts.

A value is printed only at the edge, from its root count over a
positive integer denominator: ``value_json`` gives the report's
{"conductor", "num", "den"} object, one numerator and denominator per
power-basis coordinate in lowest terms, and ``value_text`` the
``Cyc(...)`` text that demos and error messages show.  No floating
point is involved anywhere.

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


def value_json(m: int, counts, den: int = 1) -> dict:
    """The report object of sum a zeta_m^e / den over a root count, for
    a positive integer den: each power-basis coordinate's numerator and
    denominator in lowest terms, a zero coordinate as 0/1."""
    num = root_sum(m, counts)
    gs = [math.gcd(c, den) for c in num]
    return {"conductor": m,
            "num": [c // g for c, g in zip(num, gs)],
            "den": [den // g for g in gs]}


def value_text(m: int, counts, den: int = 1) -> str:
    """The same value as text: Cyc(r) for a rational r, else the sum of
    its non-zero terms c*zm^i, the constant term printed bare."""
    coeffs = [Fraction(c, den) for c in root_sum(m, counts)]
    if not any(coeffs[1:]):
        return f"Cyc({coeffs[0]})"
    return "Cyc(" + " + ".join(f"{c}*z{m}^{i}" if i else f"{c}"
                               for i, c in enumerate(coeffs) if c) + ")"
