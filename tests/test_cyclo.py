import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repring.cyclo import (
    QQ,
    Cyc,
    conductor_degree,
    convolve_into,
    cyclotomic_poly,
    root_combination,
    root_product,
    root_sum,
)
from repring.errors import NotPLocal
from repring.gf import gf_field, multiplicative_order, poly_mul
from repring.lift import BrauerLift
from cyclo_reference import dot, inverse, mul, power


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    assert conductor_degree(9) == 6
    assert conductor_degree(15) == 8


def test_cyclotomic_polys_multiply_to_x_m_minus_1():
    for m in range(1, 106):
        assert all(type(c) is int for c in cyclotomic_poly(m))
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = poly_mul(QQ, prod, cyclotomic_poly(d))
        assert prod == (-1,) + (0,) * (m - 1) + (1,)
    # the first cyclotomic polynomial with a coefficient other than 0, +-1
    assert -2 in cyclotomic_poly(105)
    assert all(abs(c) <= 1 for m in range(1, 105)
               for c in cyclotomic_poly(m))


def test_cyc_truthiness_is_nonzero():
    z = Cyc.zeta(3)
    assert not (mul(z, z) + z + 1)
    assert not Cyc.from_rational(0, 12)
    assert not (Cyc.zeta(4) - Cyc.zeta(4))
    assert z and Cyc.from_rational(Fraction(-1, 7), 5)
    assert [v for v in (z - z, z, 0 * z) if v] == [z]


def test_zeta_relations():
    z = Cyc.zeta(3)
    assert power(z, 3) == 1
    assert power(z, 2) + z + 1 == 0
    assert Cyc.zeta(2) == -1
    assert power(Cyc.zeta(4), 2) == -1
    # sum over all m-th roots vanishes for m > 1
    for m in (2, 3, 4, 5, 6, 8):
        total = sum((Cyc.zeta(m, k) for k in range(m)), Cyc.from_rational(0))
        assert total == 0


def test_promotion_consistency():
    # zeta_3 = zeta_6^2
    assert Cyc.zeta(3) == Cyc.zeta(6, 2)
    assert Cyc.zeta(2) == Cyc.zeta(6, 3)
    a = Cyc.zeta(3) + Cyc.zeta(4)
    assert a.m == 12
    assert a - Cyc.zeta(4) == Cyc.zeta(3)


def test_rational_detection():
    z = Cyc.zeta(5)
    s = z + power(z, 2) + power(z, 3) + power(z, 4)
    assert s.as_rational() == Fraction(-1)
    assert mul(z, inverse(z)).as_rational() == 1
    assert Cyc.zeta(3).as_rational() is None


def test_scalar_mix():
    v = Fraction(1, 2) * Cyc.zeta(8) + 3
    v = v - 3
    v = v * 2
    assert v == Cyc.zeta(8)


def test_inverse_and_division():
    for m in (1, 3, 4, 5, 8, 12):
        v = Cyc.zeta(m) + 2
        w = inverse(v)
        assert mul(v, w) == 1
        assert power(v, -1) == w
    with pytest.raises(ZeroDivisionError):
        inverse(Cyc.from_rational(0))
    # a rational multiple is the only product of the value type
    with pytest.raises(TypeError):
        Cyc.zeta(3) * Cyc.zeta(3)


def test_json_roundtrip():
    v = Fraction(2, 3) * Cyc.zeta(12, 5) - Fraction(1, 7)
    obj = v.to_json()
    assert obj["conductor"] == 12
    assert Cyc(obj["conductor"], [Fraction(n, d) for n, d in
                                  zip(obj["num"], obj["den"])]) == v


small_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(small_conductors, st.data())
def test_cyc_ring_axioms(m, data):
    deg = conductor_degree(m)
    vec = st.lists(small_fractions, min_size=deg, max_size=deg)
    a = Cyc(m, data.draw(vec))
    b = Cyc(m, data.draw(vec))
    c = Cyc(m, data.draw(vec))
    assert a + b == b + a
    assert mul(a, b) == mul(b, a)
    assert mul(a + b, c) == mul(a, c) + mul(b, c)
    assert a + (-a) == 0
    if a:
        assert mul(a, inverse(a)) == 1


# --- the lift between field roots of unity and cyclotomic roots


def test_lift_table_gf4():
    F = gf_field(2, 2)
    L = BrauerLift(F, 3)
    assert L.root == F.primitive
    assert L.exponent(1) == 0
    assert L.exponent(L.root) == 1
    # omega + omega^2 = 1 in F_4 mirrors zeta + zeta^2 = -1 = 1 mod 2
    s = Cyc.zeta(3) + Cyc.zeta(3, 2)
    assert L.reduce(s) == 1


def test_lift_multiplicative():
    F = gf_field(3, 2)
    L = BrauerLift(F, 8)
    for j in range(8):
        for k in range(8):
            a, b = L.root_codes[j], L.root_codes[k]
            assert L.exponent(F.mul(a, b)) == (L.exponent(a)
                                               + L.exponent(b)) % 8


def test_reduce_rationals():
    F3 = gf_field(3, 1)
    L = BrauerLift(F3, 1)
    assert L.reduce(Cyc.from_rational(Fraction(1, 2))) == 2
    assert L.reduce(Cyc.from_rational(7)) == 1
    assert L.reduce_counts(((0, 7),)) == 1
    assert L.reduce_counts(((0, 1),), 2) == 2
    with pytest.raises(NotPLocal):
        L.reduce(Cyc.from_rational(Fraction(1, 3)))


def test_reduce_is_ring_hom():
    F = gf_field(2, 2)
    L = BrauerLift(F, 3)
    vals = [Cyc.zeta(3), Cyc.zeta(3, 2) + 1, Cyc.from_rational(Fraction(1, 3)),
            Cyc.zeta(3) * Fraction(5, 7)]
    for u in vals:
        for v in vals:
            assert L.reduce(u + v) == F.add(L.reduce(u), L.reduce(v))
            assert L.reduce(mul(u, v)) == F.mul(L.reduce(u), L.reduce(v))


def test_reduce_rejects_non_local():
    F = gf_field(2, 2)
    L = BrauerLift(F, 3)
    with pytest.raises(NotPLocal):
        L.reduce(Cyc.from_rational(Fraction(3, 2)))


# --- Fraction-coordinate reference: one Fraction per power-basis
# coordinate, reduced by long division by the cyclotomic polynomial


def ref_reduce(m, poly):
    """Remainder of a rational polynomial mod the m-th cyclotomic one."""
    phi = cyclotomic_poly(m)  # monic
    deg = len(phi) - 1
    poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i in range(deg + 1):
                poly[k - deg + i] -= c * phi[i]
    return tuple(poly[:deg])


class RefCyc:
    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == conductor_degree(m)

    @staticmethod
    def of(v: Cyc) -> "RefCyc":
        return RefCyc(v.m, [Fraction(n, v.den) for n in v.num])

    def promote(self, big):
        step = big // self.m
        poly = [Fraction(0)] * big
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return RefCyc(big, ref_reduce(big, poly))

    def _common(self, other):
        m = math.lcm(self.m, other.m)
        return self.promote(m), other.promote(m), m

    def __add__(self, other):
        a, b, m = self._common(other)
        return RefCyc(m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        a, b, m = self._common(other)
        return RefCyc(m, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefCyc(self.m, [c * other for c in self.coeffs])
        a, b, m = self._common(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        return RefCyc(m, ref_reduce(m, prod))

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    def to_json(self):
        return {"conductor": self.m,
                "num": [c.numerator for c in self.coeffs],
                "den": [c.denominator for c in self.coeffs]}

    def reduce(self, lift):
        """The per-coefficient reduction, one Fraction at a time."""
        F = lift.F
        out = 0
        for i, c in enumerate(self.promote(lift.m).coeffs):
            if c:
                if c.denominator % F.p == 0:
                    raise NotPLocal(f"denominator {c.denominator}")
                r = F.mul(c.numerator % F.p, F.inv(c.denominator % F.p))
                out = F.add(out, F.mul(r, F.pow(lift.root, i)))
        return out


def assert_lowest_terms(v: Cyc):
    assert type(v.den) is int and v.den > 0
    assert all(type(c) is int for c in v.num)
    assert len(v.num) == conductor_degree(v.m)
    assert math.gcd(v.den, *v.num) == 1  # so zero has den == 1


def assert_matches(v: Cyc, ref: RefCyc):
    assert_lowest_terms(v)
    assert v.m == ref.m
    assert v.coeffs == ref.coeffs
    assert v.to_json() == ref.to_json()
    assert Cyc(ref.m, ref.coeffs).num == v.num


property_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15])
property_fractions = st.fractions(min_value=-4, max_value=4,
                                  max_denominator=12)


@st.composite
def cyc_values(draw, m=None):
    if m is None:
        m = draw(property_conductors)
    deg = conductor_degree(m)
    # sparse vectors too, so that rational and zero values turn up
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)),
                                     property_fractions),
                           min_size=deg, max_size=deg))
    return Cyc(m, coeffs)


@settings(max_examples=150, deadline=None)
@given(cyc_values())
@example(Cyc(4, [0, Fraction(-3, 6)]))
@example(Cyc(6, [0, 0]))
def test_json_and_key_match_the_fraction_route(v):
    """to_json and key reduce each num[i]/den by one gcd; the Fraction
    per coordinate they no longer build gives the same pairs, with a
    zero coordinate as 0/1."""
    coeffs = [Fraction(c, v.den) for c in v.num]
    assert v.to_json() == {"conductor": v.m,
                           "num": [c.numerator for c in coeffs],
                           "den": [c.denominator for c in coeffs]}
    assert v.key() == (v.m,) + tuple((c.numerator, c.denominator)
                                     for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(cyc_values(), cyc_values())
def test_arithmetic_matches_fraction_reference(a, b):
    ra, rb = RefCyc.of(a), RefCyc.of(b)
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(mul(a, b), ra * rb)
    assert_matches(-a, RefCyc(a.m, [-c for c in ra.coeffs]))
    assert (a == b) == (ra == rb)
    assert a == a + 0 and a + b - b == a
    if b:
        q = mul(a, inverse(b))
        assert_lowest_terms(q)
        assert RefCyc.of(q) * rb == ra
        assert_lowest_terms(inverse(b))


@settings(max_examples=100, deadline=None)
@given(cyc_values(), st.one_of(st.integers(-30, 30), property_fractions))
def test_scalar_product_matches_reference(a, c):
    assert_matches(a * c, RefCyc.of(a) * c)
    assert_matches(c * a, RefCyc.of(a) * c)
    assert (a.as_rational() == c) == (a == c)


@settings(max_examples=100, deadline=None)
@given(cyc_values(), property_conductors)
def test_promote_matches_reference(a, k):
    big = a.m * k
    up = a.promote(big)
    assert_matches(up, RefCyc.of(a).promote(big))
    assert up == a


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(cyc_values(),
                          st.one_of(cyc_values(), st.integers(-5, 5))),
                max_size=5))
def test_dot_matches_reference(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    total = RefCyc(1, [0])
    for x, y in pairs:
        total = total + RefCyc.of(x) * (RefCyc.of(y) if isinstance(y, Cyc)
                                        else y)
    got = dot(xs, ys)
    assert_lowest_terms(got)
    assert RefCyc.of(got) == total
    # the conductor is the lcm of the operands', as a running sum gives
    assert got.m == math.lcm(1, *(v.m for v in xs + ys
                                  if isinstance(v, Cyc)))


def _lift(M, p):
    return BrauerLift(gf_field(p, multiplicative_order(p, M)), M)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(M, p) for M in (1, 2, 3, 4, 5, 6, 8, 12, 15)
                        for p in (2, 3, 5, 7) if M % p]),
       st.data())
def test_lift_reduce_matches_reference(lift_at, data):
    M, p = lift_at
    m = data.draw(st.sampled_from([d for d in (1, 2, 3, 4, 5, 6, 8, 12, 15)
                                   if M % d == 0]))
    v = data.draw(cyc_values(m))
    lift = _lift(M, p)
    try:
        want = RefCyc.of(v).reduce(lift)
    except NotPLocal:
        with pytest.raises(NotPLocal):
            lift.reduce(v)
    else:
        assert lift.reduce(v) == want


def test_lift_reduce_not_p_local_in_one_coordinate():
    lift = _lift(15, 2)
    v = Cyc(15, [1, 0, Fraction(1, 4)] + [0] * 5)
    with pytest.raises(NotPLocal):
        RefCyc.of(v).reduce(lift)
    with pytest.raises(NotPLocal):
        lift.reduce(v)
    # a p-local value over the same denominators reduces
    w = Cyc(15, [Fraction(1, 3), 0, Fraction(2, 5)] + [0] * 5)
    assert lift.reduce(w) == RefCyc.of(w).reduce(lift)


def test_lowest_terms_examples():
    v = Cyc(4, [Fraction(1, 2), Fraction(3, 4)])
    assert (v.num, v.den) == ((2, 3), 4)
    zero = v - v
    assert (zero.num, zero.den) == ((0, 0), 1)
    assert (v * 4).den == 1 and (v * 4).num == (2, 3)
    with pytest.raises(AttributeError):
        v.coeffs = (1, 2)


# --- root counts: character values as (exponent, multiplicity) pairs,
# multiplied and summed in ints and reduced once, against the Cyc
# products of cyclo_reference and the Fraction reference above

COUNT_LIFTS = {1: 2, 3: 2, 4: 3, 12: 5, 15: 2, 60: 7}  # conductor: p


@functools.lru_cache(maxsize=None)
def _count_lift(m):
    return _lift(m, COUNT_LIFTS[m])


@st.composite
def root_counts(draw, m):
    acc = draw(st.dictionaries(st.integers(0, m - 1),
                               st.integers(-3, 5).filter(bool), max_size=6))
    return tuple(sorted(acc.items()))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COUNT_LIFTS)), st.data())
def test_root_counts_match_the_cyc_reference(m, data):
    counts = st.lists(root_counts(m), min_size=1, max_size=4)
    xs, ys = data.draw(counts), data.draw(counts)
    weights = data.draw(st.lists(st.integers(-4, 60), min_size=len(xs),
                                 max_size=len(xs)))
    cx = [Cyc.from_counts(m, a) for a in xs]
    cy = [Cyc.from_counts(m, b) for b in ys]
    # one reduction of a root count is the value sum a zeta^e
    for a, v in zip(xs, cx):
        poly = [Fraction(0)] * m
        for e, c in a:
            poly[e] += c
        assert_matches(v, RefCyc(m, ref_reduce(m, poly)))
    # a product of counts is the product of the values
    for a, b, u, v in zip(xs, ys, cx, cy):
        assert Cyc.from_counts(m, root_product(m, a, b)) == mul(u, v)
    # an integer combination of counts is that of the values
    total = Cyc.from_rational(0, m)
    for w, v in zip(weights, cx):
        total = total + v * w
    assert Cyc.from_counts(m, root_combination(zip(weights, xs))) == total
    # weighted products summed into one dense count, reduced once, are
    # the dot product of the values
    acc = [0] * m
    for w, a, b in zip(weights, xs, ys):
        convolve_into(acc, a, b, w)
    want = dot([v * w for w, v in zip(weights, cx)], cy)
    assert Cyc.from_counts(m, enumerate(acc)) == want
    assert tuple(want.promote(m).num) == root_sum(m, enumerate(acc))
    # a count divided by c prime to p reduces root by root
    lift = _count_lift(m)
    c = data.draw(st.integers(1, 50).filter(lambda c: c % lift.F.p))
    for a, v in zip(xs, cx):
        assert lift.reduce_counts(a, c) == lift.reduce(v * Fraction(1, c))
