import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repring.cyclo import (
    conductor_degree,
    convolve_into,
    cyclotomic_poly,
    root_combination,
    root_product,
    root_sum,
    value_json,
    value_text,
)
from repring.errors import NotPLocal
from repring.gf import gf_field, multiplicative_order, poly_mul
from repring.lift import BrauerLift
from cyclo_reference import QQ, RefCyc, dot, inverse, mul, power


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


def test_zeta_relations():
    z = RefCyc.zeta(3)
    assert power(z, 3) == 1
    assert power(z, 2) + z + 1 == 0
    assert RefCyc.zeta(2) == -1
    assert power(RefCyc.zeta(4), 2) == -1
    # sum over all m-th roots vanishes for m > 1, as a root count too
    for m in (2, 3, 4, 5, 6, 8):
        total = sum((RefCyc.zeta(m, k) for k in range(m)), RefCyc(1, [0]))
        assert total == 0
        assert not any(root_sum(m, [(k, 1) for k in range(m)]))


def test_promotion_consistency():
    # zeta_3 = zeta_6^2: a root count read at a multiple of its conductor
    assert RefCyc.zeta(3) == RefCyc.zeta(6, 2)
    assert RefCyc.zeta(2) == RefCyc.zeta(6, 3)
    assert root_sum(6, ((2, 1),)) == RefCyc.zeta(3).promote(6).coeffs
    a = RefCyc.zeta(3) + RefCyc.zeta(4)
    assert a.m == 12
    assert a - RefCyc.zeta(4) == RefCyc.zeta(3)


def test_rational_detection():
    z = RefCyc.zeta(5)
    s = z + power(z, 2) + power(z, 3) + power(z, 4)
    assert s.as_rational() == Fraction(-1)
    assert mul(z, inverse(z)).as_rational() == 1
    assert RefCyc.zeta(3).as_rational() is None
    # one reduction of the root count shows the same
    assert root_sum(5, ((1, 1), (2, 1), (3, 1), (4, 1))) == (-1, 0, 0, 0)


def test_scalar_mix():
    # a count times k over k prints as the count
    z8 = value_json(8, ((1, 1),))
    assert value_json(8, ((1, 2),), 2) == z8 == RefCyc.zeta(8).to_json()
    assert value_json(8, ((1, 3),), 4) == \
        (RefCyc.zeta(8) * Fraction(3, 4)).to_json()


def test_inverse_and_division():
    for m in (1, 3, 4, 5, 8, 12):
        v = RefCyc.zeta(m) + 2
        w = inverse(v)
        assert mul(v, w) == 1
        assert power(v, -1) == w
    with pytest.raises(ZeroDivisionError):
        inverse(RefCyc(1, [0]))


def test_json_roundtrip():
    counts = ((0, -3), (5, 14))
    obj = value_json(12, counts, 21)
    assert obj["conductor"] == 12
    assert RefCyc.from_json(obj) == \
        RefCyc.from_counts(12, counts) * Fraction(1, 21)


small_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(small_conductors, st.data())
def test_cyc_ring_axioms(m, data):
    """The reference value is a commutative ring with inverses."""
    deg = conductor_degree(m)
    vec = st.lists(small_fractions, min_size=deg, max_size=deg)
    a = RefCyc(m, data.draw(vec))
    b = RefCyc(m, data.draw(vec))
    c = RefCyc(m, data.draw(vec))
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
    assert L.reduce(((1, 1), (2, 1))) == 1


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
    assert L.reduce(((0, 1),), 2) == 2
    assert L.reduce(((0, 7),)) == 1
    assert L.reduce(((0, 6),), 3) == 2  # p divides c, and cancels
    with pytest.raises(NotPLocal):
        L.reduce(((0, 1),), 3)
    with pytest.raises(NotPLocal):
        L.reduce(((0, 3),), 9)


def test_reduce_is_ring_hom():
    F = gf_field(2, 2)
    L = BrauerLift(F, 3)
    vals = [(((1, 1),), 1), (((0, 1), (2, 1)), 1), (((0, 1),), 3),
            (((1, 5),), 7), (((0, 2), (1, 4)), 6)]
    for a, c in vals:
        for b, d in vals:
            # a/c + b/d = (d a + c b) / (c d), a/c * b/d = ab / (c d)
            total = root_combination(((d, a), (c, b)))
            assert L.reduce(total, c * d) == F.add(L.reduce(a, c),
                                                   L.reduce(b, d))
            assert L.reduce(root_product(3, a, b), c * d) == \
                F.mul(L.reduce(a, c), L.reduce(b, d))


def test_reduce_rejects_non_local():
    F = gf_field(2, 2)
    L = BrauerLift(F, 3)
    with pytest.raises(NotPLocal):
        L.reduce(((0, 3),), 2)
    # 1 + z + z^2 = 0, so 0/2 reduces
    assert L.reduce(((0, 1), (1, 1), (2, 1)), 2) == 0


def text_coeffs(m, text):
    """The power-basis coordinates that value_text's text names: a
    rational r as Cyc(r), else the non-zero terms c*zm^i joined by +,
    the constant term bare."""
    assert text.startswith("Cyc(") and text.endswith(")")
    out = [0] * conductor_degree(m)
    terms = text[4:-1].split(" + ")
    for term in terms:
        c, _, i = term.partition(f"*z{m}^")
        out[int(i or 0)] += Fraction(c)
    assert len(terms) == max(1, sum(map(bool, out)))
    return out


def assert_matches(m, counts, den, ref: RefCyc):
    """sum a zeta_m^e / den over counts prints as ref: the report object
    holds each coordinate in lowest terms, a zero as 0/1, and is ref's
    JSON, one Fraction per coordinate; the text names ref's
    coordinates."""
    obj = value_json(m, counts, den)
    assert obj["conductor"] == ref.m == m
    assert len(obj["num"]) == len(obj["den"]) == conductor_degree(m)
    for n, d in zip(obj["num"], obj["den"]):
        assert type(n) is int and type(d) is int and d > 0
        assert math.gcd(n, d) == 1  # so zero is 0/1
    assert RefCyc.from_json(obj) == ref
    assert obj == ref.to_json()
    assert text_coeffs(m, value_text(m, counts, den)) == list(ref.coeffs)


property_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15])
property_fractions = st.fractions(min_value=-4, max_value=4,
                                  max_denominator=12)


@st.composite
def root_counts(draw, m):
    acc = draw(st.dictionaries(st.integers(0, m - 1),
                               st.integers(-3, 5).filter(bool), max_size=6))
    return tuple(sorted(acc.items()))


@st.composite
def printed_values(draw, m=None):
    """(m, counts, den, RefCyc) of one value: a root count over a
    positive integer, sparse too, so that rational and zero values and
    zero coordinates turn up."""
    if m is None:
        m = draw(property_conductors)
    counts = draw(root_counts(m))
    den = draw(st.integers(1, 12))
    return m, counts, den, RefCyc.from_counts(m, counts) * Fraction(1, den)


def fraction_text(m, counts, den):
    """value_text's text built from one Fraction per coordinate."""
    coeffs = [Fraction(c, den) for c in root_sum(m, counts)]
    if not any(coeffs[1:]):
        return f"Cyc({coeffs[0]})"
    return "Cyc(" + " + ".join(f"{c}*z{m}^{i}" if i else f"{c}"
                               for i, c in enumerate(coeffs) if c) + ")"


@settings(max_examples=150, deadline=None)
@given(printed_values())
@example((4, ((1, -3),), 6, RefCyc(4, [0, Fraction(-3, 6)])))
@example((6, (), 1, RefCyc(6, [0, 0])))
@example((6, (), 5, RefCyc(6, [0, 0])))
@example((12, ((0, 4), (3, 6)), 8,
          RefCyc(12, [Fraction(1, 2), 0, 0, Fraction(3, 4)])))
def test_json_matches_the_fraction_route(value):
    """value_json and value_text reduce each coordinate over den by one
    gcd; the Fraction per coordinate they do not build gives the same
    pairs, with a zero coordinate as 0/1, and the same text."""
    m, counts, den, ref = value
    coeffs = [Fraction(c, den) for c in root_sum(m, counts)]
    assert value_json(m, counts, den) == {
        "conductor": m,
        "num": [c.numerator for c in coeffs],
        "den": [c.denominator for c in coeffs]}
    assert value_text(m, counts, den) == fraction_text(m, counts, den)
    assert_matches(m, counts, den, ref)


@settings(max_examples=150, deadline=None)
@given(property_conductors, st.data())
def test_arithmetic_matches_fraction_reference(m, data):
    """Sums, differences, negatives and products of root counts, printed,
    are those of the Fraction reference."""
    a, b = data.draw(root_counts(m)), data.draw(root_counts(m))
    ra, rb = RefCyc.from_counts(m, a), RefCyc.from_counts(m, b)
    assert_matches(m, a, 1, ra)
    assert_matches(m, root_combination(((1, a), (1, b))), 1, ra + rb)
    assert_matches(m, root_combination(((1, a), (-1, b))), 1, ra - rb)
    assert_matches(m, root_combination(((-1, a),)), 1, -ra)
    assert_matches(m, root_product(m, a, b), 1, mul(ra, rb))
    if rb:
        q = mul(ra, inverse(rb))
        assert mul(q, rb) == ra


@settings(max_examples=100, deadline=None)
@given(printed_values(), st.one_of(st.integers(-30, 30), property_fractions))
def test_scalar_product_matches_reference(value, c):
    """A rational multiple n/d of a count over den prints as the count
    times n over den d, in lowest terms."""
    m, counts, den, ref = value
    n, d = c.numerator, c.denominator
    assert_matches(m, [(e, a * n) for e, a in counts], den * d, ref * c)


@settings(max_examples=100, deadline=None)
@given(property_conductors, property_conductors, st.data())
def test_promote_matches_reference(m, k, data):
    """A root count of conductor m is one of conductor m k with its
    exponents times k; reduced there, it is the promoted value."""
    counts = data.draw(root_counts(m))
    big = m * k
    up = [(e * k, a) for e, a in counts]
    assert_matches(big, up, 1, RefCyc.from_counts(m, counts).promote(big))
    assert RefCyc.from_json(value_json(big, up)) == \
        RefCyc.from_counts(m, counts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(printed_values(),
                          st.one_of(printed_values(), st.integers(-5, 5))),
                max_size=5))
def test_dot_matches_reference(pairs):
    """The reference dot, reduced once, is the running sum of products,
    each reduced, at the lcm of the operands' conductors."""
    xs = [x[-1] for x, _ in pairs]
    ys = [y if isinstance(y, int) else y[-1] for _, y in pairs]
    total = RefCyc(1, [0])
    for x, y in zip(xs, ys):
        total = total + mul(x, y)
    got = dot(xs, ys)
    assert got == total
    assert got.m == math.lcm(1, *(v.m for v in xs + ys
                                  if isinstance(v, RefCyc)))


def _lift(M, p):
    return BrauerLift(gf_field(p, multiplicative_order(p, M)), M)


LIFTS = [(M, p) for M in (1, 2, 3, 4, 5, 6, 8, 12, 15)
         for p in (2, 3, 5, 7) if M % p]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LIFTS), st.data())
@example((15, 2), None)
def test_lift_reduce_matches_reference(lift_at, data):
    """BrauerLift.reduce(counts, c) is the per-coordinate reduction of
    the reference, for a count of any conductor d dividing the lift's,
    read at the lift's, and c prime to p or not; it raises NotPLocal
    exactly when the reference does.  The counts are multiplied by p
    at times, so that p in c may cancel."""
    M, p = lift_at
    lift = _lift(M, p)
    if data is None:  # the two outcomes at a c that p divides
        cases = [(15, ((0, 4), (2, 1)), 4), (15, ((0, 2), (1, 2)), 2)]
    else:
        d = data.draw(st.sampled_from([d for d in range(1, M + 1)
                                       if M % d == 0]))
        counts = data.draw(root_counts(d))
        scale = data.draw(st.sampled_from([1, 1, p, p * p]))
        c = data.draw(st.integers(1, 20)) * p ** data.draw(
            st.integers(0, 2))
        cases = [(d, tuple((e, a * scale) for e, a in counts), c)]
    for d, counts, c in cases:
        at_lift = [(e * (M // d), a) for e, a in counts]
        try:
            want = (RefCyc.from_counts(d, counts) * Fraction(1, c)
                    ).reduce(lift)
        except NotPLocal:
            with pytest.raises(NotPLocal):
                lift.reduce(at_lift, c)
        else:
            assert lift.reduce(at_lift, c) == want


def test_lift_reduce_not_p_local_in_one_coordinate():
    lift = _lift(15, 2)
    # 1 + z^2/4: one coordinate's denominator is divisible by 2
    counts, c = ((0, 4), (2, 1)), 4
    with pytest.raises(NotPLocal):
        (RefCyc.from_counts(15, counts) * Fraction(1, c)).reduce(lift)
    with pytest.raises(NotPLocal):
        lift.reduce(counts, c)
    # 1/3 + 2 z^2/5, a p-local value over the same denominators
    counts, c = ((0, 5), (2, 6)), 15
    assert lift.reduce(counts, c) == \
        (RefCyc.from_counts(15, counts) * Fraction(1, c)).reduce(lift)


def test_lowest_terms_examples():
    cases = [
        # (m, counts, den, json num, json den, text)
        (4, ((0, 2), (1, 3)), 4, [1, 3], [2, 4], "Cyc(1/2 + 3/4*z4^1)"),
        (4, ((0, 2), (1, 3)), 1, [2, 3], [1, 1], "Cyc(2 + 3*z4^1)"),
        (4, (), 1, [0, 0], [1, 1], "Cyc(0)"),
        (4, (), 5, [0, 0], [1, 1], "Cyc(0)"),
        (4, ((1, 6),), 4, [0, 3], [1, 2], "Cyc(3/2*z4^1)"),
        (3, ((0, 1), (1, 1)), 1, [1, 1], [1, 1], "Cyc(1 + 1*z3^1)"),
        # 1 + z3 + z3^2 = 0, and -z3^2 = 1 + z3
        (3, ((0, 1), (1, 1), (2, 1)), 7, [0, 0], [1, 1], "Cyc(0)"),
        (3, ((2, -2),), 6, [1, 1], [3, 3], "Cyc(1/3 + 1/3*z3^1)"),
        (1, ((0, 1),), 3, [1], [3], "Cyc(1/3)"),
        (1, ((0, -6),), 4, [-3], [2], "Cyc(-3/2)"),
    ]
    for m, counts, den, num, dens, text in cases:
        assert value_json(m, counts, den) == {"conductor": m, "num": num,
                                              "den": dens}
        assert value_text(m, counts, den) == text
        ref = RefCyc.from_counts(m, counts) * Fraction(1, den)
        assert value_json(m, counts, den) == ref.to_json()
        assert text_coeffs(m, text) == list(ref.coeffs)


# --- root counts: character values as (exponent, multiplicity) pairs,
# multiplied and summed in ints and reduced once, against the products
# of cyclo_reference

COUNT_LIFTS = {1: 2, 3: 2, 4: 3, 12: 5, 15: 2, 60: 7}  # conductor: p


@functools.lru_cache(maxsize=None)
def _count_lift(m):
    return _lift(m, COUNT_LIFTS[m])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COUNT_LIFTS)), st.data())
def test_root_counts_match_the_cyc_reference(m, data):
    counts = st.lists(root_counts(m), min_size=1, max_size=4)
    xs, ys = data.draw(counts), data.draw(counts)
    weights = data.draw(st.lists(st.integers(-4, 60), min_size=len(xs),
                                 max_size=len(xs)))
    cx = [RefCyc.from_counts(m, a) for a in xs]
    cy = [RefCyc.from_counts(m, b) for b in ys]
    # one reduction of a root count is the value sum a zeta^e
    for a, v in zip(xs, cx):
        assert root_sum(m, a) == v.coeffs
        assert_matches(m, a, 1, v)
    # a product of counts is the product of the values
    for a, b, u, v in zip(xs, ys, cx, cy):
        assert RefCyc.from_counts(m, root_product(m, a, b)) == mul(u, v)
    # an integer combination of counts is that of the values
    total = RefCyc(m, [0] * conductor_degree(m))
    for w, v in zip(weights, cx):
        total = total + v * w
    assert RefCyc.from_counts(m, root_combination(zip(weights, xs))) == total
    # weighted products summed into one dense count, reduced once, are
    # the dot product of the values
    acc = [0] * m
    for w, a, b in zip(weights, xs, ys):
        convolve_into(acc, a, b, w)
    want = dot([v * w for w, v in zip(weights, cx)], cy)
    assert root_sum(m, enumerate(acc)) == want.promote(m).coeffs
    # a count over c reduces as the value over c does
    lift = _count_lift(m)
    c = data.draw(st.integers(1, 50).filter(lambda c: c % lift.F.p))
    for a, v in zip(xs, cx):
        assert lift.reduce(a, c) == (v * Fraction(1, c)).reduce(lift)
