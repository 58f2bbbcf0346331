import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from repring import gf as gf_mod
from repring.errors import FieldTooLarge, InvalidPrime
from repring.gf import (
    GF,
    PRIME_TEST_BOUND,
    _is_prime,
    gf_field,
    irreducible_factors,
    multiplicative_order,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_powmod,
    poly_sub,
    poly_trim,
)


# frozen small-field data, checked by hand against the usual tables


def test_gf4_tables():
    F = gf_field(2, 2)
    assert F.q == 4
    # x^2 + x + 1 is the only irreducible quadratic over F_2
    assert F.modulus == (1, 1, 1)
    # codes: 0, 1, 2 = x, 3 = x + 1
    assert F.mul(2, 2) == 3  # x^2 = x + 1
    assert F.mul(2, 3) == 1  # x(x+1) = x^2 + x = 1
    assert F.add(2, 3) == 1
    assert F.inv(2) == 3
    assert F.primitive == 2


def test_gf9_tables():
    F = gf_field(3, 2)
    # first irreducible quadratic in code order is x^2 + 1 (code 1)
    assert F.modulus == (1, 0, 1)
    # x^2 = -1 = 2
    assert F.mul(3, 3) == 2
    # x has order 4, not primitive; x + 1 squares to 2x, order 8
    assert F.primitive == 4
    assert F.pow(4, 8) == 1
    assert F.pow(4, 4) == 2  # (x+1)^4 = -1


# GF(257) and GF(263) add by Zech logarithms
def _by_trial_division(n):
    return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if _is_prime(n)] == \
        [n for n in range(-3, 20000) if _by_trial_division(n)]


# Carmichael numbers, and strong pseudoprimes to every prime base up to
# 7, 23 and 37 (Jaeschke 1993; Sorenson and Webster 2017), each as the
# product that shows it composite
COMPOSITES = [
    (561, 3 * 11 * 17),
    (1105, 5 * 13 * 17),
    (1729, 7 * 13 * 19),
    (41041, 7 * 11 * 13 * 41),
    (3215031751, 151 * 751 * 28351),
    (3825123056546413051, 149491 * 747451 * 34233211),
    (318665857834031151167461, 399165290221 * 798330580441),
    (2 ** 67 - 1, 193707721 * 761838257287),
]


@pytest.mark.parametrize("n, product", COMPOSITES,
                         ids=[str(n) for n, _ in COMPOSITES])
def test_is_prime_rejects_pseudoprimes(n, product):
    assert n == product
    assert not _is_prime(n)


@pytest.mark.parametrize("n", [2, 41, 43, 65537, 2 ** 31 - 1,
                               10 ** 16 + 61, 10 ** 18 + 3, 2 ** 61 - 1])
def test_is_prime_accepts_known_primes(n):
    assert _is_prime(n)


def _proth_primes_below(bound, m, count):
    """The largest count primes k 2^m + 1 < bound with odd k < 2^m, each
    certified by Proth's theorem: a^((n-1)/2) = -1 mod n for some a."""
    out, k = [], (bound - 2) >> m
    assert k < 1 << m
    while len(out) < count:
        k -= 1 - k % 2  # odd k, downward
        n = (k << m) + 1
        if any(pow(a, (n - 1) // 2, n) == n - 1 for a in range(2, 60)):
            out.append(n)
        k -= 1
    return out


def test_is_prime_near_the_bound():
    # ψ13, the least strong pseudoprime to the prime bases up to 41, is
    # the bound itself
    assert PRIME_TEST_BOUND == 1287836182261 * 2575672364521
    primes = _proth_primes_below(PRIME_TEST_BOUND, 41, 3)
    assert all(_is_prime(n) for n in primes)
    # products of two primes just below the square root of the bound
    q, r = _proth_primes_below(isqrt(PRIME_TEST_BOUND), 21, 2)
    assert not any(_is_prime(n) for n in (q * q, q * r, r * r))
    assert max(primes + [q * q]) < PRIME_TEST_BOUND
    for n in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 1, 2 ** 89 - 1):
        with pytest.raises(InvalidPrime, match=str(PRIME_TEST_BOUND)):
            _is_prime(n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 257, 263])
def test_gf_prime_field_is_mod_p(p):
    F = gf_field(p, 1)
    assert F.modulus == (0, 1)
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.mul(a, b) == (a * b) % p
        assert F.add(0, F.neg(a)) == F.neg(a) == -a % p
        if a:
            assert F.inv(a) == pow(a, -1, p)


def test_multiplicative_order():
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 8) == 2
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(5, 6) == 2
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)


def test_coeffs_code_roundtrip():
    F = gf_field(3, 3)
    for a in range(F.q):
        assert F.code(F.coeffs(a)) == a


small_fields = st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])

# q > 256: (3, 6) and (2, 9) add by Zech logarithms
axiom_fields = st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3),
                                (3, 6), (2, 9)])


@settings(max_examples=60, deadline=None)
@given(axiom_fields, st.data())
def test_field_axioms(pd, data):
    F = gf_field(*pd)
    elt = st.integers(min_value=0, max_value=F.q - 1)
    a, b, c = data.draw(elt), data.draw(elt), data.draw(elt)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1


# -- the scalar references the tables replace


def _digit_add(F, a, b):
    """Digit-wise sum mod p of two codes, one digit at a time."""
    p, out, mult = F.p, 0, 1
    for _ in range(F.d):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _candidate_walk(F):
    """(g, powers of g) for the smallest code g of order q - 1, found by
    walking the powers of each candidate in turn."""
    if F.q == 2:
        return 1, [1]
    for cand in range(2, F.q):
        powers = [1]
        x = cand
        while x != 1:
            powers.append(x)
            x = F._raw_mul(x, cand)
        if len(powers) == F.q - 1:
            return cand, powers
    raise AssertionError("no primitive element")


# table fields (q <= 256) and Zech fields above, for p = 3, 2 and 7
@pytest.mark.parametrize("pd", [(2, 4), (3, 2), (5, 2), (2, 8), (3, 5),
                                (3, 6), (2, 9), (7, 4)])
def test_add_and_axpy_match_scalar_reference(pd):
    F = gf_field(*pd)
    rng = random.Random(repr(pd))
    codes = range(F.q) if F.q <= 16 else [rng.randrange(F.q)
                                          for _ in range(40)]
    for a in codes:
        for b in codes:
            assert F.add(a, b) == _digit_add(F, a, b)
            assert F.mul(a, b) == F._raw_mul(a, b)
            assert F.add(_digit_add(F, a, b), F.neg(b)) == a
    for _ in range(200):
        n = rng.randrange(8)
        y = [rng.choice((0, rng.randrange(F.q))) for _ in range(n)]
        x = [rng.choice((0, rng.randrange(F.q))) for _ in range(n)]
        for a in (0, 1, rng.randrange(1, F.q)):
            want = [_digit_add(F, s, F._raw_mul(a, t)) for s, t in zip(y, x)]
            assert F.axpy(y, a, x) == want


def _fields_up_to(q_max):
    """(p, d) with p^d <= q_max: every d >= 2, and d = 1 for the primes
    below 600 and the largest ones below q_max (the d = 1 walk is long)."""
    out = []
    for p in range(2, q_max + 1):
        if not _is_prime(p):
            continue
        if p < 600 or p > q_max - 30:
            out.append((p, 1))
        d = 2
        while p ** d <= q_max:
            out.append((p, d))
            d += 1
    return out


def test_primitive_element_matches_candidate_walk():
    for p, d in _fields_up_to(4096):
        F = GF(p, d)
        g, powers = _candidate_walk(F)
        assert (F.primitive, F.exp) == (g, powers), (p, d)
        assert all(F.log[c] == k for k, c in enumerate(powers))


def _monic(p, d, code):
    """The monic polynomial of degree d whose lower coefficients are the
    base-p digits of code: code order of monic polynomials."""
    out = []
    for _ in range(d):
        code, c = divmod(code, p)
        out.append(c)
    return tuple(out) + (1,)


def test_modulus_is_first_irreducible_by_trial_division():
    """The modulus is the first monic polynomial of degree d in code
    order with no monic factor of degree <= d/2."""
    for p, d in _fields_up_to(4096):
        if d == 1:
            continue
        Fp = gf_field(p, 1)
        divisors = [_monic(p, k, c) for k in range(1, d // 2 + 1)
                    for c in range(p ** k)]
        first = next(f for f in (_monic(p, d, c) for c in range(p ** d))
                     if all(poly_divmod(Fp, f, g)[1] for g in divisors))
        assert gf_field(p, d).modulus == first, (p, d)


@settings(max_examples=60, deadline=None)
@given(small_fields, st.data())
def test_poly_divmod_identity(pd, data):
    F = gf_field(*pd)
    coeff = st.integers(min_value=0, max_value=F.q - 1)
    a = poly_trim(data.draw(st.lists(coeff, min_size=0, max_size=6)))
    b = poly_trim(data.draw(st.lists(coeff, min_size=1, max_size=4)))
    if not b:
        return
    q, r = poly_divmod(F, a, b)
    assert poly_add(F, poly_mul(F, q, b), r) == a
    assert poly_deg(r) < poly_deg(b)


def test_poly_eval_by_horner():
    F = gf_field(3, 1)
    f = (1, 0, 1)  # x^2 + 1
    values = []
    for x in (0, 1):
        out = 0
        for c in reversed(f):  # Horner
            out = F.add(F.mul(out, x), c)
        values.append(out)
    assert values == [1, 2]


def factors_of(F, f, seed=1):
    return list(irreducible_factors(F, f, random.Random(seed)))


def test_factor_irreducible_stays_whole():
    F = gf_field(2, 1)
    assert factors_of(F, (1, 1, 1)) == [(1, 1, 1)]


def test_factor_pure_power():
    F = gf_field(3, 1)
    # x^2 and x^3 have the one distinct factor x
    assert factors_of(F, (0, 0, 1)) == [(0, 1)]
    assert factors_of(F, (0, 0, 0, 1)) == [(0, 1)]


def test_factor_constants_have_no_factors():
    F = gf_field(5, 1)
    assert factors_of(F, ()) == factors_of(F, (3,)) == []


def test_factor_x_cubed_minus_one_over_gf4():
    F = gf_field(2, 2)
    # x^3 - 1 splits into three distinct linear factors over F_4
    f = (1, 0, 0, 1)
    factors = factors_of(F, f)
    assert all(poly_deg(g) == 1 for g in factors)
    roots = sorted(F.neg(g[0]) for g in factors)
    assert roots == [1, 2, 3]
    cubes = {F.pow(r, 3) for r in roots}
    assert cubes == {1}


def test_factor_deterministic_under_seed():
    F = gf_field(3, 2)
    f = (2, 0, 1, 0, 0, 1)
    first = factors_of(F, f, 1)
    assert factors_of(F, f, 1) == first
    assert factors_of(F, f, 99) == first


# -- an oracle for irreducible_factors that shares none of its code: Rabin's
# test for irreducibility, and the multiplicities found by trial division


def _prime_divisors(n):
    return [r for r in range(2, n + 1)
            if n % r == 0 and all(r % k for k in range(2, r))]


def _rabin_irreducible(F, g):
    """Monic g of degree n >= 1 is irreducible over F_q iff x^(q^n) = x
    mod g and gcd(x^(q^(n/r)) - x, g) = 1 for each prime r dividing n."""
    n, x = poly_deg(g), (0, 1)

    def frobenius_minus_x(k):
        return poly_sub(F, poly_powmod(F, x, F.q ** k, g),
                        poly_divmod(F, x, g)[1])

    return (not frobenius_minus_x(n)
            and all(poly_gcd(F, frobenius_minus_x(n // r), g) == (1,)
                    for r in _prime_divisors(n)))


def _check_factors(F, f, factors):
    assert all(g and g[-1] == 1 and _rabin_irreducible(F, g)
               for g in factors)
    assert factors == sorted(factors, key=lambda g: (poly_deg(g), g))
    for i, g in enumerate(factors):
        for h in factors[i + 1:]:
            assert poly_gcd(F, g, h) == (1,)
    # lead(f) * prod g^k == f, each k found by dividing g out of f
    rest = f
    prod = (f[-1],)
    for g in factors:
        k = 0
        while True:
            quo, rem = poly_divmod(F, rest, g)
            if rem:
                break
            rest, k = quo, k + 1
            prod = poly_mul(F, prod, g)
        assert k >= 1
    assert poly_deg(rest) == 0
    assert prod == f


# q > 256: (3, 6) adds by Zech logarithms
factor_fields = st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (2, 4), (3, 2), (3, 4), (5, 2), (3, 6)])


def _draw_poly(F, data, min_size, max_size):
    coeff = st.integers(min_value=0, max_value=F.q - 1)
    lead = st.integers(min_value=1, max_value=F.q - 1)
    return poly_trim(data.draw(st.lists(coeff, min_size=min_size,
                                        max_size=max_size))
                     + [data.draw(lead)])


@settings(max_examples=60, deadline=None)
@given(factor_fields, st.data())
def test_factor_product_property(pd, data):
    F = gf_field(*pd)
    f = _draw_poly(F, data, 1, 7)
    _check_factors(F, f, factors_of(F, f, 7))


@settings(max_examples=40, deadline=None)
@given(factor_fields, st.data())
def test_factor_repeated_factors(pd, data):
    """g^k * h: every power of a factor is divided out, and each
    distinct factor comes once."""
    F = gf_field(*pd)
    g = _draw_poly(F, data, 1, 3)
    h = _draw_poly(F, data, 0, 3)
    k = data.draw(st.integers(min_value=2, max_value=F.p + 1))
    f = h
    for _ in range(k):
        f = poly_mul(F, f, g)
    _check_factors(F, f, factors_of(F, f, 3))


@settings(max_examples=40, deadline=None)
@given(factor_fields, st.data())
def test_factor_polynomial_in_x_to_the_p(pd, data):
    """f = g(x^p) times a power of x: a p-th power when F is perfect,
    the case whose derivative vanishes."""
    F = gf_field(*pd)
    g = _draw_poly(F, data, 1, 3)
    f = [0] * (F.p * poly_deg(g) + 1)
    for i, c in enumerate(g):
        f[F.p * i] = c
    shift = data.draw(st.integers(min_value=0, max_value=2))
    f = poly_mul(F, tuple(f), (0,) * shift + (1,))
    _check_factors(F, f, factors_of(F, f, 5))


def test_factors_are_worked_out_one_degree_at_a_time(monkeypatch):
    """Asking for the linear factors splits no factor of higher degree."""
    F = gf_field(3, 1)
    quadratic = (1, 0, 1)  # x^2 + 1, irreducible over F_3
    f = poly_mul(F, poly_mul(F, (1, 1), (2, 1)),
                 poly_mul(F, quadratic, (2, 1, 1)))  # another quadratic
    splits = []
    real = gf_mod._equal_degree

    def counted(F, g, d, rng):
        splits.append(d)
        return real(F, g, d, rng)

    monkeypatch.setattr(gf_mod, "_equal_degree", counted)
    factors = irreducible_factors(F, f, random.Random(1))
    assert [next(factors), next(factors)] == [(1, 1), (2, 1)]
    assert set(splits) == {1}
    assert list(factors) == [(1, 0, 1), (2, 1, 1)]
    assert set(splits) == {1, 2}


def test_monic_and_gcd():
    F = gf_field(5, 1)
    assert poly_monic(F, (2, 4)) == (3, 1)
    # gcd((x-1)(x-2), (x-1)(x-3)) = x - 1
    a = poly_mul(F, (4, 1), (3, 1))
    b = poly_mul(F, (4, 1), (2, 1))
    assert poly_gcd(F, a, b) == (4, 1)


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GF(4, 1)
    with pytest.raises(ValueError):
        GF(2, 0)


def test_field_past_the_order_bound_raises_before_any_table(monkeypatch):
    def no_search(self):
        raise AssertionError("modulus search started")

    monkeypatch.setattr(GF, "_find_modulus", no_search)
    with pytest.raises(FieldTooLarge) as info:
        GF(3, 20)
    assert info.value.module == "gf"


def test_field_order_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr("repring.gf.FIELD_ORDER_BOUND", 8)
    assert GF(2, 3).q == 8
    with pytest.raises(FieldTooLarge):
        GF(3, 2)


def test_polynomials_over_extension_field():
    F = gf_field(2, 3)
    assert F.q == 8
    # x^7 - 1 splits into seven distinct linear factors over F_8
    f = poly_sub(F, (0,) * 7 + (1,), (1,))
    factors = factors_of(F, f)
    assert all(poly_deg(g) == 1 for g in factors)
    assert sorted(F.neg(g[0]) for g in factors) == list(range(1, 8))
