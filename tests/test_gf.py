import random

import pytest
from hypothesis import given, settings, strategies as st

from repring.errors import FieldTooLarge
from repring.gf import (
    GF,
    _is_prime,
    factor_poly,
    gf_field,
    multiplicative_order,
    poly_add,
    poly_deg,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
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
@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 257, 263])
def test_gf_prime_field_is_mod_p(p):
    F = gf_field(p, 1)
    assert F.modulus == (0, 1)
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.mul(a, b) == (a * b) % p
        assert F.sub(0, a) == F.neg(a) == -a % p
        if a:
            assert F.inv(a) == pow(a, -1, p)


def test_pth_root_inverts_frobenius():
    for (p, d) in [(2, 3), (3, 2), (5, 1)]:
        F = gf_field(p, d)
        for a in range(F.q):
            assert F.pow(F.pth_root(a), p) == a


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
            assert F.sub(_digit_add(F, a, b), b) == a
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


def test_poly_eval_and_deriv():
    F = gf_field(3, 1)
    f = (1, 0, 1)  # x^2 + 1
    values = []
    for x in (0, 1):
        out = 0
        for c in reversed(f):  # Horner
            out = F.add(F.mul(out, x), c)
        values.append(out)
    assert values == [1, 2]
    assert poly_deriv(F, f) == (0, 2)
    # derivative kills p-th powers
    assert poly_deriv(F, (1, 0, 0, 2)) == ()


def test_factor_irreducible_stays_whole():
    F = gf_field(2, 1)
    assert factor_poly(F, (1, 1, 1), random.Random(1)) == [((1, 1, 1), 1)]


def test_factor_pure_power():
    F = gf_field(3, 1)
    # x^2 and x^3
    rng = random.Random(1)
    assert factor_poly(F, (0, 0, 1), rng) == [((0, 1), 2)]
    assert factor_poly(F, (0, 0, 0, 1), rng) == [((0, 1), 3)]


def test_factor_x_cubed_minus_one_over_gf4():
    F = gf_field(2, 2)
    # x^3 - 1 splits into three distinct linear factors over F_4
    f = (1, 0, 0, 1)
    factors = factor_poly(F, f, random.Random(1))
    assert [m for _, m in factors] == [1, 1, 1]
    roots = sorted(F.neg(g[0]) for g, _ in factors)
    assert roots == [1, 2, 3]
    cubes = {F.pow(r, 3) for r in roots}
    assert cubes == {1}


def test_factor_deterministic_under_seed():
    F = gf_field(3, 2)
    f = (2, 0, 1, 0, 0, 1)
    first = factor_poly(F, f, random.Random(1))
    assert factor_poly(F, f, random.Random(1)) == first
    assert factor_poly(F, f, random.Random(99)) == first


@settings(max_examples=40, deadline=None)
@given(small_fields, st.data())
def test_factor_product_property(pd, data):
    F = gf_field(*pd)
    coeff = st.integers(min_value=0, max_value=F.q - 1)
    f = poly_trim(data.draw(st.lists(coeff, min_size=2, max_size=7)))
    if poly_deg(f) < 1:
        return
    factors = factor_poly(F, f, random.Random(7))
    prod = (f[-1],)
    for g, mult in factors:
        assert g[-1] == 1
        for _ in range(mult):
            prod = poly_mul(F, prod, g)
    assert prod == f
    # gcd of distinct factors is 1
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert poly_gcd(F, factors[i][0], factors[j][0]) == (1,)


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
    factors = factor_poly(F, f, random.Random(1))
    assert all(poly_deg(g) == 1 and m == 1 for g, m in factors)
    assert sorted(F.neg(g[0]) for g, _ in factors) == list(range(1, 8))
