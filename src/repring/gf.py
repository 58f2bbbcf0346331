"""Arithmetic in small finite fields F_{p^d} and polynomials over them.

A field element is a plain int ``0 <= code < q`` encoding its coefficient
vector over F_p: ``code = c0 + c1*p + ... + c_{d-1}*p^(d-1)``.  The field
object carries lookup tables: discrete logs for multiplication, and for
addition a table when q <= 256 and Zech logarithms above.  Its row
kernel ``axpy(y, a, x)`` returns the list y + a*x without a method call
per coordinate; the linear algebra and the polynomial products and
divisions here are built on it, which keeps brute-force linear algebra
over F_q fast enough in pure Python.

Construction, reproducible on every platform: the prime field GF(p, 1)
has modulus x, and its primitive element is the smallest g with
g^((p-1)/r) != 1 mod p for each prime r dividing p - 1.  An extension
field GF(p, d) is built with the polynomial routines below over GF(p, 1).
Its modulus is the first monic polynomial f of degree d in code order
that passes Rabin's irreducibility test: x^(p^d) = x mod f, and
gcd(x^(p^(d/r)) - x, f) = 1 for each prime r dividing d.  Its primitive
element is the smallest code g with g^((q-1)/r) != 1 mod f for each
prime r dividing q - 1.  A field of more than ``FIELD_ORDER_BOUND``
elements (config) raises ``FieldTooLarge`` before any of this runs.

Polynomials are little-endian tuples of codes with no trailing zeros;
the zero polynomial is ``()``.  The ``poly_*`` routines take the GF
first.  ``irreducible_factors`` yields the distinct irreducible factors
of a polynomial, smallest degree first, by distinct-degree and
equal-degree splitting (Cantor-Zassenhaus) of the polynomial itself: it
finds no multiplicities, and works out a degree only when its caller,
the meataxe, asks past the one before.  The meataxe passes the random
stream of its own seed.
"""

import functools

from .config import FIELD_ORDER_BOUND
from .errors import FieldTooLarge, InvalidPrime, RepringError

# addition and multiplication tables up to this q; Zech logarithms above
_TABLE_MAX_Q = 256


# strong probable primes to every prime base up to 41 are prime below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by the Miller-Rabin test to the prime bases
    up to 41, which is exact below PRIME_TEST_BOUND; raises InvalidPrime
    at or above it."""
    if n >= PRIME_TEST_BOUND:
        raise InvalidPrime(
            f"p = {n} is at or above {PRIME_TEST_BOUND}, the bound below "
            "which primality is decided")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list:
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def _digit_sum_table(p, d):
    """add[a][b]: the code of the digit-wise sum mod p of d-digit codes.

    Grown one top digit at a time, so a code lo + size*hi adds its top
    digit and looks up the rest.
    """
    table = [[(a + b) % p for b in range(p)] for a in range(p)]
    size = p
    for _ in range(d - 1):
        highs = [[size * ((ahi + bhi) % p) for bhi in range(p)]
                 for ahi in range(p)]
        table = [[h + x for h in highs[ahi] for x in table[alo]]
                 for ahi in range(p) for alo in range(size)]
        size *= p
    return table


class GF:
    """The finite field F_{p^d} with table-driven arithmetic on int codes.

    ``exp[k]`` is the code of g^k for the primitive element g and
    ``log`` its inverse (``log[0] = -1``).  Addition has one of two
    forms, fixed at construction as the ``add`` and ``axpy`` attributes:
    an addition table for q <= 256, and Zech logarithms above
    (1 + g^k = g^zech[k]).  ``axpy(y, a, x)`` returns the list y + a*x
    over the common length of y and x; it is the one row kernel of the
    package's linear algebra.
    """

    def __init__(self, p: int, d: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if d < 1:
            raise ValueError("d must be >= 1")
        self.p = p
        self.d = d
        self.q = q = p ** d
        if q > FIELD_ORDER_BOUND:
            raise FieldTooLarge(
                f"GF({p}^{d}) has {q} elements; tables stop at "
                f"{FIELD_ORDER_BOUND}")
        self.modulus = self._find_modulus()
        self.exp, self.log, self.primitive = self._build_log_tables()
        n = q - 1
        log = self.log
        # exp twice over, so a sum of two logs needs no modulo
        self._exp2 = exp2 = self.exp + self.exp
        if p == 2:
            self._neg = list(range(q))
        else:
            half = n // 2  # g^half = -1
            self._neg = [0] + [exp2[k + half] for k in log[1:]]
        if q <= _TABLE_MAX_Q:
            self._add = _digit_sum_table(p, d)
            zero = [0] * q
            self._mul = [zero] + [[0] + [exp2[ka + kb] for kb in log[1:]]
                                  for ka in log[1:]]
            self.add, self.axpy = self._add_by_table, self._axpy_by_table
        else:
            # 1 + c raises the lowest digit of c; a zero sum gets the
            # index 2n, past both copies of exp, where exp2 holds zeros
            plus_one = [c + 1 if c % p != p - 1 else c + 1 - p
                        for c in self.exp]
            self._zech = [log[c] if c else 2 * n for c in plus_one]
            exp2.extend([0] * n)
            self.add, self.axpy = self._add_zech, self._axpy_zech

    # -- construction helpers

    def _find_modulus(self):
        """x for a prime field; else the first monic irreducible of
        degree d in code order."""
        p, d = self.p, self.d
        if d == 1:
            return _X
        Fp = gf_field(p, 1)
        for code in range(p ** d):
            f = self.coeffs(code) + (1,)
            if _is_irreducible(Fp, f):
                return f
        raise RepringError(f"no irreducible of degree {d} over F_{p}")

    def _raw_mul(self, a, b):
        """Multiply two codes by honest polynomial arithmetic mod modulus."""
        Fp = gf_field(self.p, 1)
        return self.code(poly_mod(Fp, poly_mul(Fp, self.coeffs(a),
                                               self.coeffs(b)), self.modulus))

    def _build_log_tables(self):
        """(exp, log, g) for the smallest code g of order q - 1.

        A code c is primitive when c^((q-1)/r) != 1 for every prime r
        dividing q - 1.  Multiplication by g is F_p-linear, so the walk
        over its powers splits each code into a low and a high half,
        looks up the image of each half, and adds the two images half by
        half in a table of digit-wise sums; a prime field takes the
        powers of g mod p directly.
        """
        p, d, q = self.p, self.d, self.q
        n = q - 1
        rs = _prime_factors(n)
        if d == 1:
            g = next(g for g in range(1, p)
                     if all(pow(g, n // r, p) != 1 for r in rs))
            exp = [pow(g, k, p) for k in range(n)]
        else:
            Fp = gf_field(p, 1)
            g = next(g for g in range(2, q)
                     if all(poly_powmod(Fp, self.coeffs(g), n // r,
                                        self.modulus) != (1,) for r in rs))
            h = (d + 1) // 2
            B = p ** h
            add = _digit_sum_table(p, h)  # the d - h high digits fit too
            low = [divmod(self._raw_mul(c, g), B) for c in range(B)]
            high = [divmod(self._raw_mul(c * B, g), B)
                    for c in range(p ** (d - h))]
            exp = [1]
            c = 1
            for _ in range(n - 1):
                c_hi, c_lo = divmod(c, B)
                a_hi, a_lo = low[c_lo]
                b_hi, b_lo = high[c_hi]
                c = add[a_lo][b_lo] + B * add[a_hi][b_hi]
                exp.append(c)
        log = [-1] * q
        for e, c in enumerate(exp):
            log[c] = e
        return exp, log, g

    # -- arithmetic on codes

    def _add_by_table(self, a, b):
        return self._add[a][b]

    def _add_zech(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self.log
        k = log[a]
        return self._exp2[k + self._zech[(log[b] - k) % (self.q - 1)]]

    def _axpy_by_table(self, y, a, x):
        add, ax = self._add, self._mul[a]
        return [add[s][ax[t]] for s, t in zip(y, x)]

    def _axpy_zech(self, y, a, x):
        if not a:
            return list(y)
        exp2, log, zech, n = self._exp2, self.log, self._zech, self.q - 1
        k = log[a]
        out = []
        for s, t in zip(y, x):
            if t:
                u = k + log[t]  # log of a*t
                if s:
                    ls = log[s]
                    s = exp2[ls + zech[(u - ls) % n]]
                else:
                    s = exp2[u]
            out.append(s)
        return out

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp2[self.log[a] + self.log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    # -- conversions

    def coeffs(self, code):
        """Coefficient vector (length d) of an element over F_p."""
        p, out = self.p, []
        for _ in range(self.d):
            code, c = divmod(code, p)
            out.append(c)
        return tuple(out)

    def code(self, coeffs):
        out = 0
        mult = 1
        for c in coeffs:
            out += (c % self.p) * mult
            mult *= self.p
        return out

    def __repr__(self):
        return f"GF({self.p}^{self.d})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.d) == (other.p, other.d)

    def __hash__(self):
        return hash((self.p, self.d))


@functools.lru_cache(maxsize=None)
def gf_field(p: int, d: int) -> GF:
    return GF(p, d)


def multiplicative_order(p: int, m: int) -> int:
    """Order of p in (Z/m)^*; m = 1 gives 1.  Requires gcd(p, m) = 1."""
    if m == 1:
        return 1
    x = p % m
    if x == 0:
        raise ValueError("p divides m")
    d = 1
    y = x
    while y != 1:
        y = (y * x) % m
        d += 1
        if d > m:
            raise ValueError(f"gcd({p}, {m}) != 1")
    return d


# ---------------------------------------------------------------------
# polynomials over a GF F: little-endian tuples of codes, no trailing
# zeros


def poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def poly_deg(a):
    return len(a) - 1


def poly_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    nb = len(b)
    return poly_trim(F.axpy(a[:nb], 1, b) + list(a[nb:]))


def poly_neg(F, a):
    return tuple(F.neg(c) for c in a)


def poly_sub(F, a, b):
    return poly_add(F, a, poly_neg(F, b))


def poly_scale(F, a, s):
    if s == 0:
        return ()
    return tuple(F.axpy([0] * len(a), s, a))


def poly_mul(F, a, b):
    if not a or not b:
        return ()
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    axpy = F.axpy
    for i, ai in enumerate(a):
        if ai:
            out[i:i + nb] = axpy(out[i:i + nb], ai, b)
    return poly_trim(out)


def poly_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    ilead = F.inv(lead)
    low = b[:db]
    quo = [0] * max(0, len(a) - db)
    axpy, mul, neg = F.axpy, F.mul, F.neg
    while len(a) - 1 >= db and a:
        c = mul(a[-1], ilead)
        shift = len(a) - 1 - db
        if c:
            quo[shift] = c
            a[shift:shift + db] = axpy(a[shift:shift + db], neg(c), low)
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quo), poly_trim(a)


def poly_mod(F, a, b):
    return poly_divmod(F, a, b)[1]


def poly_monic(F, a):
    if not a:
        return a
    if a[-1] == 1:
        return tuple(a)
    return poly_scale(F, a, F.inv(a[-1]))


def poly_gcd(F, a, b):
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_powmod(F, base, e, mod):
    result = (1,)
    base = poly_mod(F, base, mod)
    while e:
        if e & 1:
            result = poly_mod(F, poly_mul(F, result, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        e >>= 1
    return result


_X = (0, 1)


def _is_irreducible(Fp, f):
    """Rabin's test for monic f of degree d >= 2 over the prime field:
    x^(p^d) = x mod f, and gcd(x^(p^(d/r)) - x, f) = 1 for each prime
    r dividing d."""
    p, d = Fp.p, poly_deg(f)

    def frobenius_minus_x(k):
        return poly_sub(Fp, poly_powmod(Fp, _X, p ** k, f), _X)

    return (not frobenius_minus_x(d)
            and all(poly_gcd(Fp, frobenius_minus_x(d // r), f) == (1,)
                    for r in _prime_factors(d)))


def _equal_degree(F, f, d, rng):
    """f squarefree monic, all irreducible factors of degree d."""
    n = poly_deg(f)
    if n == d:
        return [f]
    while True:
        r = poly_trim([rng.randrange(F.q) for _ in range(n)])
        if poly_deg(r) < 1:
            continue
        if F.p == 2:
            # trace map over F_2 splits in characteristic 2
            s = r
            t = r
            for _ in range(F.d * d - 1):
                t = poly_mod(F, poly_mul(F, t, t), f)
                s = poly_add(F, s, t)
            g = poly_gcd(F, s, f)
        else:
            s = poly_powmod(F, r, (F.q ** d - 1) // 2, f)
            g = poly_gcd(F, poly_sub(F, s, (1,)), f)
        if 0 < poly_deg(g) < n:
            rest = poly_divmod(F, f, g)[0]
            return _equal_degree(F, g, d, rng) + _equal_degree(F, rest, d, rng)


def irreducible_factors(F, f, rng):
    """Yield the distinct monic irreducible factors of f over F, by
    degree and then by coefficient codes, each once.

    Degree d is worked out only when a factor past degree d - 1 is asked
    for.  x^(q^d) - x is the square-free product of the monic
    irreducibles whose degree divides d, so once every factor of lower
    degree is divided out of rest, with all its powers, g = gcd(x^(q^d)
    - x, rest) is the product of rest's distinct factors of degree d.
    Dividing rest by gcd(rest, g) until that is 1 removes their powers;
    a rest of degree below 2(d + 1) is then 1 or irreducible.  The
    equal-degree splitting of g (Cantor-Zassenhaus) draws its random
    polynomials from rng, a random.Random; the factors do not depend
    on it.
    """
    rest = poly_monic(F, poly_trim(f))
    h = _X  # x^(q^d) mod rest
    d = 0
    while poly_deg(rest) >= 2 * (d + 1):
        d += 1
        h = poly_powmod(F, h, F.q, rest)
        g = poly_gcd(F, poly_sub(F, h, _X), rest)
        if poly_deg(g) < 1:
            continue
        common = g
        while poly_deg(common) > 0:
            rest = poly_divmod(F, rest, common)[0]
            common = poly_gcd(F, rest, g)
        h = poly_mod(F, h, rest)
        yield from sorted(_equal_degree(F, g, d, rng))
    if poly_deg(rest) > 0:
        yield rest
