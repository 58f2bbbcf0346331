import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repring.cyclo import Cyc
from repring.gf import gf_field, poly_eval
from repring.linalg import (
    Echelon,
    gf_charpoly,
    gf_identity,
    gf_matmul,
    gf_rank,
    gf_right_kernel,
    gf_rref,
    gf_solve,
    gf_transpose,
    int_mat_rank_mod_p,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_rref,
    mat_solve,
    smith_normal_form,
)


def test_mat_rref_fractions():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    red, pivots = mat_rref(A)
    assert pivots == [0, 1]
    assert red == [[1, 0], [0, 1]]


def test_mat_solve_and_inconsistent():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert mat_solve(A, [Fraction(3), Fraction(6)]) is not None
    assert mat_solve(A, [Fraction(3), Fraction(7)]) is None


def test_mat_inv_cyclotomic():
    z = Cyc.zeta(3)
    half = Cyc.from_rational(Fraction(1, 2), 3)
    A = [[half, z], [z * z, half]]
    B = mat_inv(A)
    prod = mat_mul(A, B)
    assert prod[0][0] == 1 and prod[1][1] == 1
    assert prod[0][1] == 0 and prod[1][0] == 0


def test_phi_matrix_s3_char2_is_nonsingular():
    # Brauer character matrix of S3 at p=2 over the cyclotomic field
    A = [[Cyc.from_rational(1), Cyc.from_rational(1)],
         [Cyc.from_rational(2), Cyc.from_rational(-1)]]
    assert mat_rank(A) == 2


def test_gf_rank_rref():
    F = gf_field(3, 1)
    A = [[2, 1], [1, 2]]
    # det = 3 = 0 mod 3
    assert gf_rank(F, A) == 1
    red, piv = gf_rref(F, A)
    assert piv == [0]
    assert red[0] == [1, 2]


def test_gf_solve_and_kernel():
    F = gf_field(2, 1)
    A = [[1, 1, 0], [0, 1, 1]]
    x = gf_solve(F, A, [1, 1])
    assert x is not None
    assert [F.add(F.mul(A[i][0], x[0]),
                  F.add(F.mul(A[i][1], x[1]), F.mul(A[i][2], x[2])))
            for i in range(2)] == [1, 1]
    ker = gf_right_kernel(F, A)
    assert len(ker) == 1
    assert ker[0] == [1, 1, 1]
    assert gf_solve(F, [[1, 0], [1, 0]], [0, 1]) is None


def test_gf_row_span_membership():
    F = gf_field(2, 1)
    ech = Echelon(F)
    assert ech.add([1, 0, 1]) and ech.add([0, 1, 1])
    assert not any(ech.reduce([1, 1, 0]))
    assert any(ech.reduce([1, 1, 1]))
    assert not ech.add([1, 1, 0])
    assert ech.add([1, 1, 1])
    assert len(ech) == 3 and ech.rows == gf_identity(3)



@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5), st.data())
def test_echelon_is_rref_of_what_was_added(pd, n, m, data):
    F = gf_field(*pd)
    elt = st.integers(min_value=0, max_value=F.q - 1)
    rows = [[data.draw(elt) for _ in range(m)] for _ in range(n)]
    ech = Echelon(F)
    added = sum(ech.add(r) for r in rows)
    assert added == len(ech) == len(ech.pivots)
    assert ech.pivots == sorted(set(ech.pivots))
    for i, (c, row) in enumerate(zip(ech.pivots, ech.rows)):
        assert not any(row[:c]) and row[c] == 1
        assert all(other[c] == 0 for k, other in enumerate(ech.rows) if k != i)
    assert all(not any(ech.reduce(r)) for r in rows)
    # the rref of a row space does not depend on the order of its rows
    assert gf_rref(F, rows[::-1]) == (ech.rows, ech.pivots)


def _naive_charpoly(F, M):
    """det(xI - M) by Leibniz expansion with polynomial entries; n <= 4."""
    from itertools import permutations

    from repring.gf import poly_mul, poly_sub, poly_trim

    n = len(M)
    entries = {}
    for i in range(n):
        for j in range(n):
            # x*delta_ij - M[i][j]
            entries[i, j] = poly_trim([F.neg(M[i][j]), 1 if i == j else 0])
    total = ()
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for c in range(n):
            if not seen[c]:
                size = 0
                j = c
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    size += 1
                if size % 2 == 0:
                    sign = -sign
        term = (1,)
        for i in range(n):
            term = poly_mul(F, term, entries[i, perm[i]])
        if sign == 1:
            total = poly_trim([F.add(a, b) for a, b in
                               zip(list(total) + [0] * len(term),
                                   list(term) + [0] * len(total))])
        else:
            total = poly_sub(F, total, term)
    return total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
       st.integers(min_value=1, max_value=4), st.data())
def test_gf_charpoly_matches_naive_det(pd, n, data):
    F = gf_field(*pd)
    elt = st.integers(min_value=0, max_value=F.q - 1)
    M = [[data.draw(elt) for _ in range(n)] for _ in range(n)]
    assert gf_charpoly(F, M) == _naive_charpoly(F, M)


def test_charpoly_of_permutation_matrix():
    F = gf_field(5, 1)
    # 3-cycle: x^3 - 1
    M = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert gf_charpoly(F, M) == (4, 0, 0, 1)
    assert gf_charpoly(F, gf_identity(3)) == (4, 3, 2, 1)  # (x-1)^3 mod 5


def test_charpoly_root_is_eigenvalue():
    F = gf_field(2, 2)
    M = [[2, 1], [1, 0]]
    cp = gf_charpoly(F, M)
    # Cayley-Hamilton check: cp(M) = 0
    acc = [[0, 0], [0, 0]]
    power = gf_identity(2)
    for c in cp:
        if c:
            acc = [[F.add(acc[i][j], F.mul(c, power[i][j]))
                    for j in range(2)] for i in range(2)]
        power = gf_matmul(F, power, M)
    assert acc == [[0, 0], [0, 0]]


def test_smith_normal_form_examples():
    assert smith_normal_form([[2, 0], [0, 1]]) == [1, 2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 1], [1, 2]]) == [1, 3]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2, 0]
    assert smith_normal_form([[4, 2, 2], [2, 3, 2]]) == [1, 2]


def _minor_gcd_divisors(M):
    """Elementary divisors via gcds of k x k minors; oracle for tiny matrices."""
    import math
    from itertools import combinations

    n, m = len(M), len(M[0])

    def det(rows, cols):
        k = len(rows)
        if k == 1:
            return M[rows[0]][cols[0]]
        total = 0
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            total += (-1) ** idx * M[rows[0]][c] * sub
        return total

    gcds = [1]
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                g = math.gcd(g, abs(det(list(rows), list(cols))))
        gcds.append(g)
    out = []
    for k in range(1, min(n, m) + 1):
        if gcds[k] == 0:
            out.append(0)
        else:
            out.append(gcds[k] // gcds[k - 1])
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.data())
def test_smith_matches_minor_gcd_oracle(n, m, data):
    elt = st.integers(min_value=-6, max_value=6)
    M = [[data.draw(elt) for _ in range(m)] for _ in range(n)]
    assert smith_normal_form(M) == _minor_gcd_divisors(M)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_smith_invariant_under_unimodular_moves(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    elt = st.integers(min_value=-5, max_value=5)
    M = [[data.draw(elt) for _ in range(n)] for _ in range(n)]
    base = smith_normal_form(M)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    N = [row[:] for row in M]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        if rng.random() < 0.5:
            for t in range(n):
                N[i][t] += c * N[j][t]
        else:
            for t in range(n):
                N[t][i] += c * N[t][j]
    assert smith_normal_form(N) == base
    # divisibility chain
    nz = [d for d in base if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


def test_int_rank_mod_p():
    assert int_mat_rank_mod_p([[2, 0], [0, 1]], 2) == 1
    assert int_mat_rank_mod_p([[2, 1], [1, 2]], 3) == 1
    assert int_mat_rank_mod_p([[p := 5]], 5) == 0


def test_transpose_shapes():
    assert gf_transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert gf_transpose([]) == []
