"""Exact linear algebra.

Two flavours live here:
  * elimination over any field object: a finite field ``gf.GF``, whose
    elements are int codes, or ``cyclo.QQ``, whose elements are ints
    and Fractions.  All of it is built on one incremental row-echelon
    basis, `Echelon`, and every row operation here, and every product
    with a matrix, is one call of the field's row kernel ``F.axpy``,
    never a field call per coordinate;
  * integer Smith normal form.
All routines are deterministic, and all but `Echelon` are pure.
"""

import bisect


# ---------------------------------------------------------------------
# fields: matrices are lists of rows of field elements


def gf_matmul(F, A, B):
    m = len(B[0]) if B else 0
    axpy = F.axpy
    out = []
    for Ai in A:
        # row i of AB is the sum of A[i][t] * B[t], inline: a call of the
        # public gf_vec_mat per row would add a tracer span per row
        row = [0] * m
        for a, Bt in zip(Ai, B):
            if a:
                row = axpy(row, a, Bt)
        out.append(row)
    return out


def gf_vec_mat(F, v, A):
    out = [0] * (len(A[0]) if A else 0)
    axpy = F.axpy
    for vi, Ai in zip(v, A):
        if vi:
            out = axpy(out, vi, Ai)
    return out


def gf_transpose(A):
    return [list(col) for col in zip(*A)] if A else []

def gf_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class Echelon:
    """Incremental row-echelon basis of a subspace of F^n.

    The rows are kept fully reduced and sorted by pivot column, so
    (rows, pivots) is at every moment the rref of what was added.
    """

    __slots__ = ("F", "rows", "pivots")

    def __init__(self, F, rows=()):
        self.F = F
        self.rows = []
        self.pivots = []
        for v in rows:
            self.add(v)

    def __len__(self):
        return len(self.rows)

    def _clear(self, v, c, row):
        """v minus v[c] times row, where row has a 1 in column c."""
        return self.F.axpy(v, self.F.neg(v[c]), row)

    def reduce(self, v):
        """Residue of v: zero exactly when v lies in the span."""
        v = list(v)
        for c, row in zip(self.pivots, self.rows):
            if v[c]:
                v = self._clear(v, c, row)
        return v

    def add(self, v) -> bool:
        """Extend the span by v; True if v was independent of it."""
        u = self.reduce(v)
        c = next((j for j, x in enumerate(u) if x), None)
        if c is None:
            return False
        ip = self.F.inv(u[c])
        if ip != 1:
            u = self.F.axpy([0] * len(u), ip, u)
        rows = self.rows
        for i, row in enumerate(rows):
            if row[c]:
                rows[i] = self._clear(row, c, u)
        k = bisect.bisect(self.pivots, c)
        self.pivots.insert(k, c)
        rows.insert(k, u)
        return True


def gf_rref(F, rows):
    """Reduced row echelon form over F: (nonzero rref rows, pivot columns).

    Zero rows are dropped, so there is one row per pivot.
    """
    ech = Echelon(F, rows)
    return ech.rows, ech.pivots


def gf_rank(F, rows) -> int:
    return len(gf_rref(F, rows)[1])


def gf_right_kernel(F, A):
    """Basis of {x : A x = 0}, echelonized, deterministic."""
    n = len(A)
    ncols = len(A[0]) if n else 0
    red, pivots = gf_rref(F, A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = F.neg(red[r][fc])
        basis.append(v)
    return basis


def gf_mat_inv(F, A):
    """Inverse of a square matrix over F; ZeroDivisionError if singular."""
    n = len(A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    red, pivots = gf_rref(F, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def gf_charpoly(F, M):
    """Characteristic polynomial det(xI - M), monic, little-endian codes.

    Hessenberg reduction by similarity, then the standard recurrence on
    leading principal minors.
    """
    n = len(M)
    if n == 0:
        return (1,)
    H = [list(r) for r in M]
    axpy, mul, neg, inv = F.axpy, F.mul, F.neg, F.inv
    for m in range(1, n - 1):
        piv = None
        for i in range(m, n):
            if H[i][m - 1]:
                piv = i
                break
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        t_inv = inv(H[m][m - 1])
        for i in range(m + 1, n):
            if H[i][m - 1]:
                # row i -= u row m, then column m += u column i
                u = mul(H[i][m - 1], t_inv)
                H[i] = axpy(H[i], neg(u), H[m])
                col = axpy([row[m] for row in H], u, [row[i] for row in H])
                for row, c in zip(H, col):
                    row[m] = c
    # p_m = charpoly of leading m x m block
    from .gf import poly_mul, poly_scale, poly_sub, poly_trim

    polys = [(1,)]
    for m in range(1, n + 1):
        pm1 = polys[m - 1]
        p = poly_sub(F, poly_mul(F, (0, 1), pm1),
                     poly_scale(F, pm1, H[m - 1][m - 1]))
        prod = 1
        for k in range(m - 2, -1, -1):
            prod = mul(prod, H[k + 1][k])
            if prod == 0:
                break
            coef = mul(H[k][m - 1], prod)
            if coef:
                p = poly_sub(F, p, poly_scale(F, polys[k], coef))
        polys.append(p)
    # degree n and monic by construction
    return poly_trim(polys[n])


# ---------------------------------------------------------------------
# integers


def smith_normal_form(mat):
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) non-negative integers, the nonzero ones
    first and each dividing the next; classic pivoting on the smallest
    entry with full divide-and-clear.
    """
    A = [list(row) for row in mat]
    if not A or not A[0]:
        return []
    n, m = len(A), len(A[0])
    k = min(n, m)
    res = []
    t = 0
    while t < k:
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] and (best is None
                                or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        while True:
            pivot = A[t][t]
            restart = False
            for i in range(t + 1, n):
                q = A[i][t] // pivot
                if q:
                    for j in range(t, m):
                        A[i][j] -= q * A[t][j]
                if A[i][t]:
                    A[t], A[i] = A[i], A[t]
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, m):
                q = A[t][j] // pivot
                if q:
                    for i in range(t, n):
                        A[i][j] -= q * A[i][t]
                if A[t][j]:
                    for row in A:
                        row[t], row[j] = row[j], row[t]
                    restart = True
                    break
            if restart:
                continue
            break
        pivot = A[t][t]
        offender = None
        for i in range(t + 1, n):
            if any(A[i][j] % pivot for j in range(t + 1, m)):
                offender = i
                break
        if offender is not None:
            for j in range(t, m):
                A[t][j] += A[offender][j]
            continue
        res.append(abs(pivot))
        t += 1
    while len(res) < k:
        res.append(0)
    return res


def int_mat_rank_mod_p(M, p):
    """Rank of an integer matrix over F_p."""
    from .gf import gf_field

    F = gf_field(p, 1)
    return gf_rank(F, [[v % p for v in row] for row in M])

