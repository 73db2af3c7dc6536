"""Exact integer and rational linear algebra for lattice normal forms and
lattice reduction.

Everything here works on plain Python ints / Fractions so that group
membership and bonding matrices are exact at any size.  The library runs
on the integer routines (hnf_rows, hnf_coefficients, lll_reduce).
solve_rational and rational_rank, a Fraction Gauss-Jordan elimination,
are kept as the reference oracles that the tests compare the integer
path against; no library code calls them.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["hnf_rows", "hnf_coefficients", "lll_reduce", "solve_rational",
           "rational_rank"]


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns the unique basis with positive pivots, entries above each
    pivot reduced into [0, pivot), and zero rows dropped.  The input is
    not modified.
    """
    if not rows:
        return []
    n_cols = len(rows[0])
    # one stored row per pivot column; stored rows always lead at their
    # column, so combining two rows that lead at the same column keeps
    # the echelon invariant
    pivots: dict[int, list[int]] = {}
    for vec in rows:
        vec = list(vec)
        while True:
            j = _first_nonzero(vec)
            if j is None:
                break
            if j not in pivots:
                pivots[j] = [-t for t in vec] if vec[j] < 0 else vec
                break
            b = pivots[j]
            a, c = b[j], vec[j]
            if c % a == 0:
                q = c // a
                for t in range(j, n_cols):
                    vec[t] -= q * b[t]
            else:
                x, y, g = _xgcd(a, c)
                ag, cg = a // g, c // g
                for t in range(j, n_cols):
                    bt, vt = b[t], vec[t]
                    b[t] = x * bt + y * vt
                    vec[t] = -cg * bt + ag * vt
    cols = sorted(pivots)
    basis = [pivots[j] for j in cols]
    # reduce entries above each pivot into [0, pivot); increasing pivot
    # order, so a later step never disturbs an already-reduced column
    for i in range(len(basis)):
        j = cols[i]
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                for t in range(j, n_cols):
                    basis[k][t] -= q * basis[i][t]
    return basis


def _first_nonzero(vec):
    for j, v in enumerate(vec):
        if v != 0:
            return j
    return None


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return x0, y0, a


def hnf_coefficients(hnf: list[list[int]], target: list[int]):
    """Integer coefficients c with sum_i c_i * hnf[i] = target, or None
    when the integer point target is not in the lattice.

    hnf must be in row echelon form, as hnf_rows returns it.  Each pivot
    fixes its coefficient by floor division and leaves the remainder in
    its column, which no later row touches; target is a member exactly
    when nothing is left over at the end.
    """
    rest = list(target)
    coeffs = []
    for row in hnf:
        j = _first_nonzero(row)
        c = rest[j] // row[j]
        if c:
            for t in range(j, len(rest)):
                rest[t] -= c * row[t]
        coeffs.append(c)
    return None if any(rest) else coeffs


def lll_reduce(rows: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the rows.

    Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): the Gram-Schmidt data is kept as the integers
    d[i] (Gram determinant of the first i rows) and lam[k][j] = d[j+1] *
    mu[k][j], so every division is exact and no Fraction is built.  The
    output is size-reduced (|mu| <= 1/2) and meets the Lovasz condition
    d[k+1] d[k-1] >= (3/4) d[k]^2 - lam[k][k-1]^2.  Raises ValueError
    when the rows are linearly dependent.  The input is not modified.
    """
    b = [list(r) for r in rows]
    n = len(b)
    if n == 0:
        return []
    d = [1] + [0] * n          # d[i+1] belongs to row i; d[0] = 1
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("rows are linearly dependent")
            else:
                d[k + 1] = u

    def reduce(k, l):
        # size-reduce row k against row l: |2 lam[k][l]| <= d[l+1]
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        dk1, dk = d[k], d[k + 1]
        nb = (d[k - 1] * dk + m * m) // dk1
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (dk * lam[i][k - 1] - m * t) // dk1
            lam[i][k - 1] = (nb * t + m * lam[i][k]) // dk
        d[k] = nb

    gram_schmidt(0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b


def _eliminate(m, n_cols: int) -> list[int]:
    """Gauss-Jordan elimination over Q, in place, on the first n_cols
    columns of the Fraction matrix m (later columns are carried along).

    Returns the pivot columns; row r of the result holds the pivot of
    column pivots[r] and every other row is zero there.
    """
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / p
                for t in range(c, len(m[i])):
                    m[i][t] -= f * m[r][t]
        pivots.append(c)
    return pivots


def solve_rational(basis_rows, target):
    """Solve sum_i c_i * basis_rows[i] = target over Q.

    basis_rows and target are sequences of Fractions (or ints).  Returns
    the coefficient list, or None if the system is inconsistent.  The
    basis rows need not be independent; any valid solution is returned.
    """
    n_rows = len(basis_rows)
    # augmented system A^T c = target, columns of A^T are the basis rows
    aug = [[Fraction(row[c]) for row in basis_rows] + [Fraction(t)]
           for c, t in enumerate(target)]
    pivots = _eliminate(aug, n_rows)
    if any(row[n_rows] != 0 for row in aug[len(pivots):]):
        return None
    sol = [Fraction(0)] * n_rows
    for r, c in enumerate(pivots):
        sol[c] = aug[r][n_rows] / aug[r][c]
    return sol


def rational_rank(rows) -> int:
    """Rank over Q of a matrix given as rows of Fractions/ints."""
    m = [[Fraction(v) for v in row] for row in rows]
    return len(_eliminate(m, len(m[0]) if m else 0))
