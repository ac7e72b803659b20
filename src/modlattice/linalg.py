"""Exact rational linear algebra.

Everything here is deterministic and exact: fraction-free Bareiss for
determinants / leading principal minors, Gauss-Jordan inverses over the
rationals, Hermite normal form over the integers, lattice sums and
intersections via coordinate duals, and LLL reduction driven directly by
a Gram matrix with the unimodular transform recorded.
"""

from fractions import Fraction
from math import lcm

from .errors import DefinitenessError, ShapeError


def check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ShapeError("matrix must be square and nonempty")
    return n


def to_fraction_matrix(m):
    return [[Fraction(x) for x in row] for row in m]


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def mat_eq(a, b):
    return len(a) == len(b) and all(tuple(x) == tuple(y) for x, y in zip(a, b))


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def clear_denominators(m):
    """(integer matrix, scale c) with c*m integral, c = lcm of denominators."""
    fm = to_fraction_matrix(m)
    c = 1
    for row in fm:
        for x in row:
            c = lcm(c, x.denominator)
    return [[int(x * c) for x in row] for row in fm], c


def bareiss_rows(m):
    """Fraction-free (Bareiss) elimination of an integer symmetric matrix.

    Row k is row k after k elimination steps; on and right of the diagonal
    its entries are integers (minors of the input), and row[k][k] is the
    leading principal minor d_(k+1).  Stops after the first pivot that is
    not positive, returning the rows computed so far.
    """
    n = check_square(m)
    a = [[int(x) for x in row] for row in m]
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return a[:k + 1]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a


def positive_definite_minors(m):
    """Validate symmetric positive definiteness, rationals allowed.

    Returns the exact leading principal minors (Fractions) on success.
    Raises DefinitenessError with the 1-based index of the first failing
    minor otherwise.
    """
    n = check_square(m)
    if not is_symmetric(m):
        raise DefinitenessError("matrix is not symmetric", minor_index=0)
    mi, c = clear_denominators(m)
    minors = [row[k] for k, row in enumerate(bareiss_rows(mi))]
    if len(minors) < n or minors[-1] <= 0:
        k = len(minors)
        raise DefinitenessError(
            "leading principal minor %d is not positive" % k, minor_index=k
        )
    # scaling by c multiplies d_k by c^k
    return [Fraction(d, c ** (k + 1)) for k, d in enumerate(minors)]


def det_exact(m):
    """Determinant of a symmetric positive definite rational matrix."""
    return positive_definite_minors(m)[-1]


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination with partial pivoting."""
    n = check_square(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ShapeError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv_p = 1 / a[col][col]
        a[col] = [x * inv_p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def hnf(rows, ncols=None):
    """Row-style Hermite normal form of an integer matrix.

    Returns the echelon rows (zero rows dropped): pivots positive, entries
    above each pivot reduced into [0, pivot). For a full-rank generating
    set of a rank-n lattice this is the canonical basis.
    """
    if not rows:
        return []
    n = ncols if ncols is not None else len(rows[0])
    a = [list(map(int, r)) for r in rows]
    piv = 0
    pivots = []
    for col in range(n):
        while True:
            nz = [i for i in range(piv, len(a)) if a[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][col]))
            a[piv], a[i0] = a[i0], a[piv]
            if len(nz) == 1:
                break
            p = a[piv][col]
            for i in range(piv + 1, len(a)):
                if a[i][col] != 0:
                    q = a[i][col] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[piv])]
        if piv < len(a) and a[piv][col] != 0:
            if a[piv][col] < 0:
                a[piv] = [-x for x in a[piv]]
            p = a[piv][col]
            for i in range(piv):
                q = a[i][col] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[piv])]
            pivots.append(col)
            piv += 1
            if piv == len(a):
                break
    return a[:piv]


def dual_basis(b):
    """Coordinate dual of a full-rank row basis: rows of (B^-1)^T."""
    return mat_transpose(inverse(b))

def lattice_sum(b1, b2):
    """Basis of the lattice generated by the rows of b1 and b2 (rational)."""
    stacked = list(b1) + list(b2)
    mi, c = clear_denominators(stacked)
    h = hnf(mi)
    if len(h) != len(b1[0]):
        raise ShapeError("sum lattice does not have full rank")
    return [[Fraction(x, c) for x in row] for row in h]


def lattice_intersection(b1, b2):
    """Basis of the intersection of two full-rank row lattices.

    Uses (A cap B) = (A* + B*)* with coordinate duals.
    """
    return dual_basis(lattice_sum(dual_basis(b1), dual_basis(b2)))


def rank(rows):
    """Rank over Q of a list of rational rows (early-exit elimination)."""
    if not rows:
        return 0
    width = len(rows[0])
    basis = []  # echelon rows, each (lead_index, row)
    r = 0
    for row in rows:
        v = [Fraction(x) for x in row]
        for lead, b in basis:
            if v[lead] != 0:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is not None:
            inv_l = 1 / v[lead]
            v = [x * inv_l for x in v]
            basis.append((lead, v))
            r += 1
            if r == width:
                break
    return r


def solve(a_rows, b):
    """One exact solution x of A^T-style system sum_i x_i a_i = b, or None.

    a_rows are the generating rows; returns coefficients over Q if b lies
    in their span, else None.
    """
    # eliminate on augmented columns [a_i | e_i] transposed
    cols = len(b)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(len(a_rows))]
           for i, row in enumerate(a_rows)]
    target = list(map(Fraction, b)) + [Fraction(0)] * len(a_rows)
    basis = []
    for row in aug:
        v = row[:]
        for lead, bb in basis:
            if v[lead] != 0:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, bb)]
        lead = next((i for i in range(cols) if v[i] != 0), None)
        if lead is not None:
            inv_l = 1 / v[lead]
            basis.append((lead, [x * inv_l for x in v]))
    v = target[:]
    for lead, bb in basis:
        if v[lead] != 0:
            f = v[lead]
            v = [x - f * y for x, y in zip(v, bb)]
    if any(v[i] != 0 for i in range(cols)):
        return None
    return [-x for x in v[cols:]]


def gram_lll(gram, delta=Fraction(3, 4)):
    """LLL-reduce a quadratic form given only by its Gram matrix.

    Returns (reduced_gram, u) with reduced_gram = u * gram * u^T and u an
    integer unimodular matrix; rows of u express the reduced basis in the
    original one. Exact rational arithmetic throughout.
    """
    n = check_square(gram)
    g = to_fraction_matrix(gram)
    u = mat_identity(n)

    # Gram-Schmidt data from the gram matrix: r[i][j] = (b_i, b_j*),
    # mu[i][j] = r[i][j]/B[j], B[i] = r[i][i]
    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n

    def gs_all():
        for i in range(n):
            r_row = [Fraction(0)] * n
            for j in range(i + 1):
                r = g[i][j] - sum(mu[j][l] * r_row[l] for l in range(j))
                r_row[j] = r
                if j < i:
                    mu[i][j] = r / big_b[j]
            big_b[i] = r_row[i]
            if big_b[i] <= 0:
                raise DefinitenessError("form is not positive definite",
                                        minor_index=i + 1)

    def red(k, l):
        q = round(mu[k][l])
        if q == 0:
            return
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        for j in range(n):
            g[k][j] -= q * g[l][j]
        for i in range(n):
            g[i][k] -= q * g[i][l]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    def swap(k):
        u[k], u[k - 1] = u[k - 1], u[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        m = mu[k][k - 1]
        b_new = big_b[k] + m * m * big_b[k - 1]
        mu[k][k - 1] = m * big_b[k - 1] / b_new
        big_b[k] = big_b[k - 1] * big_b[k] / b_new
        big_b[k - 1] = b_new
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    gs_all()
    k = 1
    while k < n:
        red(k, k - 1)
        if big_b[k] >= (delta - mu[k][k - 1] ** 2) * big_b[k - 1]:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)

    if all(x.denominator == 1 for row in gram for x in map(Fraction, row)):
        g = [[int(x) for x in row] for row in g]
    return g, u
