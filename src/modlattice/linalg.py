"""Exact rational linear algebra.

Everything here is deterministic and exact, and fraction-free: rational
input is scaled to integers first, and the only Fractions made are the
final results.  One Bareiss Gauss-Jordan elimination over the integers
serves `inverse`, `solve` and `rank`; `bareiss_rows` is the symmetric
forward sweep that yields the leading principal minors.  `gram_lll` is
integral LLL on a Gram matrix (Cohen, A Course in Computational
Algebraic Number Theory, Alg. 2.6.7; de Weger 1987) with the unimodular
transform recorded.  Also here: Hermite normal form over the integers
and coordinate duals.  `rank_mod_p` is the rank over a prime field, in
numpy int64, for rank witnesses.

`exact_dtype` is the one rule for the dtype of an exact numpy product
of integer matrices (float64, int64 or Python integers, the narrowest);
`exact_cast` casts an array to such a dtype and `exact_factors` casts two
factors by the rule.  `enumeration`, `designs` and `isometry` multiply
only through these and `gram_factors`.
The pair kernels of `designs` add one narrower rung through their own
`_pair_dtype`: float32 below FLOAT32_EXACT_LIMIT = 2^24, where every
partial sum is an integer float32 holds.  `exact_dtype` keeps its three
rungs, because its callers may reduce a product in its own dtype:
`perfection_rank` takes its product modulo a prime near 2^31, which
float32 cannot hold.
`load_numpy` is the one place numpy is imported.
"""

import functools
import os
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DefinitenessError, ShapeError

FLOAT32_EXACT_LIMIT = 1 << 24
FLOAT_EXACT_LIMIT = 1 << 53
INT64_LIMIT = 1 << 62
LLL_DELTA = Fraction(3, 4)


def check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ShapeError("matrix must be square and nonempty")
    return n


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = mat_transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_eq(a, b):
    return len(a) == len(b) and all(tuple(x) == tuple(y) for x, y in zip(a, b))


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def clear_denominators(m):
    """(integer matrix, scale c) with c*m integral, c = lcm of denominators."""
    fm = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
          for row in m]
    c = lcm(*(x.denominator for row in fm for x in row))
    return [[x.numerator * (c // x.denominator) for x in row]
            for row in fm], c


@functools.cache
def load_numpy():
    """numpy, imported on first use with one BLAS thread.

    Parallelism comes only from the worker processes of count-only
    sweeps (`threads`), so the BLAS pool is pinned to one thread before
    numpy loads; a thread count already set in the environment is kept.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy
    return numpy


def integer_array(rows):
    """rows as a numpy array: int64 when every entry fits, else object
    (Python integers)."""
    np = load_numpy()
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def max_abs(x):
    """max |x| over an integer array as a Python integer, 0 when empty
    (max and -min: abs of the least int64 would wrap)."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def exact_dtype(bound):
    """The narrowest dtype in which integer sums bounded by bound in
    absolute value are exact: float64 below 2^53, int64 below 2^62, and
    Python integers (object dtype) beyond."""
    np = load_numpy()
    if bound < FLOAT_EXACT_LIMIT:
        return np.float64
    if bound < INT64_LIMIT:
        return np.int64
    return object


def exact_cast(x, dtype):
    """x, an integer array or a float64 one holding integers, as a fresh
    C-ordered array of dtype, which must hold its entries exactly."""
    np = load_numpy()
    # float input (integers below 2^53) reaches Python ints through int64;
    # C order: BLAS reads column blocks of a transposed right factor
    # contiguously (slices of the F-ordered transpose ran 17 times slower)
    if dtype is object and x.dtype.kind == "f":
        x = x.astype(np.int64)
    return x.astype(dtype, order="C")


def exact_factors(a, b):
    """(a, b) cast to the narrowest dtype in which a @ b is exact.

    a and b are integer arrays or nested lists of integers; a float64
    array must hold integers, as the product of exact factors does.
    Every partial sum of a row of a against any vector of entries of b
    is bounded by k * max|a| * max|b|, k the length of a's rows, and the
    dtype is exact_dtype of that bound.  Both results are fresh C-ordered
    arrays (exact_cast).
    """
    np = load_numpy()
    a, b = (x if isinstance(x, np.ndarray) else integer_array(x)
            for x in (a, b))
    dtype = exact_dtype(a.shape[-1] * max_abs(a) * max_abs(b))
    return exact_cast(a, dtype), exact_cast(b, dtype)


def gram_factors(gram, rows, cols):
    """(rows @ G, cols^T), cast so that their product, the inner products
    (x, y) of the rows x with the cols y (integer arrays), is exact."""
    np = load_numpy()
    return exact_factors(np.matmul(*exact_factors(rows, gram)), cols.T)


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


def _gauss_jordan(a):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots are taken leftmost, swapping rows when needed; each step is the
    Bareiss update, whose division by the previous pivot is exact.
    Returns (rows, cols, den): the pivot rows, their pivot columns and the
    last pivot den.  rows[i] / den is row i of the reduced row echelon
    form, so every pivot entry equals den and the pivot columns are the
    earliest columns independent of those before them.
    """
    a = list(a)
    cols = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(cols)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[col]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, prow)]
        prev = p
        cols.append(col)
    return a[:len(cols)], cols, prev


def inverse(m):
    """Exact inverse (Fractions) by fraction-free elimination of [A | I]."""
    n = check_square(m)
    mi, c = clear_denominators(m)
    rows, cols, den = _gauss_jordan(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(mi)])
    if cols != list(range(n)):
        raise ShapeError("matrix is singular")
    # A = M / c, so A^-1 = c M^-1
    return [[Fraction(c * x, den) for x in row[n:]] for row in rows]


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the echelon rows (zero rows dropped): pivots positive, entries
    above each pivot reduced into [0, pivot). For a full-rank generating
    set of a rank-n lattice this is the canonical basis.
    """
    if not rows:
        return []
    n = len(rows[0])
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


def rank(rows):
    """Rank over Q of a list of rational rows.

    Eliminates on the orientation with fewer rows, so that at most that
    many pivot steps are taken.
    """
    if not rows:
        return 0
    mi, _ = clear_denominators(rows)
    if len(mi) > len(mi[0]):
        mi = mat_transpose(mi)
    return len(_gauss_jordan(mi)[1])


def rank_mod_p(a, p):
    """Rank over GF(p) of an integer array with entries in [0, p).

    p is a prime below 2^31, so that the product of two residues stays
    below 2^62 and forward elimination runs in int64 without wrapping.
    """
    np = load_numpy()
    a = np.array(a, dtype=np.int64)
    r = 0
    for c in range(a.shape[1]):
        if r == len(a):
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        f = a[r + 1:, c, None]
        a[r + 1:, c:] = (a[r + 1:, c:] - f * a[r, c:]) % p
        r += 1
    return r


def solve(a_rows, b):
    """One exact solution x of sum_i x_i a_i = b, or None.

    a_rows are the generating rows; returns coefficients over Q if b lies
    in their span, else None.  The earliest rows independent of those
    before them carry the solution, and every other coefficient is 0.
    """
    m = len(a_rows)
    mi, _ = clear_denominators(mat_transpose(list(a_rows) + [list(b)]))
    rows, cols, den = _gauss_jordan(mi)
    if m in cols:
        return None
    x = [Fraction(0)] * m
    for row, col in zip(rows, cols):
        x[col] = Fraction(row[m], den)
    return x


def gram_lll(gram):
    """LLL-reduce a quadratic form given only by its Gram matrix.

    Returns (reduced_gram, u) with reduced_gram = u * gram * u^T and u an
    integer unimodular matrix; rows of u express the reduced basis in the
    original one.  Integral LLL (Cohen, Alg. 2.6.7) on c * gram, c the
    lcm of the denominators: the state is the Gram determinants d[i] of
    the first i rows and lam[i][j] = d[j + 1] * mu[i][j], all integers,
    and every division is exact.  The steps are those of rational LLL
    with delta = LLL_DELTA and update u alone; the reduced form
    u (c gram) u^T is formed once at the end and divided by c.
    """
    n = check_square(gram)
    g, c = clear_denominators(gram)
    dn, dd = LLL_DELTA.as_integer_ratio()
    u = mat_identity(n)

    # Gram-Schmidt data of every row before the first step, read off the
    # Bareiss rows (d[k + 1] = B[k][k], lam[k][j] = B[j][k]), so that a
    # form that is not positive definite fails at its first non-positive
    # minor
    rows = bareiss_rows(g)
    if len(rows) < n or rows[-1][-1] <= 0:
        raise DefinitenessError("form is not positive definite",
                                minor_index=len(rows))
    d = [1] + [rows[k][k] for k in range(n)]
    lam = [[rows[j][k] for j in range(k)] for k in range(n)]

    def red(k, l):
        # q = round(mu[k][l]), ties to even as round() on a Fraction
        q, r = divmod(lam[k][l], d[l + 1])
        if 2 * r > d[l + 1] or (2 * r == d[l + 1] and q & 1):
            q += 1
        if q == 0:
            return
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        lk, ll = lam[k], lam[l]
        lk[l] -= q * d[l + 1]
        for i in range(l):
            lk[i] -= q * ll[i]

    def swap(k):
        u[k], u[k - 1] = u[k - 1], u[k]
        lk, lp = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lp[j] = lp[j], lk[j]
        lm = lk[k - 1]  # lam[k][k - 1] itself is unchanged by the swap
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (b * t + lm * li[k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        red(k, k - 1)
        lm = lam[k][k - 1]
        if dd * (d[k + 1] * d[k - 1] + lm * lm) >= dn * d[k] * d[k]:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)

    g = mat_mul(u, mat_mul(g, mat_transpose(u)))
    if c != 1:
        g = [[Fraction(x, c) for x in row] for row in g]
    return g, u
