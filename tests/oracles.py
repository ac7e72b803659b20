"""Independent oracles that the tests check the fast paths against."""
from fractions import Fraction
import itertools
import math

from modlattice import linalg
from modlattice.arith import int_or_fraction
from modlattice.errors import CapacityError, DefinitenessError
from modlattice.lattice import Lattice, inner
from modlattice.qseries import QSeries


def box_counts(lat: Lattice, bound, guard=10 ** 8) -> dict:
    """Scan the coordinate box |x_i| <= sqrt(b g^ii).

    Intended for small dimensions; complexity is the full box volume.
    """
    bound = Fraction(bound)
    inv = linalg.inverse(lat.gram)
    lims = []
    total = 1
    for i in range(lat.dim):
        r = bound * inv[i][i]
        lim = math.isqrt(r.numerator * r.denominator) // r.denominator
        lims.append(lim)
        total *= 2 * lim + 1
    if total > guard:
        raise CapacityError("box oracle range %d beyond guard" % total)
    counts = {}
    for x in itertools.product(*[range(-l, l + 1) for l in lims]):
        nrm = inner(lat.gram, x, x)
        if nrm <= bound:
            key = int_or_fraction(nrm)
            counts[key] = counts.get(key, 0) + 1
    return counts


def eta_pentagonal(scale, precision):
    """eta(m z) by Euler's pentagonal number theorem:
    eta(m z) = sum_k (-1)^k u^(m (6k-1)^2).
    """
    coeffs = {}
    k = 0
    while True:
        hit = False
        for kk in ([0] if k == 0 else [k, -k]):
            e = scale * (6 * kk - 1) ** 2
            if e < precision:
                coeffs[e] = Fraction(-1 if kk % 2 else 1)
                hit = True
        if not hit and scale * (6 * k - 1) ** 2 >= precision:
            break
        k += 1
    return QSeries(coeffs, precision)


def gram_lll_fraction(gram, delta=Fraction(3, 4)):
    """LLL-reduce a quadratic form given only by its Gram matrix.

    Returns (reduced_gram, u) with reduced_gram = u * gram * u^T and u an
    integer unimodular matrix; rows of u express the reduced basis in the
    original one. Exact rational arithmetic throughout.
    """
    n = linalg.check_square(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    u = linalg.mat_identity(n)

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
