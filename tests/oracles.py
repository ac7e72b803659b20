"""Independent oracles that the tests check the fast paths against."""
from fractions import Fraction
import itertools
import math

from modlattice import linalg
from modlattice.arith import int_or_fraction
from modlattice.errors import CapacityError
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
