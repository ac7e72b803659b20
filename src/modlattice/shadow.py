"""Shadows of integral lattices.

The shadow of an integral lattice L collects the vectors w/2 where w runs
over the characteristic vectors of L, i.e. the w in the dual with
(w, x) = (x, x) mod 2 for all x in L.  These w form a single coset of 2L*
inside L*, so the shadow is a coset of L* in (1/2)L*.

For det 1 its theta series follows from theta_L (J. H. Conway and
N. J. A. Sloane, Bull. AMS 23, 1990; E. M. Rains and N. J. A. Sloane,
J. Number Theory 73, 1998).  With Delta_8 = theta_2^4 theta_4^4 / 16,

    theta_L = sum_(j <= n/8) a_j theta_3^(n-8j) Delta_8^j,
    theta_S = sum_(j <= n/8) (-1/16)^j a_j theta_2^(n-8j) theta_4(2z)^(8j),

and Delta_8 = q + O(q^2), so the a_j are fixed by the counts of L up to
norm n/8: one small sweep of L, whatever the size of the shadow.  Any
other integral lattice has its shadow coset enumerated exactly by a
shifted sweep of the dual lattice (shadow_coset).

For even L the zero vector is characteristic and the shadow degenerates to
the dual itself; the functions below accept that case but the extremality
bookkeeping (shadow_min) only applies to odd lattices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .arith import int_or_fraction
from .enumeration import _counts, enumerate_vectors
from .errors import IntegralityError, ModLatticeError, ParityError
from .lattice import Lattice, default_level, dual
from .qseries import LevelData, QSeries


def shadow_coset(lat: Lattice):
    """Dual lattice and shift representing the shadow coset of lat.

    Returns (dual_lattice, shift) with shift a tuple of Fractions in dual
    coordinates; the shadow is {y + shift : y in Z^n} under the dual Gram.
    In the dual basis the characteristic condition (w, e_i) = (e_i, e_i)
    mod 2 fixes the i-th coordinate of w mod 2 to the parity of G_ii.
    """
    if not lat.is_integral:
        raise IntegralityError("shadow needs an integral lattice")
    g = lat.gram
    shift = tuple(Fraction(int(g[i][i]) % 2, 2) for i in range(lat.dim))
    return dual(lat), shift


@dataclass(frozen=True)
class ShadowTheta:
    """Exact count of shadow vectors by norm up to a bound.

    Norms are rationals; exp_denominator is the lcm of their denominators,
    useful when printing the series in powers of q^(1/exp_denominator).
    Every norm is a multiple of step, 1/(4 det) for an integral lattice
    (det (w, w) is an integer for w in the dual), so the first norm the
    series leaves out is the first multiple of step above the bound.
    """

    bound: object
    counts: dict
    step: object

    @property
    def exp_denominator(self):
        return math.lcm(*(Fraction(k).denominator for k in self.counts))

    @property
    def min_norm(self):
        live = [k for k, c in self.counts.items() if c]
        return min(live) if live else None

    def count(self, norm):
        return self.counts.get(int_or_fraction(norm), 0)

    def to_dict(self):
        return {
            "bound": str(self.bound),
            "exp_denominator": self.exp_denominator,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }

    def __str__(self):
        terms = []
        for k in sorted(self.counts):
            c = self.counts[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                terms.append("%d*q^(%s)" % (c, k))
        body = " + ".join(terms) if terms else "0"
        above = (math.floor(self.bound / self.step) + 1) * self.step
        return body + " + O(q^(%s))" % (int_or_fraction(above),)


def _theta(scale, odd, sign, precision):
    """sum_k sign^k q^(scale k^2), or with odd sum_k q^(scale (k + 1/2)^2),
    over all integers k, below the u-precision: t = 2k (+ 1) has
    u-exponent 3 scale t^2, reached by k and by -k (- 1)."""
    coeffs, t = {}, int(odd)
    while 3 * scale * t * t < precision:
        coeffs[3 * scale * t * t] = (2 if t else 1) * sign ** (t // 2)
        t += 2
    return QSeries(coeffs, precision)


def _unimodular_shadow(lat: Lattice, bound, threads):
    """Shadow counts by norm up to bound of a det-1 integral lattice, by
    the transform of the module docstring.  The a_j are peeled off theta_L
    one norm at a time, each basis form starting with q^j; a shadow
    coefficient that is not a nonnegative integer is an arithmetic fault
    and raises."""
    n, top = lat.dim, lat.dim // 8
    window = 12 * top + 1
    theta3, theta2, theta4 = (_theta(1, odd, sign, window)
                              for odd, sign in ((0, 1), (1, 1), (0, -1)))
    delta8 = theta2 ** 4 * theta4 ** 4 * Fraction(1, 16)
    rest = QSeries({12 * k: v for k, v in
                    _counts(lat, top, threads).counts.items()}, window)
    a = []
    for j in range(top + 1):
        a.append(rest.coefficient_q(j))
        rest -= theta3 ** (n - 8 * j) * delta8 ** j * a[j]
    prec = math.floor(12 * bound) + 1
    theta2, theta4_2z = _theta(1, 1, 1, prec), _theta(2, 0, -1, prec)
    series = QSeries.zero(prec)
    for j, a_j in enumerate(a):
        series += (theta2 ** (n - 8 * j) * theta4_2z ** (8 * j)
                   * (a_j * Fraction(-1, 16) ** j))
    counts = {}
    for e, c in sorted(series.coeffs.items()):
        if c.denominator != 1 or c < 0:
            raise ModLatticeError(
                "arithmetic fault: shadow theta coefficient %s at q^(%s) "
                "is not a nonnegative integer" % (c, Fraction(e, 12)))
        counts[int_or_fraction(Fraction(e, 12))] = int(c)
    return counts


def shadow_theta(lat: Lattice, bound, threads=1) -> ShadowTheta:
    """Counts of shadow vectors with norm <= bound: from theta_L for det 1
    (_unimodular_shadow), otherwise by a shifted sweep of the dual."""
    bound = Fraction(bound)
    if lat.det != 1 or not lat.is_integral:
        dl, shift = shadow_coset(lat)
        counts = enumerate_vectors(dl, bound, shift, threads=threads).counts
    elif bound < 0:
        raise ValueError("bound must be nonnegative")
    else:
        counts = _unimodular_shadow(lat, bound, threads)
    return ShadowTheta(int_or_fraction(bound), dict(counts),
                       Fraction(1, 4 * lat.det))


@dataclass(frozen=True)
class ShadowReport:
    """Shadow minimum data of an odd lattice in a strongly modular genus."""

    level: int
    dim: int
    min_norm: object
    count: int
    m: object            # (l*sigma1(N) - 4N*min_norm)/8, 0 iff shadow-extremal

    def to_dict(self):
        return {
            "level": self.level,
            "dim": self.dim,
            "min_norm": str(self.min_norm),
            "count": self.count,
            "m": str(self.m),
        }


def shadow_min(lat: Lattice, n_level=None, threads=1) -> ShadowReport:
    """Shadow minimum, its count, and the defect m for an odd lattice.

    n_level, by default the lattice's level (default_level), must be odd:
    for even N the odd strongly N-modular genus is empty, the relevant
    theta lives on the even neighbour instead.  A lattice outside that
    genus (LevelData.genus_premise) raises with the failed premise.
    """
    if lat.is_even:
        raise ParityError("shadow minimum is for odd lattices")
    n_level = default_level(lat) if n_level is None else n_level
    data = LevelData.for_level(n_level)
    reason = data.genus_premise(lat.dim, True, lat.det)
    if reason:
        raise ModLatticeError(reason)
    l = lat.dim // data.sigma0
    # the shadow minimum of an n-dim odd lattice is at most n/4 (Z^n case),
    # so the shadow up to that bound always holds it: for det 1 read off
    # theta_S, otherwise swept on the one coset with a doubling bound
    top = Fraction(lat.dim, 4)
    if lat.det == 1:
        counts = shadow_theta(lat, top, threads).counts
    else:
        dl, shift = shadow_coset(lat)
        bound = Fraction(1)
        counts = enumerate_vectors(dl, bound, shift, threads=threads).counts
        while not counts and bound < top:
            bound = min(2 * bound, top)
            counts = enumerate_vectors(dl, bound, shift,
                                       threads=threads).counts
    if not counts:
        raise ModLatticeError("no shadow vector of norm <= dim/4 found")
    m0 = min(counts)
    m = Fraction(l * data.sigma1 - 4 * n_level * m0, 8)
    return ShadowReport(n_level, lat.dim, int_or_fraction(m0), counts[m0], int_or_fraction(m))


def odd_min_bound(n_level: int, dim: int) -> int:
    """Largest possible minimum of an odd strongly N-modular lattice.

    The bound is 2 + 2*(dim // (2 k_N)) except one dimension short of a
    full weight block, where minimum 3 is attainable instead.  Raises
    when no odd genus of that level and dimension exists.
    """
    data = LevelData.for_level(n_level)
    reason = data.genus_premise(dim, True)
    if reason:
        raise ModLatticeError(reason)
    if dim == 2 * data.weight - data.sigma0:
        return 3
    return 2 * (dim // (2 * data.weight)) + 2
