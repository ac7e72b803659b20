"""Shadows of integral lattices.

The shadow of an integral lattice L collects the vectors w/2 where w runs
over the characteristic vectors of L, i.e. the w in the dual with
(w, x) = (x, x) mod 2 for all x in L.  These w form a single coset of 2L*
inside L*, so the shadow is a coset of L* in (1/2)L* and can be enumerated
exactly by a shifted sweep of the dual lattice.

For even L the zero vector is characteristic and the shadow degenerates to
the dual itself; the functions below accept that case but the extremality
bookkeeping (shadow_min) only applies to odd lattices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .arith import int_or_fraction
from .enumeration import enumerate_vectors
from .errors import IntegralityError, ModLatticeError, ParityError
from .lattice import Lattice, default_level, dual
from .qseries import LevelData


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
    """

    bound: object
    counts: dict

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
        return body + " + O(q^(%s))" % (self.bound,)


def shadow_theta(lat: Lattice, bound, threads=1) -> ShadowTheta:
    """Counts of shadow vectors with norm <= bound, by exact enumeration."""
    dl, shift = shadow_coset(lat)
    tc = enumerate_vectors(dl, bound, shift=shift, threads=threads)
    return ShadowTheta(int_or_fraction(bound), dict(tc.counts))


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
    # so sweeping up to that bound always finds it
    top = Fraction(lat.dim, 4)
    bound = Fraction(1)
    st = shadow_theta(lat, bound, threads=threads)
    while st.min_norm is None and bound < top:
        bound = min(2 * bound, top)
        st = shadow_theta(lat, bound, threads=threads)
    m0 = st.min_norm
    if m0 is None:
        raise ModLatticeError("no shadow vector of norm <= dim/4 found")
    m = Fraction(l * data.sigma1 - 4 * n_level * m0, 8)
    return ShadowReport(n_level, lat.dim, int_or_fraction(m0), st.counts[m0], int_or_fraction(m))


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
