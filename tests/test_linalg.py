"""Exact linear algebra against sympy: inverse, rank, solve, dual scales."""
from fractions import Fraction
import math
import random

import pytest
import sympy

from modlattice import linalg
from modlattice.errors import ShapeError
from modlattice.lattice import (c_n_lattice, integral_dual_scale, level,
                                rescale, zn)

CASES = 300


def _random_matrix(rng, rows, cols, rational):
    """Entries in [-4, 4] (over 1, 2, 3 or 5 when rational), of random rank.

    A product of a rows x k and a k x cols factor has rank at most k, so
    singular, rank-deficient and full-rank matrices all occur.
    """
    k = rng.randint(0, min(rows, cols))
    if k < min(rows, cols) and rng.random() < 0.5:
        a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rows)]
        b = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(k)]
        m = [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(cols)]
             for i in range(rows)]
    else:
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
    if rational:
        m = [[Fraction(x, rng.choice((1, 2, 3, 5))) for x in row]
             for row in m]
    return m


def _sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in map(Fraction, row)] for row in m])


def _fractions(mat):
    return [[Fraction(int(x.p), int(x.q)) for x in mat.row(i)]
            for i in range(mat.rows)]


@pytest.mark.parametrize("rational", [False, True])
def test_inverse_matches_sympy(rational):
    rng = random.Random(11 + rational)
    singular = 0
    for _ in range(CASES):
        n = rng.randint(1, 8)
        m = _random_matrix(rng, n, n, rational)
        s = _sympy(m)
        if s.det() == 0:
            singular += 1
            with pytest.raises(ShapeError):
                linalg.inverse(m)
            continue
        got = linalg.inverse(m)
        assert got == _fractions(s.inv())
        assert all(isinstance(x, Fraction) for row in got for x in row)
    assert 0 < singular < CASES


@pytest.mark.parametrize("rational", [False, True])
def test_rank_matches_sympy(rational):
    rng = random.Random(21 + rational)
    deficient = 0
    for _ in range(CASES):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = _random_matrix(rng, rows, cols, rational)
        want = _sympy(m).rank()
        deficient += want < min(rows, cols)
        assert linalg.rank(m) == want
    assert 0 < deficient < CASES
    assert linalg.rank([]) == 0


@pytest.mark.parametrize("rational", [False, True])
def test_solve_matches_sympy_particular_solution(rational):
    """sum_i x_i a_i = b: sympy's Gauss-Jordan solution with every free
    parameter set to 0, and None exactly when sympy finds no solution."""
    rng = random.Random(31 + rational)
    inconsistent = 0
    for _ in range(CASES):
        count, width = rng.randint(1, 8), rng.randint(1, 8)
        a_rows = _random_matrix(rng, count, width, rational)
        if rng.random() < 0.5:
            b = _random_matrix(rng, 1, width, rational)[0]
        else:
            coeffs = [rng.randint(-2, 2) for _ in range(count)]
            b = [sum(c * row[j] for c, row in zip(coeffs, a_rows))
                 for j in range(width)]
        got = linalg.solve(a_rows, b)
        try:
            sol, params = _sympy(a_rows).T.gauss_jordan_solve(_sympy([b]).T)
        except ValueError:
            inconsistent += 1
            assert got is None
            continue
        want = sol.subs({p: 0 for p in params})
        assert got == [row[0] for row in _fractions(want)]
        assert all(isinstance(x, Fraction) for x in got)
        assert [sum(x * row[j] for x, row in zip(got, a_rows))
                for j in range(width)] == b
    assert 0 < inconsistent < CASES


def _sympy_dual_scale(lat):
    """(lcm of the denominators of G^-1, level of an even lattice)."""
    inv = _sympy(lat.gram).inv()
    d = math.lcm(*(int(x.q) for x in inv))
    odd = any((d * inv[i, i]) % 2 for i in range(lat.dim))
    return d, 2 * d if odd else d


def test_dual_scales_of_catalogue(catalog):
    for entry in catalog:
        lat = entry.lattice
        d, lvl = _sympy_dual_scale(lat)
        assert integral_dual_scale(lat) == d, entry.name
        if lat.is_even:
            assert level(lat) == lvl == entry.level, entry.name
        else:
            assert d == entry.level, entry.name


@pytest.mark.parametrize("n", [1, 2, 5, 6, 11, 14, 23])
def test_dual_scales_of_c_n_and_z_n(n):
    cn = c_n_lattice(n)
    assert integral_dual_scale(cn) == _sympy_dual_scale(cn)[0] == n
    assert integral_dual_scale(zn(n)) == 1
    even = rescale(cn, 2)
    assert level(even) == _sympy_dual_scale(even)[1]
    assert level(rescale(zn(n), 2)) == 4
