"""Exact linear algebra against sympy and oracles: inverse, rank, solve,
dual scales and LLL."""
from fractions import Fraction
import fractions
import math
import random
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest
import sympy

from modlattice import linalg
from modlattice.errors import DefinitenessError, ShapeError
from modlattice.lattice import (c_n_lattice, dual, integral_dual_scale, level,
                                rescale, zn)
from oracles import gram_lll_fraction
import numpy as np

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


def _gram_schmidt(g):
    """(mu, B) of a Gram matrix in Fractions: B[i] = |b_i*|^2."""
    n = len(g)
    g = [[Fraction(x) for x in row] for row in g]
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][l] * mu[i][l] * b[l]
                                      for l in range(j))) / b[j]
        b.append(g[i][i] - sum(mu[i][l] ** 2 * b[l] for l in range(i)))
    return mu, b


def _lll_matches_oracle(gram):
    """gram_lll equals the Fraction oracle, entries, types and transform,
    and its output is an LLL-reduced form of gram (delta = 3/4)."""
    red, u = linalg.gram_lll(gram)
    want_red, want_u = gram_lll_fraction(gram)
    assert red == want_red and u == want_u
    assert [[type(x) for x in row] for row in red] == \
        [[type(x) for x in row] for row in want_red]
    assert all(type(x) is int for row in u for x in row)
    assert linalg.mat_mul(u, linalg.mat_mul(gram, linalg.mat_transpose(u))) \
        == red
    assert abs(sympy.Matrix(u).det()) == 1
    mu, b = _gram_schmidt(red)
    n = len(red)
    assert all(abs(mu[i][j]) <= Fraction(1, 2)
               for i in range(n) for j in range(i))
    assert all(b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]
               for k in range(1, n))


def test_lll_of_catalogue_and_duals(catalog):
    for entry in catalog:
        _lll_matches_oracle(entry.lattice.gram)
        _lll_matches_oracle(dual(entry.lattice).gram)


def _unimodular(rng, n):
    """A random unimodular matrix: 3n elementary row additions, shuffled."""
    u = linalg.mat_identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


@pytest.mark.parametrize("name", ["BW16", "D16plus", "K12", "Leech"])
def test_lll_of_seeded_rebasings(catalog, name):
    gram = catalog.lattice(name).gram
    for seed in range(3):
        u = _unimodular(random.Random(seed), len(gram))
        _lll_matches_oracle(
            linalg.mat_mul(u, linalg.mat_mul(gram, linalg.mat_transpose(u))))


@st.composite
def pd_grams(draw, rational):
    """A A^T for a random square A, integral or over 2, 3, 5 and 6."""
    n = draw(st.integers(1, 12))
    dens = st.sampled_from((1, 2, 3, 5, 6)) if rational else st.just(1)
    a = [[Fraction(draw(st.integers(-8, 8)), draw(dens)) for _ in range(n)]
         for _ in range(n)]
    gram = [[sum(x * y for x, y in zip(r, s)) for s in a] for r in a]
    try:
        linalg.positive_definite_minors(gram)
    except DefinitenessError:
        assume(False)
    if not rational:
        gram = [[int(x) for x in row] for row in gram]
    return gram


@settings(max_examples=120, deadline=None)
@given(st.data(), st.booleans())
def test_lll_of_random_grams(data, rational):
    _lll_matches_oracle(data.draw(pd_grams(rational)))


def test_lll_rejects_indefinite_grams_like_the_oracle():
    rng = random.Random(7)
    indices = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        gram = [[sum(x * y for x, y in zip(r, s)) for s in a] for r in a]
        j = rng.randrange(n)
        gram[j][j] -= rng.randint(0, 6)
        try:
            want = gram_lll_fraction(gram)
        except DefinitenessError as exc:
            with pytest.raises(DefinitenessError) as got:
                linalg.gram_lll(gram)
            assert got.value.minor_index == exc.minor_index
            indices.add(exc.minor_index)
            continue
        assert linalg.gram_lll(gram) == want
    assert len(indices) > 3


@pytest.mark.parametrize("name", ["K12", "BW16"])
def test_gram_lll_makes_no_fraction_arithmetic(catalog, name):
    """Only the final entries of a rational reduced Gram are Fractions."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    lat = catalog.lattice(name)
    for gram, made in ((lat.gram, 0), (dual(lat).gram, lat.dim ** 2)):
        calls.clear()
        sys.setprofile(profile)
        try:
            linalg.gram_lll(gram)
        finally:
            sys.setprofile(None)
        assert set(calls) <= {"__new__", "numerator", "denominator",
                              "as_integer_ratio"}
        assert calls.count("__new__") == made


@st.composite
def factor_pairs(draw):
    """Integer a (r x k) and b (k x c) with k max|a| max|b| within one
    step of 2^53 or 2^62, a given as float64 when it fits exactly."""
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    limit = draw(st.sampled_from([53, 62]))
    a_max = draw(st.integers(1, 2 ** 31))
    b_max = max(1, (1 << limit) // (k * a_max) + draw(st.integers(-1, 1)))
    a = [[draw(st.integers(-a_max, a_max)) for _ in range(k)]
         for _ in range(r)]
    b = [[draw(st.integers(-b_max, b_max)) for _ in range(c)]
         for _ in range(k)]
    a[0][0] = draw(st.sampled_from([-a_max, a_max]))
    b[0][0] = draw(st.sampled_from([-b_max, b_max]))
    return a, b, draw(st.booleans())


@settings(max_examples=CASES, deadline=None)
@given(factor_pairs())
def test_exact_factors_products_are_exact(pair):
    a, b, as_float = pair
    bound = len(b) * abs(a[0][0]) * abs(b[0][0])
    want = ("float64" if bound < linalg.FLOAT_EXACT_LIMIT else
            "int64" if bound < linalg.INT64_LIMIT else "object")
    left, right = linalg.exact_factors(
        np.array(a, dtype=np.float64) if as_float else a, b)
    assert left.dtype.name == right.dtype.name == want
    prod = np.matmul(left, right)
    assert [[int(x) for x in row] for row in prod] == linalg.mat_mul(a, b)
