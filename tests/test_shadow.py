"""Shadow cosets, shadow theta and shadow minima of odd lattices."""
import random
from fractions import Fraction

import pytest

from modlattice import linalg
from modlattice.enumeration import enumerate_vectors
from modlattice.errors import (IntegralityError, LevelError, ModLatticeError,
                               ParityError)
from modlattice.lattice import c_n_lattice, dual, zn
from modlattice.shadow import (odd_min_bound, shadow_coset, shadow_min,
                               shadow_theta)

from test_enumeration import random_gram, transformed, unimodular


def test_shadow_coset_of_cubic():
    dl, shift = shadow_coset(zn(2))
    assert dl.gram == zn(2).gram
    assert shift == (Fraction(1, 2), Fraction(1, 2))


def test_shadow_coset_of_even_lattice_is_the_dual(catalog):
    d4 = catalog.lattice("D4")
    dl, shift = shadow_coset(d4)
    assert shift == (0, 0, 0, 0)
    st = shadow_theta(d4, 2)
    want = {k: v for k, v in enumerate_vectors(dual(d4), 2).counts.items() if v}
    assert st.counts == want


def test_shadow_coset_needs_integral_gram(catalog):
    with pytest.raises(IntegralityError):
        shadow_coset(dual(catalog.lattice("A2")))


def test_diagonal_parity_is_characteristic():
    """sum_i G_ii x_i = x G x^T mod 2 for integral symmetric G."""
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(5):
            lat = random_gram(rng, n)
            g = lat.gram
            for _ in range(20):
                x = [rng.randint(-6, 6) for _ in range(n)]
                lhs = sum(g[i][i] * x[i] for i in range(n))
                rhs = sum(g[i][j] * x[i] * x[j]
                          for i in range(n) for j in range(n))
                assert (lhs - rhs) % 2 == 0


def test_shadow_theta_of_z3():
    st = shadow_theta(zn(3), 3)
    assert str(st) == "8*q^(3/4) + 24*q^(11/4) + O(q^(3))"
    assert st.exp_denominator == 4
    assert st.min_norm == Fraction(3, 4)
    assert st.count(Fraction(3, 4)) == 8
    d = st.to_dict()
    assert d["exp_denominator"] == 4
    assert d["counts"]["3/4"] == 8


def test_shadow_min_of_cubic_lattices():
    for n in (4, 8):
        rep = shadow_min(zn(n))
        assert rep.min_norm == Fraction(n, 4)
        assert rep.count == 2 ** n
        assert rep.m == 0


def test_shadow_min_reduces_its_coset_once(monkeypatch):
    """Every doubling step of shadow_min sweeps the one dual that
    shadow_coset built, so its basis is LLL-reduced once: Z12 and a
    rebased Z12 (sweeps to norm 1, 2 and 3) and Z16 (1, 2 and 4)."""
    calls, lll = [], linalg.gram_lll

    def counted(gram):
        calls.append(len(gram))
        return lll(gram)
    monkeypatch.setattr(linalg, "gram_lll", counted)
    rebased = transformed(zn(12), unimodular(random.Random(7), 12))
    for lat, n in ((zn(12), 12), (rebased, 12), (zn(16), 16)):
        rep = shadow_min(lat)
        assert (rep.min_norm, rep.count, rep.m) == (Fraction(n, 4), 2 ** n, 0)
        assert calls == [n]
        calls.clear()


def test_shadow_min_report_fields():
    rep = shadow_min(zn(4))
    assert (rep.level, rep.dim) == (1, 4)
    d = rep.to_dict()
    assert d["min_norm"] == "1" and d["count"] == 16 and d["m"] == "0"


def test_shadow_min_d12plus(catalog):
    rep = shadow_min(catalog.lattice("D12plus"))
    assert (rep.min_norm, rep.count, rep.m) == (1, 24, 1)
    assert rep.m == catalog.get("D12plus").claims["shadow_m"]


def test_shadow_min_guards(catalog):
    with pytest.raises(ParityError):
        shadow_min(catalog.lattice("D4"))         # even lattice
    with pytest.raises(LevelError):
        shadow_min(zn(4), n_level=2)              # even level
    with pytest.raises(ModLatticeError):
        shadow_min(zn(3), n_level=15)             # dim not divisible by 4


def test_shadow_min_defaults_to_the_lattice_level():
    """C3 = Z + sqrt(3) Z has det 3, so level 3: its shadow is extremal
    there (m = 0), where the level-1 formula would give m = 1/12."""
    rep = shadow_min(c_n_lattice(3))
    assert (rep.level, rep.min_norm, rep.count, rep.m) == (
        3, Fraction(1, 3), 4, 0)
    assert shadow_min(c_n_lattice(3), n_level=3) == rep


def test_shadow_min_refuses_a_lattice_outside_the_genus():
    """Z4 has det 1, not 3^2: it is not in the odd 3-modular genus."""
    with pytest.raises(ModLatticeError, match="determinant 1"):
        shadow_min(zn(4), n_level=3)


def test_odd_min_bound_table():
    assert odd_min_bound(1, 12) == 2
    assert odd_min_bound(1, 23) == 3              # exceptional dimension
    assert odd_min_bound(1, 24) == 4
    assert odd_min_bound(1, 32) == 4
    assert odd_min_bound(3, 10) == 3
