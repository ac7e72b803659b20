"""Shadow cosets, shadow theta and shadow minima of odd lattices."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from modlattice import enumeration, linalg, shadow
from modlattice.enumeration import enumerate_vectors
from modlattice.errors import (IntegralityError, LevelError, ModLatticeError,
                               ParityError)
from modlattice.lattice import (c_n_lattice, direct_sum, dual, load_catalog,
                                zn)
from modlattice.shadow import (odd_min_bound, shadow_coset, shadow_min,
                               shadow_theta)

from oracles import coset_shadow_theta
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
    assert str(st) == "8*q^(3/4) + 24*q^(11/4) + O(q^(13/4))"
    assert st.exp_denominator == 4
    assert st.min_norm == Fraction(3, 4)
    assert st.count(Fraction(3, 4)) == 8
    d = st.to_dict()
    assert d["exp_denominator"] == 4
    assert d["counts"]["3/4"] == 8


def test_error_term_is_the_first_norm_above_the_bound(catalog):
    """Counts include the bound, so O(q^k) names the first norm the shadow
    can have above it: a multiple of 1/(4 det)."""
    e8 = shadow_theta(catalog.lattice("E8"), 2)
    assert str(e8) == "1 + 240*q^(2) + O(q^(9/4))"
    c3 = shadow_theta(c_n_lattice(3), 3)
    assert str(c3) == ("4*q^(1/3) + 4*q^(1) + 8*q^(7/3) + 4*q^(3)"
                       " + O(q^(37/12))")
    assert str(coset_shadow_theta(c_n_lattice(3), 3)) == str(c3)
    assert str(shadow_theta(zn(3), Fraction(1, 3))) == "0 + O(q^(1/2))"
    assert c3.to_dict() == {"bound": "3", "exp_denominator": 3, "counts": {
        "1": 4, "1/3": 4, "3": 4, "7/3": 8}}


def test_shadow_min_of_cubic_lattices():
    for n in (4, 8):
        rep = shadow_min(zn(n))
        assert rep.min_norm == Fraction(n, 4)
        assert rep.count == 2 ** n
        assert rep.m == 0


def _c3_sum():
    """C3^4, odd with det 81: level 3, shadow minimum 4/3, so shadow_min
    sweeps its coset to 1 and then to 2."""
    c3 = c_n_lattice(3)
    return direct_sum(direct_sum(c3, c3), direct_sum(c3, c3))


def test_shadow_min_reduces_its_coset_once(monkeypatch):
    """Every doubling step of shadow_min on a lattice of det != 1 sweeps
    the one dual that shadow_coset built, so its basis is LLL-reduced
    once: C3^4 and a rebasing of it (sweeps to norm 1 and 2)."""
    calls, lll = [], linalg.gram_lll
    bounds, sweep = [], shadow.enumerate_vectors

    def counted(gram):
        calls.append(len(gram))
        return lll(gram)

    def swept(lat, bound, *args, **kwargs):
        bounds.append(bound)
        return sweep(lat, bound, *args, **kwargs)
    monkeypatch.setattr(linalg, "gram_lll", counted)
    monkeypatch.setattr(shadow, "enumerate_vectors", swept)
    rebased = transformed(_c3_sum(), unimodular(random.Random(7), 8))
    for lat in (_c3_sum(), rebased):
        rep = shadow_min(lat)
        assert (rep.level, rep.min_norm, rep.count, rep.m) == (
            3, Fraction(4, 3), 256, 0)
        assert (calls, bounds) == ([8], [1, 2])
        calls.clear()
        bounds.clear()


def test_unimodular_shadow_min_sweeps_the_lattice_once(monkeypatch):
    """For det 1, shadow_min reads theta_S off theta_L: no shifted sweep,
    and one count sweep of L to norm n // 8 (Z12, a rebased Z12, Z16)."""
    sweeps, sweep = [], enumeration.enumerate_vectors

    def swept(lat, bound, shift=None, *args, **kwargs):
        sweeps.append((bound, shift))
        return sweep(lat, bound, shift, *args, **kwargs)

    def shifted(*args, **kwargs):
        raise AssertionError("shifted sweep")
    monkeypatch.setattr(enumeration, "enumerate_vectors", swept)
    monkeypatch.setattr(shadow, "enumerate_vectors", shifted)
    rebased = transformed(zn(12), unimodular(random.Random(7), 12))
    for lat, n in ((zn(12), 12), (rebased, 12), (zn(16), 16)):
        rep = shadow_min(lat)
        assert (rep.min_norm, rep.count, rep.m) == (Fraction(n, 4), 2 ** n, 0)
        assert sweeps == [(n // 8, None)]
        sweeps.clear()


# det-1 lattices and the bounds to which the transform is checked
UNIMODULAR = ([("Z%d" % n, Fraction(n, 4)) for n in range(1, 17)]
              + [("D12plus", 3)]
              + [("D12plus+Z%d" % k, Fraction(12 + k, 4)) for k in (1, 2, 3)]
              + [("E8", 4), ("E8+Z1", Fraction(9, 4))])


def _unimodular(name):
    base, _, k = name.partition("+Z")
    lat = (zn(int(base[1:])) if base.startswith("Z")
           else load_catalog().lattice(base))
    return direct_sum(lat, zn(int(k))) if k else lat


@pytest.mark.parametrize("name, bound", UNIMODULAR,
                         ids=[name for name, _ in UNIMODULAR])
def test_transform_equals_the_coset_sweep(name, bound):
    lat = _unimodular(name)
    got, want = shadow_theta(lat, bound), coset_shadow_theta(lat, bound)
    assert got == want
    assert (str(got), got.to_dict()) == (str(want), want.to_dict())


def test_even_unimodular_shadow_is_the_lattice(catalog):
    """E8 is even: 0 is characteristic, so theta_S = theta_L."""
    e8 = catalog.lattice("E8")
    assert shadow_theta(e8, 4).counts == enumerate_vectors(e8, 4).counts


@pytest.mark.parametrize("name, bound", UNIMODULAR,
                         ids=[name for name, _ in UNIMODULAR])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_transform_equals_the_coset_sweep_on_rebasings(name, bound, seed):
    lat = _unimodular(name)
    rebased = transformed(lat, unimodular(random.Random(seed), lat.dim))
    assert shadow_theta(rebased, bound) == coset_shadow_theta(rebased, bound)


@pytest.mark.parametrize("n, norm, term", [(12, 1, "-1 at q^(1)"),
                                           (16, 1, "-1/32 at q^(0)"),
                                           (16, 2, "1/256 at q^(0)")])
def test_corrupted_theta_count_is_an_arithmetic_fault(monkeypatch, n, norm,
                                                      term):
    """One count of theta_L off by one makes a shadow coefficient negative
    (norm 1 in Z12) or fractional (norms 1 and 2 in Z16): raised."""
    counts = shadow._counts

    def corrupted(lat, bound, threads=1):
        tc = counts(lat, bound, threads)
        tc.counts[norm] = tc.counts.get(norm, 0) + 1
        return tc
    monkeypatch.setattr(shadow, "_counts", corrupted)
    with pytest.raises(ModLatticeError) as exc:
        shadow_theta(zn(n), Fraction(n, 4))
    assert str(exc.value) == (
        "arithmetic fault: shadow theta coefficient %s is not a nonnegative "
        "integer" % term)


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
