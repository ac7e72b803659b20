"""Lattice constructors, invariants and the bundled catalogue."""
import json
import math
from fractions import Fraction

import pytest

from modlattice import lattice
from modlattice.errors import (CatalogError, DefinitenessError, DivisorError,
                               IntegralityError, ParityError, ShapeError)
from modlattice.lattice import (Lattice, c_n_lattice, density,
                                density_from_parameters, direct_sum, dual,
                                even_sublattice, integral_dual_scale, level,
                                load_catalog, partial_dual, rescale, zn)
from oracles import index_in


def test_validation_rejects_bad_grams():
    with pytest.raises(ShapeError):
        Lattice([[1, 0]])
    with pytest.raises(DefinitenessError) as exc:
        Lattice([[1, 2], [3, 4]])          # not symmetric
    assert exc.value.minor_index == 0
    with pytest.raises(DefinitenessError) as exc:
        Lattice([[1, 0], [0, -1]])
    assert exc.value.minor_index == 2
    with pytest.raises(DefinitenessError):
        Lattice([[0, 0], [0, 1]])


def test_basic_properties():
    a2 = Lattice([[2, 1], [1, 2]])
    assert a2.dim == 2 and a2.det == 3
    assert a2.is_integral and a2.is_even
    assert a2.norm((1, -1)) == 2
    assert not zn(3).is_even
    half = Lattice([[Fraction(1, 2), 0], [0, 1]])
    assert not half.is_integral


def test_immutability_and_equality():
    a = zn(2)
    with pytest.raises(AttributeError):
        a.dim = 3
    assert a == zn(2) and hash(a) == hash(zn(2))
    assert a != zn(3)


def test_dual_is_an_involution(catalog):
    for name in ("A2", "D4", "K12"):
        lat = catalog.lattice(name)
        assert dual(dual(lat)).gram == lat.gram
        # det multiplies to 1
        assert Fraction(lat.det) * Fraction(dual(lat).det) == 1


def test_rescale_and_direct_sum():
    s = rescale(zn(2), 3)
    assert s.gram == ((3, 0), (0, 3))
    d = direct_sum(zn(1), rescale(zn(1), 2))
    assert d.gram == ((1, 0), (0, 2))
    assert d.det == 2


def test_levels_of_catalogue_lattices(catalog):
    want = {"E8": 1, "D4": 2, "A2": 3, "E6": 3, "E7": 4, "K12": 3,
            "BW16": 2, "Leech": 1, "D16plus": 1}
    for name, n in want.items():
        lat = catalog.lattice(name)
        if lat.is_even:
            assert level(lat) == n, name


def test_level_needs_even_diagonal_of_scaled_dual():
    # N G^-1 must be even on the diagonal, not merely integral: for 2 I_2
    # the scaled dual at N=2 is the identity, so the level is 4
    assert level(Lattice([[2, 0], [0, 2]])) == 4
    with pytest.raises(ParityError):
        level(zn(2))


def test_integral_dual_scale():
    assert integral_dual_scale(zn(5)) == 1
    assert integral_dual_scale(c_n_lattice(6)) == 6


def test_integral_dual_scale_of_unimodular_odd(catalog):
    assert integral_dual_scale(catalog.lattice("D12plus")) == 1


def test_partial_dual_index_invariant(catalog):
    """[L^(*,m) : L] = m^(dim/2) over all exact divisors."""
    d4 = catalog.lattice("D4")
    pd = partial_dual(d4, 2)
    assert index_in(d4.det, pd.det) == 2 ** (d4.dim // 2)
    n6 = catalog.lattice("N6base")
    for m in (1, 2, 3, 6):
        pd = partial_dual(n6, m)
        assert index_in(n6.det, pd.det) == m ** (n6.dim // 2)


def test_partial_dual_extremes(catalog):
    from modlattice.enumeration import enumerate_vectors
    d4 = catalog.lattice("D4")
    assert partial_dual(d4, 1).gram == d4.gram
    # at m = N the partial dual is the full dual, up to basis choice
    pd, dl = partial_dual(d4, 2), dual(d4)
    assert pd.det == dl.det
    assert enumerate_vectors(pd, 3).counts == enumerate_vectors(dl, 3).counts
    with pytest.raises(DivisorError):
        partial_dual(d4, 3)
    n6 = catalog.lattice("N6base")
    with pytest.raises(DivisorError):
        partial_dual(n6, 4)


def test_partial_dual_gram_equals_the_fraction_product(catalog):
    """The fraction-free Gram equals W G W^T in Fractions, W the dual
    basis of the HNF of [mI; G], at every exact divisor m of the level of
    every catalogue entry (the integral dual scale for odd D12plus)."""
    from modlattice import linalg
    for name in catalog.names():
        lat = catalog.lattice(name)
        n = lattice.default_level(lat)
        for m in range(1, n + 1):
            if n % m or math.gcd(m, n // m) != 1:
                continue
            stack = [[m * (i == j) for j in range(lat.dim)]
                     for i in range(lat.dim)] + [list(r) for r in lat.gram]
            w = linalg.dual_basis(linalg.hnf(stack))
            want = linalg.mat_mul(linalg.mat_mul(w, lat.gram),
                                  linalg.mat_transpose(w))
            got = partial_dual(lat, m, lat_level=n).gram
            assert [list(r) for r in got] == want, (name, m)


def test_even_sublattice_of_cubic_is_checkerboard():
    d3 = even_sublattice(zn(3))
    assert d3.det == 4
    assert d3.is_even
    from modlattice.enumeration import minimum
    rep = minimum(d3)
    assert (rep.minimum, rep.kissing) == (2, 12)
    assert even_sublattice(zn(1)).gram == ((4,),)
    with pytest.raises(ParityError):
        even_sublattice(Lattice([[2, 1], [1, 2]]))
    with pytest.raises(IntegralityError):
        even_sublattice(Lattice([[Fraction(1, 2)]]))


def test_c_n_lattice_is_divisor_diagonal():
    assert c_n_lattice(6).gram == ((1, 0, 0, 0), (0, 2, 0, 0),
                                   (0, 0, 3, 0), (0, 0, 0, 6))
    assert c_n_lattice(1).gram == ((1,),)


def test_density_exact_ratios(catalog):
    leech = catalog.lattice("Leech")
    rep = density(leech, 4)
    assert rep.ratio_vs_zn == 2 ** 24
    assert rep.ratio_vs_zn_squared == 2 ** 48
    e8 = density(catalog.lattice("E8"), 2)
    assert e8.ratio_vs_zn == 16
    assert abs(e8.delta - math.pi ** 4 / 384) < 1e-15


def test_density_irrational_ratio_reports_square_only(catalog):
    rep = density(catalog.lattice("A2"), 2)
    assert rep.ratio_vs_zn_squared == Fraction(4, 3)
    assert rep.ratio_vs_zn is None


def test_density_from_parameters():
    rep = density_from_parameters(80, 8, 1)
    assert rep.ratio_vs_zn == 8 ** 40
    assert rep.ratio_vs_zn > 10 ** 36
    with pytest.raises(ValueError):
        density_from_parameters(4, 0, 1)


def test_catalog_contents(catalog):
    assert len(catalog) == 17
    assert "Leech" in catalog.names()
    e8 = catalog.get("E8")
    assert e8.claims["min"] == 2 and e8.claims["kissing"] == 240
    assert catalog.lattice("K12").det == 729
    with pytest.raises(CatalogError):
        catalog.get("E9")


def test_catalog_claimed_levels_recomputed(catalog):
    # load_catalog already revalidates; spot check the stored values
    assert catalog.get("E7").level == 4
    assert catalog.get("N23base").level == 23


@pytest.fixture
def validated(monkeypatch):
    """Names of the catalogue entries validated from here on; the bundled
    catalogue is parsed afresh before and after the test."""
    names = []
    validate = lattice._validate_entry

    def counted(raw):
        names.append(raw["name"])
        return validate(raw)
    monkeypatch.setattr(lattice, "_validate_entry", counted)
    lattice.bundled_catalog.cache_clear()
    yield names
    lattice.bundled_catalog.cache_clear()


def _bundled_with(monkeypatch, change):
    """Feed bundled_catalog a copy of the bundled JSON changed by change."""
    raw = json.loads(lattice._bundled_text())
    change(raw)
    monkeypatch.setattr(lattice, "_bundled_text", lambda: json.dumps(raw))


def test_bundled_entries_are_validated_on_first_read(validated):
    cat = lattice.bundled_catalog()
    assert validated == [] and len(cat) == 17
    a2 = cat.lattice("A2")
    assert cat.lattice("A2") is a2 and cat.get("A2").level == 3
    assert validated == ["A2"]
    assert [e.name for e in cat] == cat.names()
    assert sorted(validated) == sorted(cat.names())
    assert cat.lattice("A2") is a2


def test_corrupted_bundled_entry_fails_when_first_read(validated,
                                                        monkeypatch):
    _bundled_with(monkeypatch, lambda raw: raw[3].update(level=5))
    cat = lattice.bundled_catalog()
    assert cat.lattice("A2").dim == 2
    with pytest.raises(CatalogError, match="E7.*level 4 != claimed 5"):
        cat.lattice("E7")
    with pytest.raises(CatalogError, match="E7"):
        list(cat)
    with pytest.raises(CatalogError, match="E7"):
        load_catalog()


def test_duplicate_names_fail_at_parse(validated, monkeypatch):
    _bundled_with(monkeypatch, lambda raw: raw.append(dict(raw[0])))
    with pytest.raises(CatalogError, match="duplicate"):
        lattice.bundled_catalog()
    assert validated == []


def test_load_catalog_rejects_a_bad_file_at_load(tmp_path):
    raw = json.loads(lattice._bundled_text())
    raw[-1]["claims"]["det"] += 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(CatalogError, match="N23base.*det"):
        load_catalog(str(path))
    path.write_text(json.dumps(raw[:2] + raw[:1]))
    with pytest.raises(CatalogError, match="duplicate"):
        load_catalog(str(path))
