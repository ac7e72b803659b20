"""Modular form spaces, extremal forms, modularity and extremality checks."""
import dataclasses
from fractions import Fraction

import pytest

from modlattice.enumeration import theta_series
from modlattice.errors import EmptyBasisError, LevelError
from modlattice.lattice import (Lattice, bundled_catalog, c_n_lattice,
                                direct_sum, rescale, zn)
from modlattice.modular import (ModularityVerdict, base_lattice,
                                check_extremal, check_extremal_odd,
                                check_modular, extremal_form,
                                extremal_min_bound, modform_basis,
                                sturm_norm, theta_base, transformation_check)
from modlattice.qseries import ADMISSIBLE_LEVELS, QSeries
from modlattice.report import FAIL, INCONCLUSIVE, PASS
from oracles import swept_extremal
from test_enumeration import count_sweeps


def test_theta_base_matches_enumeration(catalog):
    """theta_base sweeps the bundled catalogue's object; the same entry of
    the separately loaded fixture is swept cold, not read from its memo."""
    base = {e.level: e.lattice for e in catalog if e.claims.get("theta_base")}
    for n in ADMISSIBLE_LEVELS:
        assert base[n] is not base_lattice(n)
        assert base[n].gram == base_lattice(n).gram, "level %d" % n
        tb = theta_base(n, 8)
        th = theta_series(base[n], 8)
        assert tb.agree(th)[0], "level %d" % n


def test_check_extremal_sweeps_the_lattice_once(monkeypatch):
    # the Sturm window theta and (for A2, its own base lattice) theta_base
    # read one sweep of the object; no partial dual is swept
    bundled_catalog.cache_clear()
    cat = bundled_catalog()
    swept = count_sweeps(monkeypatch)
    for name in ("A2", "K12", "BW16"):
        lat = cat.lattice(name)
        swept.clear()
        assert check_extremal(lat).verdict == PASS
        assert sum(s is lat for s in swept) == 1, name
        assert sum(s is not lat and s.dim == lat.dim for s in swept) == 0
    assert base_lattice(3) is cat.lattice("A2")


def test_sturm_norms():
    cat = bundled_catalog()
    want = {"A2": 0, "D4": 0, "E8": 0, "D16plus": 0, "N7base": 0,
            "N5base": 2, "N11base": 2, "Leech": 2, "K12": 4, "BW16": 4,
            "N6base": 4, "N23base": 4, "N14base": 8, "N15base": 8}
    assert {name: sturm_norm([cat.lattice(name)]) for name in want} == want
    # odd lattices through the even sqrt(2)L: level 24, 60, 4 and 4
    odd = {"C6": (c_n_lattice(6), 8), "C15": (c_n_lattice(15), 24),
           "Z12": (zn(12), 3), "D12plus": (cat.lattice("D12plus"), 3)}
    for name, (lat, norm) in odd.items():
        assert not lat.is_even and sturm_norm([lat]) == norm, name
    # a level given with the lattices widens M: lcm(2, 3) = 6, psi = 12
    assert sturm_norm([cat.lattice("D4")], 3) == 4


def test_check_extremal_matches_the_swept_path(catalog):
    """Verdict, minimum and kissing number equal those of sweeping to the
    minimum and comparing on 2l + 4 q-units (oracles.swept_extremal)."""
    e8 = catalog.lattice("E8")
    lats = {e.name: e.lattice for e in catalog
            if e.lattice.is_even and e.level in ADMISSIBLE_LEVELS}
    lats.update({"E8^3": direct_sum(direct_sum(e8, e8), e8),
                 "D16plus+E8": direct_sum(catalog.lattice("D16plus"), e8)})
    # powers of the base lattices up to dimension 16 (E8^2, D4^4, ...),
    # many with a Sturm norm past the bound
    for e in catalog:
        power = e.lattice
        for r in range(2, 16 // e.lattice.dim + 1):
            power = direct_sum(power, e.lattice)
            if e.claims.get("theta_base"):
                lats["%s^%d" % (e.name, r)] = power
    checked = []
    for name, lat in lats.items():
        rep = check_extremal(lat)
        if "determinant" in rep.details.get("reason", ""):
            continue
        minimum = (rep.details["minimum"] if rep.verdict == PASS
                   else rep.witnesses[0]["minimum"])
        assert (rep.verdict, minimum, rep.details["kissing"]) == \
            swept_extremal(lat, rep.inputs["level"]), name
        checked.append(name)
    assert len(checked) == len(lats) - 1    # E6: det 3, not 3^3


def test_check_extremal_e8_cubed_fails_at_its_roots(catalog):
    """theta(E8^3) differs from the Leech form only by its 720 roots, at
    norm 2, its Sturm norm: the one norm that decides it."""
    e8 = catalog.lattice("E8")
    rep = check_extremal(direct_sum(direct_sum(e8, e8), e8))
    assert rep.verdict == FAIL
    assert rep.details["reason"] == "minimum 2 below extremal bound 4"
    assert rep.witnesses == [{"minimum": 2, "bound": 4}]
    assert rep.details["kissing"] == 720


def test_check_extremal_compares_up_to_the_sturm_norm(catalog,
                                                      monkeypatch):
    """N6base has bound 2 and Sturm norm 4: a form that differs from its
    theta series only at q^4 is told apart, past the bound."""
    from modlattice import modular
    make = modular.extremal_form

    def altered(*args):
        form = make(*args)
        bump = QSeries.from_q_terms({4: 1}, form.series.precision // 12)
        return dataclasses.replace(form, series=form.series + bump)
    monkeypatch.setattr(modular, "extremal_form", altered)
    rep = check_extremal(Lattice(catalog.lattice("N6base").gram))
    assert rep.verdict == FAIL
    assert rep.details["reason"] == "theta does not match the extremal form"
    assert rep.witnesses == [{"first_difference_u_exponent": 48}]


def test_base_lattice_dimensions():
    # dim = 2 d_N
    want = {1: 8, 2: 4, 3: 2, 5: 4, 6: 4, 7: 2, 11: 2, 14: 4, 15: 4, 23: 2}
    for n, d in want.items():
        assert base_lattice(n).dim == d


def test_modform_basis_is_unitriangular():
    for n, k in ((1, 12), (2, 8), (3, 6), (1, 24)):
        basis = modform_basis(n, k, 14)
        assert basis, (n, k)
        for i, f in enumerate(basis):
            assert f.coefficient_q(2 * i) == 1
            for r in range(i):
                assert f.coefficient_q(2 * r) == 0


def test_modform_basis_level_one_window():
    basis = modform_basis(1, 12, 8)
    assert len(basis) == 2
    assert [basis[0].coefficient_q(j) for j in (0, 2, 4)] == [1, 720, 179280]
    assert [basis[1].coefficient_q(j) for j in (0, 2, 4)] == [0, 1, -24]


def test_weights_missing_from_the_ring():
    for k in (2, 10, 14):
        assert modform_basis(1, k, 8) == []
        with pytest.raises(EmptyBasisError):
            extremal_form(1, k, 8)


def test_extremal_form_frozen_windows():
    cases = {
        (1, 12): [1, 0, 196560, 16773120, 398034000],
        (2, 8): [1, 0, 4320, 61440, 522720],
        (3, 6): [1, 0, 756, 4032, 20412],
    }
    for (n, k), want in cases.items():
        form = extremal_form(n, k, 10)
        got = [form.series.coefficient_q(j) for j in range(0, 10, 2)]
        assert got == want, (n, k)
        assert form.jump == 4


def test_extremal_form_weight_below_first_jump(catalog):
    # weight 8 at level 1: no coefficients to clear, the form is theta(E8)^2
    form = extremal_form(1, 8, 6)
    e8 = catalog.lattice("E8")
    th = theta_series(direct_sum(e8, e8), 6)
    assert form.series.agree(th)[0]
    assert form.jump == 2


def test_extremal_form_precision_guard():
    with pytest.raises(ValueError):
        extremal_form(1, 12, 4)


def test_extremal_min_bound_values():
    assert extremal_min_bound(1, 12) == 4
    assert extremal_min_bound(1, 4) == 2
    assert extremal_min_bound(1, 36) == 8
    assert extremal_min_bound(2, 8) == 4
    assert extremal_min_bound(3, 6) == 4
    assert extremal_min_bound(23, 1) == 4


def test_check_modular_d4_exact(catalog):
    v = check_modular(catalog.lattice("D4"))
    assert isinstance(v, ModularityVerdict)
    assert v.level == 2 and v.verdict == PASS
    assert [r.m for r in v.results] == [1, 2]
    assert v.results[0].detail == "identical gram"


def test_check_modular_sweeps_only_for_a_theta_comparison(catalog,
                                                         monkeypatch):
    from modlattice import modular
    calls = []

    def counted(lat, precision, **kw):
        calls.append(lat.dim)
        return theta_series(lat, precision, **kw)

    monkeypatch.setattr(modular, "theta_series", counted)
    for name in ("E8", "D16plus", "Leech"):
        v = check_modular(catalog.lattice(name), precision=20)
        assert v.verdict == PASS, name
        assert [r.detail for r in v.results] == ["identical gram"], name
    assert calls == []
    # D4 is level 2: its m = 2 partial dual needs the base theta as well
    assert check_modular(catalog.lattice("D4"), exact=False).verdict == PASS
    assert calls == [4, 4]


def test_check_modular_isometry_node_counts(catalog):
    # the isometry search sweeps its LLL-reduced forms as they are
    for name, nodes in (("A2", 2), ("D4", 4), ("K12", 12), ("BW16", 17)):
        v = check_modular(catalog.lattice(name), precision=6)
        assert v.verdict == PASS, name
        assert v.results[-1].detail == "%d nodes" % nodes, name


def test_check_modular_reduces_and_sweeps_each_form_once(catalog,
                                                         monkeypatch):
    """The isometry search reads the reduced bases and the theta sweep
    kept on the lattice: one LLL and one sweep for each of L and its
    partial dual, and one sweep, with no LLL, of the collected form it
    searches."""
    from modlattice import enumeration, linalg
    lll, sweeps = [], []
    gram_lll, sweep = linalg.gram_lll, enumeration._sweep

    def counted_lll(gram):
        lll.append(len(gram))
        return gram_lll(gram)

    def counted_sweep(*args):
        sweeps.append(len(args[0].rows))
        return sweep(*args)
    monkeypatch.setattr(linalg, "gram_lll", counted_lll)
    monkeypatch.setattr(enumeration, "_sweep", counted_sweep)
    for name in ("K12", "BW16"):
        lll.clear()
        sweeps.clear()
        v = check_modular(Lattice(catalog.lattice(name).gram), precision=6)
        assert v.verdict == PASS, name
        assert len(lll) == 2 and len(sweeps) == 3, name


def test_check_modular_formal_only(catalog):
    v = check_modular(catalog.lattice("D4"), exact=False)
    assert v.verdict == PASS
    assert [r.exact for r in v.results] == ["pass", "skipped"]


def test_check_modular_level_outside_theta_ring():
    # 2 I_2 is strongly 4-modular; modularity needs no Delta_N machinery
    v = check_modular(Lattice([[2, 0], [0, 2]]))
    assert v.level == 4 and v.verdict == PASS
    assert [r.m for r in v.results] == [1, 4]


def test_check_modular_detects_failure(catalog):
    bad = direct_sum(catalog.lattice("E8"), catalog.lattice("A2"))
    v = check_modular(bad, precision=8)
    assert v.level == 3 and v.verdict == FAIL
    fails = [r for r in v.results if r.formal == FAIL]
    assert [r.m for r in fails] == [3]


def test_check_modular_divisor_diagonal_family():
    # odd: the default window is the Sturm window of sqrt(2) C_N
    for n, window in ((6, 10), (15, 26)):
        v = check_modular(c_n_lattice(n))
        assert v.verdict == PASS, n
        assert v.precision == window, n


def test_check_modular_default_window_is_the_sturm_window(catalog):
    v = check_modular(catalog.lattice("BW16"))
    assert v.verdict == PASS
    assert v.precision == 6
    assert v.render().splitlines()[0] == \
        "[pass] strong modularity at level 2 (window q^6)"
    # an explicit precision widens the window, never narrows it
    assert check_modular(catalog.lattice("K12"), precision=8).precision == 8
    assert check_modular(catalog.lattice("K12"), precision=2).precision == 6


def test_render_mentions_every_divisor(catalog):
    v = check_modular(catalog.lattice("D4"))
    text = v.render()
    assert text.splitlines()[0].startswith("[pass] strong modularity at level 2")
    assert len(text.splitlines()) == 3


def test_check_extremal_positives(catalog):
    for name in ("E8", "A2", "D4", "K12", "BW16", "D16plus", "N5base"):
        rep = check_extremal(catalog.lattice(name))
        assert rep.verdict == PASS, name
        assert rep.details["minimum"] == rep.details["bound"]


def test_check_extremal_rescaled_determinant_fails(catalog):
    rep = check_extremal(rescale(catalog.lattice("K12"), 2))
    assert rep.verdict == FAIL
    assert "determinant" in rep.details["reason"]


def test_check_extremal_e6_determinant_fails(catalog):
    rep = check_extremal(catalog.lattice("E6"))
    assert rep.verdict == FAIL
    assert "determinant" in rep.details["reason"]


def test_check_extremal_minimum_below_bound(catalog):
    rep = check_extremal(catalog.lattice("N23base"))
    assert rep.verdict == FAIL
    assert rep.witnesses == [{"minimum": 2, "bound": 4}]


def test_check_extremal_rejects_odd_lattice():
    rep = check_extremal(zn(4))
    assert rep.verdict == FAIL
    assert rep.details["reason"] == "lattice is not even"


def test_check_extremal_non_admissible_level_raises():
    with pytest.raises(LevelError):
        check_extremal(rescale(zn(2), 2))    # level 4


def test_check_extremal_odd_cases(catalog):
    rep = check_extremal_odd(catalog.lattice("D12plus"))
    assert rep.verdict == PASS
    assert rep.details == {**rep.details, "minimum": 2, "bound": 2}
    rep = check_extremal_odd(zn(12))
    assert rep.verdict == FAIL
    assert (rep.details["minimum"], rep.details["bound"]) == (1, 2)


def test_transformation_formula_positives(catalog):
    for lat, t in ((catalog.lattice("A2"), 2), (zn(1), 1),
                   (catalog.lattice("E8"), 1)):
        rep = transformation_check(lat, t)
        assert rep.verdict == PASS
        assert rep.details["difference"] <= (rep.details["tail_bounds"]
                                             + rep.details["tolerance"])


def test_transformation_formula_reads_the_memo(catalog, monkeypatch):
    # the lattice's theta sweep serves its sum; the dual is a new object
    a2 = Lattice(catalog.lattice("A2").gram)
    theta_series(a2, 40)
    swept = count_sweeps(monkeypatch)
    assert transformation_check(a2, 2).verdict == PASS
    assert len(swept) == 1 and swept[0] is not a2


def test_transformation_formula_tail_too_slow_is_inconclusive():
    rep = transformation_check(zn(1), Fraction(1, 10 ** 6))
    assert rep.verdict == INCONCLUSIVE
    assert "tail" in rep.details["hint"]
