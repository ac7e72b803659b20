"""Sparse series ring, eta products and numeric evaluation."""
import math
import random
from fractions import Fraction

import pytest

from modlattice.errors import (ExponentOverflowError, GranularityError,
                               LevelError)
from modlattice.qseries import (ADMISSIBLE_LEVELS, LevelData, QSeries,
                                dedekind_eta, delta_level, eval_at_imag)
from oracles import eta_pentagonal


def random_series(rng, precision, terms=6):
    # constant term nonzero so product precision stays at the window
    coeffs = {0: Fraction(rng.randint(1, 5))}
    for _ in range(terms):
        coeffs[rng.randrange(1, precision)] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 4))
    return QSeries(coeffs, precision)


def test_ring_laws_on_seeded_series():
    rng = random.Random(7)
    for _ in range(20):
        f = random_series(rng, 40)
        g = random_series(rng, 37)
        h = random_series(rng, 44)
        assert (f + g).agree(g + f)[0]
        assert (f * g).agree(g * f)[0]
        assert ((f + g) * h).agree(f * h + g * h)[0]
        assert ((f * g) * h).agree(f * (g * h))[0]
        assert (f - f).coeffs == {}


def test_pow_matches_repeated_product():
    rng = random.Random(3)
    f = random_series(rng, 30)
    assert (f ** 3).agree(f * f * f)[0]
    assert f ** 0 == QSeries.one(30)


def test_constructors_and_accessors():
    s = QSeries({0: 1, 24: Fraction(5)}, 36)
    assert s.valuation == 0
    assert s.coefficient_u(24) == 5
    assert s.coefficient_q(2) == 5
    assert s.coefficient_u(13) == 0
    with pytest.raises(ValueError):
        s.coefficient_u(36)
    assert QSeries.zero(10).valuation == 10
    t = QSeries.from_q_terms([(0, 1), (2, 240)], 4)
    assert t.precision == 48 and t.coefficient_q(2) == 240


def test_zero_coefficients_are_dropped():
    s = QSeries({0: 1, 5: Fraction(0)}, 12)
    assert 5 not in s.coeffs


def test_immutable_and_bad_exponents():
    s = QSeries.one(12)
    with pytest.raises(AttributeError):
        s.precision = 24
    with pytest.raises(ValueError):
        QSeries({12: 1}, 12)
    with pytest.raises(ValueError):
        QSeries({-1: 1}, 12)
    with pytest.raises(ExponentOverflowError):
        QSeries({}, (1 << 62) + 1)


def test_truncate_and_agree_report_first_difference():
    a = QSeries({0: 1, 24: 3}, 48)
    b = QSeries({0: 1, 24: 4, 36: 7}, 60)
    equal, window, first = a.agree(b)
    assert (equal, window, first) == (False, 48, 24)
    assert a.truncate(24) == b.truncate(24)


def test_str_rendering_and_granularity_guard():
    s = QSeries.from_q_terms({0: 1, 2: 240, 3: Fraction(-1)}, 5)
    assert str(s) == "1 + 240*q^2 - q^3 + O(q^5)"
    frac = QSeries({6: 1}, 12)   # u^6 = q^(1/2)
    with pytest.raises(GranularityError):
        str(frac)
    assert frac.to_json()["unit"] == "q^(1/12)"
    assert s.to_json() == {
        "unit": "q", "prec": 5,
        "terms": [[0, "1"], [2, "240"], [3, "-1"]]}


def test_eta_product_matches_pentagonal_series():
    """Two independent eta algorithms, several scales."""
    for scale in (1, 2, 3, 5, 7, 11):
        a = dedekind_eta(scale, 200)
        b = eta_pentagonal(scale, 200)
        assert a.agree(b)[0], "eta mismatch at scale %d" % scale


def test_delta_level_one_has_tau_coefficients():
    d = delta_level(1, 220)
    assert d.valuation == 24
    want = [1, -24, 252, -1472, 4830, -6048, -16744, 84480]
    assert [d.coefficient_q(2 * n) for n in range(1, 9)] == want


def test_delta_level_two_frozen_window():
    d = delta_level(2, 160)
    got = [(e // 12, int(c)) for e, c in sorted(d.coeffs.items())][:6]
    assert got == [(2, 1), (4, -8), (6, 12), (8, 64), (10, -210), (12, -96)]


def test_delta_leading_term_is_q_squared_for_all_levels():
    for n in ADMISSIBLE_LEVELS:
        d = delta_level(n, 40)
        assert d.valuation == 24
        assert d.coeffs[24] == 1


def test_admissible_levels_scan():
    assert ADMISSIBLE_LEVELS == (1, 2, 3, 5, 6, 7, 11, 14, 15, 23)
    with pytest.raises(LevelError):
        delta_level(4, 40)
    with pytest.raises(LevelError):
        LevelData.for_level(13)


def test_level_data_table():
    want = {1: (12, 4), 2: (8, 2), 3: (6, 1), 5: (4, 2), 6: (4, 2),
            7: (3, 1), 11: (2, 1), 14: (2, 2), 15: (2, 2), 23: (1, 1)}
    for n, (k, d) in want.items():
        data = LevelData.for_level(n)
        assert (data.weight, data.theta_weight) == (k, d)
    assert len(LevelData.all()) == 10


def test_eval_at_imag_theta_of_z_at_i():
    # sum over Z of e^(-pi j^2) has the closed form pi^(1/4)/Gamma(3/4)
    from modlattice.enumeration import theta_series
    from modlattice.lattice import zn
    th = theta_series(zn(1), 30)
    res = eval_at_imag(th, 1.0, tail_bound_norm=1)
    const = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(res.value - const) <= res.tail_bound + 1e-12
    assert res.tail_bound < 1e-30


def test_eval_at_imag_guards():
    s = QSeries.from_q_terms({0: 1}, 2)
    with pytest.raises(ValueError):
        eval_at_imag(s, 0)
    assert eval_at_imag(s, 2.0).tail_bound == 0.0
