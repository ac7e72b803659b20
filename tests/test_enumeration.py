"""Exact short-vector enumeration against independent oracles."""
import random
from fractions import Fraction

import pytest

from modlattice import enumeration
from modlattice.enumeration import (_integer_form, enumerate_vectors,
                                    min_layer, minimum, theta_series)
from modlattice.errors import CapacityError
from modlattice.lattice import Lattice, dual, inner, rescale, zn
from modlattice.modular import extremal_form
from oracles import box_counts


def random_gram(rng, n, spread=3):
    """A^T A for a random nonsingular integer A; positive definite."""
    while True:
        a = [[rng.randint(-spread, spread) for _ in range(n)]
             for _ in range(n)]
        try:
            return Lattice([[sum(a[k][i] * a[k][j] for k in range(n))
                             for j in range(n)] for i in range(n)])
        except Exception:
            continue


def unimodular(rng, n, steps=12):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def transformed(lat, u):
    n = lat.dim
    g = [[sum(sum(u[i][a] * lat.gram[a][b] for a in range(n)) * u[j][b]
              for b in range(n)) for j in range(n)] for i in range(n)]
    return Lattice(g)


def test_e8_kissing_number(catalog):
    rep = minimum(catalog.lattice("E8"))
    assert (rep.minimum, rep.kissing) == (2, 240)


def test_e8_theta_window(catalog):
    th = theta_series(catalog.lattice("E8"), 8)
    assert [th.coefficient_q(j) for j in range(0, 8, 2)] == [1, 240, 2160, 6720]
    assert str(th) == "1 + 240*q^2 + 2160*q^4 + 6720*q^6 + O(q^8)"


def test_z2_theta_counts_sums_of_two_squares():
    th = theta_series(zn(2), 11)
    want = [1, 4, 4, 0, 4, 8, 0, 0, 4, 4, 8]
    assert [th.coefficient_q(j) for j in range(11)] == want


def test_box_oracle_on_seeded_grams():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        lat = random_gram(rng, n)
        b = 8
        assert enumerate_vectors(lat, b).counts == box_counts(lat, b)


def test_box_oracle_with_rational_gram():
    a2 = Lattice([[2, 1], [1, 2]])
    da = dual(a2)
    assert enumerate_vectors(da, 3).counts == box_counts(da, 3)
    want = {0: 1, Fraction(2, 3): 6, 2: 6, Fraction(8, 3): 6}
    assert enumerate_vectors(da, 3).counts == want


def test_threads_merge_is_identical(catalog):
    # fresh objects: a second call on one object is served from its memo
    e8 = catalog.lattice("E8")
    assert (theta_series(Lattice(e8.gram), 8, threads=2)
            == theta_series(Lattice(e8.gram), 8, threads=1))
    k12 = catalog.lattice("K12")
    a = enumerate_vectors(k12, 4, threads=3)
    b = enumerate_vectors(k12, 4, threads=1)
    assert a.counts == b.counts


def test_threads_collect_same_layers(catalog):
    d4 = catalog.lattice("D4")
    a = enumerate_vectors(d4, 4, collect=True, threads=2)
    b = enumerate_vectors(d4, 4, collect=True, threads=1)
    for k in b.layers:
        assert a.layers[k].vectors == b.layers[k].vectors


def test_lll_preprocessing_does_not_change_counts():
    rng = random.Random(23)
    base = random_gram(rng, 4)
    for _ in range(3):
        lat = transformed(base, unimodular(rng, 4))
        plain = enumerate_vectors(lat, 6, reduce_first=False)
        red = enumerate_vectors(lat, 6, reduce_first=True)
        assert plain.counts == red.counts


def test_unimodular_transform_preserves_theta():
    rng = random.Random(5)
    base = random_gram(rng, 3)
    other = transformed(base, unimodular(rng, 3))
    assert (enumerate_vectors(base, 10).counts
            == enumerate_vectors(other, 10).counts)


def test_shifted_enumeration_half_integer_coset():
    shift = (Fraction(1, 2), Fraction(1, 2))
    tc = enumerate_vectors(zn(2), 3, shift=shift)
    assert tc.counts == {Fraction(1, 2): 4, Fraction(5, 2): 8}
    assert tc.shift == shift


def test_shifted_counts_by_direct_scan():
    # brute force over the coset (a+1/2, b+1/2)
    counts = {}
    for a in range(-4, 4):
        for b in range(-4, 4):
            n = Fraction(2 * a + 1, 2) ** 2 + Fraction(2 * b + 1, 2) ** 2
            if n <= 5:
                counts[n] = counts.get(n, 0) + 1
    tc = enumerate_vectors(zn(2), 5, shift=(Fraction(1, 2), Fraction(1, 2)))
    assert tc.counts == counts


def test_collect_capacity_guard(catalog):
    with pytest.raises(CapacityError) as exc:
        enumerate_vectors(catalog.lattice("E8"), 4, collect=True, capacity=10)
    partial = exc.value.partial_counts
    assert partial is not None and partial.counts[0] == 1


def test_collect_capacity_is_global_across_workers(catalog):
    # E8 has 241 vectors of norm <= 2; each worker alone stays below 200
    e8 = catalog.lattice("E8")
    for threads in (1, 2):
        with pytest.raises(CapacityError):
            enumerate_vectors(e8, 2, collect=True, capacity=200,
                              threads=threads)
        tc = enumerate_vectors(e8, 2, collect=True, capacity=241,
                               threads=threads)
        assert sum(len(layer) for layer in tc.layers.values()) == 241


def test_integer_form_reproduces_scaled_norm(catalog):
    rng = random.Random(3)
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [(catalog.lattice("D4").gram, None),
             (zn(3).gram, (half, half, half)),
             (dual(Lattice([[2, 1], [1, 2]])).gram, (third, Fraction(1, 6))),
             (catalog.lattice("K12").gram, (half,) * 6 + (third,) * 6)]
    for gram, shift in cases:
        n = len(gram)
        form = _integer_form(gram, shift)
        s = shift or (0,) * n
        for _ in range(20):
            x = [rng.randint(-4, 4) for _ in range(n)]
            big_y = [form.den * xi + ti for xi, ti in zip(x, form.offsets)]
            z = [sum(form.rows[k][j] * big_y[j] for j in range(k, n))
                 for k in range(n)]
            y = [xi + si for xi, si in zip(x, s)]
            assert (sum(w * zk * zk for w, zk in zip(form.weights, z))
                    == form.scale * inner(gram, y, y))
    d4 = _integer_form(catalog.lattice("D4").gram)
    assert [d4.rows[k][k] for k in range(4)] == [2, 3, 4, 4]


def test_theta_series_odd_precision_keeps_top_even_norm(catalog):
    a2 = catalog.lattice("A2")
    assert theta_series(a2, 9).coefficient_q(8) == 6
    assert theta_series(a2, 9).coefficient_q(6) == theta_series(
        a2, 8).coefficient_q(6)
    assert extremal_form(3, 6, 9).series.coefficient_q(8) == 20412


def test_theta_series_of_rational_gram(catalog):
    da2 = dual(catalog.lattice("A2"))
    th = theta_series(da2, 3)
    assert {e: int(c) for e, c in th.coeffs.items()} == {
        0: 1, 8: 6, 24: 6, 32: 6}
    # K12 is 3-modular: its dual has the theta of K12 at norms scaled by 1/3
    dk = theta_series(dual(catalog.lattice("K12")), 3)
    k12 = theta_series(catalog.lattice("K12"), 9)
    assert dk.coeffs == {e // 3: c for e, c in k12.coeffs.items()}
    with pytest.raises(ValueError, match="1/5"):
        theta_series(rescale(zn(1), Fraction(1, 5)), 2)


def test_min_layer_is_sorted_and_complete(catalog):
    layer = min_layer(catalog.lattice("D4"))
    assert layer.norm == 2 and len(layer) == 24 and layer.complete
    assert list(layer.vectors) == sorted(layer.vectors)
    vset = set(layer.vectors)
    for v in layer.vectors:
        assert tuple(-x for x in v) in vset
    assert layer.lattice is not None
    assert all(layer.lattice.norm(v) == 2 for v in layer.vectors)


def test_min_layer_after_reduction_is_in_original_coordinates(catalog):
    # dim >= 10 triggers LLL; returned rows must still have the right norms
    k12 = catalog.lattice("K12")
    layer = min_layer(k12)
    assert layer.norm == 4 and len(layer) == 756
    assert all(k12.norm(v) == 4 for v in layer.vectors)


def test_minimum_of_rescaled(catalog):
    rep = minimum(rescale(catalog.lattice("A2"), 3))
    assert (rep.minimum, rep.kissing) == (6, 6)


def test_bound_validation():
    with pytest.raises(ValueError):
        enumerate_vectors(zn(2), -1)
    with pytest.raises(ValueError):
        theta_series(zn(2), 0)


def count_sweeps(monkeypatch):
    """Lattice objects handed to the enumeration kernel, one per call."""
    swept = []
    kernel = enumeration.enumerate_vectors

    def counted(lat, *args, **kwargs):
        swept.append(lat)
        return kernel(lat, *args, **kwargs)
    monkeypatch.setattr(enumeration, "enumerate_vectors", counted)
    return swept


def test_minimum_and_theta_read_one_sweep(catalog, monkeypatch):
    swept = count_sweeps(monkeypatch)
    for lat in (catalog.lattice("E8"), catalog.lattice("K12"),
                dual(catalog.lattice("A2")), zn(5)):
        warm = Lattice(lat.gram)
        theta_series(warm, 10)
        assert swept == [warm]
        # a smaller window and the minimum are cut from the q^10 sweep
        assert theta_series(warm, 4) == theta_series(Lattice(lat.gram), 4)
        assert minimum(warm) == minimum(Lattice(lat.gram))
        assert sum(s is warm for s in swept) == 1
        # callers get their own counts: emptying one changes no later read
        enumeration._counts(warm, 2).counts.clear()
        assert (enumeration._counts(warm, 2).counts
                == enumerate_vectors(Lattice(lat.gram), 2).counts)
        swept.clear()


def test_a_larger_bound_sweeps_again_and_replaces(monkeypatch):
    swept = count_sweeps(monkeypatch)
    lat = zn(3)
    assert theta_series(lat, 2) == theta_series(zn(3), 2)
    assert theta_series(lat, 6) == theta_series(zn(3), 6)
    assert theta_series(lat, 4) == theta_series(zn(3), 4)
    assert sum(s is lat for s in swept) == 2
    assert lat._sweep.bound == 5
