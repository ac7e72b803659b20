"""Exact short-vector enumeration against independent oracles."""
import multiprocessing
import os
import random
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from modlattice import enumeration, linalg
from modlattice.enumeration import (VectorLayer, _integer_form,
                                    enumerate_vectors, min_layer, minimum,
                                    theta_series)
from modlattice.errors import CapacityError, ModLatticeError
from modlattice.lattice import Lattice, dual, inner, rescale, zn
from modlattice.modular import extremal_form
from oracles import box_counts, search_nodes


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


def test_threads_merge_is_identical(catalog, parallel):
    # fresh objects: a second call on one object is served from its memo
    e8 = catalog.lattice("E8")
    assert (theta_series(Lattice(e8.gram), 8, threads=2)
            == theta_series(Lattice(e8.gram), 8, threads=1))
    k12 = catalog.lattice("K12")
    a = enumerate_vectors(k12, 4, threads=3)
    b = enumerate_vectors(k12, 4, threads=1)
    assert a.counts == b.counts
    assert parallel == [2, 2]


def test_threads_collect_same_layers(catalog, parallel):
    """A collecting sweep at threads 2 runs in this process."""
    d4 = catalog.lattice("D4")
    a = enumerate_vectors(d4, 4, collect=True, threads=2)
    b = enumerate_vectors(d4, 4, collect=True, threads=1)
    for k in b.layers:
        assert a.layers[k].vectors == b.layers[k].vectors
    assert parallel == []


def _same_sweep(lat, bound, shift=None,
                capacity=enumeration.DEFAULT_CAPACITY, threads=1):
    """Collected sweeps on the vector search and on _run (forced by a
    _floats that refuses every form) agree in counts and their key order,
    in the layers (rows, dtype and order), and in where a CapacityError
    stops (the partial counts and their key order)."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        # the vector search, then _run; the search that must not run is None
        for unused, floats in (("_run", enumeration._floats),
                               ("_vector_search", lambda form, bound: None)):
            mp.setattr(enumeration, "_floats", floats)
            mp.setattr(enumeration, unused, None)
            try:
                tc = enumerate_vectors(lat, bound, shift=shift, collect=True,
                                       capacity=capacity, threads=threads)
            except CapacityError as exc:
                out.append(("partial",
                            list(exc.partial_counts.counts.items())))
            else:
                out.append((list(tc.counts.items()),
                            [(k, v.rows.dtype, v.vectors)
                             for k, v in tc.layers.items()]))
            mp.undo()
    assert out[0] == out[1]
    return out[0]


def test_shifted_rational_collect_same_in_both_searches(catalog):
    k12 = dual(catalog.lattice("K12"))
    shift = (Fraction(1, 3), Fraction(1, 2)) + (0,) * 10
    counts, layers = _same_sweep(k12, Fraction(8, 3), shift)
    total = sum(v for _, v in counts)
    assert total > 1000 and layers[0][0] == counts[0][0]
    for capacity in (1, 7, total // 3, total - 1):
        assert _same_sweep(k12, Fraction(8, 3), shift, capacity)[0] == (
            "partial")
    assert _same_sweep(k12, Fraction(8, 3), shift, total)[0] == counts


@pytest.mark.parametrize("name, bound", [("K12", 8), ("E8", 4)])
def test_unshifted_collect_same_in_both_searches(catalog, name, bound):
    """In a canonical collection the origin is the one leaf that is not a
    +-pair, so a CapacityError stops at capacity + 1 vectors for an even
    capacity and at capacity + 2 for an odd one, on both searches
    alike."""
    lat = catalog.lattice(name)
    counts, layers = _same_sweep(lat, bound)
    assert counts[0] == (0, 1) and all(v % 2 == 0 for _, v in counts[1:])
    total = sum(v for _, v in counts)
    for capacity in (1, 2, 7, total - 1):
        stop, partial = _same_sweep(lat, bound, capacity=capacity)
        assert stop == "partial"
        assert sum(v for _, v in partial) == capacity + 1 + capacity % 2
    assert _same_sweep(lat, bound, capacity=total) == (counts, layers)


@pytest.mark.parametrize("lat, bound, shift", [
    (zn(1), 9, None),
    (zn(1), 9, (Fraction(1, 3),)),
    (Lattice([[2, 1], [1, 2]]), 12, None),
    (Lattice([[2, 1], [1, 2]]), 12, (Fraction(1, 2), Fraction(1, 3))),
])
def test_parallel_in_dimensions_one_and_two(parallel, lat, bound, shift):
    """The collected counts, in their key order, from a count-only sweep
    on the pool, whose prefixes have no x_(top-1) in dimension 1."""
    counts, _ = _same_sweep(lat, bound, shift)
    pooled = enumerate_vectors(lat, bound, shift=shift, threads=2)
    assert list(pooled.counts.items()) == counts
    assert parallel == [2]


def test_parallel_bound_below_the_minimum(catalog, parallel):
    def pooled(lat, bound, shift=None):
        return enumerate_vectors(lat, bound, shift=shift, threads=2).counts
    # prefixes below which only the origin (or nothing) lies
    half = (Fraction(1, 2), Fraction(1, 2))
    assert _same_sweep(catalog.lattice("E8"), 1)[0] == [(0, 1)]
    assert pooled(catalog.lattice("E8"), 1) == {0: 1}
    assert _same_sweep(zn(2), Fraction(1, 4), half) == ([], [])
    assert pooled(zn(2), Fraction(1, 4), half) == {}
    assert parallel == [2, 2]
    # no prefix at all: |x_top + 1/2| >= 1/2 exceeds the bound's root
    assert _same_sweep(zn(2), Fraction(1, 8), half) == ([], [])
    assert pooled(zn(2), Fraction(1, 8), half) == {}
    assert parallel == [2, 2]


def test_lll_preprocessing_does_not_change_counts():
    """The sweep runs on an LLL-reduced basis; its counts are those of the
    kernel on the unreduced form."""
    rng = random.Random(23)
    base = random_gram(rng, 10, spread=1)
    bound = Fraction(6)
    for _ in range(3):
        lat = transformed(base, unimodular(rng, 10))
        form = _integer_form(lat.gram)
        plain, _ = enumeration._run(form, bound, False, None, True)
        assert enumeration._basis(lat)[1] is not None
        assert (enumerate_vectors(lat, bound).counts
                == enumeration._by_norm(plain, form.scale))


def test_reduced_basis_keeps_its_coordinates(catalog):
    """A Gram that LLL leaves unchanged is searched as it is, with no
    transform stored, in every dimension."""
    rng = random.Random(29)
    for lat in (catalog.lattice("A2"), zn(5), catalog.lattice("D4"),
                catalog.lattice("E8"), catalog.lattice("K12"),
                transformed(random_gram(rng, 10, spread=1),
                            unimodular(rng, 10))):
        reduced = Lattice(linalg.gram_lll(lat.gram)[0])
        assert enumeration._basis(reduced) == (reduced.gram, None)
        assert reduced._lll == (reduced.gram, None)


def test_skewed_small_basis_is_reduced(catalog):
    """Below dimension 10 too, a skewed basis is searched on its reduced
    form, and the counts are those of the lattice."""
    skewed = Lattice([[2, 3], [3, 6]])
    assert enumeration._basis(skewed)[1] is not None
    assert theta_series(skewed, 6) == theta_series(catalog.lattice("A2"), 6)


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


@pytest.mark.parametrize("dim, entries", [(2, 3), (3, 2)])
def test_a_shift_of_the_wrong_length_is_refused(dim, entries):
    with pytest.raises(ValueError, match="shift has %d entries, lattice "
                       "dimension is %d" % (entries, dim)):
        enumerate_vectors(zn(dim), 2, shift=(Fraction(1, 2),) * entries)


def test_collect_capacity_guard(catalog):
    with pytest.raises(CapacityError) as exc:
        enumerate_vectors(catalog.lattice("E8"), 4, collect=True, capacity=10)
    partial = exc.value.partial_counts
    assert partial is not None and partial.counts[0] == 1


def test_collect_capacity_is_global_across_workers(catalog, parallel):
    # E8 has 241 vectors of norm <= 2; at threads 2 as at 1 one search in
    # this process collects them, under the one capacity
    e8 = catalog.lattice("E8")
    for threads in (1, 2):
        with pytest.raises(CapacityError):
            enumerate_vectors(e8, 2, collect=True, capacity=200,
                              threads=threads)
        tc = enumerate_vectors(e8, 2, collect=True, capacity=241,
                               threads=threads)
        assert sum(len(layer) for layer in tc.layers.values()) == 241
    assert parallel == []


def test_a_collecting_sweep_starts_no_pool(catalog, parallel, monkeypatch):
    """At threads 12, on 12 cores, a collecting sweep makes no parallel
    call and starts no pool, so past its capacity its search (either one)
    hands back at most capacity + _BATCH leaves.  K12 to norm 8 at
    capacity 3,000 (57,162 estimated nodes) is a case where pooled jobs,
    each collecting up to the capacity on its own, handed back 12,601.
    A stand-in executor would run such jobs in threads of this process,
    where the count sees them."""
    import concurrent.futures
    enumeration._POOL.close()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        ThreadPoolExecutor)
    monkeypatch.setattr(enumeration, "_cores", lambda: 12)
    handed = []
    for name in ("_run", "_vector_search"):
        def search(*args, real=getattr(enumeration, name)):
            out = real(*args)
            handed.append(len(out[1][0]))
            return out
        monkeypatch.setattr(enumeration, name, search)
    k12 = catalog.lattice("K12")
    for floats in (enumeration._floats, lambda form, bound: None):
        monkeypatch.setattr(enumeration, "_floats", floats)
        with pytest.raises(CapacityError):
            enumerate_vectors(Lattice(k12.gram), 8, collect=True,
                              capacity=3000, threads=12)
        assert 0 < sum(handed) <= 3000 + enumeration._BATCH
        handed.clear()
    assert parallel == [] and enumeration._POOL.executor is None


def test_threads_must_be_positive(catalog):
    with pytest.raises(ValueError, match="threads"):
        enumerate_vectors(catalog.lattice("E8"), 2, threads=0)


def test_serial_sweep_estimates_once(catalog, monkeypatch):
    """A sweep at threads=1 estimates its nodes once, to pick its search,
    and splits nothing."""
    made, nodes = [], enumeration._nodes

    def counted(*args):
        made.append(args[1])
        return nodes(*args)
    monkeypatch.setattr(enumeration, "_nodes", counted)
    monkeypatch.setattr(enumeration, "_split", None)
    assert enumerate_vectors(catalog.lattice("E8"), 4).counts[4] == 2160
    assert made == [7]


def test_small_sweeps_stay_serial(catalog, monkeypatch):
    monkeypatch.setattr(enumeration, "_cores", lambda: 2)
    monkeypatch.setattr(enumeration, "_parallel", None)
    assert enumerate_vectors(catalog.lattice("E7"), 2, threads=2).counts[2] \
        == 126


def test_pool_size_is_capped_by_cores(monkeypatch):
    """min(threads, cores) workers, however few jobs the sweep has."""
    monkeypatch.setattr(enumeration, "PARALLEL_MIN_NODES", 0)
    form = _integer_form(zn(3).gram)

    def split(threads, cores):
        monkeypatch.setattr(enumeration, "_cores", lambda: cores)
        return enumeration._split(form, Fraction(2), True, threads)
    assert split(64, 2)[1] == 2
    assert split(3, 8)[1] == 3
    jobs, workers = split(64, 8)
    assert len(jobs) == 5 and workers == 8
    assert split(1, 8) is None


def test_pool_is_started_with_the_capped_size(catalog, parallel,
                                               monkeypatch):
    """A stand-in executor records the size asked for, and runs the jobs
    in threads of this process."""
    import concurrent.futures
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers)
    enumeration._POOL.close()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    e8 = catalog.lattice("E8")
    assert (enumerate_vectors(e8, 4, threads=64).counts
            == enumerate_vectors(e8, 4).counts)
    enumerate_vectors(e8, 6, threads=64)
    assert sizes == [2] and parallel == [2, 2]

    # on 8 cores, sweeps of 5 and 7 jobs share one pool of 8 workers
    enumeration._POOL.close()
    sizes.clear()
    monkeypatch.setattr(enumeration, "_cores", lambda: 8)
    z3 = zn(3)
    for lat, bound in ((z3, 2), (e8, 4), (z3, 2), (e8, 4)):
        assert (enumerate_vectors(lat, bound, threads=8).counts
                == enumerate_vectors(lat, bound).counts)
    assert sizes == [8] and parallel[2:] == [8] * 4


def _pool_pids():
    return {p.pid for p in multiprocessing.active_children()}


def test_pool_is_reused_across_sweeps(catalog, parallel):
    e8 = catalog.lattice("E8")
    enumerate_vectors(e8, 4, threads=2)
    pids = _pool_pids()
    assert len(pids) == 2
    enumerate_vectors(e8, 6, threads=2)
    assert _pool_pids() == pids and parallel == [2, 2]


def test_dead_worker_drops_the_pool(catalog, parallel):
    e8 = catalog.lattice("E8")
    want = enumerate_vectors(e8, 4).counts
    assert enumerate_vectors(e8, 4, threads=2).counts == want
    pids = _pool_pids()
    os.kill(min(pids), signal.SIGKILL)
    # the pool notices and stops its other worker
    deadline = time.monotonic() + 30
    while _pool_pids() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _pool_pids()
    with pytest.raises(ModLatticeError, match="worker process died"):
        enumerate_vectors(e8, 4, threads=2)
    assert enumerate_vectors(e8, 4, threads=2).counts == want
    assert len(_pool_pids()) == 2 and _pool_pids().isdisjoint(pids)


def test_node_estimate_tracks_the_search(catalog):
    """The estimate that picks serial or parallel stays within a factor
    of 4 of the nodes a plain Fincke-Pohst search visits, on every
    catalogue lattice but Leech, to its minimum-sweep bound."""
    for name in catalog.names():
        if name == "Leech":
            continue
        lat = catalog.lattice(name)
        gram = enumeration._basis(lat)[0]
        bound = enumeration._min_bound(lat)
        form = _integer_form(gram)
        est = enumeration._nodes(form, lat.dim - 1,
                                 enumeration._top(form, Fraction(bound)))
        nodes = search_nodes(gram, bound)
        assert nodes / 4 <= est <= 4 * nodes, (name, est, nodes)


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


def test_a_hand_built_rational_layer_round_trips():
    """The constructor keeps Fractions whole: rows are the vectors times
    den, the lcm of their entries' denominators, and .vectors gives back
    the given vectors with their entry types (integers, and Fractions
    where not integral, as a sweep gives them)."""
    vectors = ((Fraction(-3, 2), Fraction(1, 3), 0),
               (Fraction(1, 2), 2, Fraction(-1, 6)), (1, -1, 0))
    layer = VectorLayer(Fraction(5, 2), vectors, True, zn(3))
    assert layer.den == 6 and len(layer) == 3
    assert layer.rows.tolist() == [[-9, 2, 0], [3, 12, -1], [6, -6, 0]]
    assert layer.rows.dtype.name == "int8"
    assert not layer.rows.flags.writeable
    assert repr(layer.vectors) == repr(vectors)
    again = VectorLayer(layer.norm, layer.vectors, True, zn(3))
    assert again == layer and hash(again) == hash(layer)
    assert again != VectorLayer(layer.norm, vectors[:2], True, zn(3))
    ints = VectorLayer(2, ((1, -1), (-1, 1)), True, zn(2))
    assert ints.den == 1 and repr(ints.vectors) == "((1, -1), (-1, 1))"
    empty = VectorLayer(2, (), True, zn(3))
    assert empty.rows.shape == (0, 3) and empty.vectors == ()


def test_min_layer_after_reduction_is_in_original_coordinates(catalog):
    # the search runs on the LLL-reduced basis; the returned rows must
    # still have the right norms in the original one
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
    # a collecting call that reaches further than the kept collection
    # replaces it, and keeps (and returns) the layers already handed out
    small = enumeration.enumerate_vectors(lat, 2, collect=True)
    assert min_layer(lat) is small.layers[1]
    big = enumeration.enumerate_vectors(lat, 3, collect=True)
    assert sum(s is lat for s in swept) == 4 and lat._layers.bound == 3
    assert big.layers[1] is small.layers[1] is min_layer(lat)
    assert list(big.layers) == list(enumerate_vectors(zn(3), 3,
                                                      collect=True).layers)
    assert lat._layers.layers[3] is big.layers[3]
    # a call that does not reach further sweeps too, and keeps nothing
    again = enumeration.enumerate_vectors(lat, 2, collect=True)
    assert again.layers[1] == big.layers[1]
    assert sum(s is lat for s in swept) == 5 and lat._layers.bound == 3
