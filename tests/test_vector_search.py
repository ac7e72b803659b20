"""The numpy search (_vector_search) against the Python scan (_run).

Both are called directly on the same integer form, with no threshold
involved: the vector search, whole (and count-only also merged over the
prefix runs of a parallel split), must give the whole scan's counts in
the same key order and the same collected leaves, and past a capacity
the same partial counts.  The forms are chosen where float pruning is
most at risk: spheres crowded with vectors exactly at the bound, huge
Gram entries and skewed, unreduced bases.
"""
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
import math
import random

import pytest

from modlattice import enumeration, linalg
from modlattice.enumeration import _integer_form, enumerate_vectors
from modlattice.lattice import Lattice, dual, rescale, zn
from test_enumeration import _same_sweep, transformed, unimodular


def searched_form(lat, shift=None):
    """The integer form that enumerate_vectors searches for lat + shift."""
    gram, u = enumeration._basis(lat)
    if shift is not None and u is not None:
        shift = linalg.solve(u, shift)
    return _integer_form(gram, shift)


def same_searches(form, bound, canonical, capacity=None):
    """_vector_search against the whole _run: count-only, whole and merged
    (_merge) over the runs of a two-worker split as fine as its costs
    allow (RUN_NODES = 1: one cut point per prefix), the same counts in
    the same key order; collecting, whole, the same counts and leaves, and up
    to capacity (by default half the vectors, so that it is passed) the
    same partial counts (_cut), as the searches stop at different points
    past the leaf that passes it.  Returns the counts by key."""
    bound = Fraction(bound)
    assert enumeration._floats(form, bound) is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_cores", lambda: 2)
        mp.setattr(enumeration, "RUN_NODES", 1)
        split = enumeration._split(form, bound, canonical, 2)

    def searches(collect, cap):
        yield enumeration._vector_search(form, bound, collect, cap, None,
                                         None, canonical)
        if split and not collect:
            yield enumeration._merge(
                enumeration._vector_search(form, bound, False, None, outer,
                                           inner, canonical)
                for outer, inner in split[0])

    def cut(counts, leaves, cap):
        return list(enumeration._cut(counts, leaves[0], cap,
                                     canonical).items())

    def both(collect, cap):
        want = enumeration._run(form, bound, collect, cap, canonical)
        for got in searches(collect, cap):
            if collect and sum(want[0].values()) > cap:
                assert sum(got[0].values()) > cap
                assert cut(*got, cap) == cut(*want, cap)
                continue
            assert list(got[0].items()) == list(want[0].items())
            if collect:
                for mine, theirs in zip(got[1], want[1]):
                    assert mine.dtype == theirs.dtype
                    assert mine.shape == theirs.shape
                    assert mine.tolist() == theirs.tolist()
            else:
                assert got[1] is None and want[1] is None
        return want[0]

    counts = both(False, None)
    total = sum(counts.values())
    both(True, total)
    both(True, total // 2 if capacity is None else capacity)
    return counts


def a_n(n):
    return Lattice([[2 if i == j else -(abs(i - j) == 1) for j in range(n)]
                    for i in range(n)])


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_integer_spheres_crowded_at_the_bound(n):
    """Z^n at integer bounds, and its half-integer coset at n/4, where
    every vector of the coset lies on one sphere."""
    form = _integer_form(zn(n).gram)
    for bound in [b for b in (1, 2, 3, 4) if b <= n or b == 4]:
        counts = same_searches(form, bound, True)
        assert counts[form.scale * bound] > 0
    half = _integer_form(zn(n).gram, (Fraction(1, 2),) * n)
    assert same_searches(half, Fraction(n, 4), False) == {
        half.scale * n // 4: 2 ** n}


@pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
@pytest.mark.parametrize("scale", [1, Fraction(1, 2), Fraction(1, 3)])
def test_scaled_root_lattices_at_their_norms(n, scale):
    """A_n scaled by 1, 1/2 and 1/3: mu_kj = -k/(k+1) and b_k = (k+1)/k
    are not dyadic, so every float is rounded, and the bounds are norms
    of the lattice, so many vectors sit exactly on the sphere; also a
    coset of A_n / 3."""
    lat = rescale(a_n(n), scale)
    form = _integer_form(lat.gram)
    for norm in (2, 4, 6) if n > 2 else (2, 6):
        counts = same_searches(form, norm * scale, True)
        assert counts[form.scale * norm * scale] > 0
    shift = tuple(Fraction(i % 3, 3) for i in range(n))
    same_searches(_integer_form(lat.gram, shift), 4 * scale, False)


@pytest.mark.parametrize("big", [2 ** 40, 2 ** 60])
def test_huge_gram_entries(catalog, big):
    """E8 and D4 times 2^40 (or 2^60), perturbed on the diagonal, at
    bounds that take their minimal and next layers: exact values Y.(cG).Y
    of 2^44 and more, past float64 for 2^60."""
    for name, norms in (("E8", (2, 4)), ("D4", (2, 4, 6))):
        gram = [[big * v + (i + 1) * (i == j)
                 for j, v in enumerate(row)]
                for i, row in enumerate(catalog.lattice(name).gram)]
        form = _integer_form(gram)
        for norm in norms:
            counts = same_searches(form, norm * big + big // 2, True)
            assert sum(counts.values()) > 1


def test_skewed_unreduced_forms(catalog):
    """Forms searched as given, with no LLL: large mu, wide levels."""
    rng = random.Random(41)
    for name, bound in (("E8", 2), ("D4", 4), ("K12", 4)):
        lat = catalog.lattice(name)
        for steps in (8, 16):
            skewed = transformed(lat, unimodular(rng, lat.dim, steps))
            form = _integer_form(skewed.gram)
            assert max(abs(v) for row in skewed.gram for v in row) > 20
            same_searches(form, bound, True)
            shift = (Fraction(1, 2),) + (0,) * (lat.dim - 1)
            same_searches(_integer_form(skewed.gram, shift), bound, False)


@pytest.mark.parametrize("batch", [1, 7, 100])
def test_batches_of_any_size_give_the_same_leaves(catalog, monkeypatch,
                                                  batch):
    """Small _BATCH values split nodes and single nodes' children into
    many expansions; the depth-first order of the leaves is kept."""
    monkeypatch.setattr(enumeration, "_BATCH", batch)
    same_searches(_integer_form(zn(1).gram), 400, True)
    same_searches(_integer_form(zn(1).gram, (Fraction(1, 3),)), 400, False)
    same_searches(_integer_form(a_n(2).gram), 60, True)
    same_searches(searched_form(catalog.lattice("E8")), 4, True)
    shift = (Fraction(1, 2),) * 4
    same_searches(searched_form(catalog.lattice("D4"), shift), 5, False)


@pytest.mark.parametrize("gram, bound", [
    # b_1 = 10^160 is past the 2^500 that the error bound allows
    ([[1, 0], [0, 10 ** 160]], 4 * 10 ** 160),
    # mu_01 = 2^60: the coordinates of the search pass 2^50
    ([[1, 2 ** 60], [2 ** 60, 2 ** 120 + 1]], 9),
])
def test_a_failed_check_runs_the_python_scan(parallel, monkeypatch, gram,
                                             bound):
    """A form that fails _floats' check is collected whole by _run in this
    process, at threads 1 and 2, with both constants at 0."""
    form, bound = _integer_form(gram), Fraction(bound)
    assert enumeration._floats(form, bound) is None
    want = enumeration._run(form, bound, True, 100, True)
    calls, run = [], enumeration._run

    def counted(*args):
        calls.append(args)
        return run(*args)
    monkeypatch.setattr(enumeration, "_run", counted)
    monkeypatch.setattr(enumeration, "_vector_search", None)
    monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", 0)
    for threads in (1, 2):
        got = enumeration._sweep(form, bound, True, 100, True, threads)
        assert calls == [(form, bound, True, 100, True)]
        calls.clear()
        assert sum(got[0].values()) > 1
        assert list(got[0].items()) == list(want[0].items())
        assert all(a.tolist() == b.tolist() for a, b in zip(got[1], want[1]))
    assert parallel == []


def searches_used(monkeypatch):
    """The names of the searches called from now on, in call order."""
    used = []
    for name in ("_run", "_vector_search"):
        def search(*args, name=name, real=getattr(enumeration, name)):
            used.append(name)
            return real(*args)
        monkeypatch.setattr(enumeration, name, search)
    return used


def test_the_estimate_picks_the_search(catalog, monkeypatch):
    """_sweep runs _vector_search from VECTOR_MIN_NODES on, else _run."""
    used = searches_used(monkeypatch)
    e8 = catalog.lattice("E8")
    form = searched_form(e8)
    nodes = enumeration._nodes(form, 7, enumeration._top(form, Fraction(4)))
    for threshold, want in ((nodes, "_vector_search"),
                            (nodes + 1, "_run")):
        monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", threshold)
        assert enumerate_vectors(Lattice(e8.gram), 4).counts[4] == 2160
        assert used.pop() == want and not used
    assert enumeration.VECTOR_MIN_NODES > 0


def test_the_pool_runs_only_the_vector_search(catalog, parallel,
                                              monkeypatch):
    """Count-only sweeps below VECTOR_MIN_NODES at threads 2 go to the
    pool, whose runs (in threads of this process, so that the patches
    reach them) call only _vector_search and give the serial _run's
    counts in its key order.  A collecting sweep, at threads 1 or 2, runs
    _vector_search once in this process."""
    import concurrent.futures
    enumeration._POOL.close()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        ThreadPoolExecutor)
    used = searches_used(monkeypatch)
    e8 = catalog.lattice("E8")
    form = searched_form(e8)
    assert (enumeration._nodes(form, 7, enumeration._top(form, Fraction(8)))
            < enumeration.VECTOR_MIN_NODES)
    for bound, collect in ((8, False), (4, True)):
        serial = enumerate_vectors(Lattice(e8.gram), bound, collect=collect)
        assert used == ["_vector_search" if collect else "_run"]
        used.clear()
        pooled = enumerate_vectors(Lattice(e8.gram), bound, collect=collect,
                                   threads=2)
        if collect:
            assert used == ["_vector_search"]
        else:
            assert set(used) == {"_vector_search"} and len(used) > 1
        used.clear()
        assert list(pooled.counts.items()) == list(serial.counts.items())
        if collect:
            assert all(pooled.layers[k] == v for k, v in serial.layers.items())
    assert parallel == [2]


def test_vector_search_through_the_pool(catalog, parallel, monkeypatch):
    """With VECTOR_MIN_NODES infinite, a count-only theta series from the
    pool's vector search equals the serial _run's.  Collecting sweeps at
    threads 2 stay in this process and still run the vector search, which
    gives _run's counts, layers and CapacityError partial counts, shifted
    and rational too."""
    monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", math.inf)
    k12 = catalog.lattice("K12")
    shift = (Fraction(1, 3), Fraction(1, 2)) + (0,) * 10
    cases = [(k12, 8, None, cap) for cap in (7, 3000, 10 ** 7)]
    cases += [(dual(k12), Fraction(8, 3), shift, cap) for cap in (7, 10 ** 7)]
    for lat, bound, shift, cap in cases:
        _same_sweep(lat, bound, shift, cap, threads=2)
    pooled = enumeration.theta_series(Lattice(k12.gram), 11, threads=2)
    assert pooled == enumeration.theta_series(Lattice(k12.gram), 11)
    assert parallel == [2]
