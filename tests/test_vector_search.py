"""The numpy search (_vector_search) against the Python scan (_run).

Both are called directly on the same integer form, with no threshold
involved, and must give the same counts in the same key order and the same
collected leaves, whole, on each prefix run of a parallel split and cut at
a capacity.  The forms are chosen where float pruning is most at risk:
spheres crowded with vectors exactly at the bound, huge Gram entries and
skewed, unreduced bases.
"""
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
    """Both searches on form, compared: count-only and collecting, whole
    and on each run of a two-worker split, and collecting up to capacity
    (by default half the vectors, so that the cut is taken).  Returns the
    counts by key."""
    bound = Fraction(bound)
    assert enumeration._floats(form, bound) is not None

    def both(collect, cap, outer=None, inner=None):
        args = (form, bound, collect, cap, outer, inner, canonical)
        want = enumeration._run(*args)
        got = enumeration._vector_search(*args)
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
    cut = total // 2 if capacity is None else capacity
    both(True, cut)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_cores", lambda: 2)
        split = enumeration._split(form, bound, canonical, 2)
    for outer, inner in split[0] if split else ():
        both(False, None, outer, inner)
        both(True, cut, outer, inner)
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
def test_a_failed_check_runs_the_python_scan(monkeypatch, gram, bound):
    form, bound = _integer_form(gram), Fraction(bound)
    assert enumeration._floats(form, bound) is None
    want = enumeration._run(form, bound, True, 100, None, None, True)
    calls, run = [], enumeration._run

    def counted(*args):
        calls.append(args)
        return run(*args)
    monkeypatch.setattr(enumeration, "_run", counted)
    got = enumeration._vector_search(form, bound, True, 100, None, None, True)
    assert len(calls) == 1 and sum(got[0].values()) > 1
    assert list(got[0].items()) == list(want[0].items())
    assert all(a.tolist() == b.tolist() for a, b in zip(got[1], want[1]))


def test_the_estimate_picks_the_search(catalog, monkeypatch):
    """_sweep runs _vector_search from VECTOR_MIN_NODES on, else _run."""
    used = []

    def counted(name):
        real = getattr(enumeration, name)

        def search(*args):
            used.append(name)
            return real(*args)
        monkeypatch.setattr(enumeration, name, search)
    counted("_run")
    counted("_vector_search")
    e8 = catalog.lattice("E8")
    form = searched_form(e8)
    nodes = enumeration._nodes(form, 7, enumeration._top(form, Fraction(4)))
    for threshold, want in ((nodes, "_vector_search"),
                            (nodes + 1, "_run")):
        monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", threshold)
        assert enumerate_vectors(Lattice(e8.gram), 4).counts[4] == 2160
        assert used.pop() == want and not used
    assert enumeration.VECTOR_MIN_NODES > 0


def test_vector_search_through_the_pool(catalog, parallel, monkeypatch):
    """With every sweep on the vector search, serial and 2-worker sweeps
    give _run's counts, layers and CapacityError partial counts, shifted
    and rational too; count-only theta series as well."""
    k12 = catalog.lattice("K12")
    shift = (Fraction(1, 3), Fraction(1, 2)) + (0,) * 10
    cases = [(k12, 8, None, cap) for cap in (7, 3000, 10 ** 7)]
    cases += [(dual(k12), Fraction(8, 3), shift, cap) for cap in (7, 10 ** 7)]
    for lat, bound, shift, cap in cases:
        monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", math.inf)
        want = _same_sweep(lat, bound, shift, cap)
        monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", 0)
        assert _same_sweep(lat, bound, shift, cap) == want
    pooled = enumeration.theta_series(Lattice(k12.gram), 11, threads=2)
    monkeypatch.setattr(enumeration, "VECTOR_MIN_NODES", math.inf)
    assert pooled == enumeration.theta_series(Lattice(k12.gram), 11)
    assert len(parallel) == 2 * len(cases) + 1
