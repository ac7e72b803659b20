"""Property tests of the integer enumeration core against brute force,
and of its two searches against each other (see test_vector_search)."""
from collections import Counter
from fractions import Fraction
import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from modlattice import enumeration, linalg
from modlattice.designs import check_design
from modlattice.enumeration import VectorLayer, enumerate_vectors
from modlattice.errors import (CapacityError, DefinitenessError,
                               ModLatticeError)
from modlattice.lattice import Lattice, inner, rescale
from oracles import box_counts, finalize_layers, search_nodes
from test_enumeration import transformed, unimodular
from test_vector_search import same_searches, searched_form

BOX_LIMIT = 5000


def _key(x):
    return int(x) if x.denominator == 1 else x


@st.composite
def lattices(draw, rational):
    """A^T A for a random square A, integral or with denominators 1-3."""
    n = draw(st.integers(2, 5))
    dens = st.sampled_from((1, 2, 3)) if rational else st.just(1)
    a = [[Fraction(draw(st.integers(-2, 2)), draw(dens)) for _ in range(n)]
         for _ in range(n)]
    gram = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    try:
        return Lattice(gram)
    except DefinitenessError:
        assume(False)


@st.composite
def shifts(draw, n):
    den = draw(st.sampled_from((2, 3, 6)))
    return tuple(Fraction(draw(st.integers(0, den - 1)), den)
                 for _ in range(n))


def _box(lat, bound, shift):
    """Coordinate ranges that hold every x + shift of norm <= bound.

    A coordinate y_i of a vector of norm <= b satisfies y_i^2 <= b g^ii,
    with g^ii the diagonal of the inverse Gram.
    """
    inv = linalg.inverse(lat.gram)
    out = []
    for i in range(lat.dim):
        lim = math.isqrt(math.floor(bound * inv[i][i])) + 1
        out.append(range(math.floor(-lim - shift[i]),
                         math.ceil(lim - shift[i]) + 1))
    assume(math.prod(len(r) for r in out) <= BOX_LIMIT)
    return out


def coset_scan(lat, bound, shift):
    counts = Counter()
    for x in itertools.product(*_box(lat, bound, shift)):
        y = [xi + si for xi, si in zip(x, shift)]
        nrm = inner(lat.gram, y, y)
        if nrm <= bound:
            counts[_key(Fraction(nrm))] += 1
    return dict(counts)


bounds = st.fractions(min_value=0, max_value=6, max_denominator=6)
cheap = settings(max_examples=60, deadline=None)


@cheap
@given(st.data(), st.booleans(), bounds)
def test_counts_match_box_scan(data, rational, bound):
    lat = data.draw(lattices(rational))
    _box(lat, bound, (0,) * lat.dim)
    assert enumerate_vectors(lat, bound).counts == box_counts(lat, bound)
    same_searches(searched_form(lat), bound, True)


@cheap
@given(st.data(), st.booleans(), bounds)
def test_coset_counts_match_brute_force(data, rational, bound):
    lat = data.draw(lattices(rational))
    shift = data.draw(shifts(lat.dim))
    tc = enumerate_vectors(lat, bound, shift=shift)
    assert tc.counts == coset_scan(lat, bound, shift)
    assert tc.shift == shift
    same_searches(searched_form(lat, shift), bound, False)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_both_searches_collect_the_same_layers(data, rational, shifted):
    lat = data.draw(lattices(rational))
    shift = data.draw(shifts(lat.dim)) if shifted else None
    bound = max(lat.gram[i][i] for i in range(lat.dim))
    one = enumerate_vectors(lat, bound, shift=shift, collect=True)
    with pytest.MonkeyPatch.context() as mp:    # _run collects
        mp.setattr(enumeration, "_floats", lambda form, bound: None)
        two = enumerate_vectors(lat, bound, shift=shift, collect=True)
    assert list(two.counts.items()) == list(one.counts.items())
    assert list(two.layers) == list(one.layers)
    same_searches(searched_form(lat, shift), bound, shift is None)
    base = shift or (0,) * lat.dim
    for norm, layer in one.layers.items():
        assert two.layers[norm].vectors == layer.vectors
        assert len(layer) == one.counts[norm]
        for v in layer.vectors:
            assert lat.norm(v) == norm
            assert all(Fraction(vi - si).denominator == 1
                       for vi, si in zip(v, base))


@cheap
@given(st.data(), st.booleans(), st.integers(1, 3))
def test_node_estimate_within_factor_four(data, rational, scale):
    """The schedule's estimate against the nodes of a plain Fincke-Pohst
    search, for bounds of 1-3 times the largest diagonal entry."""
    lat = data.draw(lattices(rational))
    bound = scale * max(lat.gram[i][i] for i in range(lat.dim))
    form = enumeration._integer_form(lat.gram)
    est = enumeration._nodes(form, lat.dim - 1,
                             enumeration._top(form, bound))
    nodes = search_nodes(lat.gram, bound)
    assert nodes / 4 <= est <= 4 * nodes


@settings(max_examples=60, deadline=None)
@given(st.data(), st.booleans(), st.booleans(),
       st.fractions(min_value=0, max_value=3, max_denominator=4),
       st.integers(2, 8), st.sampled_from((1, 10, 100, 10 ** 3, 2 * 10 ** 5)))
def test_split_runs_cover_the_prefixes_in_order(data, rational, shifted,
                                                scale, workers, run_nodes):
    """_split to `scale` times the largest diagonal entry, on `workers`
    cores with runs of `run_nodes` estimated nodes, makes
    n = min(#prefixes, max(workers, cost // run_nodes)) cut points by
    cumulative cost: its runs are contiguous, in DFS order, and cover
    every prefix once; there are n of them when no prefix costs as much
    as cost / n, and at least 2 (else the sweep is serial); and their
    merged counts are the whole _run's, in its key order."""
    lat = data.draw(lattices(rational))
    shift = data.draw(shifts(lat.dim)) if shifted else None
    form, canonical = searched_form(lat, shift), shift is None
    bound = scale * max(lat.gram[i][i] for i in range(lat.dim))
    assume(enumeration._floats(form, bound) is not None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_cores", lambda: workers)
        mp.setattr(enumeration, "RUN_NODES", run_nodes)
        split = enumeration._split(form, bound, canonical, workers)
    prefixes = enumeration._prefixes(form, enumeration._top(form, bound),
                                     canonical)
    top = len(form.rows) - 1
    below = top - 2 if top >= 2 else top - 1
    cost = [1 + enumeration._nodes(form, below, r) for _, _, r in prefixes]
    nruns = min(len(prefixes), max(workers, int(sum(cost) // run_nodes)))
    # no prefix spans a whole run (the margin absorbs float rounding)
    even = nruns and max(cost) < sum(cost) / nruns * (1 - 1e-9)
    if split is None:
        assert nruns < 2 or not even
        return
    jobs, got_workers = split
    assert got_workers == workers and 2 <= len(jobs) <= nruns
    if even:
        assert len(jobs) == nruns
    index = {(x, y): i for i, (x, y, _) in enumerate(prefixes)}
    start = 0
    for (x0, x1), inner in jobs:
        y0, y1 = inner or (None, None)
        assert index[x0, y0] == start
        start = index[x1, y1] + 1
    assert start == len(prefixes)
    merged = enumeration._merge(
        enumeration._vector_search(form, bound, False, None, outer, inner,
                                   canonical) for outer, inner in jobs)
    want = enumeration._run(form, bound, False, None, canonical)
    assert list(merged[0].items()) == list(want[0].items())


@st.composite
def rebased(draw):
    """A seeded unimodular rebasing of A_n, D_n or Z^n (n = 10-12), scaled
    by 1, 1/2 or 1/3, that LLL does not leave as it is."""
    n = draw(st.integers(10, 12))
    kind = draw(st.sampled_from("ADZ"))
    off = {"A": -1, "D": -1, "Z": 0}[kind]
    gram = [[1 + (kind != "Z") if i == j else off * (abs(i - j) == 1)
             for j in range(n)] for i in range(n)]
    if kind == "D":         # the fork of D_n at its first node
        gram[0][1] = gram[1][0] = 0
        gram[0][2] = gram[2][0] = -1
    rng = draw(st.randoms(use_true_random=False))
    lat = rescale(transformed(Lattice(gram), unimodular(rng, n, 30)),
                  Fraction(1, draw(st.sampled_from((1, 2, 3)))))
    assume(enumeration._basis(lat)[1] is not None)
    return lat


def _same_layers(got, want):
    """The same norms in the same order as the oracle's vectors, the same
    vectors in the same order with the same entry types, and the kept
    rows equal to them times den, the lcm of their entries'
    denominators."""
    np = linalg.load_numpy()
    assert list(got) == list(want)
    for norm, vectors in want.items():
        mine = got[norm]
        assert mine.norm == norm and mine.complete
        assert repr(mine.vectors) == repr(vectors)
        den = math.lcm(*(Fraction(v).denominator for x in vectors for v in x))
        rows = mine.rows
        assert mine.den == den
        assert rows.tolist() == [[v * den for v in x] for x in vectors]
        assert not rows.flags.writeable
        top = max((abs(v) * den for x in vectors for v in x), default=0)
        narrow = [t for t in (np.int8, np.int16, np.int32, np.int64)
                  if top <= np.iinfo(t).max][0]
        assert rows.dtype == narrow


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(("integral", "rational", "rebased")),
       st.booleans())
def test_finalized_layers_equal_the_tuple_oracle(data, kind, shifted):
    """The array finalisation against one Python integer at a time, on
    small integral and rational Grams and on LLL-transformed forms of
    dimension 10-12, with and without shifts of denominator 2, 3 or 6;
    the vector search and _run give the same layers.  An unshifted
    layer other than the origin's is -H reversed followed by H, H its
    rows whose first nonzero is positive."""
    lat = data.draw(rebased() if kind == "rebased"
                    else lattices(kind == "rational"))
    shift = data.draw(shifts(lat.dim)) if shifted else None
    bound = max(lat.gram[i][i] for i in range(lat.dim))
    bound = data.draw(st.sampled_from((bound, bound / 2, 2 * bound)))
    seen = []
    real = enumeration._finalize_layers

    def both(*args):
        seen.append(finalize_layers(*args))
        return real(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_finalize_layers", both)
        try:
            one = enumerate_vectors(lat, bound, shift=shift, collect=True,
                                    capacity=3000)
        except CapacityError:
            assume(False)
        mp.setattr(enumeration, "_floats", lambda form, bound: None)
        two = enumerate_vectors(lat, bound, shift=shift, collect=True)
    _same_layers(one.layers, seen[0])
    _same_layers(two.layers, seen[0])
    same_searches(searched_form(lat, shift), bound, shift is None)
    for norm, layer in one.layers.items():
        if shift is None and norm:
            rows = layer.rows.tolist()
            assert rows[::-1] == [[-v for v in x] for x in rows]
            assert all(next(v for v in x if v) > 0
                       for x in rows[len(rows) // 2:])


def _design(layer):
    """check_design at strength 4, or the refusal."""
    try:
        return check_design(layer, 4)
    except ModLatticeError as exc:
        return str(exc)


@cheap
@given(st.data(), st.booleans(), st.booleans())
def test_hand_built_layers_equal_swept_ones(data, rational, shifted):
    """A layer built by hand from a swept layer's vectors has the same
    rows (values and dtype) and den, equals it, and gets the same design
    report or the same refusal (a rational Gram, a coset, the origin)."""
    lat = data.draw(lattices(rational))
    shift = data.draw(shifts(lat.dim)) if shifted else None
    bound = max(lat.gram[i][i] for i in range(lat.dim))
    try:
        tc = enumerate_vectors(lat, bound, shift=shift, collect=True,
                               capacity=3000)
    except CapacityError:
        assume(False)
    for norm, swept in tc.layers.items():
        hand = VectorLayer(norm, swept.vectors, True, lat)
        assert hand.den == swept.den
        assert hand.rows.dtype == swept.rows.dtype
        assert hand.rows.tolist() == swept.rows.tolist()
        assert hand == swept and hash(hand) == hash(swept)
        assert _design(hand) == _design(swept)
