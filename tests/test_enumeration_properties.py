"""Property tests of the integer enumeration core against brute force."""
from collections import Counter
from fractions import Fraction
import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from modlattice import enumeration, linalg
from modlattice.enumeration import enumerate_vectors
from modlattice.errors import DefinitenessError
from modlattice.lattice import Lattice, inner
from oracles import box_counts, search_nodes

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


@cheap
@given(st.data(), st.booleans(), bounds)
def test_coset_counts_match_brute_force(data, rational, bound):
    lat = data.draw(lattices(rational))
    shift = data.draw(shifts(lat.dim))
    tc = enumerate_vectors(lat, bound, shift=shift)
    assert tc.counts == coset_scan(lat, bound, shift)
    assert tc.shift == shift


@settings(max_examples=20, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_two_workers_equal_one(data, rational, shifted):
    lat = data.draw(lattices(rational))
    shift = data.draw(shifts(lat.dim)) if shifted else None
    bound = max(lat.gram[i][i] for i in range(lat.dim))
    one = enumerate_vectors(lat, bound, shift=shift, collect=True)
    with pytest.MonkeyPatch.context() as mp:    # small sweeps to the pool
        mp.setattr(enumeration, "PARALLEL_MIN_NODES", 0)
        mp.setattr(enumeration, "_cores", lambda: 2)
        two = enumerate_vectors(lat, bound, shift=shift, collect=True,
                                threads=2)
    assert list(two.counts.items()) == list(one.counts.items())
    assert list(two.layers) == list(one.layers)
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
