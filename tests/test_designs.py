"""Design strength, perfection, eutaxy and harmonic theta series."""
from fractions import Fraction
import json
import math
import random
import re
import time
import tracemalloc
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from modlattice import designs, enumeration, linalg
from modlattice import lattice as lattice_module
from modlattice.designs import (DesignTestConfig, EUTACTIC_CERT,
                                NOT_EUTACTIC, STRONGLY_EUTACTIC,
                                check_design, coxeter_identity_check,
                                coxeter_number, design_constant,
                                double_factorial_odd, eutaxy_check,
                                even_min_lower_bound,
                                harmonic_theta_truncation, is_perfect,
                                is_strongly_perfect, min_product_check,
                                perfection_rank, predicted_design_strength,
                                zonal_harmonic)
from modlattice.enumeration import (VectorLayer, enumerate_vectors,
                                    min_layer, minimum, theta_series,
                                    window_bound)
from modlattice.errors import (CapacityError, DefinitenessError,
                               ModLatticeError)
from modlattice.isometry import ISOMETRIC, find_isometry
from modlattice.lattice import (Lattice, bundled_catalog, direct_sum, dual,
                                inner, load_catalog, rescale, zn)
from modlattice.modular import (check_extremal, default_level,
                               transformation_check)
from modlattice.qseries import delta_level
from modlattice.report import FAIL, PASS
from modlattice.shadow import shadow_coset
from oracles import (finalize_layers, moment_tensor_test, pair_histogram,
                     projector_rank)
from test_cli import _python
from test_enumeration import count_sweeps, transformed, unimodular

import numpy as np


def test_double_factorial_and_design_constant():
    assert [double_factorial_odd(k) for k in range(1, 6)] == [1, 3, 15, 105, 945]
    # 240 roots of norm 2 in dim 8
    assert design_constant(8, 1, 240, 2) == 60
    assert design_constant(8, 2, 240, 2) == 36


def test_row_tally_power_sums_against_direct_loop():
    """The power sums of one row's tally, against the 1 x 1 Gram (1), are
    the power sums of the column values."""
    dots = np.array([3, -1, -1, 0, 2, 3, -4])
    want = {d: sum(int(x) ** d for x in dots) for d in (1, 2, 3, 6)}
    tally, = designs._row_tallies([[1]], np.array([[1]]), dots[:, None])
    assert {d: designs._power_sum(tally, d) for d in want} == want


def _recompute(layer, witness):
    """sum over the layer of (x, a)^degree at the witness direction a."""
    a, d = witness["direction"], witness["degree"]
    g = layer.lattice.gram
    return sum(inner(g, x, a) ** d for x in layer.vectors)


def test_square_vertices_are_a_3_design_not_4():
    lay = min_layer(zn(2))
    assert check_design(lay, 3).verdict == PASS
    rep = check_design(lay, 4)
    assert rep.verdict == FAIL and rep.details["proof"]
    w = rep.witnesses
    assert w["degree"] == 4
    assert w["direction"] in [list(v) for v in lay.vectors]
    # recompute the failing moment from the witness direction
    lhs = _recompute(lay, w)
    assert lhs == w["lhs"] and lhs != w["rhs"]
    assert w["rhs"] == design_constant(2, 2, 4, 1)     # (a, a) = 1


def test_failure_direction_recomputes_on_d4(catalog):
    lay = min_layer(catalog.lattice("D4"))
    rep = check_design(lay, 6)
    assert rep.details["degrees"] == {2: PASS, 4: PASS, 6: FAIL}
    w = rep.witnesses
    assert w["degree"] == 6
    assert w["direction"] == list(lay.vectors[0])
    a = w["direction"]
    lhs = _recompute(lay, w)
    assert lhs == w["lhs"] != w["rhs"]
    aa = inner(lay.lattice.gram, a, a)
    assert w["rhs"] == design_constant(4, 3, 24, 2) * aa ** 3


def test_layer_guards():
    lay = min_layer(zn(2))
    with pytest.raises(ModLatticeError):
        check_design(VectorLayer(lay.norm, lay.vectors, True, None), 2)
    with pytest.raises(ModLatticeError):
        check_design(VectorLayer(lay.norm, lay.vectors, False, lay.lattice), 2)
    with pytest.raises(ModLatticeError):
        check_design(VectorLayer(1, ((1, 0), (0, 1)), True, zn(2)), 2)
    # an empty layer is a design of every strength, vacuously
    assert check_design(VectorLayer(2, (), True, zn(3)), 3).verdict == PASS


def test_design_tests_refuse_a_coset_layer():
    """A coset layer (entries over 2), swept or built by hand, is refused
    by name instead of being read with its entries truncated: the norm-3
    layer of Z^4 + (1/2, 1/2, 1/2, 1/2) and the norm-3/4 layer of the
    shadow of Z^3."""
    half = Fraction(1, 2)
    four = enumerate_vectors(dual(zn(4)), 3, shift=(half,) * 4,
                             collect=True).layers[3]
    dl, shift = shadow_coset(zn(3))
    three = enumerate_vectors(dl, Fraction(3, 4), shift=shift,
                              collect=True).layers[Fraction(3, 4)]
    assert (len(four), len(three)) == (64, 8)
    for layer in (four, three):
        assert layer.den == 2
        hand = VectorLayer(layer.norm, layer.vectors, True, layer.lattice)
        for lay in (layer, hand):
            with pytest.raises(ModLatticeError, match="coset"):
                check_design(lay, 2)


_AXIS = [(1, 0), (-1, 0)]
_HALF = Fraction(1, 2)
_BAD_LAYERS = {
    "no lattice": (lambda: VectorLayer(1, _AXIS, True),
                   "layer carries no lattice reference"),
    "incomplete": (lambda: VectorLayer(1, _AXIS, False, zn(2)),
                   "layer is not complete"),
    "not integral": (lambda: VectorLayer(_HALF, _AXIS, True,
                                         rescale(zn(2), _HALF)),
                     "design tests need an integral lattice"),
    "coset": (lambda: VectorLayer(_HALF, [(_HALF, _HALF), (-_HALF, -_HALF)],
                                  True, zn(2)),
              "layer lies in a coset of the lattice (entries over 2); "
              "design tests need lattice vectors"),
    "not antipodal": (lambda: VectorLayer(1, [(1, 0), (0, 1)], True, zn(2)),
                      "layer is not antipodal"),
}


@pytest.mark.parametrize("strength", [0, 2])
@pytest.mark.parametrize("bad", sorted(_BAD_LAYERS))
def test_design_tests_refuse_a_bad_layer(bad, strength):
    """Each premise of a layer certificate is refused by its own message,
    before any degree is tested; a lattice that is not integral is refused
    by perfection_rank and eutaxy_check too."""
    make, message = _BAD_LAYERS[bad]
    with pytest.raises(ModLatticeError, match="^%s$" % re.escape(message)):
        check_design(make(), strength)
    if bad == "not integral":
        for cert in (perfection_rank, eutaxy_check):
            with pytest.raises(ModLatticeError,
                               match="^%s$" % re.escape(message)):
                cert(rescale(zn(2), _HALF))


def test_moment_tensor_e8_roots(catalog):
    lay = min_layer(catalog.lattice("E8"))
    for two_k in (2, 4, 6):
        rep = moment_tensor_test(lay, two_k)
        assert rep.verdict == PASS and rep.details["proof"]
    assert moment_tensor_test(lay, 2).details["entries"] == 36   # C(9,2)


def test_moment_tensor_d4_roots_fail_at_degree_six(catalog):
    lay = min_layer(catalog.lattice("D4"))
    assert moment_tensor_test(lay, 4).verdict == PASS
    rep = moment_tensor_test(lay, 6)
    assert rep.verdict == FAIL
    w = rep.witnesses
    assert w["monomial"] == [0, 0, 0, 0, 0, 0]
    # moment in y = Gx coordinates; denominator n(n+2)(n+4) = 192
    g = lay.lattice.gram
    lhs = sum(sum(v[i] * g[i][0] for i in range(4)) ** 6
              for v in lay.vectors)
    assert w["lhs_times_denominator"] == lhs * 192
    assert w["lhs_times_denominator"] != w["rhs_times_denominator"]


def test_moment_tensor_block_size_does_not_matter(catalog):
    lay = min_layer(catalog.lattice("D4"))
    a = moment_tensor_test(lay, 4, block_columns=3)
    b = moment_tensor_test(lay, 4)
    assert (a.verdict, a.details["entries"]) == (b.verdict, b.details["entries"])


def test_check_design_e8_seven_not_eight(catalog):
    lay = min_layer(catalog.lattice("E8"))
    rep = check_design(lay, 7)
    assert rep.verdict == PASS and rep.details["proof"]
    assert rep.details["degrees"] == {2: PASS, 4: PASS, 6: PASS}
    rep8 = check_design(lay, 8, DesignTestConfig(seed=7))
    assert rep8.verdict == FAIL and rep8.details["proof"]
    assert rep8.details["degrees"][8] == FAIL
    assert rep8.witnesses["degree"] == 8
    assert "seed" not in rep8.to_dict()
    assert rep8 == check_design(lay, 8)


def test_reports_are_values(catalog):
    """Every certificate kind gives equal reports on two fresh copies of
    a lattice, with exactly the five report keys and no timing; a passing
    design report has no witness, as [] like every other certificate."""
    def fresh(name):
        return Lattice(catalog.lattice(name).gram)

    runs = {
        "design": lambda: check_design(min_layer(fresh("E8")), 8),
        "strongly perfect": lambda: is_strongly_perfect(fresh("E8")),
        "eutaxy": lambda: eutaxy_check(fresh("E8")),
        "min product": lambda: min_product_check(fresh("E8")),
        "coxeter identity": lambda: coxeter_identity_check(fresh("E8")),
        "extremal": lambda: check_extremal(fresh("D4")),
        "extremal odd": lambda: check_extremal(fresh("D12plus")),
        "transformation": lambda: transformation_check(fresh("A2"), 2),
    }
    for kind, run in runs.items():
        first = run()
        assert first == run(), kind
        assert set(first.to_dict()) == {"check", "verdict", "inputs",
                                        "details", "witnesses"}, kind
    assert check_design(min_layer(fresh("E8")), 7).witnesses == []


def _tensor_parity_layers(catalog):
    """Every catalogue minimal layer but Leech's, and the E8 and K12
    shells up to norm 8."""
    for entry in catalog:
        if entry.name != "Leech":
            yield entry.name, min_layer(entry.lattice)
    for name in ("E8", "K12"):
        tc = enumerate_vectors(catalog.lattice(name), 8, collect=True)
        for norm, layer in sorted(tc.layers.items()):
            if norm:
                yield "%s norm %s" % (name, norm), layer


def test_pair_sums_agree_with_the_moment_tensor(catalog):
    """The tensor oracle proves degrees <= 6 entry by entry."""
    seen = 0
    for label, layer in _tensor_parity_layers(catalog):
        verdicts, _ = designs._pair_sum_test(layer, (2, 4, 6))
        for d in (2, 4, 6):
            assert verdicts[d] == moment_tensor_test(layer, d).verdict, (
                label, d)
        seen += 1
    assert seen == 16 + 4 + 3


@st.composite
def integral_layers(draw):
    """A layer of A^T A for a random square integer A of dimension 2-6."""
    n = draw(st.integers(2, 6))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    gram = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    try:
        lat = Lattice(gram)
    except DefinitenessError:
        assume(False)
    bound = min(gram[i][i] for i in range(n)) + draw(st.integers(0, 2))
    try:
        tc = enumerate_vectors(lat, bound, collect=True, capacity=400)
    except CapacityError:
        assume(False)
    return draw(st.sampled_from([v for k, v in tc.layers.items() if k]))


@settings(max_examples=150, deadline=None)
@given(integral_layers())
def test_pair_sums_equal_a_double_loop(layer):
    lat, half = designs._half(layer)
    m, n, size = int(layer.norm), lat.dim, len(layer)
    hist = designs._pair_histogram(lat.gram, half, m, m - 1)
    full = pair_histogram(lat.gram, layer.vectors)
    verdicts, _ = designs._pair_sum_test(layer, (2, 4, 6, 8))
    for d in (2, 4, 6, 8):
        pair_sum = sum(c * v ** d for v, c in full.items())
        assert 4 * sum(c * v ** d for v, c in hist.items()) == pair_sum
        bound = Fraction(size * size * m ** d * double_factorial_odd(d // 2),
                         math.prod(n + 2 * i for i in range(d // 2)))
        assert pair_sum >= bound
        assert verdicts[d] == (PASS if pair_sum == bound else FAIL)


def _radius(layer):
    """The radius _pair_sum_test passes for a layer of norm m of a lattice
    of minimum mu: m - ceil(mu / 2)."""
    m, mu = int(layer.norm), minimum(layer.lattice).minimum
    return int((2 * m - mu) // 2)


def test_histogram_does_not_depend_on_the_block_size(catalog, monkeypatch):
    """A budget of 256 gives tiles of 6 rows by 42 packed columns at
    p = 6, so K12's minimal layer (63 packed columns) has tile edges in
    both rows and columns, as has E8's norm-4 shell (4 rows by 64 of 270
    at p = 4), and D4's (p = 8) blocks of 8 rows; a budget of 1 gives
    tiles of one row by one column and switches bincount for np.unique.
    Lowered exactness limits send the small layers through float64,
    int64 and object products."""
    layers = [min_layer(catalog.lattice("D4")),
              min_layer(catalog.lattice("K12")),
              enumerate_vectors(catalog.lattice("E8"), 4,
                                collect=True).layers[4]]
    for layer in layers:
        lat, half = designs._half(layer)
        m, r = int(layer.norm), _radius(layer)
        want = designs._pair_histogram(lat.gram, half, m, r)
        assert sum(want.values()) == len(half) ** 2
        for budget in (256, 1):
            monkeypatch.setattr(designs, "_BLOCK_ENTRIES", budget)
            assert designs._pair_histogram(lat.gram, half, m, r) == want
        monkeypatch.undo()
        if len(half) > 500:
            continue
        # bincount over float64, int64 and object products
        bound = designs._pair_bound(lat.gram, half, m)
        for limit, dtype in (("FLOAT32_EXACT_LIMIT", "float64"),
                             ("FLOAT_EXACT_LIMIT", "int64"),
                             ("INT64_LIMIT", "object")):
            monkeypatch.setattr(linalg, limit, 0)
            assert np.dtype(designs._pair_dtype(bound)).name == dtype
            assert designs._pair_histogram(lat.gram, half, m, r) == want
        monkeypatch.undo()


# Radii on both sides of each step of the packing exponent p at the
# default _PACK_BINS = 2^14 (base = 2r + 1, base^p <= 2^14): p = 8 at
# r = 1, 6 at 2, 4 at 3-5, 3 at 6-12, 2 at 13-63, 1 from 64, and the
# np.unique path once 2r + 1 > _BLOCK_ENTRIES = 2^16.
PACKING_NORMS = (1, 2, 3, 5, 6, 12, 13, 63, 64, 2 ** 15 - 1, 2 ** 15)


def test_packed_histogram_on_scaled_z_n():
    """The layer {+-e_i} of c Z^n, n = 1-9, has |H| = n (a multiple of p
    only for n = 8 at p = 8) and norm c.  Its values off the diagonal are
    0, so r = c puts it at every packing step, and r = c // 2, the
    radius from the minimum c, is 0 at c = 1 and raised to 1."""
    for c in PACKING_NORMS:
        for n in range(1, 10):
            gram = [[c * int(i == j) for j in range(n)] for i in range(n)]
            half = np.eye(n, dtype=np.int64)
            want = pair_histogram(gram, half.tolist())
            for r in (c, c // 2):
                got = designs._pair_histogram(gram, half, c, r)
                assert got == want, (c, n, r)


@st.composite
def zn_layers(draw):
    """A layer of Z^n, n = 1-8, of norm 1-5."""
    tc = enumerate_vectors(zn(draw(st.integers(1, 8))), 5, collect=True)
    return draw(st.sampled_from([v for k, v in tc.layers.items() if k]))


@settings(max_examples=120, deadline=None)
@given(st.one_of(integral_layers(), zn_layers()),
       st.sampled_from(PACKING_NORMS[:9]), st.data())
def test_packed_histogram_equals_a_double_loop(layer, scale, data):
    """A layer of c G (norm c m) against the oracle's double loop, at
    radius c m - 1 (raised to 1 at c m = 1) with the bin budget at its
    default or on either side of base^p, and _BLOCK_ENTRIES at its
    default, at base (tiles of p rows, or a few, by a few packed columns:
    edges in both) or at 1 (one by one, and the np.unique path)."""
    lat, half = designs._half(layer)
    m = scale * int(layer.norm)
    gram = [[scale * g for g in row] for row in lat.gram]
    base = 2 * max(m - 1, 1) + 1
    bins = data.draw(st.sampled_from(
        [designs._PACK_BINS] + [base ** p + d for p in (1, 2, 3, 4)
                                for d in (-1, 0) if base ** p <= 1 << 16]))
    block = data.draw(st.sampled_from([designs._BLOCK_ENTRIES, base, 1]))
    with mock.patch.object(designs, "_PACK_BINS", bins), \
            mock.patch.object(designs, "_BLOCK_ENTRIES", block):
        got = designs._pair_histogram(gram, half, m, m - 1)
    assert got == pair_histogram(gram, half.tolist())


@settings(max_examples=100, deadline=None)
@given(st.one_of(integral_layers(), zn_layers()))
def test_radius_from_the_minimum_bounds_the_pair_values(layer):
    """The radius m - ceil(mu / 2) bounds every value off the diagonal,
    including on the norm-1 layers of Z^n, where it is 0, and the
    histogram _pair_sum_test builds with it is the oracle's."""
    lat, half = designs._half(layer)
    m, r = int(layer.norm), _radius(layer)
    want = pair_histogram(lat.gram, half.tolist())
    designs._pair_sum_test(layer, (2,))
    total, candidates = layer._histogram
    assert total == {v: 4 * c for v, c in want.items()}
    assert candidates == range(len(layer))
    assert want.pop(m) == len(half)
    assert all(abs(v) <= r for v in want), (r, want)


def test_strong_perfection_of_z8_ends():
    """Z^8's minimal layer has norm 1 and radius 0: a base of 1 would
    pack without end, so this guards the raise to 1."""
    start = time.monotonic()
    proc = _python("-c", "from modlattice import designs, lattice; "
                   "r = designs.is_strongly_perfect(lattice.zn(8)); "
                   "print(r.verdict, r.details['failed_degree'])", timeout=5)
    assert time.monotonic() - start < 5
    assert proc.stdout.split() == [FAIL, "4"]


def test_packing_keeps_the_dtype_of_the_unpacked_product(catalog,
                                                         monkeypatch):
    """With the float32 limit just above the unpacked product's bound
    (_pair_bound), every packing (p = 4, 3, 2 at radius 3) would leave
    float32, so p drops to 1 and the products stay float32."""
    layer = enumerate_vectors(catalog.lattice("E8"), 4,
                              collect=True).layers[4]
    lat, half = designs._half(layer)
    want = designs._pair_histogram(lat.gram, half, 4, 3)
    limit = designs._pair_bound(lat.gram, half, 4) + 1
    monkeypatch.setattr(linalg, "FLOAT32_EXACT_LIMIT", limit)
    made, packed = [], []
    dtype, pack = designs._pair_dtype, designs._packed

    def counted(bound):
        made.append(dtype(bound))
        return made[-1]

    def spied(cols, base, p, dt):
        packed.append((p, dt))
        return pack(cols, base, p, dt)
    monkeypatch.setattr(designs, "_pair_dtype", counted)
    monkeypatch.setattr(designs, "_packed", spied)
    assert designs._pair_histogram(lat.gram, half, 4, 3) == want
    # the unpacked product's dtype first, then p = 4, 3, 2 and 1
    assert [np.dtype(d).name for d in made] == [
        "float32", "float64", "float64", "float64", "float32"]
    assert packed == [(1, np.float32)]


def test_pair_dtype_narrows_below_2_24():
    assert designs._pair_dtype((1 << 24) - 1) is np.float32
    assert designs._pair_dtype(1 << 24) is np.float64


def test_witness_is_the_first_deviating_row(catalog):
    """The witness is the first row of layer.rows whose degree-d power
    sum differs from the right side, by a scan of Python-integer inner
    products: on the catalogue's layers (orbit rows as candidates) and
    on copies without automorphisms (every row a candidate)."""
    e8 = catalog.lattice("E8")
    cases = [(min_layer(catalog.lattice("K12")), 6),
             (enumerate_vectors(e8, 10, collect=True).layers[10], 8)]
    cases += [(enumerate_vectors(Lattice(layer.lattice.gram), layer.norm,
                                 collect=True).layers[layer.norm], d)
              for layer, d in cases]
    for layer, d in cases:
        lat = layer.lattice
        m = int(layer.norm)
        rhs = design_constant(lat.dim, d // 2, len(layer), m) * m ** (d // 2)
        gram = np.array(lat.gram, dtype=object)
        rows = layer.rows.astype(object)
        want = None
        for y in rows:
            lhs = sum(int(v) ** d for v in rows @ (gram @ y))
            if lhs != rhs:
                want = {"direction": [int(c) for c in y], "degree": d,
                        "lhs": lhs, "rhs": rhs}
                break
        assert want is not None
        verdicts, got = designs._pair_sum_test(layer, (d,))
        assert verdicts == {d: FAIL}
        assert got == want, len(layer)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(0, "float32"), (30, "float64"), (56, "int64"),
                        (62, "object")]),
       st.sampled_from([1, 5, 16, 1 << 16]), st.data())
def test_row_tallies_equal_a_double_loop(target, block, data):
    """_row_tallies against a Python-integer double loop, on rows, columns
    and a Gram of entries in [-1, 1], the Gram scaled by 2^shift: every
    partial sum is then at most 16 * 2^shift, and at least 2^shift for
    some, so the products take the target dtype.  Small budgets tile the
    columns and the rows."""
    shift, dtype = target
    n = data.draw(st.integers(1, 4))
    entries = st.integers(-1, 1)
    gram = [[data.draw(entries) << shift for _ in range(n)]
            for _ in range(n)]
    rows = [[data.draw(entries) for _ in range(n)]
            for _ in range(data.draw(st.integers(1, 5)))]
    cols = [[data.draw(entries) for _ in range(n)]
            for _ in range(data.draw(st.integers(0, 40)))]
    xg = [[sum(a * g for a, g in zip(x, col)) for col in zip(*gram)]
          for x in rows]
    assume(any(map(any, xg)) and any(map(any, cols)))
    want = []
    for gx in xg:
        tally = {}
        for y in cols:
            v = sum(a * b for a, b in zip(gx, y))
            tally[v] = tally.get(v, 0) + 1
        want.append(tally)
    made = []
    pair_dtype = designs._pair_dtype

    def spied(bound):
        made.append(np.dtype(pair_dtype(bound)).name)
        return pair_dtype(bound)
    with mock.patch.object(designs, "_BLOCK_ENTRIES", block), \
            mock.patch.object(designs, "_pair_dtype", spied):
        got = designs._row_tallies(
            gram, linalg.integer_array(rows),
            linalg.integer_array(cols).reshape(len(cols), n))
    assert made == [dtype]
    assert got == want
    assert all(type(v) is int for tally in got for v in tally)


def test_pair_kernels_trace_bounded_scratch(catalog):
    """The histogram and the degree-8 witness search each trace under 5 MB
    on E8's norm-10 shell (|H| = 15,120), their tiles being reused or
    bounded buffers, and under 6 MB on BW16's norm-6 shell (|H| = 30,720),
    which an |H| x 16 float64 array of H G (3.9 MB) beside its cast would
    exceed.  The layers are of copies without automorphisms, so the
    witness search scans every row from the first, with its pair sums
    already built."""
    for name, m, limit in (("E8", 10, 5 << 20), ("BW16", 6, 6 << 20)):
        copy = Lattice(catalog.lattice(name).gram)
        layer = enumerate_vectors(copy, m, collect=True).layers[m]
        lat, half = designs._half(layer)
        r = _radius(layer)
        assert designs._pair_sum_test(layer, (2,)) == ({2: PASS}, None)
        kernels = [lambda: designs._pair_histogram(lat.gram, half, m, r),
                   lambda: designs._pair_sum_test(layer, (8,))]
        for kernel in kernels:
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (name, peak)


def _skewed(gram, steps, seed):
    """g -> U g U^T for a seeded product of elementary unimodular U."""
    rng = random.Random(seed)
    g = [list(row) for row in gram]
    for _ in range(steps):
        i, j = rng.sample(range(len(g)), 2)
        q = rng.choice((-2, -1, 1, 2))
        g[i] = [a + q * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += q * row[j]
    return Lattice(g)


def test_verdicts_survive_rescaling_on_every_dtype_path(catalog):
    """A 12-step skew of E8 makes the kernels' bound (_pair_bound) about
    2^14.8, so unscaled it takes the float32 products, and the scales
    2^20, 2^40 and 2^60 reach the float64, int64 and object products.
    A 60-step skew scaled by 2^20 forms x G in int64 (bound 2^55.5) and
    the pair products in float64 (2^45.9)."""
    e8 = catalog.lattice("E8").gram
    cases = ((12, 0, "float32", "float64"), (12, 20, "float64", "float64"),
             (12, 40, "int64", "int64"), (12, 60, "object", "object"),
             (60, 20, "float64", "int64"))
    layers = {steps: min_layer(_skewed(e8, steps, 1)) for steps in (12, 60)}
    for steps, shift, dtype, row_dtype in cases:
        lay = layers[steps]
        want = check_design(lay, 8)
        assert want.details["degrees"] == {2: PASS, 4: PASS, 6: PASS,
                                           8: FAIL}
        lat = rescale(lay.lattice, 2 ** shift)
        big = VectorLayer(lay.norm * 2 ** shift, lay.vectors, True, lat)
        _, half = designs._half(big)
        bound = designs._pair_bound(lat.gram, half, int(big.norm))
        assert np.dtype(designs._pair_dtype(bound)).name == dtype
        left, _ = linalg.exact_factors(half, lat.gram)
        assert left.dtype.name == row_dtype
        rep = check_design(big, 8)
        assert rep.details == want.details, shift
        w = rep.witnesses
        assert w["direction"] == want.witnesses["direction"]
        assert _recompute(big, w) == w["lhs"] != w["rhs"]


def test_strongly_perfect_small_cases(catalog):
    for name in ("A2", "D4"):
        rep = is_strongly_perfect(catalog.lattice(name))
        assert rep.verdict == PASS and rep.details["proof"], name
    rep = is_strongly_perfect(zn(3))
    assert rep.verdict == FAIL
    assert rep.details["failed_degree"] == 4
    # sum_x (x, e_i)^4 = 2 over the 6 vectors +-e_j; c_2 = 6 * 3 / 15
    assert rep.witnesses["lhs"] == 2
    assert rep.witnesses["rhs"] == Fraction(6, 5)


def test_perfection_ranks(catalog):
    assert perfection_rank(catalog.lattice("E8")) == 36
    assert perfection_rank(catalog.lattice("A2")) == 3
    assert perfection_rank(catalog.lattice("D4")) == 10
    assert perfection_rank(zn(2)) == 2


def test_is_perfect(catalog):
    assert is_perfect(catalog.lattice("E8"))
    assert is_perfect(catalog.lattice("A2"))
    assert is_perfect(catalog.lattice("D4"))
    assert not is_perfect(zn(2))
    assert not is_perfect(zn(3))


@pytest.fixture
def exact_ranks(monkeypatch):
    """Records the row counts of the exact ranks that perfection_rank
    falls back to."""
    made = []

    def counted(rows):
        made.append(len(rows))
        return linalg.rank(rows)
    monkeypatch.setattr(designs, "rank", counted)
    return made


def test_rank_witness_equals_the_exact_rank_on_the_catalogue(
        catalog, exact_ranks):
    """Every entry up to dimension 16; the exact rank runs only where the
    rank is deficient."""
    for entry in catalog:
        lat = entry.lattice
        if lat.dim > 16:
            continue
        full = lat.dim * (lat.dim + 1) // 2
        want = projector_rank(min_layer(lat))
        exact_ranks.clear()
        assert perfection_rank(lat) == want, entry.name
        assert bool(exact_ranks) == (want < full), entry.name


# the rank of the projectors of each root lattice's norm-2 vectors: they
# are perfect (2Z^k, whose norm-2 vectors are +-2e_i, has rank k)
ROOT_BLOCKS = {"A2": 3, "D4": 10, "E6": 21, "E7": 28, "E8": 36}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rank_witness_on_rebased_sums(data):
    """Seeded rebasings of one or two blocks of minimum 2; a sum of
    blocks has the sum of their ranks, so only a single root lattice is
    perfect, and a deficient rank falls back to the exact one."""
    catalog = bundled_catalog()
    names = data.draw(st.lists(st.sampled_from(
        sorted(ROOT_BLOCKS) + ["Z1", "Z2", "Z3", "Z5"]), min_size=1,
        max_size=2))
    blocks = [catalog.lattice(name) if name in ROOT_BLOCKS
              else rescale(zn(int(name[1:])), 2) for name in names]
    assume(sum(b.dim for b in blocks) <= 12)
    lat = blocks[0] if len(blocks) == 1 else direct_sum(*blocks)
    u = unimodular(data.draw(st.randoms(use_true_random=False)), lat.dim)
    lat = transformed(lat, u)
    want = sum(ROOT_BLOCKS.get(name, b.dim) for name, b in zip(names, blocks))
    assert perfection_rank(lat) == want == projector_rank(min_layer(lat))


@pytest.mark.parametrize("n", range(1, 10))
def test_rank_of_zn_is_n(n, exact_ranks):
    assert perfection_rank(zn(n)) == n
    assert exact_ranks == ([] if n == 1 else [n])


def test_undercounting_witness_falls_back(catalog, exact_ranks,
                                          monkeypatch):
    """A rank mod p below N proves nothing, so the exact rank decides."""
    e8 = catalog.lattice("E8")
    assert perfection_rank(e8) == 36 and exact_ranks == []
    monkeypatch.setattr(designs, "rank_mod_p", lambda a, p: len(a) - 1)
    assert perfection_rank(e8) == 36 and exact_ranks == [120]
    exact_ranks.clear()
    assert perfection_rank(catalog.lattice("E6")) == 21
    assert exact_ranks == [36]


def test_rank_witness_does_not_depend_on_the_blocking(catalog, exact_ranks,
                                                      monkeypatch):
    """M^T M summed over many small blocks of rows of M still proves K12
    and BW16 perfect."""
    blocks = []
    projector_rows = designs._projector_rows

    def counted(rows):
        blocks.append(len(rows))
        return projector_rows(rows)
    monkeypatch.setattr(designs, "_RANK_BLOCK_ENTRIES", 1000)
    monkeypatch.setattr(designs, "_projector_rows", counted)
    for name, full, pairs in (("K12", 78, 378), ("BW16", 136, 2160)):
        blocks.clear()
        assert perfection_rank(catalog.lattice(name)) == full
        assert sum(blocks) == pairs and len(blocks) > 30, name
    assert exact_ranks == []


def test_leech_is_perfect_by_the_witness(catalog, leech_layer, exact_ranks,
                                         monkeypatch):
    """Rank 300 on the shared Leech layer fixture: nothing is collected again
    and no exact rank runs."""
    monkeypatch.setattr(enumeration, "enumerate_vectors", None)
    leech = catalog.lattice("Leech")
    assert min_layer(leech) is leech_layer
    assert perfection_rank(leech) == 300 and exact_ranks == []
    rows = leech_layer.rows
    assert rows.dtype == np.int8 and rows.nbytes == 196560 * 24


def test_mod_p_rank_on_small_matrices():
    p = designs._WITNESS_PRIME
    assert linalg.rank_mod_p(np.zeros((3, 4), dtype=np.int64), p) == 0
    assert linalg.rank_mod_p([[1, 2], [2, 4], [0, 0]], p) == 1
    assert linalg.rank_mod_p([[0, 1], [1, 0]], p) == 2
    # rank 2 over Q, rank 1 mod 7: the witness may only ever undercount
    assert linalg.rank_mod_p([[1, 3], [2, 13]], 7) == 1
    big = [[p - 1, p - 2, 5], [p - 3, 1, p - 1], [2, 2, 2]]
    assert linalg.rank_mod_p(big, p) == linalg.rank(
        [[v if v < p // 2 else v - p for v in row] for row in big])


def test_layer_readers_take_the_kept_rows(catalog, monkeypatch):
    """Once a sweep has kept a layer's rows, no certificate converts the
    layer's tuples again."""
    k12 = Lattice(catalog.lattice("K12").gram)
    layer = min_layer(k12)
    harmonic_theta_truncation(k12, [1] + [0] * 11, 4, 5)
    sizes = []
    integer_array = linalg.integer_array

    def counted(rows):
        sizes.append(len(rows))
        return integer_array(rows)
    monkeypatch.setattr(linalg, "integer_array", counted)
    assert check_design(layer, 5).verdict == PASS
    assert perfection_rank(k12) == 78
    assert eutaxy_check(k12).verdict == PASS
    harmonic_theta_truncation(k12, [1] + [0] * 11, 4, 5)
    assert max(sizes, default=0) <= k12.dim < len(layer)


def test_eutaxy_strong_cases(catalog):
    rep = eutaxy_check(catalog.lattice("E8"))
    assert rep.verdict == PASS
    assert rep.details["kind"] == STRONGLY_EUTACTIC
    assert rep.details["coefficient"] == Fraction(1, 60)
    rep = eutaxy_check(zn(4))
    assert rep.details["kind"] == STRONGLY_EUTACTIC
    assert rep.details["coefficient"] == Fraction(1, 2)


def test_eutaxy_certificate_without_strong_eutaxy(catalog):
    lat = direct_sum(catalog.lattice("A2"), rescale(zn(1), 2))
    rep = eutaxy_check(lat)
    assert rep.verdict == PASS
    assert rep.details["kind"] == EUTACTIC_CERT
    coeffs = rep.witnesses["coefficients"]
    assert sorted(coeffs) == [Fraction(1, 6)] * 3 + [Fraction(1, 4)]
    assert all(c > 0 for c in coeffs)


def test_eutaxy_of_a_basis_of_z2_with_entries_past_int64():
    """half^T half has entries 2^64: int64 wrapped them into a false
    'not strongly eutactic'."""
    rep = eutaxy_check(Lattice([[1, 2 ** 32], [2 ** 32, 2 ** 64 + 1]]))
    assert rep.verdict == PASS
    assert rep.details["kind"] == STRONGLY_EUTACTIC


def test_design_verdicts_on_coordinates_past_int64():
    """Min of a 2^70 skew of Z^2 has coordinates 2^70; every verdict
    matches a small skew of the same lattice."""
    for g in ([[1, 3], [3, 10]], [[1, 2 ** 70], [2 ** 70, 2 ** 140 + 1]]):
        lat = Lattice(g)
        assert is_strongly_perfect(lat).verdict == FAIL, g
        assert eutaxy_check(lat).details["kind"] == STRONGLY_EUTACTIC, g
        assert check_design(min_layer(lat), 3).verdict == PASS, g


def test_eutaxy_disproof():
    rep = eutaxy_check(Lattice([[1, 0], [0, 3]]))
    assert rep.verdict == FAIL
    assert rep.details["kind"] == NOT_EUTACTIC


def test_min_product_bounds(catalog):
    rep = min_product_check(catalog.lattice("A2"))
    assert rep.verdict == PASS
    assert rep.details["product"] == rep.details["bound"] == Fraction(4, 3)
    rep = min_product_check(catalog.lattice("D4"))
    assert rep.verdict == PASS and rep.details["product"] == 2
    rep = min_product_check(zn(5))
    assert rep.verdict == FAIL
    assert rep.details == {**rep.details,
                           "product": 1, "bound": Fraction(7, 3)}


def test_even_min_lower_bound():
    assert even_min_lower_bound(8) == 2
    assert even_min_lower_bound(24) == 4
    assert even_min_lower_bound(80) == 6
    assert even_min_lower_bound(248) == 10
    # smallest even m with m*m >= (dim+2)/3
    for dim in (8, 24, 80, 248):
        m = even_min_lower_bound(dim)
        assert m % 2 == 0 and m * m * 3 >= dim + 2 > (m - 2) * (m - 2) * 3


def test_coxeter_numbers(catalog):
    assert coxeter_number(catalog.lattice("E8")) == 30
    assert coxeter_number(catalog.lattice("A2")) == 3
    assert coxeter_number(catalog.lattice("D4")) == 6


def test_coxeter_number_reads_the_memo(catalog, monkeypatch):
    swept = count_sweeps(monkeypatch)
    e8 = Lattice(catalog.lattice("E8").gram)
    assert coxeter_number(e8) == 30
    assert minimum(e8).kissing == 240
    assert coxeter_number(e8) == 30
    assert swept == [e8]


def test_coxeter_identity(catalog):
    for name, h in (("E8", 30), ("A2", 3), ("D4", 6)):
        rep = coxeter_identity_check(catalog.lattice(name))
        assert rep.verdict == PASS
        assert rep.details["coxeter_number"] == h
    # unbalanced norm-2 layer breaks the identity; no roots at all is
    # reported as inconclusive rather than a disproof
        assert rep.details["proof"]
    rep = coxeter_identity_check(Lattice([[2, 0], [0, 6]]))
    assert rep.verdict == FAIL and rep.details["proof"]
    assert rep.witnesses["degree"] == 2 and rep.witnesses["lhs"] == 8
    rep = coxeter_identity_check(Lattice([[1, 0], [0, 3]]))
    assert rep.verdict == "inconclusive"


def test_predicted_design_strength(catalog):
    """Every class (N, k mod k_N) of weights k = dim / 2 in which even
    N-modular lattices exist, on direct sums of catalogue entries: powers
    of E8, D4 and A2 (levels 1, 2, 3) at the class's smallest weight, and
    with E8^3, E8^2 or K12 added (k + k_N, the level unchanged)."""
    want = {(1, 0): 11, (1, 4): 7, (1, 8): 3,
            (2, 0): 7, (2, 2): 5, (2, 4): 3, (2, 6): 1,
            (3, 0): 5, (3, 1): 5, (3, 2): 3, (3, 3): 3, (3, 4): 1, (3, 5): 1}
    e8, k12 = catalog.lattice("E8"), catalog.lattice("K12")

    def power(lat, j):
        out = lat
        for _ in range(j - 1):
            out = direct_sum(out, lat)
        return out
    base = {1: (e8, 4), 2: (catalog.lattice("D4"), 2),
            3: (catalog.lattice("A2"), 1)}
    step = {1: power(e8, 3), 2: power(e8, 2), 3: k12}
    for (level, r), t in want.items():
        k_n = {1: 12, 2: 8, 3: 6}[level]
        lat, k = base[level]
        small = power(lat, (r or k_n) // k)
        for sample in (small, direct_sum(small, step[level])):
            assert default_level(sample) == level
            assert (sample.dim // 2) % k_n == r
            assert predicted_design_strength(sample) == t, (level, r)
    assert predicted_design_strength(e8) == 7
    # odd lattices (Z^8, odd extremal D12+) and even ones of level 5, 7
    for lat in (zn(8), catalog.lattice("D12plus"), Lattice([[2, 1], [1, 3]]),
                Lattice([[2, 1], [1, 4]])):
        assert predicted_design_strength(lat) is None, lat


def test_extremal_minimal_layers_reach_the_predicted_strength(catalog):
    """The pair sums prove the predicted strength t on the minimal layer
    of each even extremal lattice, and t + 2 fails except on D4^3, where
    the prediction (k = 6 at N = 2) stays below the pair-sum strength 3.
    D12+, odd extremal at k = 6, gets no prediction: the rule of k_N
    would give 5, and its 264 roots are a 3-design only."""
    d4, a2 = catalog.lattice("D4"), catalog.lattice("A2")
    above = {"D4^3": direct_sum(direct_sum(d4, d4), d4)}
    exact = {"D4+D4": direct_sum(d4, d4), "A2+A2": direct_sum(a2, a2),
             "A2^3": direct_sum(direct_sum(a2, a2), a2),
             **{name: catalog.lattice(name)
                for name in ("E8", "K12", "BW16", "D16plus", "A2", "D4")}}
    for name, lat in {**above, **exact}.items():
        assert check_extremal(lat).verdict == PASS, name
        t = predicted_design_strength(lat)
        layer = min_layer(lat)
        assert check_design(layer, t).verdict == PASS, name
        beyond = PASS if name in above else FAIL
        assert check_design(layer, t + 2).verdict == beyond, name
    d12 = catalog.lattice("D12plus")
    assert check_extremal(d12).verdict == PASS and not d12.is_even
    assert predicted_design_strength(d12) is None
    layer = min_layer(d12)
    assert len(layer) == 264
    assert check_design(layer, 3).verdict == PASS
    assert check_design(layer, 5).verdict == FAIL


def test_dimension_16_roots_are_3_designs_as_predicted(catalog):
    e8 = catalog.lattice("E8")
    for lat in (catalog.lattice("D16plus"), direct_sum(e8, e8)):
        t = predicted_design_strength(lat)
        layer = min_layer(lat)
        assert len(layer) == 480
        assert check_design(layer, t).verdict == PASS
        for strength in (t + 1, t + 2):
            rep = check_design(layer, strength)
            assert rep.verdict == FAIL and rep.witnesses["degree"] == 4


def test_one_histogram_per_layer(catalog, monkeypatch):
    """A lattice without stored automorphisms (a copy of E8 by its Gram
    matrix) builds one pair histogram per layer object."""
    built = []
    histogram = designs._pair_histogram

    def counted(*args):
        built.append(args)
        return histogram(*args)
    monkeypatch.setattr(designs, "_pair_histogram", counted)
    e8 = Lattice(catalog.lattice("E8").gram)
    tc = enumerate_vectors(e8, 6, collect=True)
    layer = tc.layers[6]
    seven, eleven = check_design(layer, 7), check_design(layer, 11)
    assert len(built) == 1
    assert seven.verdict == PASS and eleven.verdict == FAIL
    assert eleven.witnesses["degree"] == 8
    # a fresh layer with the same vectors builds its own
    fresh = enumerate_vectors(e8, 6, collect=True)
    assert check_design(fresh.layers[6], 11).to_dict()["witnesses"] == (
        eleven.to_dict()["witnesses"])
    assert len(built) == 2


def test_one_orbit_sum_per_layer(catalog, monkeypatch):
    """The catalogue's E8 carries automorphisms: its layers search their
    orbits (_orbits) once per layer object and build no pair histogram,
    with the verdicts and witness of the copy without automorphisms."""
    built = []
    orbits = designs._orbits

    def counted(*args):
        built.append(args)
        return orbits(*args)
    monkeypatch.setattr(designs, "_orbits", counted)
    monkeypatch.setattr(designs, "_pair_histogram", None)
    e8 = catalog.lattice("E8")
    layer = enumerate_vectors(e8, 6, collect=True).layers[6]
    seven, eleven = check_design(layer, 7), check_design(layer, 11)
    assert len(built) == 1
    fresh = enumerate_vectors(e8, 6, collect=True)
    assert check_design(fresh.layers[6], 11) == eleven
    assert len(built) == 2
    monkeypatch.undo()
    copy = enumerate_vectors(Lattice(e8.gram), 6, collect=True).layers[6]
    assert seven.to_dict() == check_design(copy, 7).to_dict()
    assert eleven.to_dict() == check_design(copy, 11).to_dict()


def test_layer_certificates_share_one_collected_sweep(catalog, monkeypatch):
    """One collected sweep per new, larger bound serves every collecting
    reader of a lattice object, and a norm's layer (with its histogram)
    is one object throughout; enumerate_vectors itself always sweeps."""
    swept = count_sweeps(monkeypatch)
    built = []
    histogram = designs._pair_histogram

    def counted(*args):
        built.append(args)
        return histogram(*args)
    monkeypatch.setattr(designs, "_pair_histogram", counted)
    e8 = Lattice(catalog.lattice("E8").gram)
    axis = [1, 2, 0, 0, 0, 0, 0, -1]
    layer = min_layer(e8)
    assert check_design(layer, 7).verdict == PASS
    assert perfection_rank(e8) == 36
    assert eutaxy_check(e8).details["kind"] == STRONGLY_EUTACTIC
    assert is_strongly_perfect(e8).verdict == PASS
    assert coxeter_identity_check(e8).verdict == PASS
    assert harmonic_theta_truncation(e8, axis, 8, 4).coeffs != {}
    assert swept == [e8] and len(built) == 1
    # a larger window collects once more, to its own bound, and keeps the
    # layer already handed out
    six = harmonic_theta_truncation(e8, axis, 8, 6)
    assert harmonic_theta_truncation(e8, axis, 8, 5).coeffs == six.coeffs
    assert swept == [e8, e8] and e8._layers.bound == 4
    assert six == harmonic_theta_truncation(Lattice(e8.gram), axis, 8, 6)
    swept.clear()
    assert min_layer(e8) is layer and e8._layers.layers[2] is layer
    assert is_strongly_perfect(e8).verdict == PASS and len(built) == 1
    # counts up to the collected bound need no count-only sweep
    assert minimum(e8).kissing == 240 and swept == []
    for _ in range(2):
        enumeration.enumerate_vectors(e8, 2, collect=True)
    assert swept == [e8, e8]


def test_a_collecting_call_serves_the_later_readers(catalog, monkeypatch):
    """enumerate_vectors(collect=True) keeps its unshifted sweep on the
    lattice object: min_layer, harmonic theta within its bound,
    theta_series and minimum then scan no more and read its layers."""
    e8 = Lattice(catalog.lattice("E8").gram)
    axis = [1, 2, 0, 0, 0, 0, 0, -1]
    fresh = Lattice(e8.gram)
    want = (harmonic_theta_truncation(fresh, axis, 8, 5),
            theta_series(fresh, 5), minimum(fresh))
    scans = []
    sweep = enumeration._sweep

    def counted(*args):
        scans.append(args)
        return sweep(*args)
    monkeypatch.setattr(enumeration, "_sweep", counted)
    tc = enumerate_vectors(e8, 4, collect=True)
    layers = dict(tc.layers)
    tc.counts.clear()       # the caller's own dicts
    tc.layers.clear()
    assert min_layer(e8) is layers[2]
    assert (harmonic_theta_truncation(e8, axis, 8, 5), theta_series(e8, 5),
            minimum(e8)) == want
    kept = enumeration._collected(e8, 4).layers
    assert list(kept) == list(layers)
    assert all(kept[norm] is layer for norm, layer in layers.items())
    assert len(scans) == 1


def test_swept_layers_make_their_tuples_only_when_read(catalog,
                                                       monkeypatch):
    """The certificates, == and hash read a swept layer's rows: no tuple
    is made until .vectors is read, and then the tuples are those of the
    one-integer-at-a-time oracle, entry types included (Fractions on a
    coset)."""
    made, seen = [], []
    tuples, finalize = enumeration._tuples, enumeration._finalize_layers

    def counted(rows, e):
        made.append(len(rows))
        return tuples(rows, e)

    def both(*args):
        seen.append(finalize_layers(*args))
        return finalize(*args)
    monkeypatch.setattr(enumeration, "_tuples", counted)
    monkeypatch.setattr(enumeration, "_finalize_layers", both)
    e8 = Lattice(catalog.lattice("E8").gram)
    layer = min_layer(e8)
    assert len(layer) == 240
    assert check_design(layer, 7).verdict == PASS
    assert check_design(layer, 11).verdict == FAIL
    assert is_strongly_perfect(e8).verdict == PASS
    assert perfection_rank(e8) == 36
    assert eutaxy_check(e8).details["kind"] == STRONGLY_EUTACTIC
    assert harmonic_theta_truncation(e8, [1] + [0] * 7, 8, 6).coeffs
    other = transformed(e8, unimodular(random.Random(3), 8))
    assert find_isometry(e8, other)[0] == ISOMETRIC
    again = min_layer(Lattice(e8.gram))
    assert again == layer and hash(again) == hash(layer)
    assert made == []
    vectors = layer.vectors
    assert made == [240] and layer.vectors is vectors
    assert repr(vectors) == repr(seen[0][2])

    shift = (Fraction(1, 3), Fraction(1, 2)) + (0,) * 10
    tc = enumerate_vectors(dual(catalog.lattice("K12")), Fraction(8, 3),
                           shift=shift, collect=True)
    assert sum(map(len, tc.layers.values())) == sum(tc.counts.values())
    assert len(made) == 1
    for norm, want in seen[-1].items():
        got = tc.layers[norm]
        assert got.den == 6 and not got.rows.flags.writeable
        assert got.rows.tolist() == [[6 * v for v in x] for x in want]
        assert repr(got.vectors) == repr(want)
        assert any(type(v) is Fraction for v in got.vectors[0])
    assert len(made) == 1 + len(tc.layers)


def test_second_strength_forms_no_layer_array(catalog, monkeypatch):
    """Once the histogram is kept, a passing strength needs no rows."""
    layer = min_layer(catalog.lattice("E8"))
    assert check_design(layer, 7).verdict == PASS
    converted = []
    integer_array = linalg.integer_array

    def counted(rows):
        converted.append(rows)
        return integer_array(rows)
    monkeypatch.setattr(linalg, "integer_array", counted)
    assert check_design(layer, 7).verdict == PASS
    assert check_design(layer, 5).verdict == PASS
    assert converted == []


def test_zonal_coefficient_tables():
    tables = {
        2: [(2, -1), (4, -3), (8, -8, 1), (16, -20, 5), (32, -48, 18, -1)],
        3: [(3, -1), (5, -3), (35, -30, 3), (63, -70, 15),
            (231, -315, 105, -5)],
        4: [(4, -1), (2, -1), (16, -12, 1), (16, -16, 3), (64, -80, 24, -1)],
        5: [(5, -1), (7, -3), (21, -14, 1), (33, -30, 5),
            (429, -495, 135, -5)],
        8: [(8, -1), (10, -3), (40, -20, 1), (56, -40, 5),
            (896, -840, 180, -5)],
    }
    for n, rows in tables.items():
        got = [tuple(zonal_harmonic(n, t).coefficients) for t in range(2, 7)]
        assert got == rows, "dim %d" % n
    assert tuple(zonal_harmonic(4, 0).coefficients) == (1,)
    assert tuple(zonal_harmonic(6, 1).coefficients) == (1,)


def test_zonal_harmonics_match_sympy_polynomials():
    """zonal_harmonic against sympy's Chebyshev (dim 2) and Gegenbauer
    (lam = (dim-2)/2 > 0) polynomials: the coefficient of x^(t-2j),
    homogenised to u^(t-2j) w^j, denominators cleared, content reduced,
    leading coefficient positive."""
    import sympy
    x = sympy.symbols("x")
    for dim in (2, 3, 8, 24):
        lam = sympy.Rational(dim - 2, 2)
        for t in range(9):
            poly = (sympy.chebyshevt(t, x) if dim == 2
                    else sympy.gegenbauer(t, lam, x))
            coeffs = sympy.Poly(poly, x).all_coeffs()[::-1]
            vec = [Fraction(str(coeffs[t - 2 * j]))
                   for j in range(t // 2 + 1)]
            den = math.lcm(*(c.denominator for c in vec))
            ints = [int(c * den) for c in vec]
            g = math.gcd(*ints)
            want = tuple(c // g * (1 if ints[0] > 0 else -1) for c in ints)
            assert zonal_harmonic(dim, t).coefficients == want, (dim, t)


def test_zonal_harmonics_are_annihilated_by_the_laplacian():
    import sympy
    for n in (2, 3, 4):
        xs = sympy.symbols("x0:%d" % n)
        axis = tuple(range(1, n + 1))
        for t in range(2, 6):
            z = zonal_harmonic(n, t)
            u = sum(x * a for x, a in zip(xs, axis))
            w = sum(x * x for x in xs) * sum(a * a for a in axis)
            poly = sympy.expand(z.eval_invariants(u, w))
            lap = sum(sympy.diff(poly, x, 2) for x in xs)
            assert sympy.simplify(lap) == 0, (n, t)


def test_zonal_eval_agrees_with_invariants():
    z = zonal_harmonic(3, 4)
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    x, a = (1, -2, 2), (3, 0, 1)
    u = sum(p * q for p, q in zip(x, a))
    w = sum(p * p for p in x) * sum(q * q for q in a)
    assert z.eval(g, x, a) == z.eval_invariants(u, w)


def test_harmonic_theta_degree_zero_is_theta(catalog):
    e8 = catalog.lattice("E8")
    alpha = [1, 0, 0, 0, 0, 0, 0, 0]
    assert harmonic_theta_truncation(e8, alpha, 0, 6) == theta_series(e8, 6)


def test_harmonic_theta_e8_vanishes_through_degree_seven(catalog):
    e8 = catalog.lattice("E8")
    alpha = [1, 0, 0, 0, 0, 0, 0, 0]
    for t in range(1, 8):
        qs = harmonic_theta_truncation(e8, alpha, t, 6)
        assert qs.coeffs == {}, "degree %d" % t


def test_harmonic_theta_e8_degree_eight_is_a_cusp_form(catalog):
    e8 = catalog.lattice("E8")
    qs = harmonic_theta_truncation(e8, [1, 0, 0, 0, 0, 0, 0, 0], 8, 8)
    got = {e // 12: int(c) for e, c in sorted(qs.coeffs.items())}
    assert got == {2: 552960, 4: -13271040, 6: 139345920}
    # weight 4 + 8 = 12 at level 1 forces a multiple of the cusp form
    cusp = delta_level(1, 12 * 8)
    assert qs.agree(552960 * cusp)[0]


def test_harmonic_theta_z2_frozen_window():
    qs = harmonic_theta_truncation(zn(2), [1, 0], 4, 6)
    got = {e // 12: int(c) for e, c in sorted(qs.coeffs.items())}
    assert got == {1: 4, 2: -16, 4: 64, 5: -56}


def test_harmonic_theta_odd_degrees_vanish(catalog):
    for t in (1, 3, 5):
        assert harmonic_theta_truncation(zn(2), [2, 1], t, 5).coeffs == {}
        assert harmonic_theta_truncation(
            catalog.lattice("A2"), [1, 1], t, 5).coeffs == {}


def test_harmonic_theta_odd_precision_keeps_top_even_norm(catalog):
    """An even lattice at odd precision still sweeps its top even norm."""
    a2 = catalog.lattice("A2")
    odd = harmonic_theta_truncation(a2, (1, 0), 6, 9)
    even = harmonic_theta_truncation(a2, (1, 0), 6, 10)
    assert odd.coefficient_q(8) == even.coefficient_q(8) == 24576
    assert odd.agree(even)[0]


def test_harmonic_theta_on_an_axis_past_int64(catalog):
    """(a, a) = 1.8 * 10^19 overflowed int64; the series must equal the
    Python-integer sum of Z_8 over every collected layer."""
    e8 = catalog.lattice("E8")
    alpha = (3 * 10 ** 9, 1, 0, 0, 0, 0, 0, 0)
    qs = harmonic_theta_truncation(e8, alpha, 8, 6)
    z = zonal_harmonic(8, 8)
    tc = enumerate_vectors(e8, window_bound(e8, 6), collect=True)
    want = {12 * norm: sum(z.eval(e8.gram, x, alpha) for x in layer.vectors)
            for norm, layer in tc.layers.items() if norm}
    assert qs.coeffs == {e: c for e, c in want.items() if c}
    assert len(qs.coeffs) == 2


def test_harmonic_theta_rejects_an_axis_of_the_wrong_length(catalog):
    """Ga is summed row by row in Python: a short axis must not be read
    as one padded with zeros."""
    with pytest.raises(ValueError, match="8 coordinates"):
        harmonic_theta_truncation(catalog.lattice("E8"), (1, 2, 3), 8, 4)


def test_harmonic_theta_rejects_a_non_integral_axis(catalog):
    """An axis entry is never truncated: the first non-integral entry is
    named, and integral floats and Fractions are read as integers."""
    e8 = catalog.lattice("E8")
    zeros = [0] * 7
    for axis, shown in (([Fraction(3, 2)] + zeros, "Fraction(3, 2)"),
                        ([0.5] + zeros, "0.5"),
                        ([1, Fraction(1, 3), 0.5] + zeros[2:],
                         "Fraction(1, 3)")):
        with pytest.raises(ValueError, match=re.escape(
                "axis entry %s is not an integer" % shown)):
            harmonic_theta_truncation(e8, axis, 8, 4)
    want = harmonic_theta_truncation(e8, [2] + zeros, 8, 4)
    assert want.coeffs
    for axis in ([2.0] + zeros, [Fraction(4, 2)] + zeros):
        assert harmonic_theta_truncation(e8, axis, 8, 4) == want


def test_harmonic_theta_rejects_a_rational_gram(catalog):
    """dual(A2) has Gram entries 2/3 and -1/3: no silent truncation."""
    with pytest.raises(ValueError, match="not integral"):
        harmonic_theta_truncation(dual(catalog.lattice("A2")), (1, 0), 6, 4)


# -- design sums over automorphism orbits -----------------------------------

# the catalogue entries that carry automorphisms
ORBIT_ENTRIES = ("D4", "E6", "E7", "E8", "K12", "BW16", "Leech", "D16plus")


def _orbit_layers(catalog):
    """(label, layer) for the layers with automorphisms that the design
    tests read: the E8 shells of norm 2-10, the K12 shells of norm 4-8
    and the minimal layers of BW16, D16plus, D4, E6 and E7."""
    for name, bound in (("E8", 10), ("K12", 8)):
        tc = enumerate_vectors(catalog.lattice(name), bound, collect=True)
        for norm, layer in sorted(tc.layers.items()):
            if norm:
                yield "%s norm %s" % (name, norm), layer
    for name in ("BW16", "D16plus", "D4", "E6", "E7"):
        yield name, min_layer(catalog.lattice(name))


def _orbit_pair_sums(layer):
    """({d: sum over X x X of (x, y)^d} for d = 2-12 from the total tally
    that _pair_sum_test keeps on the layer, that tally, the candidate
    rows)."""
    designs._pair_sum_test(layer, (2,))
    total, candidates = layer._histogram
    return ({d: designs._power_sum(total, d) for d in range(2, 14, 2)},
            total, candidates)


def test_orbit_sums_equal_the_pair_histogram(catalog):
    """At every even degree through 12, the orbit-weighted pair sums are
    the pair histogram's, and the double-loop oracle's where |H| <= 400."""
    orbits = {}
    for label, layer in _orbit_layers(catalog):
        lat, half = designs._half(layer)
        got, total, candidates = _orbit_pair_sums(layer)
        m = int(layer.norm)
        hists = [designs._pair_histogram(lat.gram, half, m, m - 1)]
        if len(half) <= 400:
            hists.append(pair_histogram(lat.gram, half.tolist()))
        for hist in hists:
            assert got == {d: 4 * designs._power_sum(hist, d)
                           for d in got}, label
        assert sum(total.values()) == len(layer) ** 2, label
        label_of = designs._orbits(layer.rows, designs._automorphisms(lat))
        assert candidates == np.flatnonzero(
            label_of == np.arange(len(layer))).tolist(), label
        orbits[label] = len(candidates)
    assert orbits == {"E8 norm 2": 1, "E8 norm 4": 1, "E8 norm 6": 1,
                      "E8 norm 8": 2, "E8 norm 10": 1, "K12 norm 4": 1,
                      "K12 norm 6": 1, "K12 norm 8": 1, "BW16": 1,
                      "D16plus": 1, "D4": 2, "E6": 1, "E7": 1}


@pytest.mark.slow
def test_leech_orbit_sums(leech_layer):
    """Three orbits, the three shapes of minimal vector (SPLAG ch. 4
    section 11), each of whose rows meets the layer in Leech's distance
    distribution: (x, y) = +-4 once each, +-2 4,600 times each, +-1
    47,104 times each and 0 93,150 times.  The sums equal the pair
    histogram's."""
    got, _, candidates = _orbit_pair_sums(leech_layer)
    lat, half = designs._half(leech_layer)
    label = designs._orbits(leech_layer.rows, designs._automorphisms(lat))
    assert sorted(np.bincount(label)[candidates]) == [1104, 97152, 98304]
    tallies = designs._row_tallies(lat.gram, leech_layer.rows[candidates],
                                   half)
    for d in got:
        row = 2 * 4 ** d + 2 * 4600 * 2 ** d + 2 * 47104
        assert all(2 * designs._power_sum(tally, d) == row
                   for tally in tallies)
        assert got[d] == 196560 * row
    hist = designs._pair_histogram(lat.gram, half, 4, 2)
    assert got == {d: 4 * designs._power_sum(hist, d) for d in got}


def test_orbit_route_gives_the_histogram_verdicts_and_witnesses(catalog):
    """Every catalogue lattice with automorphisms gives the reports of a
    copy without them, which takes the pair histogram: check_design at
    t = 1-11 on the layers of _orbit_layers, is_strongly_perfect and
    coxeter_identity_check."""
    for label, layer in _orbit_layers(catalog):
        copy = Lattice(layer.lattice.gram)
        twin = enumerate_vectors(copy, layer.norm,
                                 collect=True).layers[layer.norm]
        assert designs._automorphisms(layer.lattice) is not None
        assert designs._automorphisms(copy) is None
        for t in range(1, 12, 2):
            assert check_design(layer, t) == check_design(twin, t), (
                label, t)
    for name in ("D4", "E6", "E7", "E8", "K12", "BW16", "D16plus"):
        lat = catalog.lattice(name)
        copy = Lattice(lat.gram)
        for cert in (is_strongly_perfect, coxeter_identity_check):
            assert cert(lat) == cert(copy), (name, cert)


def test_orbit_witnesses_are_pinned(catalog):
    """The first failed degree's witness: the first row of the layer
    whose orbit deviates, with the parent route's lhs and rhs."""
    k12 = check_design(min_layer(catalog.lattice("K12")), 7)
    assert k12.witnesses == {
        "direction": [-2, -2, 0, 0, 0, 0, 1, 1, 2, 1, 1, 2], "degree": 6,
        "lhs": 19008, "rhs": 17280}
    e8 = catalog.lattice("E8")
    assert check_design(min_layer(e8), 11).witnesses == {
        "direction": [-2, -3, -4, -6, -5, -4, -3, -2], "degree": 8,
        "lhs": 624, "rhs": 480}
    ten = enumerate_vectors(e8, 10, collect=True).layers[10]
    assert check_design(ten, 11).witnesses == {
        "direction": [-6, -8, -11, -16, -13, -10, -7, -4], "degree": 8,
        "lhs": 23651661600, "rhs": 23625000000}
    # D4's two orbits: the first row's deviates at degree 6
    d4 = min_layer(catalog.lattice("D4"))
    assert check_design(d4, 7).witnesses == {
        "direction": [-1, -2, -1, -1], "degree": 6, "lhs": 144, "rhs": 120}
    assert [int(c) for c in d4.rows[0]] == [-1, -2, -1, -1]


def test_orbit_route_at_any_norm(catalog):
    """D4 and E8 scaled by 2^61, carrying the catalogue's automorphisms as
    a loaded entry does (unchecked nested lists): the orbit route gives
    the report of a copy without them, though (x, y) and the norm pass
    2^62."""
    raw = {e["name"]: e for e in json.loads(lattice_module._bundled_text())}
    for name, t, degrees in (("D4", 7, {2: PASS, 4: PASS, 6: FAIL}),
                             ("E8", 11, {2: PASS, 4: PASS, 6: PASS,
                                         8: FAIL, 10: FAIL})):
        big = rescale(catalog.lattice(name), 2 ** 61)
        lat = _with_automorphisms(big, raw[name]["automorphisms"])
        rep = check_design(min_layer(lat), t)
        assert designs._automorphisms(lat) is not None
        assert rep == check_design(min_layer(Lattice(big.gram)), t), name
        assert rep.details["degrees"] == degrees
        assert _recompute(min_layer(lat), rep.witnesses) == (
            rep.witnesses["lhs"])


def _with_automorphisms(lat, gens):
    """A copy of lat carrying gens as its stored automorphisms."""
    copy = Lattice(lat.gram)
    object.__setattr__(copy, "_automorphisms", gens)
    return copy


def test_a_bad_stored_automorphism_raises(catalog, monkeypatch):
    """A stored matrix that is no integer isometry (g G g^T != G, a
    non-integer entry, the wrong shape) is refused by the exact check,
    and past that check (the test seam: designs._check says yes) an
    integral map that moves a vector off the layer is refused by the
    orbit search; no design test passes or fails on either."""
    e8 = catalog.lattice("E8")
    n = e8.dim
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    swap = [one[1], one[0]] + one[2:]
    double = [[2 * x for x in row] for row in one]
    assert linalg.mat_mul(swap, linalg.mat_mul(
        e8.gram, linalg.mat_transpose(swap))) != [list(r) for r in e8.gram]
    layer_of = lambda lat: enumerate_vectors(lat, 4, collect=True).layers[4]
    bad = (swap, double, [[1.0 * x for x in row] for row in one],
           [[Fraction(x) for x in row] for row in one[:-1]], one[:-1])
    for g in bad:
        lat = _with_automorphisms(e8, [one, g])
        with pytest.raises(ModLatticeError, match="stored automorphism 1 "):
            check_design(layer_of(lat), 7)
        with pytest.raises(ModLatticeError):
            is_strongly_perfect(lat)
    monkeypatch.setattr(designs, "_check", lambda *args: True)
    for g in (swap, double):
        lat = _with_automorphisms(e8, [one, g])
        for layer in (layer_of(lat), min_layer(lat)):
            with pytest.raises(ModLatticeError, match="does not permute"):
                check_design(layer, 7)
    # the orbit search alone, on the integer arrays
    rows = min_layer(e8).rows
    for g in (swap, double):
        with pytest.raises(ModLatticeError, match="does not permute"):
            designs._orbits(rows, np.array([g]))


def test_orbits_fall_back_to_byte_keys(catalog, monkeypatch):
    """With every key weight 1 the keys x w are coordinate sums, which
    rows of one layer share; the orbit search then keys the rows by
    their bytes and finds the same orbits."""
    layers = [min_layer(catalog.lattice("D4")),
              enumerate_vectors(catalog.lattice("E8"), 8,
                                collect=True).layers[8]]
    want = [designs._orbits(layer.rows,
                            designs._automorphisms(layer.lattice))
            for layer in layers]
    sorts = []
    argsort = np.argsort

    def spied(keys, *args, **kwargs):
        sorts.append(keys.dtype.kind)
        return argsort(keys, *args, **kwargs)

    class Ones:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            return 1
    monkeypatch.setattr(designs.random, "Random", Ones)
    monkeypatch.setattr(np, "argsort", spied)
    for layer, labels in zip(layers, want):
        sorts.clear()
        got = designs._orbits(layer.rows,
                              designs._automorphisms(layer.lattice))
        assert np.array_equal(got, labels)
        assert sorts[:2] == ["f", "V"] and set(sorts[2:]) == {"V"}


def test_every_stored_automorphism_is_exact():
    """Every matrix that the bundled catalogue stores is an integer
    isometry g G g^T = G of its entry, by a Python-integer triple loop;
    the entries that store them store three each."""
    raw = json.loads(lattice_module._bundled_text())
    stored = {e["name"]: e["automorphisms"] for e in raw
              if "automorphisms" in e}
    assert sorted(stored) == sorted(ORBIT_ENTRIES)
    for e in raw:
        gram = e["gram"]
        n = len(gram)
        for g in stored.get(e["name"], ()):
            assert len(g) == n and all(len(row) == n for row in g)
            assert all(type(x) is int for row in g for x in row)
            gg = [[sum(g[i][k] * gram[k][l] * g[j][l]
                       for k in range(n) for l in range(n))
                   for j in range(n)] for i in range(n)]
            assert gg == gram, e["name"]
    assert all(len(gens) == 3 for gens in stored.values())


def test_automorphisms_are_checked_on_first_use_not_at_load(tmp_path):
    """A catalogue file whose entry stores a bad matrix loads, and the
    design test raises; good matrices are checked once, into one array
    kept on the lattice."""
    raw = json.loads(lattice_module._bundled_text())
    e8 = next(e for e in raw if e["name"] == "E8")
    bad = dict(e8, name="E8bad",
               automorphisms=[[[2 * int(i == j) for j in range(8)]
                               for i in range(8)]])
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([e8, bad]))
    cat = load_catalog(str(path))
    with pytest.raises(ModLatticeError, match="stored automorphism 0 "):
        check_design(min_layer(cat.lattice("E8bad")), 7)
    lat = cat.lattice("E8")
    assert isinstance(lat._automorphisms, list)
    first = designs._automorphisms(lat)
    assert first.shape == (3, 8, 8) and first.tolist() == e8["automorphisms"]
    assert designs._automorphisms(lat) is first
    assert lat._automorphisms is first


def test_check_design_refuses_a_strength_below_one(catalog):
    layer = min_layer(catalog.lattice("E8"))
    for t in (0, -3):
        with pytest.raises(ValueError, match="must be positive"):
            check_design(layer, t)
