"""Exact short vector enumeration (Fincke-Pohst on an integer form).

The Gram matrix G is scaled by the lcm c of its denominators, and a coset
shift s by its common denominator e, so Y = e*x + e*s is an integer
vector for every lattice vector x.  The fraction-free (Bareiss)
elimination of cG gives integer rows B with B[k][k] = D_(k+1), the
leading principal minors (D_0 = 1), and

    c e^2 L (y, y) = sum_k f_k Z_k^2,   Z_k = sum_(j>=k) B[k][j] Y_j,

where L = lcm_k D_k D_(k+1) and f_k = L / (D_k D_(k+1)).  Each level of
the search bounds |Z_k| by an integer square root and solves for x_k by
floor division, and each leaf is keyed by the integer sum_k f_k Z_k^2.
No float and no Fraction enters the search, so no vector is ever missed
or double counted; a key becomes a norm once per distinct norm, at the
end.  Optional LLL preprocessing (exact, with the unimodular transform
recorded) makes the deep lattices tractable; results are transformed
back to the original coordinates.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math
from operator import mul
from typing import NamedTuple

from . import linalg
from .arith import int_or_fraction
from .errors import CapacityError
from .lattice import Lattice
from .qseries import QSeries

DEFAULT_CAPACITY = 10 ** 7


@dataclass(frozen=True)
class VectorLayer:
    """All lattice vectors of one norm, in deterministic (sorted) order."""

    norm: object
    vectors: tuple
    complete: bool
    lattice: object = None
    _histogram: dict = field(default=None, init=False, repr=False,
                             compare=False)

    def __len__(self):
        return len(self.vectors)


@dataclass(frozen=True)
class ThetaCounts:
    """Exact counts of vectors by norm up to a bound.

    counts[0] = 1 for unshifted enumeration; for j > 0 the counts are even
    (x and -x).  layers is filled only when collecting.
    """

    bound: object
    counts: dict
    shift: object = None
    layers: dict = None

    def count(self, norm):
        return self.counts.get(norm, 0)


class _Form(NamedTuple):
    """Integer data of the search; see the module docstring."""

    rows: tuple      # B, fraction-free rows of cG (used on and right of k)
    weights: tuple   # f_k
    steps: tuple     # e B[k][k]: change of Z_k per unit step of x_k
    heads: tuple     # B[k][k] e s_k: the shift's own term in Z_k
    offsets: tuple   # e s_k
    den: int         # e
    scale: int       # c e^2 L; a leaf's key is scale * norm


def _integer_form(gram, shift=None) -> _Form:
    n = len(gram)
    a, c = linalg.clear_denominators(gram)
    rows = linalg.bareiss_rows(a)
    if len(rows) < n or rows[-1][-1] <= 0:
        raise ValueError("form is not positive definite")
    if shift is None:
        e, t = 1, (0,) * n
    else:
        shift = [Fraction(v) for v in shift]
        e = math.lcm(*(v.denominator for v in shift))
        t = tuple(int(v * e) for v in shift)
    d = [1] + [rows[k][k] for k in range(n)]
    big_l = math.lcm(*(d[k] * d[k + 1] for k in range(n)))
    return _Form(
        rows=tuple(tuple(row) for row in rows),
        weights=tuple(big_l // (d[k] * d[k + 1]) for k in range(n)),
        steps=tuple(e * d[k + 1] for k in range(n)),
        heads=tuple(d[k + 1] * t[k] for k in range(n)),
        offsets=t, den=e, scale=c * e * e * big_l)


def _top(form, bound):
    """Integer budget floor(scale * bound) of the outermost level."""
    return form.scale * bound.numerator // bound.denominator


def _range(r, weight, step, a):
    """All integers x with weight * (step x + a)^2 <= r."""
    s = math.isqrt(r // weight)
    return -((s + a) // step), (s - a) // step


def _by_norm(counts, scale):
    return {int_or_fraction(Fraction(k, scale)): v for k, v in counts.items()}


def _run(form, bound, collect, capacity, outer_range, canonical):
    """Core scan.  Returns (counts, reps), keyed by integer keys.

    outer_range, a (lo, hi) pair or None, restricts the outermost
    coordinate; the parallel split gives each worker one such chunk.

    canonical=True (only without shift) enumerates one of each +-pair and
    applies multiplicity 2, keeping the zero vector single.  When
    collecting, the scan stops at the first leaf that takes the collected
    count past `capacity`.
    """
    rows, weights, steps, heads = (form.rows, form.weights, form.steps,
                                   form.heads)
    offsets, den = form.offsets, form.den
    n = len(rows)
    top = n - 1
    rtop = _top(form, bound)
    isqrt = math.isqrt

    r_arr = [0] * n            # remaining budget at each level
    a_arr = [0] * n            # Z_k = steps[k] * x_k + a_arr[k]
    x_arr = [0] * n
    y_arr = [0] * n            # Y_k = den * x_k + offsets[k]
    hi_arr = [0] * n
    zab = [False] * n          # all coordinates above this level are zero
    # sigma[k][j] = sum_(l >= j) B[k][l] Y_l for j > k.  Row k - 1 is
    # refreshed only on entering level k - 1, from stale[k] down to k:
    # stale[k] is the highest level changed since that row was refreshed.
    sigma = [[0] * (n + 1) for _ in range(n)]
    stale = [top] * n

    counts = {}
    reps = {} if collect else None
    collected = 0

    def scan(lo, hi, a, r, zflag):
        """Level 0 below fixed x_1..x_(n-1); False on overflow."""
        nonlocal collected
        done = rtop - r
        w, step = weights[0], steps[0]
        if not collect:
            for z in range(step * lo + a, step * hi + a + 1, step):
                key = done + w * z * z
                counts[key] = counts.get(key, 0) + 1
            return True
        for x in range(lo, hi + 1):
            z = step * x + a
            key = done + w * z * z
            mult = 1 if not canonical or (zflag and x == 0) else 2
            counts[key] = counts.get(key, 0) + mult
            collected += mult
            x_arr[0] = x
            reps.setdefault(key, []).append((tuple(x_arr), mult))
            if collected > capacity:
                return False
        return True

    a = heads[top]
    lo, hi = _range(rtop, weights[top], steps[top], a)
    if canonical:
        lo = max(lo, 0)
    if outer_range is not None:
        lo = max(lo, outer_range[0])
        hi = min(hi, outer_range[1])
    if top == 0:
        if lo <= hi:
            scan(lo, hi, a, rtop, canonical)
        lvl = 1
    else:
        r_arr[top], a_arr[top], x_arr[top], hi_arr[top] = rtop, a, lo - 1, hi
        zab[top] = canonical
        lvl = top
    while lvl <= top:
        x = x_arr[lvl] + 1
        if x > hi_arr[lvl]:
            lvl += 1
            continue
        x_arr[lvl] = x
        z = steps[lvl] * x + a_arr[lvl]
        r = r_arr[lvl] - weights[lvl] * z * z
        y_arr[lvl] = den * x + offsets[lvl]
        k = lvl - 1
        row, brow = sigma[k], rows[k]
        for j in range(stale[lvl], k, -1):
            row[j] = row[j + 1] + brow[j] * y_arr[j]
        if stale[k] < stale[lvl]:
            stale[k] = stale[lvl]
        stale[lvl] = lvl
        a = row[lvl] + heads[k]
        s = isqrt(r // weights[k])
        step = steps[k]
        lo, hi = -((s + a) // step), (s - a) // step
        zflag = zab[lvl] and x == 0
        if zflag and lo < 0:
            lo = 0
        if lo > hi:
            continue
        if k:
            r_arr[k], a_arr[k], x_arr[k], hi_arr[k] = r, a, lo - 1, hi
            zab[k] = zflag
            lvl = k
        elif not scan(lo, hi, a, r, zflag):
            break
    if canonical and not collect:
        # each leaf stood for +-x; the zero vector (key 0) is its own pair
        for key in counts:
            counts[key] *= 2
        if 0 in counts:
            counts[0] = 1
    return counts, reps


def _finalize_layers(reps, form, u_rows, lat):
    """Expand +- pairs, apply shift and basis transform, sort."""
    layers = {}
    cols = None if u_rows is None else list(zip(*u_rows))
    e, t = form.den, form.offsets
    shifted = any(t)
    for key in list(reps):
        out = []
        for x, m in reps.pop(key):
            if shifted:
                x = tuple(e * xi + ti for xi, ti in zip(x, t))
            if cols is not None:
                x = tuple(sum(map(mul, x, col)) for col in cols)
            if e != 1:
                x = tuple(v // e if v % e == 0 else Fraction(v, e)
                          for v in x)
            out.append(x)
            if m == 2:
                out.append(tuple(-v for v in x))
        out.sort()
        norm = int_or_fraction(Fraction(key, form.scale))
        layers[norm] = VectorLayer(norm, tuple(out), True, lat)
    return layers


def _basis(lat: Lattice, reduce_first=None):
    """(Gram, transform or None) of the search basis, LLL-reduced once."""
    if reduce_first is None:
        reduce_first = lat.dim >= 10
    if not reduce_first:
        return lat.gram, None
    if lat._lll is None:
        object.__setattr__(lat, "_lll", linalg.gram_lll(lat.gram))
    return lat._lll


def _merge(parts):
    """Sum the chunks' results in chunk order, taking over their lists."""
    counts, reps = {}, {}
    for c_part, r_part in parts:
        for k, v in c_part.items():
            counts[k] = counts.get(k, 0) + v
        for k, v in (r_part or {}).items():
            if k in reps:
                reps[k].extend(v)
            else:
                reps[k] = v
    return counts, reps


def enumerate_vectors(lat: Lattice, bound, shift=None, collect=False,
                      capacity=DEFAULT_CAPACITY, reduce_first=None,
                      threads=1) -> ThetaCounts:
    """All lattice vectors x (or coset vectors x + shift) with norm <= bound.

    Exact counts by norm; with collect=True the coordinate rows themselves
    (in the original basis, shift included) are returned in sorted order,
    guarded by `capacity`.  reduce_first toggles LLL preprocessing
    (default: on for dim >= 10).  threads > 1 splits the range of the
    outermost coordinate across processes; the merged result is identical
    to the serial one, and the capacity guard applies to the merged count.
    Every call sweeps afresh; only minimum and theta_series share a memo.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    g_red, u_rows = _basis(lat, reduce_first)
    # the shift in reduced coordinates: shift_red * u = shift
    shift_red = (shift if shift is None or u_rows is None
                 else linalg.solve(u_rows, shift))
    canonical = shift is None
    form = _integer_form(g_red, shift_red)

    ranges = [None]
    if threads > 1:
        top = lat.dim - 1
        lo, hi = _range(_top(form, bound), form.weights[top],
                        form.steps[top], form.heads[top])
        if canonical:
            lo = max(lo, 0)
        width = hi - lo + 1
        if width >= 2:
            nchunks = min(threads, width)
            edges = [lo + (width * i) // nchunks
                     for i in range(nchunks)] + [hi + 1]
            ranges = [(edges[i], edges[i + 1] - 1) for i in range(nchunks)]
    jobs = [(form, bound, collect, capacity, rng, canonical)
            for rng in ranges]
    if len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            counts, reps = _merge(pool.map(_run, *zip(*jobs)))
    else:
        counts, reps = _run(*jobs[0])
    shift_out = None if shift is None else tuple(map(Fraction, shift))
    if collect and sum(counts.values()) > capacity:
        raise CapacityError(
            "collection capacity %d exceeded" % capacity,
            partial_counts=ThetaCounts(
                bound, _by_norm(counts, form.scale), shift_out))
    layers = (_finalize_layers(reps, form, u_rows, lat)
              if collect else None)
    return ThetaCounts(bound, _by_norm(counts, form.scale), shift_out,
                       layers)


def _counts(lat: Lattice, bound, threads=1) -> ThetaCounts:
    """Counts of lat up to bound, cut from lat._sweep, the largest
    count-only unshifted sweep of this (immutable) object; a larger bound
    sweeps and replaces it.  Each caller gets its own counts dict."""
    bound = Fraction(bound)
    memo = lat._sweep
    if memo is None or memo.bound < bound:
        memo = enumerate_vectors(lat, bound, threads=threads)
        object.__setattr__(lat, "_sweep", memo)
    return ThetaCounts(bound, {k: v for k, v in memo.counts.items()
                               if k <= bound})


@dataclass(frozen=True)
class MinimumReport:
    minimum: object
    kissing: int


def _min_bound(lat: Lattice):
    """Smallest diagonal entry of the Gram matrix the search runs on: the
    norm of a basis vector, so a sweep up to it reaches Min(L)."""
    g = _basis(lat)[0]
    return min(g[i][i] for i in range(lat.dim))


def minimum(lat: Lattice, threads=1) -> MinimumReport:
    """Minimum and kissing number, read off one count-only sweep to
    _min_bound, or off any larger sweep already made on this object."""
    tc = _counts(lat, _min_bound(lat), threads)
    m = min(k for k in tc.counts if k > 0)
    return MinimumReport(m, tc.counts[m])


def min_layer(lat: Lattice, threads=1) -> VectorLayer:
    """The layer Min(L) of minimal vectors, collected.

    Collects in a single sweep up to _min_bound, not stored on lat.
    """
    tc = enumerate_vectors(lat, _min_bound(lat), collect=True,
                           threads=threads)
    m = min(k for k, layer in tc.layers.items() if k > 0 and len(layer))
    return tc.layers[m]


def window_bound(lat: Lattice, precision_q: int):
    """Largest norm below precision_q that a vector of lat can have.

    Norms lie in (1/c)Z for c the lcm of the Gram denominators, and in 2Z
    for an even lattice, so one sweep to this bound sees every norm of the
    window q^0 .. q^(precision_q - 1).
    """
    if lat.is_even:
        return (precision_q - 1) // 2 * 2
    c = math.lcm(*(Fraction(x).denominator for row in lat.gram for x in row))
    return precision_q - Fraction(1, c)


def theta_series(lat: Lattice, precision_q: int, threads=1) -> QSeries:
    """Theta series with coefficients a_L(j) for all j < precision_q.

    The counts to window_bound, shared with minimum (see _counts),
    determine the window.  Rational Grams are accepted when every norm
    found is a multiple of 1/12, the exponent unit of QSeries; otherwise
    ValueError names the first norm that is not.
    """
    if precision_q < 1:
        raise ValueError("precision must be at least 1")
    tc = _counts(lat, window_bound(lat, precision_q), threads)
    coeffs = {}
    for norm, count in tc.counts.items():
        if (12 * norm) % 1:
            raise ValueError("vector norm %s is not a multiple of 1/12, "
                             "so it has no exponent in the q-series" % norm)
        coeffs[int(12 * norm)] = count
    return QSeries(coeffs, 12 * precision_q)
