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
end.  In dimension >= 10 the search runs on an LLL-reduced basis (exact,
with the unimodular transform recorded), which makes the deep lattices
tractable; results are transformed back to the original coordinates.
"""

import atexit
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
import math
from operator import mul
import os
from typing import NamedTuple

from . import linalg
from .arith import int_or_fraction
from .errors import CapacityError, ModLatticeError
from .lattice import Lattice
from .qseries import QSeries

DEFAULT_CAPACITY = 10 ** 7

# A sweep with threads > 1 whose estimated node count (_nodes) is below
# this runs serially.  A warm pool adds about 0.7 ms to a sweep (dispatch
# and merge); on 2 cores the catalogue sweeps above 10^4 estimated nodes
# (2 ms and more serially) took 0.53-0.69 of their serial time, and those
# below 4,000 took 1.04-10 times it.
PARALLEL_MIN_NODES = 10 ** 4

# Runs of prefixes per worker: the pool's queue hands them out, so one
# slow run does not leave the other workers idle.
RUNS_PER_WORKER = 6


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


def _run(form, bound, collect, capacity, outer_range, inner_range,
         canonical):
    """Core scan.  Returns (counts, reps), keyed by integer keys.

    outer_range, a (first, last) pair or None, restricts the outermost
    coordinate x_top.  inner_range, a (lo, hi) pair or None, restricts
    x_(top-1) at the two ends only: to >= lo where x_top = first and to
    <= hi where x_top = last.  Together they cut out one run of
    (x_top, x_(top-1)) prefixes in DFS order, a job of the parallel split.

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
    zab = [False] * n          # all coordinates above this level are zero,
                               # or (at top) the ends of a run are clamped
    # sigma[k][j] = sum_(l >= j) B[k][l] Y_l for j > k.  Row k - 1 is
    # refreshed only on entering level k - 1, from stale[k] down to k:
    # stale[k] is the highest level changed since that row was refreshed.
    sigma = [[0] * (n + 1) for _ in range(n)]
    stale = [top] * n

    counts = {}
    reps = {} if collect else None
    collected = 0
    first = last = None
    if inner_range is not None:
        (first, last), (inner_lo, inner_hi) = outer_range, inner_range

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
        zab[top] = canonical or first is not None
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
        zflag = zab[lvl]
        if zflag:       # on the zero chain, or a top node of a run
            zflag = canonical and x == 0
            if zflag and lo < 0:
                lo = 0
            if lvl == top:
                if x == first and lo < inner_lo:
                    lo = inner_lo
                if x == last and hi > inner_hi:
                    hi = inner_hi
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


def _basis(lat: Lattice):
    """(Gram, transform or None) of the search basis: in dimension >= 10
    LLL-reduced once, and kept as it is when LLL leaves it unchanged."""
    if lat.dim < 10:
        return lat.gram, None
    if lat._lll is None:
        g, u = linalg.gram_lll(lat.gram)
        if u == linalg.mat_identity(lat.dim):
            g, u = lat.gram, None
        object.__setattr__(lat, "_lll", (g, u))
    return lat._lll


def _nodes(form, top, budget):
    """Gaussian-heuristic count of the nodes of the search over levels
    top..0 with `budget` left (Gama, Nguyen and Regev, EUROCRYPT 2010).

    Depth d holds about V_d prod_k (budget / c_k)^(1/2) nodes, over the
    first d of those levels, where V_d is the volume of the unit d-ball
    and c_k = f_k (e D_(k+1))^2 is the squared Gram-Schmidt length of
    level k in key units.  A float: it only picks the schedule, never a
    count or a vector.
    """
    total, volume = 0.0, 1.0
    for d, k in enumerate(range(top, -1, -1), 1):
        volume *= math.sqrt(budget / (form.weights[k] * form.steps[k] ** 2))
        total += volume * math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    return total


def _prefixes(form, rtop, canonical):
    """The (x_top, x_(top-1)) prefixes of the search in DFS order, each
    with the budget left below it; (x_top, None) in dimension <= 2."""
    rows, weights, steps, heads = (form.rows, form.weights, form.steps,
                                   form.heads)
    top = len(rows) - 1
    lo, hi = _range(rtop, weights[top], steps[top], heads[top])
    if canonical:
        lo = max(lo, 0)
    out = []
    for x in range(lo, hi + 1):
        z = steps[top] * x + heads[top]
        r = rtop - weights[top] * z * z
        if top < 2:
            out.append((x, None, r))
            continue
        k = top - 1
        a = rows[k][top] * (form.den * x + form.offsets[top]) + heads[k]
        lo2, hi2 = _range(r, weights[k], steps[k], a)
        if canonical and x == 0:
            lo2 = max(lo2, 0)
        for y in range(lo2, hi2 + 1):
            z = steps[k] * y + a
            out.append((x, y, r - weights[k] * z * z))
    return out


def _cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not on Linux
        return os.cpu_count() or 1


def _pin(slots):
    """Pool initializer: bind this worker to a core of its own, taken from
    `slots`.  Left to the scheduler, the workers of a short sweep can share
    one core: on a 2-vCPU Linux VM, K12 to norm 8 took 23 ms with two
    unbound workers and 22 ms serially, and 12-19 ms bound.  The binding
    only places the worker, so a refusal leaves it unbound."""
    core = slots.get()
    try:
        os.sched_setaffinity(0, {core})
    except OSError:
        pass


def _split(form, bound, canonical, threads):
    """(jobs, workers) of a parallel sweep, or None to sweep serially.

    workers is min(threads, cores), so the pool keeps its size from one
    sweep to the next.  A sweep with fewer than 2 workers, an estimate
    below PARALLEL_MIN_NODES or a single job is serial.  Otherwise the
    prefixes, in DFS order, are cut into contiguous runs of about equal
    estimated cost, RUNS_PER_WORKER per worker; a job is the
    (outer_range, inner_range) pair of one run (see _run).
    """
    rtop = _top(form, bound)
    top = len(form.rows) - 1
    workers = min(threads, _cores())
    if workers < 2 or _nodes(form, top, rtop) < PARALLEL_MIN_NODES:
        return None
    prefixes = _prefixes(form, rtop, canonical)
    below = top - 2 if top >= 2 else top - 1
    cost = list(accumulate(1 + _nodes(form, below, r)
                           for _, _, r in prefixes))
    nruns = min(RUNS_PER_WORKER * workers, len(prefixes))
    edges = ([0] + [bisect_left(cost, cost[-1] * j / nruns) + 1
                    for j in range(1, nruns)] + [len(prefixes)])
    jobs = []
    for i, j in zip(edges, edges[1:]):
        if i < j:
            (x0, y0, _), (x1, y1, _) = prefixes[i], prefixes[j - 1]
            jobs.append(((x0, x1), None if y0 is None else (y0, y1)))
    return (jobs, workers) if len(jobs) > 1 else None


class _Pool:
    """The worker processes of parallel sweeps, one pool per process.

    Started by the first parallel sweep and kept for later ones; only a
    sweep with another threads value (so another size) replaces it, a
    dead worker drops it, and it is shut down at interpreter exit.  On
    Linux each worker is bound to a core of its own (see _pin).
    """

    def __init__(self):
        self.executor, self.size = None, 0

    def get(self, size):
        if self.executor is not None and self.size != size:
            self.close()
        if self.executor is None:
            from concurrent.futures import ProcessPoolExecutor
            pin = {}
            if hasattr(os, "sched_setaffinity"):
                import multiprocessing
                slots = multiprocessing.SimpleQueue()
                cores = sorted(os.sched_getaffinity(0))
                for i in range(size):
                    slots.put(cores[i % len(cores)])
                pin = {"initializer": _pin, "initargs": (slots,)}
            self.executor = ProcessPoolExecutor(size, **pin)
            self.size = size
            atexit.register(self.close)
        return self.executor

    def close(self):
        if self.executor is not None:
            atexit.unregister(self.close)
            self.executor.shutdown(cancel_futures=True)
            self.executor = None


_POOL = _Pool()


def _merge(parts, capacity=None):
    """Sum the runs' results in DFS order, taking over their lists.

    With a capacity (when collecting), stop where the serial scan stops:
    at the leaf, in DFS order, that takes the collected count past it.
    """
    counts, reps, collected = {}, {}, 0
    for c_part, r_part in parts:
        if capacity is not None:
            size = sum(c_part.values())
            if collected + size > capacity:
                left = capacity - collected
                for _, key, m in sorted((x[::-1], key, m)
                                        for key, xs in r_part.items()
                                        for x, m in xs):
                    counts[key] = counts.get(key, 0) + m
                    left -= m
                    if left < 0:
                        break
                break
            collected += size
        for k, v in c_part.items():
            counts[k] = counts.get(k, 0) + v
        for k, v in (r_part or {}).items():
            if k in reps:
                reps[k].extend(v)
            else:
                reps[k] = v
    return counts, reps


def _parallel(form, bound, collect, capacity, canonical, jobs, workers):
    """_run over the jobs on the process pool, merged in job order."""
    from concurrent.futures.process import BrokenProcessPool
    n = len(jobs)
    outer, inner = zip(*jobs)
    try:
        parts = _POOL.get(workers).map(
            _run, [form] * n, [bound] * n, [collect] * n, [capacity] * n,
            outer, inner, [canonical] * n)
        return _merge(parts, capacity if collect else None)
    except BrokenProcessPool as exc:
        _POOL.close()
        raise ModLatticeError(
            "an enumeration worker process died; the next parallel sweep "
            "starts a fresh pool") from exc


def enumerate_vectors(lat: Lattice, bound, shift=None, collect=False,
                      capacity=DEFAULT_CAPACITY, *, threads=1) -> ThetaCounts:
    """All lattice vectors x (or coset vectors x + shift) with norm <= bound.

    Exact counts by norm; with collect=True the coordinate rows themselves
    (in the original basis, shift included) are returned in sorted order,
    guarded by `capacity`.  In dimension >= 10 the search runs on an
    LLL-reduced basis (see _basis); a basis already reduced keeps its
    coordinates.

    threads > 1 first estimates the size of the search (_nodes) and
    sweeps serially below PARALLEL_MIN_NODES.  Above it, the prefixes
    (x_top, x_(top-1)) of the search tree are cut into runs of about equal
    estimated cost, which the process pool of this process (see _Pool;
    min(threads, cores) workers) sweeps and which are merged in DFS
    order.  Counts, their key order, the collected layers and the
    partial counts of a CapacityError are the serial ones.
    Every call sweeps afresh.  The count-only readers (minimum,
    theta_series, coxeter_number and the transformation check) share a
    memo through _counts, and the collecting readers (min_layer, and
    through it perfection_rank, eutaxy_check and is_strongly_perfect;
    harmonic_theta_truncation and coxeter_identity_check) another
    through _collected.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    g_red, u_rows = _basis(lat)
    # the shift in reduced coordinates: shift_red * u = shift
    shift_red = (shift if shift is None or u_rows is None
                 else linalg.solve(u_rows, shift))
    canonical = shift is None
    form = _integer_form(g_red, shift_red)

    split = _split(form, bound, canonical, threads) if threads > 1 else None
    if split is None:
        counts, reps = _run(form, bound, collect, capacity, None, None,
                            canonical)
    else:
        counts, reps = _parallel(form, bound, collect, capacity, canonical,
                                 *split)
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
    count-only unshifted sweep of this (immutable) object, or from
    lat._layers when that reaches the bound; otherwise a count-only sweep
    to bound replaces lat._sweep.  Each caller gets its own counts dict."""
    bound = Fraction(bound)
    memo = lat._sweep
    if memo is None or memo.bound < bound:
        memo = lat._layers
    if memo is None or memo.bound < bound:
        memo = enumerate_vectors(lat, bound, threads=threads)
        object.__setattr__(lat, "_sweep", memo)
    return ThetaCounts(bound, {k: v for k, v in memo.counts.items()
                               if k <= bound})


def _collected(lat: Lattice, bound, threads=1) -> ThetaCounts:
    """Counts and collected layers of lat up to bound, cut from
    lat._layers, the largest collected unshifted sweep that a reader asked
    for on this object; a larger bound collects to that bound (under
    DEFAULT_CAPACITY) and replaces it, keeping the layers already handed
    out.  So a norm's layer is one VectorLayer object for the life of lat,
    and what is kept on it (its pair histogram) serves every reader."""
    bound = Fraction(bound)
    memo = lat._layers
    if memo is None or memo.bound < bound:
        tc = enumerate_vectors(lat, bound, collect=True, threads=threads)
        if memo is not None:
            tc.layers.update(memo.layers)
        memo = tc
        object.__setattr__(lat, "_layers", memo)
    return ThetaCounts(
        bound, {k: v for k, v in memo.counts.items() if k <= bound},
        layers={k: v for k, v in memo.layers.items() if k <= bound})


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

    Read through _collected up to _min_bound: the first call collects,
    later calls on the same object return the same layer.
    """
    tc = _collected(lat, _min_bound(lat), threads)
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
