"""Exact short vector enumeration (Fincke-Pohst on an integer form).

The Gram matrix G is scaled by the lcm c of its denominators, and a coset
shift s by its common denominator e, so Y = e*x + e*s is an integer
vector for every lattice vector x.  The fraction-free (Bareiss)
elimination of cG gives integer rows B with B[k][k] = D_(k+1), the
leading principal minors (D_0 = 1), and

    c e^2 L (y, y) = L Y.(cG).Y = sum_k f_k Z_k^2,
    Z_k = sum_(j>=k) B[k][j] Y_j,

where L = lcm_k D_k D_(k+1) and f_k = L / (D_k D_(k+1)).  Each leaf is
keyed by that integer, so a key becomes a norm once per distinct norm,
at the end.  Two searches give the same leaves in the same (depth-first)
order:

- _run, the Python scan, bounds |Z_k| at each level by an integer square
  root and solves for x_k by floor division: no float and no Fraction.
- _vector_search expands all live nodes of a level at once in numpy.
  Floats only prune, inside intervals widened by a proven error bound
  (see _floats), and each leaf is decided and keyed by its exact integer
  L Y.(cG).Y.

So no vector is ever missed or double counted.  The search runs on an
LLL-reduced basis in every dimension (exact, with the unimodular
transform recorded; see _basis), which keeps skewed and deep lattices
tractable; a collecting search gives its leaves as (ids, Y rows), and
_finalize_layers transforms the rows back to the original coordinates.

_sweep picks the search and the schedule.  A collecting sweep runs
_vector_search in this process.  A count-only sweep picks from one
estimate of its nodes (_nodes): the process pool runs _vector_search on
runs of the search tree's top prefixes, and this process runs it from
VECTOR_MIN_NODES on and _run below it, so a small count-only sweep
imports no numpy.  _cut alone finds where a collecting sweep passed its
capacity, wherever the search stopped after it.
"""

import atexit
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
import functools
from itertools import accumulate
import math
import os
from typing import NamedTuple

from . import linalg
from .arith import int_or_fraction
from .errors import CapacityError, ModLatticeError
from .lattice import Lattice
from .qseries import QSeries

DEFAULT_CAPACITY = 10 ** 7

# A sweep with threads > 1 whose estimated node count (_nodes) is below
# this runs in this process; from it on the pool runs _vector_search.  On
# a 2-vCPU Linux VM a warm pool of 2 workers took 5-10 ms for each
# catalogue sweep of 1.5*10^3 to 10^4 estimated nodes, 1.5-6.7 times the
# serial time; from 10^4 to 5*10^4, where the serial search is _run, it
# took 0.24-1.3 times it (BW16 to norm 4, 24,645 nodes: 6-8 against
# 20-21 ms); above that, against _vector_search in a process with numpy
# loaded, 0.68-1.56 times it.  perfbench's `sweep` was slower with 5*10^4.
PARALLEL_MIN_NODES = 10 ** 4

# Runs of prefixes per worker: the pool's queue hands them out, so one
# slow run does not leave the other workers idle.
RUNS_PER_WORKER = 6

# A count-only sweep run in this process whose estimated node count
# (_nodes) reaches this runs _vector_search; below it, _run, which needs
# no numpy.  On a 2-vCPU Linux VM, with numpy loaded, _vector_search took
# 0.16-0.34 of _run's time on catalogue sweeps of 2.5*10^4 to 10^5
# estimated nodes (BW16 to norm 4, 24,645 nodes: 3-4 against 19-23 ms; E8
# to 8, 34,446: 5 against 15-16 ms; K12 to 8, 57,162: 7 against 37-41 ms;
# D16plus to 4, 98,114: 26-30 against 100-112 ms).  But importing numpy
# costs 0.08-0.18 s and 11 MB (16.7 to 28.0 MB), so a process that
# imports it for one sweep gains only from about 10^5 nodes.  At 5*10^4
# the verbs that sweep below it at threads 1 (E8 windows, the BW16
# minimum) import no numpy, and `shadow --lattice Z16` (61,100) took
# 0.28 s against 0.24 s.  A collecting sweep, whose layers load numpy
# anyway, runs _vector_search at any size.
VECTOR_MIN_NODES = 5 * 10 ** 4

# Rows of a collected layer made into tuples at a time (see _tuples).
_CHUNK = 2048

# Children that one expansion of _vector_search makes at most; a batch
# per level can be alive at once.  On a 2-vCPU Linux VM, 2^12 against
# 2^13: the Leech minimal layer collected in 0.75-0.87 s against
# 0.63-0.80 s, the Z16 shadow sweep to norm 4 peaked 4.6 MB against
# 7.3 MB above the 28 MB of a process with numpy loaded (so
# `shadow --lattice Z16` stays below the 34.8 MB of the largest verbs),
# and the pool workers of perfbench's `sweep` at 33.7 against 35.7 MB.
_BATCH = 2 ** 12


@dataclass(frozen=True, init=False, eq=False)
class VectorLayer:
    """All lattice (or coset) vectors of one norm, in deterministic order.

    The vectors are rows / den: rows is one read-only integer array, in
    the narrowest signed dtype that holds its entries and their negatives
    (_narrow; int8 for the catalogue, 1 byte per coordinate), and den is
    1 for lattice vectors and the denominator of a coset's entries.  The
    certificates and the isometry search read rows; vectors, a tuple of
    coordinate tuples (Python integers, Fractions where den does not
    divide), is made from them on first read and kept, and len() does
    not make it.  Layers compare on (norm, den, complete, lattice) and
    the values of rows, which with den determine the vectors, and hash on
    those fields and len(); neither makes tuples.  _histogram is what the
    design tests sum over, kept once one has built it: (total,
    candidates), total the tally {v: ordered pairs (x, y) in X x X with
    (x, y) = v} and candidates the indices of the rows that may witness a
    failure, in order (designs._pair_sum_test).
    """

    norm: object
    rows: object
    den: int
    complete: bool
    lattice: object = None
    _histogram: object = field(default=None, repr=False)

    def __init__(self, norm, vectors, complete, lattice=None, den=1):
        """vectors: coordinate tuples of integers and Fractions, whose
        den becomes the lcm of their denominators (nothing is truncated),
        or, as a sweep gives them, one integer array of the vectors times
        den."""
        if not isinstance(vectors, linalg.load_numpy().ndarray):
            den = math.lcm(*{Fraction(v).denominator
                             for x in vectors for v in x})
            rows = [[int(v * den) for v in x] for x in vectors]
            dim = len(rows[0]) if rows else getattr(lattice, "dim", 0)
            vectors = linalg.integer_array(rows).reshape(len(rows), dim)
        rows = _narrow(vectors)
        rows.flags.writeable = False
        self.__dict__.update(norm=norm, rows=rows, den=den,
                             complete=complete, lattice=lattice)

    @functools.cached_property
    def vectors(self):
        return _tuples(self.rows, self.den)

    def __len__(self):
        return len(self.rows)

    def _key(self):
        return self.norm, self.den, self.complete, self.lattice

    def __eq__(self, other):
        return (type(other) is VectorLayer and self._key() == other._key()
                and linalg.load_numpy().array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((*self._key(), len(self)))


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
    gram: tuple      # cG: a leaf's key is L Y.(cG).Y


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
        offsets=t, den=e, scale=c * e * e * big_l,
        gram=tuple(map(tuple, a)))


def _top(form, bound):
    """Integer budget floor(scale * bound) of the outermost level."""
    return form.scale * bound.numerator // bound.denominator


def _range(r, weight, step, a):
    """All integers x with weight * (step x + a)^2 <= r."""
    s = math.isqrt(r // weight)
    return -((s + a) // step), (s - a) // step


def _by_norm(counts, scale):
    return {int_or_fraction(Fraction(k, scale)): v for k, v in counts.items()}


def _run(form, bound, collect, capacity, canonical):
    """Core scan.  Returns (counts, leaves), counts keyed by integer keys.

    canonical=True (only without shift) enumerates one of each +-pair and
    applies multiplicity 2, keeping the zero vector single.  leaves is
    None, or when collecting the pair (ids, ys) of arrays holding each
    leaf in DFS order: ids[i] the position of its key in counts, ys[i]
    its row Y = e x + t (see _finalize_layers).  Then the scan stops at
    the first leaf that takes the collected count past `capacity`,
    clamping the level-0 row to it: one row can be astronomically long.
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

    counts = {}     # collecting: key -> its position, in first-seen order
    ids, ys = [], []
    collected = 0
    mult = 2 if canonical else 1

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
        # zflag: x = 0 here is the origin, the one leaf that is not a pair
        origin = zflag and lo == 0
        size = mult * (hi - lo + 1) - origin
        over = collected + size > capacity
        if over:        # stop at the leaf that takes the count past it
            hi = lo + (capacity - collected + origin) // mult
        collected += size
        for x in range(lo, hi + 1):
            z = step * x + a
            ids.append(counts.setdefault(done + w * z * z, len(counts)))
            y_arr[0] = den * x + offsets[0]
            ys.extend(y_arr)
        return not over

    a = heads[top]
    lo, hi = _range(rtop, weights[top], steps[top], a)
    if canonical:
        lo = max(lo, 0)
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
    if not collect:
        return _pairs(counts, canonical), None
    np = linalg.load_numpy()
    ids = np.array(ids, dtype=np.intp)
    ys = _narrow(linalg.integer_array(ys).reshape(len(ids), n))
    return _tally(list(counts), ids, canonical), (ids, ys)


def _pairs(counts, canonical):
    """Counts of a canonical scan's leaves as counts of vectors: each leaf
    stood for +-x, and the zero vector (key 0) is its own pair."""
    if canonical:
        counts = {key: 2 * v for key, v in counts.items()}
        if 0 in counts:
            counts[0] = 1
    return counts


def _tally(keys, ids, canonical):
    """Counts by key of the leaves ids (positions in keys), in key order."""
    np = linalg.load_numpy()
    tally = np.bincount(ids, minlength=len(keys)).tolist()
    return _pairs(dict(zip(keys, tally)), canonical)


def _narrow(arr):
    """arr (an integer or object array) in the narrowest signed integer
    dtype that holds its entries and their negatives: int8 for every
    layer of the catalogue."""
    np = linalg.load_numpy()
    top = linalg.max_abs(arr)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return arr.astype(dtype)
    return arr


class _Floats(NamedTuple):
    """Float data of _vector_search, in Y units; see _floats."""

    mu: tuple        # mu[k][j] = B[k][j] / B[k][k] for j > k, else 0
    gs: tuple        # b_k = D_(k+1) / D_k, the Gram-Schmidt squares of cG
    budget: float    # R = floor(scale * bound) / L
    margins: tuple   # m_k, the widening of level k's intervals
    reach: float     # max_k |Y_k| over every node the search makes


_U = 2.0 ** -53          # unit roundoff of float64
_RANGE = 2.0 ** 500      # float data stays within [1 / _RANGE, _RANGE]
_EXACT = 2.0 ** 50       # |Y_k| of every node the search makes stays below


@functools.lru_cache(maxsize=8)
def _floats(form, bound):
    """Float data of _vector_search, or None when its check fails.

    Y.(cG).Y = sum_k b_k (Y_k + c_k)^2 with c_k = sum_(j>k) mu_kj Y_j, and
    a leaf lies in the ball iff that is at most R.  b_k, mu_kj and R are
    each rounded once, correctly, from exact rationals.  A node (Y_j fixed
    for j >= k) is live if its exact partial sum P_k = sum_(j>=k)
    b_j (Y_j + c_j)^2 is at most R; every ancestor of a leaf in the ball
    is live.  On a live node |Y_j + c_j| <= s_j = sqrt(R / b_j), so
    |c_j| <= C_j = sum_(i>j) |mu_ji| Yh_i and |Y_j| <= Yh_j = s_j + C_j.

    With u = 2^-53 and g_m = m u / (1 - m u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3), on a live node:
    - the computed centre is within eps_j = g_(n+1) C_j of c_j (a dot
      product of length n with rounded mu, in any order);
    - the computed Y_j + c_j is within d_j = eps_j + u (s_j + eps_j);
    - the computed term b_j (Y_j + c_j)^2 is within
      t_j = d_j (2 sqrt(R b_j) + b_j d_j) + g_3 (sqrt(R) + sqrt(b_j) d_j)^2;
    - the computed P_k is within E = sum t + g_n (R + sum t), and
      R - P_k within F = E (1 + u) + 4 u R of the computed difference.
    So the true radius sqrt((R - P_k) / b_(k-1)) exceeds the computed one
    by at most sqrt(F / b_(k-1)) + 5 u s_(k-1), and forming the interval
    ends (centre, shift, radius, division by e) costs at most
    4 u (C + |t| + s + m) more.  The margin
        m_k = 2 (eps_k + sqrt(F / b_k) + 10 u (C_k + |t_k| + s_k))
    covers these, twice over, which also covers the rounding of this
    bound's own evaluation: the widened interval of a live node holds
    every child that is live.  Nodes that are not live only cost work:
    their leaves fail the exact test.  (X. Pujol, D. Stehle, "Rigorous
    and efficient short lattice vectors enumeration", ASIACRYPT 2008,
    bound the same errors for a float Cholesky.)

    The check: the data is finite and within [2^-500, 2^500] (R may be
    0), so no operation of the search overflows, and its underflows are
    far below 4 u R; and every node the search makes has |Y_k| + |t_k|
    below 2^50, so Y and x are exact in float64 and int64.
    """
    rows, n, e, t = form.rows, len(form.rows), form.den, form.offsets
    gamma = lambda m: m * _U / (1 - m * _U)
    try:
        budget = _top(form, bound) / (form.weights[0] * rows[0][0])
        gs = [rows[k][k] / (rows[k - 1][k - 1] if k else 1)
              for k in range(n)]
        mu = [[rows[k][j] / rows[k][k] if j > k else 0.0 for j in range(n)]
              for k in range(n)]
    except OverflowError:
        return None
    data = gs + [abs(v) for row in mu for v in row if v] + [budget or 1.0]
    if not all(1 / _RANGE <= v <= _RANGE for v in data):
        return None
    s = [math.sqrt(budget / g) for g in gs]
    cen, yh = [0.0] * n, [0.0] * n
    for k in reversed(range(n)):
        cen[k] = sum(abs(mu[k][i]) * yh[i] for i in range(k + 1, n))
        yh[k] = s[k] + cen[k]
    eps = [gamma(n + 1) * c for c in cen]
    d = [x + _U * (y + x) for x, y in zip(eps, s)]
    tau = [x * (2 * math.sqrt(budget * g) + g * x)
           + gamma(3) * (math.sqrt(budget) + math.sqrt(g) * x) ** 2
           for x, g in zip(d, gs)]
    f = (sum(tau) + gamma(n) * (budget + sum(tau))) * (1 + _U) \
        + 4 * _U * budget
    margins = [2 * (eps[k] + math.sqrt(f / gs[k])
                    + 10 * _U * (cen[k] + abs(t[k]) + s[k]))
               for k in range(n)]
    # a bound on |Y_k| over every node made, live or not
    reach = [0.0] * n
    for k in reversed(range(n)):
        reach[k] = 2 * (s[k] + margins[k] + e + sum(
            abs(mu[k][i]) * reach[i] for i in range(k + 1, n)))
        if not reach[k] + abs(t[k]) < _EXACT:
            return None
    return _Floats(tuple(map(tuple, mu)), tuple(gs), budget, tuple(margins),
                   max(reach))


def _vector_search(form, bound, collect, capacity, outer_range, inner_range,
                   canonical):
    """_run's search, level by level in numpy, on a form that passes
    _floats' check.  outer_range, a (first, last) pair or None, restricts
    the outermost coordinate x_top.  inner_range, a (lo, hi) pair or None,
    restricts x_(top-1) at the two ends only: to >= lo where x_top = first
    and to <= hi where x_top = last.  Together they cut out one run of
    (x_top, x_(top-1)) prefixes in DFS order, a job of the parallel split.

    A batch of nodes of level k (Y_j fixed for j >= k) holds, per node,
    the row Y (zero below k, in the narrowest integer dtype that holds
    _floats' reach), the float partial sum P_k, whether the node is on
    the zero chain (canonical), and the widened interval of its
    children's x_(k-1).  Expanding a batch repeats each node once per
    child with np.repeat, parents kept in order and children ascending,
    so the leaves come in _run's depth-first order.  Batches are worked
    depth-first from a stack, and one expansion makes at most _BATCH
    children (a node with more is expanded in parts), so memory stays
    within about one batch per level.  A leaf's value Y.(cG).Y, exact
    through linalg.exact_factors, decides membership and gives the key,
    L times it, as in _run: counts, key order and the collected (ids,
    Y rows) are _run's.  Collecting, the search stops after the batch
    that takes the collected count past `capacity`; _cut finds the leaf
    where it passed.
    """
    fl = _floats(form, bound)
    np = linalg.load_numpy()
    n, e = len(form.rows), form.den
    t = np.array(form.offsets, dtype=np.int64)
    mu = np.array(fl.mu)
    gram = linalg.integer_array(form.gram)
    unit = form.weights[0] * form.rows[0][0]        # L
    most = _top(form, bound) // unit                # largest Y.(cG).Y
    counts, ids, found = {}, [], []
    collected = 0

    def batch(k, ys, part, zero):
        """The batch of these nodes of level k, with their intervals."""
        j = k - 1
        centre = ys @ mu[j]
        wide = (np.sqrt(np.maximum(fl.budget - part, 0.0) / fl.gs[j])
                + fl.margins[j])
        mid = -centre - t[j]
        lo = np.ceil((mid - wide) / e).astype(np.int64)
        hi = np.floor((mid + wide) / e).astype(np.int64)
        if zero is not None:
            lo[zero & (lo < 0)] = 0
        if k == n and outer_range is not None:
            lo = np.maximum(lo, outer_range[0])
            hi = np.minimum(hi, outer_range[1])
        if k == n - 1 and inner_range is not None:
            x = (ys[:, k] - t[k]) / e
            lo[(x == outer_range[0]) & (lo < inner_range[0])] = inner_range[0]
            hi[(x == outer_range[1]) & (hi > inner_range[1])] = inner_range[1]
        return k, ys, part, zero, centre, lo, np.maximum(hi - lo + 1, 0)

    def leaves(ys):
        """Tally the leaves of rows ys in the ball; False past capacity."""
        nonlocal collected
        val = np.matmul(*linalg.exact_factors(ys, gram))
        val = np.multiply(*linalg.exact_factors(val, ys)).sum(axis=1)
        # a float or int64 val is below 2^53 or 2^62, so a larger `most`
        # need not be exact: it is above every val either way
        keep = val <= (most if val.dtype == object
                       else min(most, linalg.INT64_LIMIT))
        val = val[keep]
        if collect:     # the origin is the one canonical leaf not a pair
            collected += (2 * len(val) - int((val == 0).sum()) if canonical
                          else len(val))
        keys, first, inv, num = np.unique(
            val, return_index=True, return_inverse=True, return_counts=True)
        at = np.empty(len(keys), dtype=np.intp)
        for i in np.argsort(first, kind="stable"):
            key = unit * int(keys[i])
            if collect:
                at[i] = counts.setdefault(key, len(counts))
            else:
                counts[key] = counts.get(key, 0) + int(num[i])
        if collect:
            ids.append(at[inv.reshape(-1)])
            found.append(_narrow(ys[keep]))
        return not collect or collected <= capacity

    def take(nodes, cut):
        return [None if a is None else a[cut] for a in nodes]

    rows = np.zeros((1, n), np.min_scalar_type(-int(fl.reach) - 1))
    stack = [batch(n, rows, np.zeros(1),
                   np.ones(1, dtype=bool) if canonical else None)]
    while stack:
        k, *nodes = stack.pop()
        ends = np.cumsum(nodes[-1])
        if ends[-1] > _BATCH:
            cut = int(np.searchsorted(ends, _BATCH, side="right"))
            if cut:         # the first nodes, up to _BATCH children
                stack.append((k, *take(nodes, slice(cut, None))))
                nodes = take(nodes, slice(cut))
            else:           # the first _BATCH children of the first node
                lo, num = nodes[-2].copy(), nodes[-1].copy()
                lo[0] += _BATCH
                num[0] -= _BATCH
                stack.append((k, *nodes[:-2], lo, num))
                nodes = take(nodes, slice(1))
                nodes[-1] = np.array([_BATCH])
            ends = np.cumsum(nodes[-1])
        ys, part, zero, centre, lo, num = nodes
        size = int(ends[-1])
        if not size:
            continue
        parent = np.repeat(np.arange(len(num)), num)
        x = lo[parent] + (np.arange(size) - (ends - num)[parent])
        j = k - 1
        y = e * x + t[j]
        ys = ys[parent]
        ys[:, j] = y
        if j == 0:
            if not leaves(ys):
                break
            continue
        z = y + centre[parent]
        stack.append(batch(j, ys, part[parent] + fl.gs[j] * z * z,
                           None if zero is None else zero[parent] & (x == 0)))
    if not collect:
        return _pairs(counts, canonical), None
    ids = np.concatenate(ids) if ids else np.zeros(0, dtype=np.intp)
    found = (np.concatenate(found) if found
             else np.zeros((0, n), dtype=np.int64))
    return _tally(list(counts), ids, canonical), (ids, _narrow(found))


def _finalize_layers(counts, leaves, form, u_rows, lat, canonical):
    """The collected layers of a scan, in the key order of its counts:
    +- pairs expanded, basis transform applied, rows sorted, each layer
    one integer array.

    leaves is the pair (ids, ys) of the search (_run or _vector_search):
    leaf i has the key at position ids[i] of counts and the integer row
    Y = e x + t = ys[i], narrowed (_narrow) by the search.  Its row is
    y = Y u, u the LLL transform, formed for every leaf by one exact
    product (linalg.exact_factors) and narrowed again; with no transform
    y is Y.  Its vector is y / e.  A canonical leaf other than the origin
    also stands for -y.  One np.lexsort orders the rows by key position,
    then lexicographically, which within a layer is the order of the
    tuples y / e, since e > 0.  Each layer is the VectorLayer of its rows
    over den e, as one built by hand from its vectors would be: e, the
    order of the shift modulo Z^n, which the unimodular u keeps, is the
    lcm of the denominators of every vector.
    """
    np = linalg.load_numpy()
    ids, y = leaves
    keys = list(counts)
    e = form.den
    if u_rows is not None:
        y = np.matmul(*linalg.exact_factors(y, u_rows))
        # entries below 2^62 (or Python integers), and then a dtype that
        # holds their negatives: -y cannot wrap
        y = _narrow(y.astype(np.int64) if y.dtype.kind == "f" else y)
    if canonical:       # a canonical sweep always reaches the origin
        pair = ids != keys.index(0)
        y = np.concatenate([y, -y[pair]])
        ids = np.concatenate([ids, ids[pair]])
    order = np.lexsort((*y.T[::-1], ids))
    cuts = np.cumsum(np.bincount(ids, minlength=len(keys)))[:-1]
    layers = {}
    for key, rows in zip(keys, np.split(y[order], cuts)):
        norm = int_or_fraction(Fraction(key, form.scale))
        layers[norm] = VectorLayer(norm, rows, True, lat, e)
    return layers


def _tuples(rows, e):
    """The rows of an integer array, divided by e, as tuples of Python
    integers (Fractions where e does not divide).

    The rows are listed _CHUNK at a time, so the lists that tolist makes
    next to the tuples stay small: for 196,560 rows of 24 int8 entries
    (the size of the Leech minimal layer) on a 2-vCPU Linux VM, listing
    them whole took 0.40-0.44 s and peaked 97 MB above the array, and
    chunked 0.26-0.28 s and 49 MB.
    """
    out = []
    for lo in range(0, len(rows), _CHUNK):
        chunk = rows[lo:lo + _CHUNK].tolist()
        if e == 1:
            out.extend(map(tuple, chunk))
        else:
            out.extend(tuple(v // e if v % e == 0 else Fraction(v, e)
                             for v in row) for row in chunk)
    return tuple(out)


def _basis(lat: Lattice):
    """(Gram, transform or None) of the search basis, the one reduction
    rule of every sweep and of the isometry search: LLL-reduced once per
    object, in every dimension, and kept as it is, with no transform,
    when LLL leaves it unchanged."""
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
        total += volume * math.exp(d / 2 * math.log(math.pi)
                                   - math.lgamma(d / 2 + 1))
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


def _split(form, bound, canonical, threads):
    """(jobs, workers) of a parallel sweep, or None to sweep serially.

    workers is min(threads, cores), so the pool keeps its size from one
    sweep to the next.  A sweep with fewer than 2 workers or a single job
    is serial.  Otherwise the prefixes, in DFS order, are cut into
    contiguous runs of about equal estimated cost, RUNS_PER_WORKER per
    worker; a job is the (outer_range, inner_range) pair of one run (see
    _vector_search).
    """
    workers = min(threads, _cores())
    if workers < 2:
        return None
    top = len(form.rows) - 1
    prefixes = _prefixes(form, _top(form, bound), canonical)
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
    dead worker drops it, and it is shut down at interpreter exit.
    """

    def __init__(self):
        self.executor, self.size = None, 0

    def get(self, size):
        if self.executor is not None and self.size != size:
            self.close()
        if self.executor is None:
            from concurrent.futures import ProcessPoolExecutor
            self.executor = ProcessPoolExecutor(size)
            self.size = size
            atexit.register(self.close)
        return self.executor

    def close(self):
        if self.executor is not None:
            atexit.unregister(self.close)
            self.executor.shutdown(cancel_futures=True)
            self.executor = None


_POOL = _Pool()


def _merge(parts):
    """The runs' (counts, None), summed in job order: the DFS key order."""
    counts = {}
    for c_part, _ in parts:
        for k, v in c_part.items():
            counts[k] = counts.get(k, 0) + v
    return counts, None


def _cut(counts, ids, capacity, canonical):
    """The counts of a search's leaves ids up to the one, in DFS order,
    that takes their count past `capacity`: the partial counts of a
    CapacityError, wherever the search stopped after that leaf."""
    np = linalg.load_numpy()
    keys = list(counts)
    mults = np.full(len(ids), 2 if canonical else 1)
    if canonical and 0 in counts:
        mults[ids == keys.index(0)] = 1
    ids = ids[:np.searchsorted(np.cumsum(mults), capacity, side="right") + 1]
    return _tally(keys[:ids.max() + 1], ids, canonical)


def _parallel(form, bound, canonical, jobs, workers):
    """Count-only _vector_search over the jobs on the process pool."""
    from concurrent.futures.process import BrokenProcessPool
    n = len(jobs)
    outer, inner = zip(*jobs)
    try:
        parts = _POOL.get(workers).map(
            _vector_search, [form] * n, [bound] * n, [False] * n,
            [None] * n, outer, inner, [canonical] * n)
        return _merge(parts)
    except BrokenProcessPool as exc:
        _POOL.close()
        raise ModLatticeError(
            "an enumeration worker process died; the next parallel sweep "
            "starts a fresh pool") from exc


def _sweep(form, bound, collect, capacity, canonical, threads):
    """(counts, leaves) of one sweep: the one place that picks its search
    and its schedule.  A collecting sweep runs _vector_search in this
    process, at any threads.  A count-only sweep with threads > 1, from
    PARALLEL_MIN_NODES estimated nodes (_nodes) on, goes to the pool, which
    runs _vector_search on the jobs of _split; otherwise this process runs
    it whole: _vector_search from VECTOR_MIN_NODES on, else _run.  A form
    that fails _floats' check is swept whole by _run.
    """
    nodes = _nodes(form, len(form.rows) - 1, _top(form, bound))
    pooled = not collect and threads > 1 and nodes >= PARALLEL_MIN_NODES
    vector = collect or nodes >= VECTOR_MIN_NODES
    if (pooled or vector) and _floats(form, bound) is None:
        pooled = vector = False
    split = _split(form, bound, canonical, threads) if pooled else None
    if split is not None:
        return _parallel(form, bound, canonical, *split)
    if vector:
        return _vector_search(form, bound, collect, capacity, None, None,
                              canonical)
    return _run(form, bound, collect, capacity, canonical)


def enumerate_vectors(lat: Lattice, bound, shift=None, collect=False,
                      capacity=DEFAULT_CAPACITY, *, threads=1) -> ThetaCounts:
    """All lattice vectors x (or coset vectors x + shift) with norm <= bound.

    Exact counts by norm; with collect=True the coordinate rows themselves
    (in the original basis, shift included) are returned in sorted order,
    guarded by `capacity`.  The search runs on the LLL-reduced basis of
    lat (see _basis); a basis already reduced keeps its coordinates.

    _sweep picks the search and the schedule.  A collecting sweep runs in
    this process whatever threads is, so `capacity` bounds the one search
    that collects.  With threads > 1 a large count-only sweep is cut into
    runs of the search tree's prefixes (x_top, x_(top-1)), which the
    process pool of this process (see _Pool; min(threads, cores) workers)
    sweeps and which are merged in DFS order: the counts and their key
    order are the same either way.
    Every call sweeps.  An unshifted collecting call that reaches further
    than lat._layers, the collected sweep of this (immutable) object,
    replaces it and keeps the layers already handed out, which it returns
    in place of its own.  The collecting readers (min_layer, and through
    it perfection_rank, eutaxy_check and is_strongly_perfect;
    harmonic_theta_truncation and coxeter_identity_check) read lat._layers
    through _collected, and the count-only readers (minimum, theta_series,
    coxeter_number and the transformation check) read it, or a count-only
    memo, through _counts.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if shift is not None and len(shift) != lat.dim:
        raise ValueError("shift has %d entries, lattice dimension is %d"
                         % (len(shift), lat.dim))
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    g_red, u_rows = _basis(lat)
    # the shift in reduced coordinates: shift_red * u = shift
    shift_red = (shift if shift is None or u_rows is None
                 else linalg.solve(u_rows, shift))
    canonical = shift is None
    form = _integer_form(g_red, shift_red)

    counts, leaves = _sweep(form, bound, collect, capacity, canonical,
                            threads)
    shift_out = None if shift is None else tuple(map(Fraction, shift))
    if collect and sum(counts.values()) > capacity:
        partial = _cut(counts, leaves[0], capacity, canonical)
        raise CapacityError(
            "collection capacity %d exceeded" % capacity,
            partial_counts=ThetaCounts(
                bound, _by_norm(partial, form.scale), shift_out))
    if not collect:
        return ThetaCounts(bound, _by_norm(counts, form.scale), shift_out)
    layers = _finalize_layers(counts, leaves, form, u_rows, lat, canonical)
    tc = ThetaCounts(bound, _by_norm(counts, form.scale), shift_out, layers)
    memo = lat._layers
    if canonical and (memo is None or memo.bound < bound):
        if memo is not None:
            layers.update(memo.layers)
        object.__setattr__(lat, "_layers", ThetaCounts(
            bound, dict(tc.counts), layers=dict(layers)))
    return tc


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


def _collected(lat: Lattice, bound) -> ThetaCounts:
    """Counts and collected layers of lat up to bound, cut from
    lat._layers, the largest unshifted collected sweep made on this
    object; a larger bound first collects to that bound (under
    DEFAULT_CAPACITY), which replaces it (see enumerate_vectors).  So a
    norm's layer is one VectorLayer object for the life of lat, and what
    is kept on it (its pair histogram, its tuples) serves every reader."""
    bound = Fraction(bound)
    if lat._layers is None or lat._layers.bound < bound:
        enumerate_vectors(lat, bound, collect=True)
    memo = lat._layers
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


def min_layer(lat: Lattice) -> VectorLayer:
    """The layer Min(L) of minimal vectors, collected.

    Read through _collected up to _min_bound: the first call collects,
    later calls on the same object return the same layer.
    """
    tc = _collected(lat, _min_bound(lat))
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
