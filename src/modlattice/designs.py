"""Spherical design tests for lattice layers, and related certificates.

A layer X of vectors of common norm m in dimension n is a spherical
t-design when the average over X of every polynomial of degree <= t equals
its average over the sphere of radius sqrt(m).  Layers are antipodal, so
odd degrees are free and only the even degrees 2j <= t need checking.
Each is decided exactly by the Venkov pair-sum criterion (Venkov, Reseaux
et designs spheriques, 2001; Delsarte-Goethals-Seidel 1977):

    sum_{x,y in X} (x,y)^(2j) >= |X|^2 m^(2j) (2j-1)!! / (n(n+2)...(n+2j-2)).

The left side is the squared norm of the moment tensor T = sum_x x^(2j),
since (x^(2j), y^(2j)) = (x, y)^(2j); the right side is the squared norm
of its projection onto the O(n)-invariant tensors, the multiples of the
symmetrised metric power.  Their difference is the squared norm of the
rest of T, so equality holds exactly when T is invariant, that is when

    sum_{x in X} (a, x)^(2j)  =  c_j * (a, a)^j,
    c_j = |X| * m^j * (2j-1)!! / (n (n+2) ... (n+2j-2)),

for every a: the degree-2j design identity.  The pair sums come, for
every even degree at once and in exact integers, from a tally of the
integer inner products, chosen by the data (_pair_sum_test):

- when the layer's lattice carries automorphisms (the catalogue stores
  them; Lattice._automorphisms), from one row of inner products per
  orbit of X under them and -1, weighted by the orbit's size: an
  automorphism g maps X onto X, so sum_y (gx, y)^(2j) = sum_y (x,
  y)^(2j) (SPLAG ch. 4 section 11 and ch. 10).  The generators are
  checked exactly on first use, and an image off the layer raises;
- otherwise from one histogram of the inner products over the pairs of
  the antipodal half of X (_pair_histogram).

Two kernels form inner products against a layer: _pair_histogram, and
_row_tallies, which tallies the inner products of a few chosen rows with
the layer.  _row_tallies serves the orbit rows, the failure witness of
either route and the harmonic theta series.

Everything downstream (strong perfection, eutaxy, the Coxeter identity,
harmonic theta truncations) reduces to these moment computations.  Each
layer certificate starts from _half, which checks the layer and returns
its antipodal half.  The strength that extremality guarantees for an even
lattice at levels 1, 2 and 3 follows from the weight k_N of the level's
cusp form alone (predicted_design_strength).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .enumeration import (VectorLayer, _collected, _counts, _first_positive,
                          min_layer, minimum, theta_series, window_bound)
from .errors import ModLatticeError
from .isometry import _check
from .lattice import Lattice, dual, inner, level
from .linalg import (INT64_LIMIT, exact_cast, exact_dtype, exact_factors,
                     integer_array, inverse, load_numpy, max_abs, rank,
                     rank_mod_p, solve)
from .qseries import LevelData, QSeries
from .report import FAIL, INCONCLUSIVE, PASS, CertReport

# products per tile of _pair_histogram and _row_tallies: each call of
# _pair_histogram allocates its product buffer and its key buffer, 8 bytes
# an entry, once and reuses them for every tile.
_BLOCK_ENTRIES = 1 << 16

# entries per block of M in the rank witness of perfection_rank
_RANK_BLOCK_ENTRIES = 1 << 18

# the modulus of that rank witness: a prime below 2^31, so that a product
# of two residues stays below 2^62
_WITNESS_PRIME = 2147483629

# bins of one pair-histogram tally: the packed keys of _pair_histogram
# range over base^p <= _PACK_BINS values
_PACK_BINS = 1 << 14


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = 1*3*5*...*(2k-1)."""
    return math.prod(range(1, 2 * k, 2))


def design_constant(dim: int, k: int, count: int, norm) -> Fraction:
    """The exact constant c_k in the degree-2k design identity."""
    num = count * Fraction(norm) ** k * double_factorial_odd(k)
    den = math.prod(dim + 2 * i for i in range(k))
    return Fraction(num, den)


def _half(layer: VectorLayer):
    """(lattice, H) for a layer of lattice vectors, H one vector out of
    each antipodal pair {x, -x} (first nonzero > 0); a layer that is not
    closed under -1 is refused (_mates)."""
    if layer.lattice is None:
        raise ModLatticeError("layer carries no lattice reference")
    if not layer.complete:
        raise ModLatticeError("layer is not complete")
    lat = layer.lattice
    if not lat.is_integral:
        raise ModLatticeError("design tests need an integral lattice")
    if layer.den != 1:
        raise ModLatticeError(
            "layer lies in a coset of the lattice (entries over %d); design "
            "tests need lattice vectors" % layer.den)
    ones, _ = _mates(layer.rows)
    return lat, layer.rows[ones]


def _packed(cols, base, p, dtype):
    """cols (integer array, k x size) with each run of p columns folded
    into one, column g = sum_j base^j cols[:, g p + j], as a C-ordered
    array of dtype, which must hold every partial sum exactly; the last
    run is padded with zero columns."""
    np = load_numpy()
    k, size = cols.shape
    out = np.zeros((k, -(-size // p)), dtype=dtype)
    for j in range(p):
        part = exact_cast(cols[:, j::p], dtype)
        part *= base ** j
        out[:, :part.shape[1]] += part
    return out


def _pair_bound(gram, half, m: int) -> int:
    """A bound on every partial sum of (x G) y^T, x of norm m and y a row
    of H: |(x, b_j)| <= isqrt(m G_jj) by Cauchy-Schwarz."""
    diag = max(int(gram[j][j]) for j in range(len(gram)))
    return len(gram) * math.isqrt(m * diag) * max_abs(half)


def _pair_dtype(bound):
    """The dtype of the pair kernels' products for partial sums bounded by
    bound: float32 below linalg.FLOAT32_EXACT_LIMIT = 2^24, else
    exact_dtype.  Below 2^24 every partial sum is an integer that float32
    holds exactly, so the product is exact in any summation order, as
    float64 is below 2^53."""
    if bound < linalg.FLOAT32_EXACT_LIMIT:
        return load_numpy().float32
    return exact_dtype(bound)


def _pair_histogram(gram, half, m: int, r: int) -> dict:
    """{v: number of ordered pairs (x, y) in H x H with (x, y) = v}.

    The diagonal pairs (x, x) have value m, and r bounds every other
    |(x, y)|: for x != y in H also y != -x, so in a lattice of minimum mu
    N(x -+ y) = 2m -+ 2(x, y) >= mu gives r = m - ceil(mu / 2)
    (_pair_sum_test), and any integral layer has r = m - 1.  An r of 0
    (Z^n at norm 1) is raised to 1: base 1 would pack without end.

    Packing: with base = 2r + 1 and p the largest exponent with
    base^p <= _PACK_BINS (1 when base alone exceeds it), the columns y of
    the right factor are taken p at a time and folded into one column
    sum_j base^j y_j (_packed), so that one product entry
    sum_j base^j (x, y_j) carries p inner products.  Row i of H meets
    itself in digit i mod p of packed column i // p; m base^(i mod p) is
    taken off that entry, so the digit reads 0.  Plus
    r (base^p - 1) / (base - 1) each entry is then the key
    sum_j base^j (v_j + r), whose base-`base` digits are the values
    offset by r: keys lie in [0, base^p), and one bincount of the keys,
    summed onto each axis of the base^p cube, counts every pair once.
    The |H| diagonal pairs are then moved from the count of 0 to m.

    Exactness: every partial sum of a row of H G against a packed column
    is bounded by _pair_bound(gram, H, m) * (base^p - 1) / (base - 1),
    and _pair_dtype of that bound holds all of them (float32 for the
    Leech minimal layer's 15,467,760 at base 5, p = 6); p is lowered until
    it is the dtype of the unpacked product, so packing never moves the
    product to a slower dtype.  The packed columns are cast once to that
    dtype.  G is cast once, to exact_dtype of n max|H| max|G|, as is each
    block of R rows of H, so that the block's rows of H G are exact; they
    are then cast to the pair dtype.  The zero columns that pad the last
    run of p have value 0 with every row; they are taken off the count
    of 0.

    Tiles: the products are formed R rows by C packed columns at a time,
    R = sqrt(_BLOCK_ENTRIES) / 4 rounded down to a multiple of p (at
    least p) and C = _BLOCK_ENTRIES // R (60 by 1,092 at p = 6), in one
    product buffer and one key buffer allocated per call, so a layer of
    any size gets tiles of the same size.  Each block of R rows meets
    the columns from its own first row on: the pairs inside the block's
    square, the diagonal among them, are formed in both orders and
    counted once, those right of it once and counted twice.
    When 2r + 1 exceeds _BLOCK_ENTRIES, p is 1 and np.unique tallies the
    values instead of bincount, so that a rescaled lattice never
    allocates O(r).
    """
    np = load_numpy()
    size, n = half.shape
    r = max(r, 1)
    base = 2 * r + 1
    dense = base <= _BLOCK_ENTRIES
    p = 1
    while dense and base ** (p + 1) <= _PACK_BINS:
        p += 1
    bound = _pair_bound(gram, half, m)
    dtype = _pair_dtype(bound)
    while _pair_dtype(bound * ((base ** p - 1) // (base - 1))) is not dtype:
        p -= 1
    right = _packed(half.T, base, p, dtype)
    g = integer_array(gram)
    row_dtype = exact_dtype(n * max_abs(half) * max_abs(g))
    g = exact_cast(g, row_dtype)
    diag = np.array([m * base ** j for j in range(p)], dtype=dtype)
    bins = base ** p
    offset = r * (bins - 1) // (base - 1)
    rows = max(p, math.isqrt(_BLOCK_ENTRIES >> 4) // p * p)
    cols = max(1, _BLOCK_ENTRIES // rows)
    width = right.shape[1]
    out = np.empty(min(rows, size) * min(cols, width), dtype=dtype)
    keys = np.empty(out.size, dtype=np.intp) if dense else None
    # tally[w - 1] holds the pairs of weight w
    tally = np.zeros((2, bins), dtype=np.int64) if dense else {}
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        left = exact_cast(
            np.matmul(exact_cast(half[lo:hi], row_dtype), g), dtype)
        edge = -(-hi // p)
        for start, stop, weight in ((lo // p, edge, 1), (edge, width, 2)):
            for c0 in range(start, stop, cols):
                c1 = min(c0 + cols, stop)
                dots = out[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
                np.matmul(left, right[:, c0:c1], out=dots)
                if weight == 1:
                    i = np.arange(max(lo, c0 * p), min(hi, c1 * p))
                    dots[i - lo, i // p - c0] -= diag[i % p]
                if dense:
                    idx = keys[:dots.size]
                    np.add(dots.ravel(), offset, out=idx, casting="unsafe")
                    tally[weight - 1] += np.bincount(idx, minlength=bins)
                else:
                    values, counts = np.unique(dots, return_counts=True)
                    for v, c in zip(values.tolist(), counts.tolist()):
                        tally[int(v)] = tally.get(int(v), 0) + weight * c
    if dense:
        cube = (tally[0] + 2 * tally[1]).reshape((base,) * p)
        counts = sum(cube.sum(axis=tuple(a for a in range(p) if a != j))
                     for j in range(p))
        # each row of H meets every padding column once: in the square of
        # the last block (counted once) or right of an earlier one (twice)
        last = size - (size - 1) // rows * rows
        counts[r] -= (-size % p) * (2 * size - last)
        tally = {v - r: int(c) for v, c in enumerate(counts.tolist())}
    tally[0] -= size
    tally[m] = size
    return {v: c for v, c in sorted(tally.items()) if c}


def _automorphisms(lat: Lattice):
    """The automorphisms stored on lat (Lattice._automorphisms) as one
    (k, n, n) int64 array, or None when it has none.

    Each matrix g acts on coordinate rows by x -> x g and is checked on
    first use, exactly: n x n of Python integers with g G g^T = G, which
    makes g an isometry of L onto itself (det g = +-1).  The checked
    array replaces the stored matrices, so the check runs once per
    lattice object.  Anything else raises ModLatticeError.
    """
    np = load_numpy()
    gens = lat._automorphisms
    if gens is None or isinstance(gens, np.ndarray):
        return gens
    n = lat.dim
    for i, g in enumerate(gens):
        square = (isinstance(g, list) and len(g) == n and all(
            isinstance(row, list) and len(row) == n
            and all(type(x) is int for x in row) for row in g))
        if not (square and _check(g, lat.gram, lat.gram)):
            raise ModLatticeError(
                "stored automorphism %d is not an integer %d x %d matrix "
                "g with g G g^T = G" % (i, n, n))
    checked = integer_array(gens).reshape(len(gens), n, n)
    object.__setattr__(lat, "_automorphisms", checked)
    return checked


def _blocks(h, n):
    """Slices of about _BLOCK_ENTRIES / 4 entries over h rows of n."""
    step = max(1, _BLOCK_ENTRIES // (4 * n))
    return [slice(lo, lo + step) for lo in range(0, h, step)]


def _matcher(half, top):
    """match(image): the perm with image[i] = half[perm[i]] for every i,
    or None, for H = half, distinct integer rows, and images whose
    entries are at most top in absolute value.

    Each row of H gets a key, x w for fixed seeded integers
    1 <= w_j <= 2^53 // (n top), which float64 holds exactly; if two rows
    of H share a key, the row's bytes are the key instead.  If the sorted
    keys of the image are the sorted keys of H, the image row with the
    k-th key is taken to be the row of H with the k-th key, and then
    checked to equal it entry by entry, so a match is decided by exact
    row equality whatever the key.
    """
    np = load_numpy()
    h, n = half.shape
    span = linalg.FLOAT_EXACT_LIMIT // (n * max(top, 1))
    rng = random.Random(0)
    w = np.array([rng.randint(1, span) for _ in range(n)], dtype=float)
    void = np.dtype((np.void, n * half.dtype.itemsize))
    blocks = _blocks(h, n)
    for key in (lambda z: np.matmul(z, w),
                lambda z: np.ascontiguousarray(
                    z.astype(half.dtype)).view(void).ravel()):
        keys = np.concatenate([key(half[b].astype(float)) for b in blocks])
        order = np.argsort(keys)
        keys = keys[order]
        if not (keys[1:] == keys[:-1]).any():
            break

    def match(image):
        image_keys = np.concatenate(
            [key(image[b].astype(float)) for b in blocks])
        at = np.argsort(image_keys)
        if not np.array_equal(image_keys[at], keys):
            return None
        perm = np.empty(h, dtype=np.intp)
        perm[at] = order
        if not np.array_equal(np.take(half, perm, axis=0), image):
            return None
        return perm
    return match


def _mates(rows):
    """(ones, mate) for a layer X of integer rows: ones the indices of H,
    the rows whose first nonzero entry is positive, one per pair
    {x, -x}, and rows[mate[k]] = -rows[ones[k]].  Raises ModLatticeError
    when X is not antipodal.

    A collected layer is -H reversed followed by H
    (enumeration._finalize_layers: every vector whose first nonzero is
    negative sorts before every vector whose first nonzero is positive,
    and negation reverses lexicographic order), which rows[::-1] = -rows
    decides in O(|X|).  Rows in any other order find -x among H by key
    (_matcher), confirmed entry by entry; a missing -x raises.
    """
    np = load_numpy()
    size = len(rows)
    pos = _first_positive(rows)
    ones = np.flatnonzero(pos)
    h = len(ones)
    if 2 * h != size:
        raise ModLatticeError("layer is not antipodal")
    if np.array_equal(rows[h:][::-1], -rows[:h]):
        return ones, size - 1 - ones
    others = np.flatnonzero(~pos)
    perm = _matcher(np.take(rows, ones, axis=0), max_abs(rows))(
        -np.take(rows, others, axis=0))
    if perm is None:
        raise ModLatticeError("layer is not antipodal")
    mate = np.empty(h, dtype=np.intp)
    mate[perm] = others
    return ones, mate


def _orbits(rows, gens):
    """The orbit of each row of an antipodal layer X under the group that
    the integer matrices gens (x -> x g) and -1 generate, as the index
    of the orbit's first row.

    That group permutes the pairs {x, -x}, so the search runs on H, one
    row per pair (_mates: the rows whose first nonzero entry is positive,
    in the order of rows, each with the index of -x).  The images of H
    under each generator are formed in blocks of about
    _BLOCK_ENTRIES / 4 entries, in _pair_dtype of n top max|g| (float32
    on the catalogue), top = max |x_j|, must keep |x_j| <= top and are
    turned to first nonzero > 0 (gx or -gx); each must then be a
    reordering of H (_matcher).  Any failure proves that a generator
    does not permute the layer, which no automorphism can do, and raises
    ModLatticeError.

    Orbits of pairs then spread by label propagation over the |X| / 2
    rows of H: each round every row takes the least label among itself
    and its neighbours under each permutation and its inverse, then the
    label of its label, until nothing moves.  A row's orbit is the union
    of the pairs in its pair's orbit, so its first row is the least index
    of x or -x over them.
    """
    np = load_numpy()
    size, n = rows.shape
    ones, mate = _mates(rows)
    half = np.take(rows, ones, axis=0)
    h = len(half)
    top = max_abs(rows)
    match = _matcher(half, top)
    # every partial sum of x g is at most n top max|g|
    dtype = _pair_dtype(n * top * max_abs(gens))
    perms = []
    image = np.empty_like(half)
    for g in gens:
        g = exact_cast(g, dtype)
        for b in _blocks(h, n):
            z = np.matmul(exact_cast(half[b], dtype), g)
            if max_abs(z) > top:
                break
            image[b] = z
            # gx or -gx, whichever lies in H
            np.negative(image[b], out=image[b],
                        where=~_first_positive(image[b])[:, None])
        else:
            perm = match(image)
            if perm is not None:
                inverse = np.empty_like(perm)
                inverse[perm] = np.arange(h)
                perms += [perm, inverse]
                continue
        raise ModLatticeError(
            "a stored automorphism does not permute the layer")
    label = np.arange(h)
    while True:
        low = label.copy()
        for perm in perms:
            np.minimum(low, label[perm], out=low)
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    least = np.full(h, size)
    np.minimum.at(least, label, np.minimum(ones, mate))
    out = np.empty(size, dtype=np.intp)
    out[ones] = out[mate] = least[label]
    return out


def _row_tallies(gram, rows, cols) -> list:
    """[{v: number of y in cols with (x, y) = v} for each row x of rows],
    rows and cols integer arrays.

    x G is formed exactly (exact_factors), and every partial sum of
    (x G) y^T is bounded by n max|x G| max|cols|, so the products are
    exact in _pair_dtype of that bound (float32 for the orbit rows of
    every catalogue layer).  They are formed in tiles: about
    _BLOCK_ENTRIES entries of cols, cast once to that dtype, against as
    many rows as keep the tile of products near _BLOCK_ENTRIES.  Each row
    of a tile is tallied by np.unique of its values, so no tally is dense
    in the norm and no key can overflow.
    """
    np = load_numpy()
    left = np.matmul(*exact_factors(rows, gram))
    dtype = _pair_dtype(left.shape[1] * max_abs(left) * max_abs(cols))
    left = exact_cast(left, dtype)
    step = max(1, _BLOCK_ENTRIES // cols.shape[1])
    block = max(1, _BLOCK_ENTRIES // step)
    tallies = [{} for _ in range(len(rows))]
    for c0 in range(0, len(cols), step):
        right = exact_cast(cols[c0:c0 + step], dtype).T
        for r0 in range(0, len(rows), block):
            dots = np.matmul(left[r0:r0 + block], right)
            for tally, row in zip(tallies[r0:r0 + block], dots):
                values, counts = np.unique(row, return_counts=True)
                for v, c in zip(values.tolist(), counts.tolist()):
                    tally[int(v)] = tally.get(int(v), 0) + c
    return tallies


def _pair_sum_test(layer: VectorLayer, degrees):
    """Venkov pair-sum verdict of each even degree (ascending) on a layer.

    Returns ({degree: PASS or FAIL}, witness), where the witness names a
    direction for the first failed degree and is None when all pass.  A
    pair sum below its bound is impossible and raises ModLatticeError.

    The pair sums over X x X are read from one tally {v: pairs with
    (x, y) = v}, built once per layer object, when there are degrees to
    test, and kept on it (_histogram) with the candidate witness rows.
    The route is chosen by the data.  When the layer's lattice carries
    automorphisms (a catalogue entry; _automorphisms), the tally is one
    row per orbit of the layer under them and -1 (_orbits, _row_tallies):
    an automorphism g maps X onto X, so sum_y (gx, y)^d = sum_y (x, y)^d,
    and the pair sum is sum over orbits O of |O| sum_y (x_O, y)^d.  Every
    row of an orbit has its orbit's row sum, so the candidates are the
    orbits' first rows.  Otherwise the tally is four times
    _pair_histogram's, and every row is a candidate.  The witness is the
    first candidate, in the order of layer.rows, whose row sum over X
    deviates (_row_tallies), so it is the first deviating row of the
    layer either way.
    """
    np = load_numpy()
    lat, half = _half(layer)
    n, m, size = lat.dim, int(layer.norm), len(layer)
    if not degrees:
        return {}, None
    if layer._histogram is None:
        gens = _automorphisms(lat)
        if gens is not None and size:
            label = _orbits(layer.rows, gens)
            firsts = np.flatnonzero(label == np.arange(size))
            sizes = np.bincount(label)[firsts].tolist()
            total = {}
            for w, tally in zip(sizes, _row_tallies(
                    lat.gram, layer.rows[firsts], half)):
                # an orbit's row sum over X is twice its sum over H
                for v, c in tally.items():
                    total[v] = total.get(v, 0) + 2 * w * c
            candidates = firsts.tolist()
        else:
            # the minimum mu, read off the counts of the sweep that
            # collected the layer: 2 |(x, y)| <= 2m - mu off the diagonal
            mu = min(k for k in _counts(lat, m).counts if k > 0)
            hist = _pair_histogram(lat.gram, half, m, int((2 * m - mu) // 2))
            # (+-x, +-y) are four pairs of one value
            total = {v: 4 * c for v, c in hist.items()}
            candidates = range(size)
        object.__setattr__(layer, "_histogram", (total, candidates))
    total, candidates = layer._histogram
    verdicts, witness = {}, None
    for d in degrees:
        # degree d holds when sum_x (x, y)^d = rhs for each y in X
        rhs = design_constant(n, d // 2, size, m) * m ** (d // 2)
        pairs = _power_sum(total, d)
        if pairs < size * rhs:
            raise ModLatticeError(
                "degree-%d pair sum below the design bound: arithmetic "
                "fault" % d)
        verdicts[d] = PASS if pairs == size * rhs else FAIL
        if verdicts[d] == FAIL and witness is None:
            for i in candidates:
                y = layer.rows[i:i + 1]
                lhs = 2 * _power_sum(_row_tallies(lat.gram, y, half)[0], d)
                if lhs != rhs:
                    witness = {"direction": [int(c) for c in y[0]],
                               "degree": d, "lhs": lhs, "rhs": rhs}
                    break
            else:
                raise ModLatticeError(
                    "pair sum differs but no direction deviates")
    return verdicts, witness


def _power_sum(tally, d):
    """sum of c v^d over the items v: c of a tally."""
    return sum(c * v ** d for v, c in tally.items())


@dataclass(frozen=True)
class DesignTestConfig:
    """Accepted by check_design for compatibility.

    The pair-sum test is exact and draws nothing at random, so seed has
    no effect on the verdict and is not echoed in the report.
    """

    seed: int = None


def check_design(layer: VectorLayer, strength: int,
                 config: DesignTestConfig = None) -> CertReport:
    """Prove or disprove design strength t for a layer.

    Every even degree 2j <= t gets its own exact pair-sum verdict (odd
    degrees hold by antipodality), so the report is a proof either way;
    config has no effect.  A strength below 1 raises ValueError, once
    the layer has passed its own checks (_half).
    """
    verdicts, wit = _pair_sum_test(layer, range(2, strength + 1, 2))
    if strength < 1:
        raise ValueError("design strength must be positive, got %r"
                         % (strength,))
    return CertReport(check="design-strength",
                      verdict=FAIL if wit else PASS,
                      inputs={"layer_norm": layer.norm,
                              "layer_size": len(layer), "strength": strength},
                      details={"degrees": verdicts, "proof": True},
                      witnesses=wit or [])


def is_strongly_perfect(lat: Lattice) -> CertReport:
    """Proof-level test that Min(L) is a 4-design (hence 5 by antipodality).

    Runs the pair-sum test in degrees 2 and 4 on the layer of minimal
    vectors.
    """
    layer = min_layer(lat)
    _, wit = _pair_sum_test(layer, (2, 4))
    inputs = {"dim": lat.dim, "min": layer.norm, "kissing": len(layer)}
    if wit:
        return CertReport(
            check="strongly-perfect", verdict=FAIL, inputs=inputs,
            details={"proof": True, "failed_degree": wit["degree"]},
            witnesses=wit)
    return CertReport(
        check="strongly-perfect", verdict=PASS, inputs=inputs,
        details={"proof": True, "degrees": [2, 4]})


def _projector_rows(rows):
    """The upper triangles (x_i x_j, i <= j) of the projectors x^T x of
    the rows x (an integer array): int64, or Python integers past 2^62."""
    np = load_numpy()
    i, j = np.triu_indices(rows.shape[1])
    big = max_abs(rows) ** 2 >= INT64_LIMIT
    rows = rows.astype(object if big else np.int64)
    out = rows[:, i]
    out *= rows[:, j]
    return out


def perfection_rank(lat: Lattice) -> int:
    """Rank of the span of the projectors x x^T over minimal vectors x.

    L is perfect when this reaches N = dim(dim+1)/2; the rank is invariant
    under base change, so coordinate rows are used directly.

    Rank witness: with M the integer matrix of projector rows
    (_projector_rows), one per antipodal pair, the N x N Gram M^T M is
    summed exactly (exact_factors) over blocks of rows of M and reduced
    mod the prime p = _WITNESS_PRIME.  Since rank_p(M^T M) <=
    rank_Q(M^T M) = rank_Q(M) <= N, a rank of N mod p proves that L is
    perfect.  A lower rank proves nothing: then, as for a layer with
    fewer than N pairs, the exact rank of M (linalg.rank) is returned.
    A block of M holds about _RANK_BLOCK_ENTRIES entries, so the Leech
    lattice's 98,280 x 300 matrix M is never formed whole.
    """
    np = load_numpy()
    layer = min_layer(lat)
    _, half = _half(layer)
    n = lat.dim
    full = n * (n + 1) // 2
    if len(half) >= full:
        acc = np.zeros((full, full), dtype=np.int64)
        step = max(1, _RANK_BLOCK_ENTRIES // full)
        for lo in range(0, len(half), step):
            part = _projector_rows(half[lo:lo + step])
            acc += (np.matmul(*exact_factors(part.T, part))
                    % _WITNESS_PRIME).astype(np.int64)
            acc %= _WITNESS_PRIME
        if rank_mod_p(acc, _WITNESS_PRIME) == full:
            return full
    return rank(_projector_rows(half).tolist())


def is_perfect(lat: Lattice) -> bool:
    n = lat.dim
    return perfection_rank(lat) == n * (n + 1) // 2


STRONGLY_EUTACTIC = "strongly-eutactic"
EUTACTIC_CERT = "eutactic-with-certificate"
NO_CERT = "no-certificate-found"
NOT_EUTACTIC = "disproved"
EUTAXY_SOLVE_LIMIT = 2000


def eutaxy_check(lat: Lattice) -> CertReport:
    """Eutaxy of Min(L): identity as a positive combination of projectors.

    In coordinates the strong form reads sum_x x^T x = (m|X|/n) G^(-1);
    if that fails, one exact solution of the linear system is attempted
    and screened for positivity.  Only the strong and certificate verdicts
    are proofs; absence of a certificate proves nothing.
    """
    np = load_numpy()
    layer = min_layer(lat)
    _, half = _half(layer)
    n = lat.dim
    m = layer.norm
    ginv = inverse(lat.gram)
    s = np.matmul(*exact_factors(half.T, half))
    c = design_constant(n, 1, len(layer), m)
    strong = all(2 * int(s[i][j]) == c * ginv[i][j]
                 for i in range(n) for j in range(n))

    def report(verdict, details, **extra):
        return CertReport(
            check="eutaxy", verdict=verdict,
            inputs={"dim": n, "min": m, "kissing": len(layer)},
            details=details, **extra)

    if strong:
        return report(PASS, {"kind": STRONGLY_EUTACTIC, "coefficient": 1 / c,
                             "proof": True})
    if len(half) > EUTAXY_SOLVE_LIMIT:
        return report(INCONCLUSIVE, {
            "kind": NO_CERT, "proof": False,
            "reason": "system too large for exact solve"})
    # one projector per antipodal pair; a pair coefficient mu splits into
    # lambda = mu/2 on each of x and -x
    # the identity in the upper-triangle order of _projector_rows
    target = np.array(ginv, dtype=object)[np.triu_indices(n)].tolist()
    sol = solve(_projector_rows(half).tolist(), target)
    if sol is None:
        return report(FAIL, {
            "kind": NOT_EUTACTIC, "proof": True,
            "reason": "identity not in the span of the projectors"})
    if all(x > 0 for x in sol):
        return report(PASS, {"kind": EUTACTIC_CERT, "proof": True},
                      witnesses={"coefficients": [Fraction(x) / 2
                                                  for x in sol]})
    return report(INCONCLUSIVE, {
        "kind": NO_CERT, "proof": False,
        "reason": "particular solution has nonpositive entries"})


def min_product_check(lat: Lattice) -> CertReport:
    """min(L) * min(L*) against the strong perfection bound (n+2)/3."""
    mp = minimum(lat)
    md = minimum(dual(lat))
    product = Fraction(mp.minimum) * Fraction(md.minimum)
    bound = Fraction(lat.dim + 2, 3)
    return CertReport(
        check="min-product", verdict=PASS if product >= bound else FAIL,
        inputs={"dim": lat.dim, "min": mp.minimum, "dual_min": md.minimum},
        details={"product": product, "bound": bound})


def even_min_lower_bound(dim: int) -> int:
    """Smallest even m with m*m >= (dim+2)/3.

    For an even unimodular strongly perfect lattice min = dual min, so the
    product bound forces this value (dim 248 gives 10).
    """
    b = Fraction(dim + 2, 3)
    m = math.isqrt(math.ceil(b))
    while Fraction(m) ** 2 < b:
        m += 1
    if m % 2:
        m += 1
    return m


def coxeter_number(lat: Lattice) -> Fraction:
    """|L_2| / dim, an integer for the irreducible root lattices."""
    return Fraction(_counts(lat, 2).count(2), lat.dim)


def coxeter_identity_check(lat: Lattice) -> CertReport:
    """Proof of sum_{x in L_2} (a,x)^2 = 2h (a,a), h = |L_2|/dim, or a
    direction a that breaks it: the degree-2 design identity on L_2."""
    layer = _collected(lat, 2).layers.get(2)
    if layer is None or not len(layer):
        return CertReport(
            check="coxeter-identity", verdict=INCONCLUSIVE,
            inputs={"dim": lat.dim},
            details={"reason": "no vectors of norm 2"})
    _, wit = _pair_sum_test(layer, (2,))
    detail = {"coxeter_number": coxeter_number(lat),
              "roots": len(layer), "proof": True}
    return CertReport(check="coxeter-identity",
                      verdict=FAIL if wit else PASS,
                      inputs={"dim": lat.dim}, details=detail,
                      witnesses=wit or [])


def predicted_design_strength(lat: Lattice):
    """Design strength that extremality guarantees for the layers of an
    even lattice, from its level N and weight k = dim / 2; None for a
    lattice that is not even, or of a level other than 1, 2 and 3.

    k_N is the weight of the level's cusp form Delta_N (12, 8 and 6 at
    N = 1, 2, 3).  An extremal theta series is 1 + O(q^(l+1)) with
    l = k div k_N, so for a harmonic P of degree 2j > 0 the series
    theta_{L,P}, a cusp form of weight k + 2j, is divisible by
    Delta_N^(l+1) and vanishes when k + 2j < (l + 1) k_N.  Every layer is
    then a design of the largest odd strength t <= k_N - (k mod k_N)
    (odd degrees hold by antipodality; Leech: k = 12, t = 11).  The value
    is a promise only for an extremal lattice (modular.check_extremal).

    The argument needs theta_{L,P} to be a form for Gamma_0(N), which
    holds for even L only: the theta series of an odd unimodular lattice
    is a form for the theta group, not SL2(Z), and D12+, odd extremal at
    k = 6, has a minimal layer of strength 3 where the rule would give 5.
    An even lattice has 4 | k at level 1 and 2 | k at level 2, so only
    the classes of k in which even lattices exist are ever read.
    """
    if not lat.is_even:
        return None
    n_level = level(lat)
    if n_level not in (1, 2, 3):
        return None
    k_n = LevelData.for_level(n_level).weight
    t = k_n - lat.dim // 2 % k_n
    return t if t % 2 else t - 1


@dataclass(frozen=True)
class ZonalHarmonic:
    """Harmonic polynomial Z_t(x) = sum_j c_j (x,a)^(t-2j) ((x,x)(a,a))^j.

    Integer coefficients c_j (denominators cleared, content reduced), for
    the zonal harmonic of degree t on R^dim with axis a.  Evaluation only
    needs the two invariants u = (x,a) and w = (x,x)(a,a).
    """

    dim: int
    degree: int
    coefficients: tuple

    def eval_invariants(self, u, w):
        t = self.degree
        return sum(c * u ** (t - 2 * j) * w ** j
                   for j, c in enumerate(self.coefficients))

    def eval(self, gram, x, alpha):
        u = inner(gram, x, alpha)
        w = inner(gram, x, x) * inner(gram, alpha, alpha)
        return self.eval_invariants(u, w)


def zonal_harmonic(dim: int, degree: int) -> ZonalHarmonic:
    """Homogenised Gegenbauer polynomial, lam = (dim-2)/2, normalised to
    P_t(1) = 1:

    (t-1+2lam) P_t = (2t-2+2lam) u P_{t-1} - (t-1) w P_{t-2},
    P_0 = 1, P_1 = u.

    At dim 2 (lam = 0) this is the Chebyshev recurrence.  Only the
    overall scale is free (the result is content-reduced).
    """
    if dim < 2:
        raise ValueError("need dim >= 2")
    if degree < 0:
        raise ValueError("need degree >= 0")
    lam = Fraction(dim - 2, 2)
    polys = [{0: Fraction(1)}, {0: Fraction(1)}]       # P_0, P_1
    for t in range(2, degree + 1):
        nxt = {j: (2 * t - 2 + 2 * lam) * c for j, c in polys[-1].items()}
        for j, c in polys[-2].items():
            nxt[j + 1] = nxt.get(j + 1, 0) - (t - 1) * c
        polys.append({j: c / (t - 1 + 2 * lam) for j, c in nxt.items()})
    return _cleared(dim, degree, polys[degree])


def _cleared(dim, degree, coeffs):
    top = degree // 2
    vec = [coeffs.get(j, Fraction(0)) for j in range(top + 1)]
    den = math.lcm(*(c.denominator for c in vec)) if vec else 1
    ints = [int(c * den) for c in vec]
    g = math.gcd(*(abs(c) for c in ints)) if any(ints) else 1
    ints = [c // g for c in ints]
    if ints and ints[0] < 0:
        ints = [-c for c in ints]
    return ZonalHarmonic(dim, degree, tuple(ints))


def harmonic_theta_truncation(lat: Lattice, alpha, degree: int,
                              precision_q: int) -> QSeries:
    """Truncated theta series weighted by a zonal harmonic of given degree.

    Coefficient of q^a is sum over the norm-a layer of Z_degree(x); these
    sums vanish for every axis when the layer is a degree-strong design.
    Exact: the axis must have integer entries (ValueError names the first
    that is not), and for degree > 0 the Gram must be integral (ValueError
    otherwise).  Each layer's power sums of (x, a) come from one row
    tally of a against the layer (_row_tallies), in Python integers.
    """
    if precision_q < 1:
        raise ValueError("precision must be at least 1")
    z = zonal_harmonic(lat.dim, degree)
    alpha = list(alpha)
    for c in alpha:
        if Fraction(c).denominator != 1:
            raise ValueError("axis entry %r is not an integer" % (c,))
    alpha = [int(c) for c in alpha]
    if len(alpha) != lat.dim:
        raise ValueError("axis needs %d coordinates" % lat.dim)
    if not any(alpha):
        raise ValueError("axis must be nonzero")
    if degree == 0:
        return theta_series(lat, precision_q)
    if not lat.is_integral:
        raise ValueError("Gram matrix %s is not integral; the harmonic "
                         "theta series needs integer inner products"
                         % [[str(x) for x in row] for row in lat.gram])
    bound = window_bound(lat, precision_q)
    coeffs = {}
    if bound > 0:
        tc = _collected(lat, bound)
        axis = integer_array([alpha])
        w_of_a = inner(lat.gram, alpha, alpha)
        for norm, layer in tc.layers.items():
            if norm == 0:
                continue
            tally = _row_tallies(lat.gram, axis, layer.rows)[0]
            w = int(norm) * w_of_a
            total = sum(c * (w ** j) * _power_sum(tally, degree - 2 * j)
                        for j, c in enumerate(z.coefficients))
            if total:
                coeffs[12 * int(norm)] = Fraction(total)
    return QSeries(coeffs, 12 * precision_q)
