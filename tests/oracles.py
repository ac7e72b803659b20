"""Independent oracles that the tests check the fast paths against."""
from fractions import Fraction
import itertools
from itertools import combinations_with_replacement
import math

from modlattice import linalg
from modlattice.arith import int_or_fraction
from modlattice.enumeration import (VectorLayer, enumerate_vectors, minimum,
                                    theta_series)
from modlattice.errors import (CapacityError, DefinitenessError,
                               ModLatticeError)
from modlattice.lattice import Lattice, _sqrt_fraction, inner
from modlattice.linalg import FLOAT_EXACT_LIMIT, INT64_LIMIT
from modlattice.modular import extremal_form, extremal_min_bound
from modlattice.qseries import QSeries
from modlattice.report import FAIL, PASS, CertReport
from modlattice.shadow import ShadowTheta, shadow_coset

TENSOR_MAX_DEGREE = 6


def box_counts(lat: Lattice, bound, guard=10 ** 8) -> dict:
    """Scan the coordinate box |x_i| <= sqrt(b g^ii).

    Intended for small dimensions; complexity is the full box volume.
    """
    bound = Fraction(bound)
    inv = linalg.inverse(lat.gram)
    lims = []
    total = 1
    for i in range(lat.dim):
        r = bound * inv[i][i]
        lim = math.isqrt(r.numerator * r.denominator) // r.denominator
        lims.append(lim)
        total *= 2 * lim + 1
    if total > guard:
        raise CapacityError("box oracle range %d beyond guard" % total)
    counts = {}
    for x in itertools.product(*[range(-l, l + 1) for l in lims]):
        nrm = inner(lat.gram, x, x)
        if nrm <= bound:
            key = int_or_fraction(nrm)
            counts[key] = counts.get(key, 0) + 1
    return counts


def coset_shadow_theta(lat: Lattice, bound) -> ShadowTheta:
    """Shadow counts up to bound by a shifted sweep of the dual over the
    shadow coset (shadow_coset): what shadow_theta computes from theta_L
    for det 1."""
    dl, shift = shadow_coset(lat)
    tc = enumerate_vectors(dl, bound, shift)
    return ShadowTheta(int_or_fraction(bound), dict(tc.counts),
                       Fraction(1, 4 * lat.det))


def eta_pentagonal(scale, precision):
    """eta(m z) by Euler's pentagonal number theorem:
    eta(m z) = sum_k (-1)^k u^(m (6k-1)^2).
    """
    coeffs = {}
    k = 0
    while True:
        hit = False
        for kk in ([0] if k == 0 else [k, -k]):
            e = scale * (6 * kk - 1) ** 2
            if e < precision:
                coeffs[e] = Fraction(-1 if kk % 2 else 1)
                hit = True
        if not hit and scale * (6 * k - 1) ** 2 >= precision:
            break
        k += 1
    return QSeries(coeffs, precision)


def gram_lll_fraction(gram, delta=Fraction(3, 4)):
    """LLL-reduce a quadratic form given only by its Gram matrix.

    Returns (reduced_gram, u) with reduced_gram = u * gram * u^T and u an
    integer unimodular matrix; rows of u express the reduced basis in the
    original one. Exact rational arithmetic throughout.
    """
    n = linalg.check_square(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    u = linalg.mat_identity(n)

    # Gram-Schmidt data from the gram matrix: r[i][j] = (b_i, b_j*),
    # mu[i][j] = r[i][j]/B[j], B[i] = r[i][i]
    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n

    def gs_all():
        for i in range(n):
            r_row = [Fraction(0)] * n
            for j in range(i + 1):
                r = g[i][j] - sum(mu[j][l] * r_row[l] for l in range(j))
                r_row[j] = r
                if j < i:
                    mu[i][j] = r / big_b[j]
            big_b[i] = r_row[i]
            if big_b[i] <= 0:
                raise DefinitenessError("form is not positive definite",
                                        minor_index=i + 1)

    def red(k, l):
        q = round(mu[k][l])
        if q == 0:
            return
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
        for j in range(n):
            g[k][j] -= q * g[l][j]
        for i in range(n):
            g[i][k] -= q * g[i][l]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    def swap(k):
        u[k], u[k - 1] = u[k - 1], u[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        m = mu[k][k - 1]
        b_new = big_b[k] + m * m * big_b[k - 1]
        mu[k][k - 1] = m * big_b[k - 1] / b_new
        big_b[k] = big_b[k - 1] * big_b[k] / b_new
        big_b[k - 1] = b_new
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    gs_all()
    k = 1
    while k < n:
        red(k, k - 1)
        if big_b[k] >= (delta - mu[k][k - 1] ** 2) * big_b[k - 1]:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)

    if all(x.denominator == 1 for row in gram for x in map(Fraction, row)):
        g = [[int(x) for x in row] for row in g]
    return g, u


def _perfect_matchings(k2: int):
    """All perfect matchings of positions 0..k2-1 as pair tuples."""
    if k2 == 0:
        return [()]
    out = []
    rest = list(range(1, k2))
    for i, p in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        remap = {j: q for j, q in enumerate(others)}
        for sub in _perfect_matchings(k2 - 2):
            out.append(((0, p),) + tuple((remap[a], remap[b])
                                         for a, b in sub))
    return out


def _match_sum(indices, gram_rows, matchings) -> int:
    s = 0
    for mt in matchings:
        p = 1
        for a, b in mt:
            p *= gram_rows[indices[a]][indices[b]]
            if p == 0:
                break
        s += p
    return s


def moment_tensor_test(layer: VectorLayer, two_k: int,
                       block_columns=650) -> CertReport:
    """Entrywise proof of the degree-2k design identity on a layer.

    Compares sum_x y^mu (y = Gx, mu over all monomials of degree 2k) with
    the matching-sum expansion of c_k (a,a)^k.  Products are accumulated
    in float64 only when every partial result is an exact integer below
    2^53, otherwise in int64; the comparison itself is done on cleared
    integers, so a pass is a proof.
    """
    import numpy as np
    if two_k % 2 or two_k <= 0 or two_k > TENSOR_MAX_DEGREE:
        raise ValueError("tensor strategy supports even degrees 2..%d"
                         % TENSOR_MAX_DEGREE)
    k = two_k // 2
    lat = layer.lattice
    n = lat.dim
    m = int(layer.norm)
    # one of each antipodal pair {x, -x}: the lexicographically larger
    half = np.array([x for x in layer.rows.tolist()
                     if x > [-v for v in x]], dtype=np.int64).reshape(-1, n)
    gram_rows = [[int(x) for x in row] for row in lat.gram]
    gram = np.array(gram_rows, dtype=np.int64)
    y = half @ gram
    ymax = int(np.abs(y).max()) if len(y) else 0
    colmax = ymax ** k
    acc_bound = len(half) * colmax * colmax
    if acc_bound < FLOAT_EXACT_LIMIT:
        yf = y.astype(np.float64)
        dtype = "float64"
    elif acc_bound < INT64_LIMIT:
        yf = y
        dtype = "int64"
    else:
        raise ModLatticeError("moment accumulation would overflow")
    cols = list(combinations_with_replacement(range(n), k))
    denom = math.prod(n + 2 * i for i in range(k))
    matchings = _perfect_matchings(two_k)
    scale = 2 * len(half) * m ** k        # |X| * m^k
    memo = {}

    def col_block(lo, hi):
        blk = np.empty((len(half), hi - lo), dtype=yf.dtype)
        for j in range(lo, hi):
            c = yf[:, cols[j][0]].copy()
            for idx in cols[j][1:]:
                c *= yf[:, idx]
            blk[:, j - lo] = c
        return blk

    edges = list(range(0, len(cols), block_columns)) + [len(cols)]
    blocks = list(zip(edges, edges[1:]))
    compared = 0
    for bi, (lo_i, hi_i) in enumerate(blocks):
        ti = col_block(lo_i, hi_i)
        for lo_j, hi_j in blocks[bi:]:
            tj = ti if lo_j == lo_i else col_block(lo_j, hi_j)
            prod = ti.T @ tj
            for a in range(hi_i - lo_i):
                jstart = a if lo_j == lo_i else 0
                ca = cols[lo_i + a]
                for b in range(jstart, hi_j - lo_j):
                    mu = tuple(sorted(ca + cols[lo_j + b]))
                    lhs = 2 * int(prod[a, b])       # both halves of +-x
                    known = memo.get(mu)
                    if known is None:
                        ms = _match_sum(mu, gram_rows, matchings)
                        memo[mu] = (lhs, ms)
                        compared += 1
                        if lhs * denom != scale * ms:
                            return CertReport(
                                check="moment-tensor",
                                verdict=FAIL,
                                inputs={"layer_norm": layer.norm,
                                        "layer_size": len(layer),
                                        "degree": two_k},
                                details={"proof": True, "dtype": dtype,
                                         "entries": compared},
                                witnesses={"monomial": list(mu),
                                           "lhs_times_denominator": lhs * denom,
                                           "rhs_times_denominator": scale * ms})
                    elif known[0] != lhs:
                        raise ModLatticeError(
                            "inconsistent moment recomputation")
    expect = math.comb(n + two_k - 1, two_k)
    if compared != expect:
        raise ModLatticeError("moment entries missed: %d of %d"
                              % (compared, expect))
    return CertReport(
        check="moment-tensor",
        verdict=PASS,
        inputs={"layer_norm": layer.norm, "layer_size": len(layer),
                "degree": two_k},
        details={"proof": True, "dtype": dtype, "entries": compared})


def pair_histogram(gram, rows) -> dict:
    """{v: number of ordered pairs (x, y) of rows with x G y^T = v}, by a
    plain double loop in Python integers."""
    hist = {}
    for x in rows:
        gx = [sum(a * g for a, g in zip(x, col)) for col in zip(*gram)]
        for y in rows:
            v = sum(a * b for a, b in zip(gx, y))
            hist[v] = hist.get(v, 0) + 1
    return hist


def orbit_labels(rows, gens) -> list:
    """The orbit of each row under the group that the integer matrices
    gens (x -> x g) and -1 generate, as the index of the orbit's first
    row: a closure of coordinate tuples in Python integers, one orbit at
    a time, in the order of rows.  An image that is not a row raises
    ValueError."""
    rows = [tuple(int(v) for v in x) for x in rows]
    index = {x: i for i, x in enumerate(rows)}
    cols = [list(zip(*[[int(v) for v in r] for r in g])) for g in gens]
    label = [None] * len(rows)
    for i, x in enumerate(rows):
        if label[i] is not None:
            continue
        label[i] = i
        todo = [x]
        while todo:
            y = todo.pop()
            for z in [tuple(-v for v in y)] + [
                    tuple(sum(a * b for a, b in zip(y, col)) for col in c)
                    for c in cols]:
                if z not in index:
                    raise ValueError("%r leaves the rows" % (z,))
                if label[index[z]] is None:
                    label[index[z]] = i
                    todo.append(z)
    return label


def search_nodes(gram, bound) -> int:
    """Nodes of a plain recursive Fincke-Pohst search of `gram` to `bound`.

    With gram = L D L^T (L unit lower triangular), the norm of x is
    sum_k D_k (x_k + sum_(j>k) L_jk x_j)^2.  Counts every partial vector
    (x_(n-1), ..., x_k), k = n-1 .. 0, whose terms of that sum are at most
    bound, both signs included.  Exact, in Fractions.
    """
    n = len(gram)
    g = [[Fraction(v) for v in row] for row in gram]
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = g[j][j] - sum(low[j][k] ** 2 * d[k] for k in range(j))
        for i in range(j + 1, n):
            low[i][j] = (g[i][j] - sum(low[i][k] * low[j][k] * d[k]
                                       for k in range(j))) / d[j]
    x = [0] * n

    def visit(k, left):
        centre = -sum(low[j][k] * x[j] for j in range(k + 1, n))
        nodes = 0
        for v, step in ((math.floor(centre), -1), (math.floor(centre) + 1, 1)):
            while d[k] * (v - centre) ** 2 <= left:
                nodes += 1
                if k:
                    x[k] = v
                    nodes += visit(k - 1, left - d[k] * (v - centre) ** 2)
                v += step
        return nodes

    return visit(n - 1, Fraction(bound))


def finalize_layers(counts, leaves, form, u_rows, lat, canonical) -> dict:
    """The vectors of the collected layers of a scan's leaves, by norm,
    one Python integer at a time.

    Leaf i of leaves = (ids, ys), with the key at position ids[i] of
    counts and the integer row Y = e x + t = ys[i], becomes Y u / e, u
    the transform's rows, entries divided exactly (Fractions where e does
    not divide); a canonical leaf other than the origin (key 0) stands
    for x and -x.  Each layer's tuples are sorted.
    """
    keys = list(counts)
    groups = {key: [] for key in keys}
    cols = None if u_rows is None else list(zip(*u_rows))
    e = form.den
    for i, x in zip(leaves[0].tolist(), leaves[1].tolist()):
        if cols is not None:
            x = tuple(sum(a * b for a, b in zip(x, col)) for col in cols)
        x = tuple(v // e if v % e == 0 else Fraction(v, e) for v in x)
        groups[keys[i]].append(x)
        if canonical and keys[i] != 0:
            groups[keys[i]].append(tuple(-v for v in x))
    layers = {}
    for key, out in groups.items():
        norm = int_or_fraction(Fraction(key, form.scale))
        layers[norm] = tuple(sorted(out))
    return layers


def projector_rank(layer) -> int:
    """Exact rank over Q of the projectors x x^T of a layer's nonzero
    vectors (one of each +-pair), by fraction-free elimination of their
    upper triangles."""
    n = len(layer.vectors[0])
    half = [x for x in layer.vectors if next(v for v in x if v) > 0]
    return linalg.rank([[x[i] * x[j] for i in range(n) for j in range(i, n)]
                        for x in half])


def swept_extremal(lat: Lattice, n_level):
    """(verdict, minimum, kissing) of extremality by sweeping: the minimum
    of lat against 2 + 2 floor(k / k_N), and theta_L against the extremal
    form on 2l + 4 q-units, a window with no proof behind it.  lat is even
    with det N^(dim/2)."""
    weight = lat.dim // 2
    bound = extremal_min_bound(n_level, weight)
    rep = minimum(lat)
    if rep.minimum != bound:
        return FAIL, rep.minimum, rep.kissing
    window = bound + 2
    form = extremal_form(n_level, weight, window)
    equal = theta_series(lat, window).agree(form.series)[0]
    return (PASS if equal else FAIL), rep.minimum, rep.kissing


def index_in(sub_basis_gram_det, lat_det):
    """[L : M] from determinants: sqrt(det M / det L) for M <= L."""
    q = Fraction(sub_basis_gram_det) / Fraction(lat_det)
    root = _sqrt_fraction(q)
    if root is None:
        raise ValueError("index is not rational: det ratio %s not a square" % q)
    return root
