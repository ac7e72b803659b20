"""Spherical design tests for lattice layers, and related certificates.

A layer X of vectors of common norm m is a spherical t-design when the
average over X of every polynomial of degree <= t equals its average over
the sphere of radius sqrt(m).  Since layers are antipodal, odd degrees are
free and only the even moment identities

    sum_{x in X} (a, x)^(2k)  =  c_k * (a, a)^k,
    c_k = |X| * m^k * (2k-1)!! / (n (n+2) ... (n+2k-2)),

for 2k <= t need checking.  Two strategies are used:

* moment_tensor_test compares the full symmetric moment tensor
  sum_x x^(2k) with the matching multiple of the symmetrised metric power,
  entry by entry in exact integer arithmetic.  A pass is a proof of the
  identity; feasible for 2k <= 6.
* power_sum_design_test evaluates the identity at finitely many integer
  directions a.  A failure is a disproof; a pass is only evidence.

Everything downstream (strong perfection, eutaxy, the Coxeter identity,
harmonic theta truncations) reduces to these moment computations.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING

from .enumeration import (VectorLayer, enumerate_vectors, min_layer, minimum,
                          theta_series, window_bound)
from .errors import ModLatticeError
from .lattice import Lattice, dual, inner
from .linalg import inverse, rank, solve
from .qseries import LevelData, QSeries
from .report import FAIL, INCONCLUSIVE, PASS, CertReport

if TYPE_CHECKING:
    import numpy as np

FLOAT_EXACT_LIMIT = 1 << 53
INT64_LIMIT = 1 << 62
DEFAULT_SEED = 41651
DEFAULT_WITNESSES = 100
TENSOR_MAX_DEGREE = 6


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = 1*3*5*...*(2k-1)."""
    return math.prod(range(1, 2 * k, 2))


def design_constant(dim: int, k: int, count: int, norm) -> Fraction:
    """The exact constant c_k in the degree-2k design identity."""
    num = count * Fraction(norm) ** k * double_factorial_odd(k)
    den = math.prod(dim + 2 * i for i in range(k))
    return Fraction(num, den)


def _layer_data(layer: VectorLayer):
    import numpy as np
    if layer.lattice is None:
        raise ModLatticeError("layer carries no lattice reference")
    if not layer.complete:
        raise ModLatticeError("layer is not complete")
    lat = layer.lattice
    if not lat.is_integral:
        raise ModLatticeError("design tests need an integral lattice")
    arr = np.array(layer.vectors, dtype=np.int64)
    if arr.ndim != 2:
        arr = arr.reshape(len(layer.vectors), lat.dim)
    return lat, arr


def _half_rows(arr: np.ndarray) -> np.ndarray:
    """One vector out of each antipodal pair {x, -x} (first nonzero > 0)."""
    import numpy as np
    nz = arr != 0
    first = nz.argmax(axis=1)
    lead = arr[np.arange(len(arr)), first]
    half = arr[lead > 0]
    if 2 * len(half) != len(arr):
        raise ModLatticeError("layer is not antipodal")
    return half


def exact_power_sums(dots: np.ndarray, degrees) -> dict:
    """sum_i dots[i]^d for each d, exactly (values compressed, then int)."""
    import numpy as np
    values, counts = np.unique(dots, return_counts=True)
    pairs = [(int(v), int(c)) for v, c in zip(values, counts)]
    return {d: sum(c * v ** d for v, c in pairs) for d in degrees}


def default_witnesses(dim: int, count: int, seed: int):
    """Deterministic distinct nonzero integer directions in {-9..9}^dim."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        a = tuple(rng.randint(-9, 9) for _ in range(dim))
        if any(a) and a not in seen:
            seen.add(a)
            out.append(a)
    return out


def power_sum_design_test(layer: VectorLayer, degrees,
                          witnesses=None, witness_count=DEFAULT_WITNESSES,
                          seed=DEFAULT_SEED) -> CertReport:
    """Sampled check of the even design identities on a layer.

    degrees are even positive integers.  A mismatch at any witness is an
    exact disproof; agreement at all witnesses is recorded as a pass but
    proves nothing by itself.
    """
    import numpy as np
    t0 = time.time()
    lat, arr = _layer_data(layer)
    degrees = sorted(set(int(d) for d in degrees))
    if any(d <= 0 or d % 2 for d in degrees):
        raise ValueError("degrees must be positive and even")
    n = lat.dim
    m = layer.norm
    gram = np.array([[int(x) for x in row] for row in lat.gram],
                    dtype=np.int64)
    if witnesses is None:
        witnesses = default_witnesses(n, witness_count, seed)
    witnesses = [tuple(int(c) for c in a) for a in witnesses]
    consts = {d: design_constant(n, d // 2, len(layer), m) for d in degrees}
    checked = 0
    for a in witnesses:
        av = np.array(a, dtype=np.int64)
        w = gram @ av
        aa = int(av @ w)
        # every partial sum of a dot product stays below n*max|x|*max|w|
        prod_cap = n * int(np.abs(arr).max()) * (int(np.abs(w).max()) or 1)
        if prod_cap >= INT64_LIMIT:
            dots = np.array([sum(int(x) * int(y) for x, y in zip(row, w))
                             for row in arr], dtype=object)
        else:
            dots = arr @ w
        sums = exact_power_sums(dots, degrees)
        for d in degrees:
            k = d // 2
            rhs = consts[d] * Fraction(aa) ** k
            checked += 1
            if sums[d] != rhs:
                return CertReport(
                    check="power-sum-design",
                    verdict=FAIL,
                    inputs={"layer_norm": m, "layer_size": len(layer),
                            "degrees": degrees},
                    details={"proof": True, "checked": checked,
                             "elapsed": round(time.time() - t0, 3)},
                    witnesses={"direction": list(a), "degree": d,
                               "lhs": sums[d], "rhs": rhs},
                    seed=seed)
    return CertReport(
        check="power-sum-design",
        verdict=PASS,
        inputs={"layer_norm": m, "layer_size": len(layer),
                "degrees": degrees, "witnesses": len(witnesses)},
        details={"proof": False, "checked": checked,
                 "elapsed": round(time.time() - t0, 3)},
        seed=seed)


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
    t0 = time.time()
    if two_k % 2 or two_k <= 0 or two_k > TENSOR_MAX_DEGREE:
        raise ValueError("tensor strategy supports even degrees 2..%d"
                         % TENSOR_MAX_DEGREE)
    k = two_k // 2
    lat, arr = _layer_data(layer)
    n = lat.dim
    m = int(layer.norm)
    half = _half_rows(arr)
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
                                         "entries": compared,
                                         "elapsed": round(time.time() - t0, 3)},
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
        details={"proof": True, "dtype": dtype, "entries": compared,
                 "elapsed": round(time.time() - t0, 3)})


@dataclass(frozen=True)
class DesignTestConfig:
    """How to certify each even degree of a target design strength."""

    tensor_max: int = TENSOR_MAX_DEGREE
    witness_count: int = DEFAULT_WITNESSES
    seed: int = DEFAULT_SEED
    witnesses: tuple = None

    def strategy(self, degree: int) -> str:
        return "tensor" if degree <= self.tensor_max else "witness"


def check_design(layer: VectorLayer, strength: int,
                 config: DesignTestConfig = None) -> CertReport:
    """Certify design strength t for a layer, degree by degree.

    Even degrees up to tensor_max get the entrywise tensor proof; higher
    ones fall back to witness sampling.  The verdict is a proof exactly
    when every degree used the tensor strategy (for antipodal layers odd
    degrees hold automatically).
    """
    t0 = time.time()
    if config is None:
        config = DesignTestConfig()
    degrees = [d for d in range(2, strength + 1, 2)]
    parts = {}
    proof = True
    witness_degrees = [d for d in degrees if config.strategy(d) == "witness"]
    for d in degrees:
        if config.strategy(d) == "tensor":
            rep = moment_tensor_test(layer, d)
            parts[d] = rep
            if rep.verdict == FAIL:
                break
        else:
            proof = False
    if witness_degrees and all(parts[d].verdict == PASS for d in parts):
        rep = power_sum_design_test(layer, witness_degrees,
                                    witnesses=config.witnesses,
                                    witness_count=config.witness_count,
                                    seed=config.seed)
        for d in witness_degrees:
            parts[d] = rep
    failed = [d for d, r in parts.items() if r.verdict == FAIL]
    verdict = FAIL if failed else PASS
    detail = {
        "strength": strength,
        "degrees": {d: {"strategy": config.strategy(d),
                        "verdict": parts[d].verdict}
                    for d in sorted(parts)},
        "proof": proof and not failed,
        "elapsed": round(time.time() - t0, 3),
    }
    wit = None
    if failed:
        wit = parts[failed[0]].witnesses
    return CertReport(check="design-strength", verdict=verdict,
                      inputs={"layer_norm": layer.norm,
                              "layer_size": len(layer), "strength": strength},
                      details=detail, witnesses=wit, seed=config.seed)


def is_strongly_perfect(lat: Lattice, threads=1) -> CertReport:
    """Proof-level test that Min(L) is a 4-design (hence 5 by antipodality).

    Runs the entrywise tensor comparison in degrees 2 and 4 on the layer
    of minimal vectors.
    """
    t0 = time.time()
    layer = min_layer(lat, threads=threads)
    parts = []
    for d in (2, 4):
        rep = moment_tensor_test(layer, d)
        parts.append(rep)
        if rep.verdict == FAIL:
            return CertReport(
                check="strongly-perfect", verdict=FAIL,
                inputs={"dim": lat.dim, "min": layer.norm,
                        "kissing": len(layer)},
                details={"proof": True, "failed_degree": d,
                         "elapsed": round(time.time() - t0, 3)},
                witnesses=rep.witnesses)
    return CertReport(
        check="strongly-perfect", verdict=PASS,
        inputs={"dim": lat.dim, "min": layer.norm, "kissing": len(layer)},
        details={"proof": True, "degrees": [2, 4],
                 "elapsed": round(time.time() - t0, 3)})


def _sym_vec(row, n):
    """Upper triangle of x^T x as a flat tuple, i <= j."""
    return tuple(row[i] * row[j] for i in range(n) for j in range(i, n))


def perfection_rank(lat: Lattice, threads=1) -> int:
    """Rank of the span of the projectors x x^T over minimal vectors x.

    L is perfect when this reaches dim(dim+1)/2; the rank is invariant
    under base change, so coordinate rows are used directly.
    """
    layer = min_layer(lat, threads=threads)
    _, arr = _layer_data(layer)
    half = _half_rows(arr)
    n = lat.dim
    rows = [_sym_vec([int(c) for c in row], n) for row in half]
    return rank(rows)


def is_perfect(lat: Lattice, threads=1) -> bool:
    n = lat.dim
    return perfection_rank(lat, threads=threads) == n * (n + 1) // 2


STRONGLY_EUTACTIC = "strongly-eutactic"
EUTACTIC_CERT = "eutactic-with-certificate"
NO_CERT = "no-certificate-found"
NOT_EUTACTIC = "disproved"
EUTAXY_SOLVE_LIMIT = 2000


def eutaxy_check(lat: Lattice, threads=1) -> CertReport:
    """Eutaxy of Min(L): identity as a positive combination of projectors.

    In coordinates the strong form reads sum_x x^T x = (m|X|/n) G^(-1);
    if that fails, one exact solution of the linear system is attempted
    and screened for positivity.  Only the strong and certificate verdicts
    are proofs; absence of a certificate proves nothing.
    """
    import numpy as np
    t0 = time.time()
    layer = min_layer(lat, threads=threads)
    _, arr = _layer_data(layer)
    half = _half_rows(arr)
    n = lat.dim
    m = layer.norm
    ginv = inverse(lat.gram)
    s = (half.T @ half) if len(half) else np.zeros((n, n), dtype=np.int64)
    c = Fraction(int(m) * len(layer), n)
    strong = all(2 * int(s[i][j]) == c * ginv[i][j]
                 for i in range(n) for j in range(n))
    if strong:
        lam = 1 / c
        return CertReport(
            check="eutaxy", verdict=PASS,
            inputs={"dim": n, "min": m, "kissing": len(layer)},
            details={"kind": STRONGLY_EUTACTIC, "coefficient": lam,
                     "proof": True, "elapsed": round(time.time() - t0, 3)})
    if len(half) > EUTAXY_SOLVE_LIMIT:
        return CertReport(
            check="eutaxy", verdict=INCONCLUSIVE,
            inputs={"dim": n, "min": m, "kissing": len(layer)},
            details={"kind": NO_CERT, "proof": False,
                     "reason": "system too large for exact solve",
                     "elapsed": round(time.time() - t0, 3)})
    # one projector per antipodal pair; a pair coefficient mu splits into
    # lambda = mu/2 on each of x and -x
    rows = [_sym_vec([int(x) for x in row], n) for row in half]
    sol = solve(rows, list(_upper_of(ginv, n)))
    if sol is None:
        return CertReport(
            check="eutaxy", verdict=FAIL,
            inputs={"dim": n, "min": m, "kissing": len(layer)},
            details={"kind": NOT_EUTACTIC, "proof": True,
                     "reason": "identity not in the span of the projectors",
                     "elapsed": round(time.time() - t0, 3)})
    if all(x > 0 for x in sol):
        wit = {"coefficients": [Fraction(x) / 2 for x in sol]}
        return CertReport(
            check="eutaxy", verdict=PASS,
            inputs={"dim": n, "min": m, "kissing": len(layer)},
            details={"kind": EUTACTIC_CERT, "proof": True,
                     "elapsed": round(time.time() - t0, 3)},
            witnesses=wit)
    return CertReport(
        check="eutaxy", verdict=INCONCLUSIVE,
        inputs={"dim": n, "min": m, "kissing": len(layer)},
        details={"kind": NO_CERT, "proof": False,
                 "reason": "particular solution has nonpositive entries",
                 "elapsed": round(time.time() - t0, 3)})


def _upper_of(mat, n):
    for i in range(n):
        for j in range(i, n):
            yield mat[i][j]


def min_product_check(lat: Lattice, threads=1) -> CertReport:
    """min(L) * min(L*) against the strong perfection bound (n+2)/3."""
    t0 = time.time()
    mp = minimum(lat, threads=threads)
    md = minimum(dual(lat), threads=threads)
    product = Fraction(mp.minimum) * Fraction(md.minimum)
    bound = Fraction(lat.dim + 2, 3)
    return CertReport(
        check="min-product", verdict=PASS if product >= bound else FAIL,
        inputs={"dim": lat.dim, "min": mp.minimum, "dual_min": md.minimum},
        details={"product": product, "bound": bound,
                 "elapsed": round(time.time() - t0, 3)})


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


def coxeter_number(lat: Lattice, threads=1) -> Fraction:
    """|L_2| / dim, an integer for the irreducible root lattices."""
    tc = enumerate_vectors(lat, 2, threads=threads)
    return Fraction(tc.count(2), lat.dim)


def coxeter_identity_check(lat: Lattice, witness_count=20,
                           seed=DEFAULT_SEED, threads=1) -> CertReport:
    """Sampled check of sum_{x in L_2} (a,x)^2 = 2h (a,a), h = |L_2|/dim."""
    t0 = time.time()
    tc = enumerate_vectors(lat, 2, collect=True, threads=threads)
    layer = tc.layers.get(2)
    if layer is None or not len(layer):
        return CertReport(
            check="coxeter-identity", verdict=INCONCLUSIVE,
            inputs={"dim": lat.dim},
            details={"reason": "no vectors of norm 2",
                     "elapsed": round(time.time() - t0, 3)})
    h = Fraction(len(layer), lat.dim)
    rep = power_sum_design_test(layer, [2], witness_count=witness_count,
                                seed=seed)
    detail = {"coxeter_number": h, "roots": len(layer),
              "proof": rep.verdict == FAIL,
              "elapsed": round(time.time() - t0, 3)}
    return CertReport(check="coxeter-identity", verdict=rep.verdict,
                      inputs={"dim": lat.dim}, details=detail,
                      witnesses=rep.witnesses, seed=seed)


PREDICTED_STRENGTH = {
    (1, 0): 11,
    (1, 4): 7,
    (2, 0): 7,
    (2, 2): 5,
    (3, 0): 5,
    (3, 1): 5,
}


def predicted_design_strength(n_level: int, weight: int):
    """Design strength guaranteed for extremal layers, by level and weight.

    weight is dim * sigma0(N) / 4, reduced mod the weight k_N of the
    level's cusp form; levels beyond 3 have no general prediction and
    return None.
    """
    if n_level not in (1, 2, 3):
        return None
    k_n = LevelData.for_level(n_level).weight
    return PREDICTED_STRENGTH.get((n_level, weight % k_n))


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
    """Homogenised Gegenbauer recurrence, lam = (dim-2)/2:

    t Z_t = 2(t-1+lam) u Z_{t-1} - (t-2+2lam) w Z_{t-2},
    Z_0 = 1, Z_1 = 2 lam u.

    The two seeds must carry their relative Gegenbauer normalisation or
    the mixing in the recurrence produces non-harmonic polynomials; only
    the overall scale is free (the result is content-reduced).  dim 2 is
    the Chebyshev limit Z_t = 2u Z_{t-1} - w Z_{t-2}.
    """
    if dim < 2:
        raise ValueError("need dim >= 2")
    if degree < 0:
        raise ValueError("need degree >= 0")
    prev = {0: Fraction(1)}            # Z_0
    if degree == 0:
        return _cleared(dim, 0, prev)
    if dim == 2:
        cur = {0: Fraction(1)}         # T_1 = s
        for t in range(2, degree + 1):
            nxt = {}
            for j, c in cur.items():
                nxt[j] = nxt.get(j, Fraction(0)) + 2 * c
            for j, c in prev.items():
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) - c
            prev, cur = cur, nxt
        return _cleared(dim, degree, cur)
    lam = Fraction(dim - 2, 2)
    cur = {0: 2 * lam}                 # C_1 = 2 lam s
    for t in range(2, degree + 1):
        nxt = {}
        a = 2 * (t - 1 + lam)
        b = t - 2 + 2 * lam
        for j, c in cur.items():
            nxt[j] = nxt.get(j, Fraction(0)) + a * c
        for j, c in prev.items():
            nxt[j + 1] = nxt.get(j + 1, Fraction(0)) - b * c
        for j in nxt:
            nxt[j] /= t
        prev, cur = cur, nxt
    return _cleared(dim, degree, cur)


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
                              precision_q: int, threads=1,
                              capacity=None) -> QSeries:
    """Truncated theta series weighted by a zonal harmonic of given degree.

    Coefficient of q^a is sum over the norm-a layer of Z_degree(x); these
    sums vanish for every axis when the layer is a degree-strong design.
    Exact: power sums of the dot products are taken over compressed
    integer values, so for degree > 0 the Gram must be integral
    (ValueError otherwise).
    """
    import numpy as np
    if precision_q < 1:
        raise ValueError("precision must be at least 1")
    z = zonal_harmonic(lat.dim, degree)
    alpha = [int(c) for c in alpha]
    if not any(alpha):
        raise ValueError("axis must be nonzero")
    if degree == 0:
        return theta_series(lat, precision_q, threads=threads)
    if not lat.is_integral:
        raise ValueError("Gram matrix %s is not integral; the harmonic "
                         "theta series needs integer inner products"
                         % [[str(x) for x in row] for row in lat.gram])
    bound = window_bound(lat, precision_q)
    coeffs = {}
    if bound > 0:
        kw = {"collect": True, "threads": threads}
        if capacity is not None:
            kw["capacity"] = capacity
        tc = enumerate_vectors(lat, bound, **kw)
        gram = np.array([[int(x) for x in row] for row in lat.gram],
                        dtype=np.int64)
        av = np.array(alpha, dtype=np.int64)
        w_of_a = int(av @ (gram @ av))
        degrees = [degree - 2 * j for j in range(len(z.coefficients))]
        for norm, layer in tc.layers.items():
            if norm == 0:
                continue
            arr = np.array(layer.vectors, dtype=np.int64)
            dots = arr @ (gram @ av)
            sums = exact_power_sums(dots, degrees)
            w = int(norm) * w_of_a
            total = sum(c * (w ** j) * sums[degree - 2 * j]
                        for j, c in enumerate(z.coefficients))
            if total:
                coeffs[12 * int(norm)] = Fraction(total)
    return QSeries(coeffs, 12 * precision_q)
