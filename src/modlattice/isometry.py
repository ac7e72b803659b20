"""Exact isometry search between lattices given by Gram matrices.

Backtracking over short vectors: the image of the i-th basis vector must
be a vector of the right norm with the right inner products against the
images already chosen.  The search runs on the LLL-reduced bases that
every sweep of the two lattices uses (enumeration._basis), so the needed
layers stay small; the counts of a are those already kept on it
(enumeration._counts), and those of b come from the sweep that collects
its search layers.  Candidate filtering runs on numpy arrays in
the dtype that linalg.exact_factors makes exact; any isometry found is
re-verified in exact integer arithmetic before it is reported.
"""

from . import linalg
from .enumeration import _basis, _counts, enumerate_vectors
from .lattice import Lattice

DEFAULT_BUDGET = 10 ** 6
DEFAULT_DIM_CAP = 16

ISOMETRIC = "isometric"
NOT_ISOMETRIC = "not-isometric"
INCONCLUSIVE = "inconclusive"


def _check(u, ga, gb):
    """U G_b U^T = G_a, exactly."""
    g = linalg.mat_mul(u, linalg.mat_mul(gb, linalg.mat_transpose(u)))
    return linalg.mat_eq(g, ga)


def find_isometry(a: Lattice, b: Lattice, budget=DEFAULT_BUDGET):
    """Search for U with U G_b U^T = G_a.

    Returns (status, u, nodes): u rows are the b-coordinates of the images
    of a's basis vectors.  `not-isometric` is a proof (counts that differ,
    in any dimension, or an exhausted search), `inconclusive` means the
    node budget or the dimension cap DEFAULT_DIM_CAP was hit.
    """
    if a.dim != b.dim or a.det != b.det:
        return NOT_ISOMETRIC, None, 0
    n = a.dim
    if linalg.mat_eq(a.gram, b.gram):
        return ISOMETRIC, linalg.mat_identity(n), 0
    (ga_r, ua), (gb_r, ub) = _basis(a), _basis(b)
    need = [ga_r[i][i] for i in range(n)]
    bound = max(need + [gb_r[i][i] for i in range(n)])
    # isometric lattices have one theta series: above the cap that is all
    # that is decided, and below it the sweep that collects b's search
    # layers gives b's counts
    if n > DEFAULT_DIM_CAP:
        same = _counts(a, bound).counts == _counts(b, bound).counts
        return (INCONCLUSIVE if same else NOT_ISOMETRIC), None, 0
    lb = Lattice(gb_r)      # its own search basis: LLL leaves it as it is
    object.__setattr__(lb, "_lll", (lb.gram, None))
    tb = enumerate_vectors(lb, bound, collect=True)
    if _counts(a, bound).counts != tb.counts:
        return NOT_ISOMETRIC, None, 0
    np = linalg.load_numpy()
    # both Grams scaled by one factor into integers
    both, _ = linalg.clear_denominators([*ga_r, *gb_r])
    ga, gb = both[:n], both[n:]

    # every layer in one array, so that one cast covers the products of
    # any layer's dots with vectors chosen from any other
    flat = np.concatenate([layer.rows for layer in tb.layers.values()])
    flat_dots, flat_t = linalg.gram_factors(gb, flat, flat)
    flat = flat_t.T
    cuts = np.cumsum([len(layer) for layer in tb.layers.values()])[:-1]
    layers = dict(zip(tb.layers, np.split(flat, cuts)))
    dots = dict(zip(tb.layers, np.split(flat_dots, cuts)))

    chosen = np.zeros((n, n), dtype=flat.dtype)
    nodes = 0

    def candidates(i):
        arr = layers[need[i]]
        d = dots[need[i]]
        mask = np.ones(len(arr), dtype=bool)
        for j in range(i):
            mask &= (d @ chosen[j]) == ga[i][j]
            if not mask.any():
                break
        return arr[mask]

    cand_stack = [None] * n
    pos = [0] * n
    cand_stack[0] = candidates(0)
    i = 0
    while True:
        cands = cand_stack[i]
        if pos[i] >= len(cands):
            i -= 1
            if i < 0:
                return NOT_ISOMETRIC, None, nodes
            pos[i] += 1
            continue
        nodes += 1
        if nodes > budget:
            return INCONCLUSIVE, None, nodes
        chosen[i] = cands[pos[i]]
        if i == n - 1:
            v = [[int(x) for x in row] for row in chosen]
            if _check(v, ga, gb):
                # compose back to the original bases: u = ua^-1 v ub
                one = linalg.mat_identity(n)
                ua_inv = [[int(x) for x in row]
                          for row in linalg.inverse(ua or one)]
                u = linalg.mat_mul(linalg.mat_mul(ua_inv, v), ub or one)
                assert _check(u, a.gram, b.gram)
                return ISOMETRIC, u, nodes
            pos[i] += 1
            continue
        i += 1
        cand_stack[i] = candidates(i)
        pos[i] = 0
