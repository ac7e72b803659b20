"""Seeded input generation for the benchmark workloads.

Everything here is plain integer/Fraction arithmetic on Gram matrices; the
program under test only ever receives the matrices built here (or the
catalogue lattices themselves).  The same seed always gives the same
matrices.
"""
import random


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transform(gram, u):
    """U G U^T: the Gram matrix of the basis given by the rows of u."""
    return mat_mul(mat_mul(u, gram), [list(r) for r in zip(*u)])


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular(rng, n, moves, entry_bound=None):
    """A random unimodular matrix: a signed permutation followed by
    `moves` unit moves row_i += c row_j with c = +-1.

    With entry_bound set, a move that would push any entry of the matrix
    beyond the bound in absolute value is rejected and redrawn, which
    keeps the skew of the new basis (and so the cost of an enumeration
    run on it without reduction) bounded.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(n)]
         for i in range(n)]
    done = tries = 0
    while done < moves:
        tries += 1
        if tries > 100 * (moves + 1):
            raise ValueError("no admissible move within the entry bound")
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        row = [x + c * y for x, y in zip(u[i], u[j])]
        if entry_bound is not None and max(map(abs, row)) > entry_bound:
            continue
        u[i] = row
        done += 1
    return u


def rebase(rng, gram, moves, entry_bound=None):
    u = unimodular(rng, len(gram), moves, entry_bound)
    return transform([list(r) for r in gram], u)


def direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            out[off + i][off:off + len(row)] = list(row)
        off += len(g)
    return out


def make_rng(seed, tag):
    """One independent stream per (seed, family) so that adding a family
    does not change the inputs of the others."""
    return random.Random("%s/%s" % (seed, tag))
