"""Backtracking isometry search: proofs, disproofs, honest budgets."""
import random
from fractions import Fraction

from modlattice import isometry
from modlattice.enumeration import theta_series
from modlattice.isometry import (INCONCLUSIVE, ISOMETRIC, NOT_ISOMETRIC,
                                 find_isometry)
from modlattice.lattice import Lattice, direct_sum, dual, rescale, zn

from test_enumeration import random_gram, transformed, unimodular


def check_witness(u, a, b):
    n = a.dim
    for i in range(n):
        for j in range(n):
            s = sum(sum(Fraction(u[i][p]) * Fraction(b.gram[p][q])
                        for p in range(n)) * Fraction(u[j][q])
                    for q in range(n))
            if s != Fraction(a.gram[i][j]):
                return False
    return True


def test_identical_gram_short_circuit(catalog):
    d4 = catalog.lattice("D4")
    status, u, nodes = find_isometry(d4, d4)
    assert status == ISOMETRIC and nodes == 0
    assert u == [[int(i == j) for j in range(4)] for i in range(4)]


def test_transformed_e8_found_with_verified_witness(catalog):
    rng = random.Random(17)
    e8 = catalog.lattice("E8")
    other = transformed(e8, unimodular(rng, 8, steps=10))
    status, u, _ = find_isometry(other, e8)
    assert status == ISOMETRIC
    assert check_witness(u, other, e8)


def test_e8_scaled_past_int64_is_found(catalog):
    """At scale 2^60 the dots against the Gram pass 2^62: the search runs
    on Python integers and finds what it finds at scale 1."""
    rng = random.Random(17)
    e8 = catalog.lattice("E8")
    other = transformed(e8, unimodular(rng, 8, steps=10))
    a, b = rescale(other, 2 ** 60), rescale(e8, 2 ** 60)
    status, u, nodes = find_isometry(a, b)
    assert status == ISOMETRIC
    assert isometry._check(u, a.gram, b.gram)
    assert nodes == find_isometry(other, e8)[2]


def test_dimension_and_determinant_fast_paths():
    assert find_isometry(zn(2), zn(3))[0] == NOT_ISOMETRIC
    assert find_isometry(Lattice([[3]]), Lattice([[5]]))[0] == NOT_ISOMETRIC


def test_theta_mismatch_is_a_disproof(catalog):
    """Counts that differ are a proof, also above the dimension cap:
    E8^3 has 720 vectors of norm 2 and Leech none."""
    a = Lattice([[2, 0], [0, 8]])
    b = Lattice([[4, 0], [0, 4]])
    assert a.det == b.det
    status, u, nodes = find_isometry(a, b)
    assert status == NOT_ISOMETRIC and u is None
    e8 = catalog.lattice("E8")
    big = direct_sum(direct_sum(e8, e8), e8)
    status, u, nodes = find_isometry(big, catalog.lattice("Leech"))
    assert status == NOT_ISOMETRIC and u is None and nodes == 0


def test_rational_grams_are_supported(catalog):
    # the reduced Grams have Fraction entries; the witness maps the
    # original bases
    rng = random.Random(29)
    for base in (dual(Lattice([[2, 1], [1, 2]])),
                 dual(catalog.lattice("K12"))):
        other = transformed(base, unimodular(rng, base.dim))
        status, u, _ = find_isometry(other, base)
        assert status == ISOMETRIC
        assert check_witness(u, other, base)


def test_seeded_pairs_dims_2_to_4():
    rng = random.Random(41)
    for n in (2, 3, 4):
        base = random_gram(rng, n)
        other = transformed(base, unimodular(rng, n))
        status, u, _ = find_isometry(other, base)
        assert status == ISOMETRIC
        assert check_witness(u, other, base)


def test_node_budget_inconclusive(catalog):
    """Two dim-16 lattices with equal theta; a tiny budget must not lie."""
    a = catalog.lattice("D16plus")
    b = direct_sum(catalog.lattice("E8"), catalog.lattice("E8"))
    assert theta_series(a, 6).agree(theta_series(b, 6))[0]
    status, u, nodes = find_isometry(a, b, budget=50)
    assert status == INCONCLUSIVE and u is None
    assert nodes > 50


def test_dimension_cap_inconclusive(catalog):
    """E8^3 and a seeded rebasing of it agree on every count, so the
    search stops at the dimension cap after 0 nodes."""
    e8 = catalog.lattice("E8")
    big = direct_sum(direct_sum(e8, e8), e8)
    other = transformed(big, unimodular(random.Random(3), 24))
    assert other.gram != big.gram
    status, _, nodes = find_isometry(big, other)
    assert status == INCONCLUSIVE and nodes == 0
