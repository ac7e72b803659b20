"""Build and validate the bundled lattice catalogue.

Every Gram matrix is constructed from scratch (root system data, binary
codes, the hexacode, glue vectors, or direct search) and then validated:
determinant, parity and level by the library's Catalog, minimum and
kissing number by exact enumeration, and strong modularity by
modular.check_modular (a Sturm-window theta identity plus an exact
isometry for every exact divisor of the level).  Only a fully validated
set is written to src/modlattice/data/lattices.json.

The entries D4, E6, E7, E8, K12, BW16, D16plus and Leech also store
three automorphisms each: integer matrices g in the entry's basis, acting
on coordinate rows x -> x g, with g G g^T = G.  The design tests sum over
their orbits (modlattice.designs).  Below dimension 24 each is a seeded
self-isometry (self_isometries): find_isometry(L, U G U^T) for a seeded
unimodular rebasing U, composed with U.  The Leech lattice is above the
isometry search's dimension cap, so its three come from the Golay
coordinates of leech_basis() (leech_automorphisms): two automorphisms of
the Golay code, drawn by a seeded backtrack that maps octads to octads,
and the sign change on one octad, conjugated into the catalogue basis.
Validation checks every one exactly and prints the number of orbits it
and -1 make on the minimal layer.

Run from the repository root with the package importable.
"""

import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modlattice import designs, linalg
from modlattice.enumeration import min_layer, minimum
from modlattice.isometry import ISOMETRIC, find_isometry
from modlattice.lattice import Catalog, Lattice, level
from modlattice.modular import check_modular
from modlattice.report import PASS


def basis_from_generators(rows, ncols):
    """Row span of the generators as a square basis matrix (exact)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    cleared, c = linalg.clear_denominators(mat)
    h = linalg.hnf(cleared)
    assert len(h) == ncols, "generators do not span: rank %d" % len(h)
    return [[Fraction(x, c) for x in row] for row in h]


def gram_of_rows(rows, form=None, scale=1):
    n = len(rows[0])
    if form is None:
        form = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    b = [[Fraction(x) for x in row] for row in rows]
    g = linalg.mat_mul(b, linalg.mat_mul(form, linalg.mat_transpose(b)))
    out = []
    for row in g:
        out_row = []
        for x in row:
            v = Fraction(x) * scale
            assert v.denominator == 1, "non-integral gram entry %s" % v
            out_row.append(int(v))
        out.append(out_row)
    return out


# -- root lattices ----------------------------------------------------------

def simply_laced_gram(n, edges):
    g = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i - 1][j - 1] = g[j - 1][i - 1] = -1
    return g


A2 = [[2, 1], [1, 2]]
D4 = simply_laced_gram(4, [(1, 2), (2, 3), (2, 4)])
E6 = simply_laced_gram(6, [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)])
E7 = simply_laced_gram(7, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)])
E8 = simply_laced_gram(8, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                           (2, 4)])


def dn_rows(n):
    """Generators of the checkerboard lattice in standard coordinates."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i], rows[i][i + 1] = 1, -1
    rows[n - 1][0] = rows[n - 1][1] = 1
    return rows


# -- binary codes -----------------------------------------------------------

GOLAY_A = [
    [1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1],
    [0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0],
    [0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1],
    [1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0],
    [1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1],
    [1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
    [1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0],
    [0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1],
    [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1],
]


def golay_generators():
    rows = []
    for i in range(12):
        row = [int(i == j) for j in range(12)] + GOLAY_A[i]
        rows.append(row)
    dist = {}
    for sel in itertools.product((0, 1), repeat=12):
        w = sum((sum(s * r for s, r in zip(sel, col)) % 2)
                for col in zip(*rows))
        dist[w] = dist.get(w, 0) + 1
    assert sorted(dist.items()) == [
        (0, 1), (8, 759), (12, 2576), (16, 759), (24, 1)], dist
    return rows


def rm_1_4_generators():
    rows = [[1] * 16]
    for bit in range(4):
        rows.append([(i >> bit) & 1 for i in range(16)])
    count = {}
    for sel in itertools.product((0, 1), repeat=5):
        w = sum((sum(s * r[i] for s, r in zip(sel, rows)) % 2)
                for i in range(16))
        count[w] = count.get(w, 0) + 1
    assert sorted(count.items()) == [(0, 1), (8, 30), (16, 1)], count
    return rows


def leech_basis():
    """Scaled code lattice: congruence conditions mod 8 on Z^24, with
    inner products divided by 8 (leech_gram).

    Generators: doubled Golay lifts, 4 D24, and one odd-class vector.
    """
    gens = []
    for row in golay_generators():
        gens.append([2 * x for x in row])
    for row in dn_rows(24):
        gens.append([4 * x for x in row])
    gens.append([-3] + [1] * 23)
    return basis_from_generators(gens, 24)


def leech_gram():
    return gram_of_rows(leech_basis(), scale=Fraction(1, 8))


def code_words(rows):
    """Every codeword of the binary code spanned by rows, as bitmasks."""
    words = [0]
    for row in rows:
        mask = sum(b << i for i, b in enumerate(row))
        words += [w ^ mask for w in words]
    return words


def golay_automorphism(rows, rng):
    """A permutation p of the 24 coordinates that maps the Golay code
    onto itself, drawn by a seeded backtrack: points 0, 1, ... get images
    in random order, and a partial map is kept only while, for every
    octad with at least five points mapped, their images lie in the one
    octad through the first five (the octads are a Steiner system
    S(5, 8, 24)).  The result is checked on every codeword."""
    words = code_words(rows)
    code = set(words)
    octads = [w for w in words if bin(w).count("1") == 8]
    through = {}
    for o in octads:
        points = [i for i in range(24) if o >> i & 1]
        for five in itertools.combinations(points, 5):
            through[sum(1 << i for i in five)] = o
    image = [None] * 24

    def consistent(i):
        for o in octads:
            points = [j for j in range(i + 1) if o >> j & 1]
            if o >> i & 1 and len(points) >= 5:
                octad = through[sum(1 << image[j] for j in points[:5])]
                if any(not octad >> image[j] & 1 for j in points[5:]):
                    return False
        return True

    def extend(i):
        if i == 24:
            return True
        free = [c for c in range(24) if c not in image[:i]]
        rng.shuffle(free)
        for c in free:
            image[i] = c
            if consistent(i) and extend(i + 1):
                return True
        image[i] = None
        return False

    assert extend(0)
    for w in words:
        assert sum(1 << image[j] for j in range(24) if w >> j & 1) in code
    return image


def leech_automorphisms(seed):
    """Two automorphisms of the Golay code and the sign change on one
    octad, each an automorphism of the Leech lattice in the coordinates
    of leech_basis(), conjugated into its basis: g = B P B^-1 acts on the
    coordinate rows x -> x g."""
    rng = random.Random(seed)
    rows = golay_generators()
    basis = leech_basis()
    n = len(basis)
    moves = []
    for _ in range(2):
        p = golay_automorphism(rows, rng)
        moves.append([[int(p[i] == j) for j in range(n)] for i in range(n)])
    octad = next(w for w in code_words(rows) if bin(w).count("1") == 8)
    moves.append([[(-1 if octad >> i & 1 else 1) * int(i == j)
                   for j in range(n)] for i in range(n)])
    inv = linalg.inverse(basis)
    out = []
    for move in moves:
        g = linalg.mat_mul(linalg.mat_mul(basis, move), inv)
        assert all(Fraction(x).denominator == 1 for row in g for x in row)
        out.append([[int(x) for x in row] for row in g])
    return out


def bw16_gram():
    """Construction B on the [16,5,8] first order Reed-Muller code."""
    gens = [row[:] for row in rm_1_4_generators()]
    for row in dn_rows(16):
        gens.append([2 * x for x in row])
    basis = basis_from_generators(gens, 16)
    return gram_of_rows(basis, scale=Fraction(1, 2))


# -- hexacode / Eisenstein construction -------------------------------------

# F4 = {0, 1, w, w^2} encoded as pairs over F2 with w^2 = w + 1
F4 = [(0, 0), (1, 0), (0, 1), (1, 1)]


def f4_mul(a, b):
    (a0, a1), (b0, b1) = a, b
    # (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1
    c0 = (a0 * b0 + a1 * b1) % 2
    c1 = (a0 * b1 + a1 * b0 + a1 * b1) % 2
    return (c0, c1)


def f4_add(a, b):
    return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


W = (0, 1)
W2 = (1, 1)
ONE = (1, 0)


def hexacode_basis():
    """Codewords (a, b, c, f(1), f(w), f(w^2)) for f = x^2, x, 1."""
    words = []
    for a, b, c in ((ONE, (0, 0), (0, 0)),
                    ((0, 0), ONE, (0, 0)),
                    ((0, 0), (0, 0), ONE)):
        word = [a, b, c]
        for p in (ONE, W, W2):
            p2 = f4_mul(p, p)
            word.append(f4_add(f4_add(f4_mul(a, p2), f4_mul(b, p)), c))
        words.append(word)
    for word in words:
        assert sum(1 for s in word if s != (0, 0)) >= 4
    return words


def eis_lift(sym):
    """A residue representative in Z[w] (as a pair p + q w) mod 2."""
    return {(0, 0): (0, 0), (1, 0): (1, 0),
            (0, 1): (0, 1), (1, 1): (-1, -1)}[sym]


def eis_mul_w(pair):
    p, q = pair
    # w (p + q w) = -q + (p - q) w
    return (-q, p - q)


def k12_gram():
    """Preimage of the hexacode in the sixth power of the Eisenstein ring."""
    # real form of the hermitian inner product on one Eisenstein slot
    phi_block = [[Fraction(1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1)]]
    phi = [[Fraction(0)] * 12 for _ in range(12)]
    for s in range(6):
        for i in range(2):
            for j in range(2):
                phi[2 * s + i][2 * s + j] = phi_block[i][j]
    gens = []
    for s in range(6):
        for vec in ((2, 0), (0, 2)):
            row = [0] * 12
            row[2 * s], row[2 * s + 1] = vec
            gens.append(row)
    for word in hexacode_basis():
        lifted = [eis_lift(sym) for sym in word]
        for mult in (False, True):
            row = []
            for pair in lifted:
                row.extend(eis_mul_w(pair) if mult else pair)
            gens.append(row)
    basis = basis_from_generators(gens, 12)
    return gram_of_rows(basis, form=phi)


# -- glued lattices ---------------------------------------------------------

def d_plus_gram(n):
    """Checkerboard plus the all-halves glue vector (n divisible by 4)."""
    gens = [row[:] for row in dn_rows(n)]
    gens.append([Fraction(1, 2)] * n)
    basis = basis_from_generators(gens, n)
    return gram_of_rows(basis)


# -- base lattices for the admissible levels --------------------------------

def scaled_sum(g1, g2, c):
    """g1 perp c*g2 as a block diagonal integer matrix."""
    n1, n2 = len(g1), len(g2)
    out = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            out[i][j] = g1[i][j]
    for i in range(n2):
        for j in range(n2):
            out[n1 + i][n1 + j] = c * g2[i][j]
    return out


P7 = [[2, 1], [1, 4]]

BASE_GRAMS = {
    6: scaled_sum(A2, A2, 2),
    7: P7,
    11: [[2, 1], [1, 6]],
    14: scaled_sum(P7, P7, 2),
    15: scaled_sum(A2, A2, 5),
    23: [[2, 1], [1, 12]],
}


def search_level5_base():
    """Complete search for an even 4-dim lattice with det 25, level 5,
    strongly 5-modular.

    Any such lattice has min 2 (Hermite bound forces it) and a reduced
    basis with ascending even diagonal d, |2 g_ij| <= d_i for i < j, and
    d1 d2 d3 d4 <= 4 det = 100.  Scanning that finite box is therefore
    exhaustive.  All finds must be isometric (the genus for prime level
    in this dimension contains one class); this is asserted.
    """
    diags = []
    for d2 in range(2, 51, 2):
        for d3 in range(d2, 51, 2):
            for d4 in range(d3, 51, 2):
                if 2 * d2 * d3 * d4 <= 100:
                    diags.append((2, d2, d3, d4))
    found = []
    for d in diags:
        r1 = range(-1, 2)
        r2 = range(-(d[1] // 2), d[1] // 2 + 1)
        r3 = range(-(d[2] // 2), d[2] // 2 + 1)
        for b01, b02, b03 in itertools.product(r1, repeat=3):
            for b12, b13 in itertools.product(r2, repeat=2):
                for b23 in r3:
                    g = [[d[0], b01, b02, b03],
                         [b01, d[1], b12, b13],
                         [b02, b12, d[2], b23],
                         [b03, b13, b23, d[3]]]
                    try:
                        lat = Lattice(g)
                    except Exception:
                        continue
                    if lat.det != 25 or level(lat) != 5:
                        continue
                    if check_modular(lat).verdict == PASS:
                        found.append(lat)
    if not found:
        raise RuntimeError("no level 5 base lattice found in the search box")
    first = found[0]
    for other in found[1:]:
        st, _, _ = find_isometry(first, other)
        assert st == ISOMETRIC, "level 5 search found non-isometric lattices"
    return first.gram


# -- automorphisms ----------------------------------------------------------

def seeded_rebasing(n, seed):
    """A unimodular n x n matrix: 3n seeded elementary row operations
    on the identity."""
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    return u


def self_isometries(gram, seeds=(1, 2, 3)):
    """One automorphism of L per seed: find_isometry(L, R) for the seeded
    rebasing R = U G U^T gives v with v (U G U^T) v^T = G, so g = v U
    maps L onto itself (x -> x g)."""
    lat = Lattice(gram)
    out = []
    for seed in seeds:
        u = seeded_rebasing(lat.dim, seed)
        rebased = Lattice(linalg.mat_mul(linalg.mat_mul(u, gram),
                                         linalg.mat_transpose(u)))
        status, v, _ = find_isometry(lat, rebased)
        assert status == ISOMETRIC
        out.append(linalg.mat_mul(v, u))
    return out


# -- assembly ---------------------------------------------------------------

def entry(name, lvl, gram, note, **claims):
    return {"name": name, "level": lvl, "gram": gram, "note": note,
            "claims": claims}


def validate(entries):
    """Definiteness, det, evenness and level through Catalog, then minimum,
    kissing number, the strong modularity certificate, and the exact
    check of the automorphisms (with the number of orbits they and -1
    make on the minimal layer)."""
    for e in Catalog(entries):
        lat, c = e.lattice, e.claims
        t0 = time.time()
        rep = minimum(lat)
        assert rep.minimum == c["min"], (e.name, rep.minimum)
        assert rep.kissing == c["kissing"], (e.name, rep.kissing)
        if c.get("strongly_modular"):
            assert check_modular(lat).verdict == PASS, e.name
        orbits = ""
        if lat._automorphisms is not None:
            label = designs._orbits(min_layer(lat).rows,
                                    designs._automorphisms(lat))
            orbits = "  %d orbits" % len(set(label.tolist()))
        print("  %-10s dim %2d det %-6s min %s kissing %-6d level %-2d  "
              "%.1fs%s" % (e.name, lat.dim, lat.det, rep.minimum, rep.kissing,
                           e.level, time.time() - t0, orbits))


def main():
    print("constructing lattices ...")
    leech = leech_gram()
    bw16 = bw16_gram()
    k12 = k12_gram()
    d16p = d_plus_gram(16)
    d12p = d_plus_gram(12)
    print("searching for the level 5 base ...")
    t0 = time.time()
    n5 = search_level5_base()
    print("  found", n5, "in %.1fs" % (time.time() - t0))

    entries = [
        entry("A2", 3, A2,
              "Hexagonal root lattice; base for level 3.",
              det=3, min=2, kissing=6, even=True, strongly_modular=True,
              strongly_perfect=True, extremal=True, theta_base=True),
        entry("D4", 2, D4,
              "Checkerboard root lattice in dimension 4; base for level 2.",
              det=4, min=2, kissing=24, even=True, strongly_modular=True,
              strongly_perfect=True, extremal=True, theta_base=True),
        entry("E6", 3, E6,
              "Root lattice from the E6 diagram.",
              det=3, min=2, kissing=72, even=True),
        entry("E7", 4, E7,
              "Root lattice from the E7 diagram.",
              det=2, min=2, kissing=126, even=True),
        entry("E8", 1, E8,
              "Even unimodular root lattice in dimension 8; "
              "base for level 1.",
              det=1, min=2, kissing=240, even=True, strongly_modular=True,
              strongly_perfect=True, extremal=True, theta_base=True),
        entry("K12", 3, k12,
              "Coxeter-Todd lattice: preimage of the hexacode under "
              "reduction of the sixth power of the Eisenstein integers "
              "modulo 2.",
              det=729, min=4, kissing=756, even=True, strongly_modular=True,
              strongly_perfect=True, extremal=True),
        entry("BW16", 2, bw16,
              "Barnes-Wall lattice: construction B on the first order "
              "Reed-Muller code of length 16, rescaled.",
              det=256, min=4, kissing=4320, even=True, strongly_modular=True,
              strongly_perfect=True, extremal=True),
        entry("Leech", 1, leech,
              "Leech lattice: congruence conditions modulo 8 from the "
              "binary Golay code on standard coordinates, rescaled.",
              det=1, min=4, kissing=196560, even=True, strongly_modular=True,
              strongly_perfect=True, extremal=True),
        entry("D16plus", 1, d16p,
              "Checkerboard lattice of dimension 16 glued by the "
              "all-halves vector; even unimodular, not isometric to "
              "E8 perp E8 but with the same theta series.",
              det=1, min=2, kissing=480, even=True, strongly_modular=True,
              extremal=True),
        entry("D12plus", 1, d12p,
              "Checkerboard lattice of dimension 12 glued by the "
              "all-halves vector (norm 3): odd unimodular with no "
              "vectors of norm 1; shadow parameter m = 1.",
              det=1, min=2, kissing=264, even=False, shadow_m=1),
        entry("N5base", 5, n5,
              "Smallest even strongly 5-modular lattice (dimension 4, "
              "determinant 25), found by exhaustive search over small "
              "Gram matrices; the genus is unique.",
              det=25, min=2, kissing=None, even=True, strongly_modular=True,
              theta_base=True),
        entry("N6base", 6, BASE_GRAMS[6],
              "A2 perp sqrt(2) A2: even strongly 6-modular of dimension "
              "4 and determinant 36.  The dimension 4 genus for level 6 "
              "is not unique; this representative fixes the theta series "
              "used for level 6.",
              det=36, min=2, kissing=6, even=True, strongly_modular=True,
              theta_base=True),
        entry("N7base", 7, BASE_GRAMS[7],
              "Binary quadratic form of discriminant 7; base for level 7.",
              det=7, min=2, kissing=2, even=True, strongly_modular=True,
              theta_base=True),
        entry("N11base", 11, BASE_GRAMS[11],
              "Binary quadratic form of discriminant 11; base for "
              "level 11.",
              det=11, min=2, kissing=2, even=True, strongly_modular=True,
              theta_base=True),
        entry("N14base", 14, BASE_GRAMS[14],
              "P7 perp sqrt(2) P7 for the discriminant 7 form P7; even "
              "strongly 14-modular of dimension 4, determinant 196.",
              det=196, min=2, kissing=2, even=True, strongly_modular=True,
              theta_base=True),
        entry("N15base", 15, BASE_GRAMS[15],
              "A2 perp sqrt(5) A2: even strongly 15-modular of dimension "
              "4, determinant 225.",
              det=225, min=2, kissing=6, even=True, strongly_modular=True,
              theta_base=True),
        entry("N23base", 23, BASE_GRAMS[23],
              "Binary quadratic form of discriminant 23; base for "
              "level 23.",
              det=23, min=2, kissing=2, even=True, strongly_modular=True,
              theta_base=True),
    ]

    # fill measured kissing for the searched entry
    for e in entries:
        if e["claims"].get("kissing") is None:
            rep = minimum(Lattice(e["gram"]))
            e["claims"]["min"] = (rep.minimum.numerator
                                  if isinstance(rep.minimum, Fraction)
                                  else int(rep.minimum))
            e["claims"]["kissing"] = rep.kissing

    print("finding automorphisms ...")
    automorphisms = {e["name"]: self_isometries(e["gram"]) for e in entries
                     if e["name"] in ("E8", "K12", "BW16", "D16plus", "D4",
                                      "E6", "E7")}
    automorphisms["Leech"] = leech_automorphisms(seed=1)
    for e in entries:
        if e["name"] in automorphisms:
            e["automorphisms"] = automorphisms[e["name"]]

    print("validating ...")
    validate(entries)

    out = Path(__file__).resolve().parent.parent / "src" / "modlattice" / \
        "data" / "lattices.json"
    with open(out, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print("wrote", out)


if __name__ == "__main__":
    main()
