"""Lattices as exact Gram matrices, their duals and sublattices.

A lattice is represented basis-free, purely by its Gram matrix in the
tautological coordinates: the lattice is Z^n and the inner product of
coordinate rows x, y is x G y^T.  All invariants (determinant, evenness,
level, duals, intersections) are computed exactly.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import functools
import json
import math
from importlib import resources

from . import linalg
from .arith import divisors, int_or_fraction
from .errors import (CatalogError, DivisorError, IntegralityError,
                     ParityError)


class Lattice:
    """Positive definite lattice given by an exact Gram matrix."""

    __slots__ = ("gram", "dim", "det", "_level", "_lll", "_sweep",
                 "_layers")

    def __init__(self, gram):
        rows = [tuple(int_or_fraction(x) for x in row) for row in gram]
        minors = linalg.positive_definite_minors(rows)
        object.__setattr__(self, "gram", tuple(rows))
        object.__setattr__(self, "dim", len(rows))
        object.__setattr__(self, "det", int_or_fraction(minors[-1]))
        object.__setattr__(self, "_level", None)
        object.__setattr__(self, "_lll", None)
        object.__setattr__(self, "_sweep", None)
        object.__setattr__(self, "_layers", None)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_integral(self):
        return all(isinstance(x, int) for row in self.gram for x in row)

    @property
    def is_even(self):
        return self.is_integral and all(row[i] % 2 == 0
                                        for i, row in enumerate(self.gram))

    def norm(self, x):
        """(x, x) for an integer/rational coordinate row."""
        return inner(self.gram, x, x)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "Lattice(dim=%d, det=%s)" % (self.dim, self.det)


def inner(gram, x, y):
    """x G y^T, exact."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = gram[i]
            total += xi * sum(g * yj for g, yj in zip(row, y) if yj)
    return total


def dual(lat: Lattice) -> Lattice:
    """Dual lattice; its Gram matrix is the exact inverse."""
    return Lattice(linalg.inverse(lat.gram))


def rescale(lat: Lattice, c) -> Lattice:
    """Same Z-module with the form scaled by c > 0 (written sqrt(c)L)."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("scale must be positive")
    return Lattice([[x * c for x in row] for row in lat.gram])


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    z_a, z_b = [0] * a.dim, [0] * b.dim
    rows = [list(row) + z_b for row in a.gram]
    rows += [z_a + list(row) for row in b.gram]
    return Lattice(rows)


def level(lat: Lattice) -> int:
    """Smallest N with N * G^-1 integral with even diagonal (even lattices):
    the integral dual scale, doubled when a diagonal entry of N * G^-1 is
    odd."""
    if not lat.is_integral:
        raise IntegralityError("level requires an integral lattice")
    if not lat.is_even:
        raise ParityError("level in this sense is defined for even lattices; "
                          "pass an explicit level for odd ones")
    if lat._level is None:
        d, inv = _dual_scale(lat)
        if any((d * inv[i][i]) % 2 for i in range(lat.dim)):
            d *= 2
        object.__setattr__(lat, "_level", d)
    return lat._level


def integral_dual_scale(lat: Lattice) -> int:
    """Smallest N with N * G^-1 integral (no parity demand); the level
    surrogate used for odd integral lattices."""
    if not lat.is_integral:
        raise IntegralityError("requires an integral lattice")
    return _dual_scale(lat)[0]


def default_level(lat: Lattice) -> int:
    """The level of an even lattice, the integral dual scale of an odd
    one: the level assumed when none is given."""
    return level(lat) if lat.is_even else integral_dual_scale(lat)


def _dual_scale(lat: Lattice):
    """(lcm of the denominators of G^-1, G^-1)."""
    inv = linalg.inverse(lat.gram)
    return math.lcm(*(x.denominator for row in inv for x in row)), inv


def partial_dual(lat: Lattice, m: int, lat_level=None) -> Lattice:
    """L^{*,m} = (1/m)L intersect L*.

    m must be an exact divisor of the level (gcd(m, N/m) = 1); for even
    lattices the level is recomputed, for odd ones pass lat_level.
    Computed via (A cap B) = (A* + B*)* on coordinate duals, which here
    reduces to dualizing the HNF of the stack [mI; G].  The Gram W G W^T
    of that dual basis W is formed fraction-free: d W is integral, d the
    lcm of W's denominators, and the integer product is divided by d^2.
    """
    if not lat.is_integral:
        raise IntegralityError("partial dual requires an integral lattice")
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("m must be a positive integer")
    n = lat_level
    if n is None and lat.is_even:
        n = level(lat)
    if n is not None:
        if n % m != 0 or math.gcd(m, n // m) != 1:
            raise DivisorError("m=%d is not an exact divisor of level %d" % (m, n))
    stack = [[m if i == j else 0 for j in range(lat.dim)] for i in range(lat.dim)]
    stack += [list(row) for row in lat.gram]
    h = linalg.hnf(stack)
    w, d = linalg.clear_denominators(linalg.dual_basis(h))
    g = linalg.mat_mul(linalg.mat_mul(w, lat.gram), linalg.mat_transpose(w))
    return Lattice([[Fraction(x, d * d) for x in row] for row in g])


def even_sublattice(lat: Lattice) -> Lattice:
    """Kernel of the mod-2 parity form x -> (x,x); index 2, det * 4.

    For integral G the parity of x G x^T is the parity of
    sum_{i: G_ii odd} x_i, a linear form over F_2.
    """
    if not lat.is_integral:
        raise IntegralityError("even sublattice requires an integral lattice")
    odd = [i for i in range(lat.dim) if lat.gram[i][i] % 2 != 0]
    if not odd:
        raise ParityError("lattice is already even")
    i0 = odd[0]
    rows = []
    for j in range(lat.dim):
        if j == i0:
            continue
        e = [0] * lat.dim
        e[j] = 1
        if j in odd:
            e[i0] = 1
        rows.append(e)
    e = [0] * lat.dim
    e[i0] = 2
    rows.append(e)
    g = linalg.mat_mul(linalg.mat_mul(rows, [list(r) for r in lat.gram]),
                       linalg.mat_transpose(rows))
    out = Lattice(g)
    assert out.det == 4 * lat.det
    return out


def c_n_lattice(n: int) -> Lattice:
    """C_N: orthogonal sum of sqrt(d) Z over the divisors d of N."""
    ds = divisors(n)
    return Lattice([[d if i == j else 0 for j, _ in enumerate(ds)]
                    for i, d in enumerate(ds)])


def zn(n: int) -> Lattice:
    """The cubic lattice Z^n."""
    return Lattice([[int(i == j) for j in range(n)] for i in range(n)])


# -- density ----------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    dim: int
    minimum: Fraction
    det: Fraction
    ratio_vs_zn_squared: Fraction   # min^n / det, exact
    ratio_vs_zn: object             # Fraction if the square root is rational
    delta: float                    # (V_n / 2^n) sqrt(min^n / det)


def _sqrt_fraction(q: Fraction):
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def density(lat: Lattice, minimum) -> DensityReport:
    """Sphere packing density of the lattice with the given minimum.

    The rational part min^n/det is computed exactly; pi enters only in
    the final float for delta = (V_n/2^n) sqrt(min^n/det).
    """
    return density_from_parameters(lat.dim, minimum, lat.det)


def density_from_parameters(dim: int, minimum, det) -> DensityReport:
    """Density report for hypothetical (dim, min, det) without a lattice."""
    m, d = Fraction(minimum), Fraction(det)
    if m <= 0 or d <= 0:
        raise ValueError("minimum and determinant must be positive")
    ratio_sq = m ** dim / d
    ratio = _sqrt_fraction(ratio_sq)
    v_n = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    delta = v_n / 2 ** dim * math.sqrt(ratio_sq)
    return DensityReport(dim, m, d, ratio_sq, ratio, delta)


# -- catalogue --------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    level: int
    lattice: Lattice
    note: str
    claims: dict = field(default_factory=dict)


class Catalog:
    """Named catalogue entries, parsed up front and validated on first read.

    Each entry's cheap claims (definiteness, determinant, evenness, level)
    are checked the first time the entry is read, once; later reads return
    the same CatalogEntry, so work kept on its Lattice is kept.  Iterating
    validates every entry.
    """

    def __init__(self, raw_entries):
        self._raw = {}
        for raw in raw_entries:
            if not isinstance(raw, dict) or "name" not in raw:
                raise CatalogError("catalogue entry missing 'name': %r"
                                   % (raw,))
            if raw["name"] in self._raw:
                raise CatalogError("duplicate lattice names in catalogue")
            self._raw[raw["name"]] = raw
        self._entries = {}

    def names(self):
        return list(self._raw)

    def get(self, name) -> CatalogEntry:
        entry = self._entries.get(name)
        if entry is None:
            try:
                raw = self._raw[name]
            except KeyError:
                raise CatalogError("unknown lattice %r; known: %s"
                                   % (name, ", ".join(self.names()))) from None
            entry = self._entries[name] = _validate_entry(raw)
        return entry

    def lattice(self, name) -> Lattice:
        return self.get(name).lattice

    def with_claim(self, claim, claimed_level):
        """The entries of the given stated level that make the claim;
        only those are validated."""
        return [self.get(name) for name, raw in self._raw.items()
                if raw.get("level") == claimed_level
                and raw.get("claims", {}).get(claim)]

    def __iter__(self):
        return (self.get(name) for name in self._raw)

    def __len__(self):
        return len(self._raw)


def _validate_entry(raw) -> CatalogEntry:
    for key in ("name", "level", "gram", "note"):
        if key not in raw:
            raise CatalogError("catalogue entry missing %r: %r" % (key, raw))
    name = raw["name"]
    try:
        lat = Lattice(raw["gram"])
    except Exception as exc:
        raise CatalogError("entry %r: invalid gram: %s" % (name, exc)) from exc
    if not lat.is_integral:
        raise CatalogError("entry %r: gram must be integral" % name)
    claimed_level = raw["level"]
    lvl = default_level(lat)
    if lvl != claimed_level:
        raise CatalogError("entry %r: recomputed level %d != claimed %d"
                           % (name, lvl, claimed_level))
    claims = dict(raw.get("claims", {}))
    if "det" in claims and lat.det != claims["det"]:
        raise CatalogError("entry %r: recomputed det %s != claimed %s"
                           % (name, lat.det, claims["det"]))
    if "even" in claims and lat.is_even != claims["even"]:
        raise CatalogError("entry %r: evenness mismatch" % name)
    return CatalogEntry(name, claimed_level, lat, raw["note"], claims)


def _bundled_text():
    return resources.files("modlattice").joinpath(
        "data/lattices.json").read_text()


def _parse(text) -> Catalog:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError("catalogue is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, list):
        raise CatalogError("catalogue must be a JSON array of entries")
    return Catalog(raw)


def load_catalog(path=None) -> Catalog:
    """Load and validate the lattice catalogue (bundled one by default).

    Every entry's cheap claims (definiteness, determinant, evenness,
    level) are verified here, so a bad file fails at load; expensive ones
    (minimum, kissing, strong modularity) are carried as claims and
    rechecked by the test suite.
    """
    if path is None:
        text = _bundled_text()
    else:
        with open(path) as fh:
            text = fh.read()
    catalog = _parse(text)
    list(catalog)                   # validates every entry
    return catalog


@functools.cache
def bundled_catalog() -> Catalog:
    """The bundled catalogue, parsed once per process; each entry is
    validated when it is first read."""
    return _parse(_bundled_text())
