"""Expected values that do not come from the code path a job times.

Counts are plain Python integers: closed forms for Z^n, (Z+1/2)^n, D_n,
A2, E8 and the level-1 forms E4 and Delta, the root system of a root
lattice and the zonal harmonics, all computed here from scratch, plus the
claims carried by the bundled catalogue.  The few expectations
that need the library (level 2 and 3 extremal forms, the theta series of
a catalogue basis) are computed on other inputs than the timed job, by
another code path (modular forms rather than a deep sweep), and outside
the timed region.
"""
import math
from fractions import Fraction


def mul(a, b, top):
    """Product of two count lists, truncated to exponents <= top."""
    out = [0] * (top + 1)
    for i, x in enumerate(a[:top + 1]):
        if x:
            for j, y in enumerate(b[:top + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def power(a, n, top):
    out = [1] + [0] * top
    for _ in range(n):
        out = mul(out, a, top)
    return out


def product(series, top):
    out = [1] + [0] * top
    for s in series:
        out = mul(out, s, top)
    return out


def zn_counts(n, top):
    """#{x in Z^n : (x,x) = k} for k <= top."""
    base = [0] * (top + 1)
    k = 0
    while k * k <= top:
        base[k * k] += 1 if k == 0 else 2
        k += 1
    return power(base, n, top)


def half_counts(n, top4):
    """#{x in (Z+1/2)^n : 4 (x,x) = e} for e <= top4."""
    base = [0] * (top4 + 1)
    k = 0
    while (2 * k + 1) ** 2 <= top4:
        base[(2 * k + 1) ** 2] += 2
        k += 1
    return power(base, n, top4)


def dn_counts(n, top):
    """D_n = {x in Z^n : sum x even}; the sum has the parity of the norm."""
    return [c if k % 2 == 0 else 0 for k, c in enumerate(zn_counts(n, top))]


def _sigma(m, p):
    return sum(d ** p for d in range(1, m + 1) if m % d == 0)


def e8_counts(top):
    """theta of E8 = E4: 240 sigma_3(m) vectors of norm 2m."""
    return [1 if k == 0 else (240 * _sigma(k // 2, 3) if k % 2 == 0 else 0)
            for k in range(top + 1)]


def a2_counts(top):
    """6 * (d_{1,3}(m) - d_{2,3}(m)) vectors of norm 2m in A2."""
    out = [1] + [0] * top
    for k in range(2, top + 1, 2):
        m = k // 2
        out[k] = 6 * sum((1 if d % 3 == 1 else -1 if d % 3 == 2 else 0)
                         for d in range(1, m + 1) if m % d == 0)
    return out


def delta_x(top):
    """Delta = x prod (1 - x^n)^24 in x = q^2, coefficients up to x^top."""
    out = [0] * (top + 1)
    if top >= 1:
        out[1] = 1
    for n in range(1, top + 1):
        for _ in range(24):
            for e in range(top, n - 1, -1):
                out[e] -= out[e - n]
    return out


def e4_x(top):
    return [1] + [240 * _sigma(m, 3) for m in range(1, top + 1)]


def level1_extremal(weight, top):
    """Level-1 extremal form in x = q^2 for weight 8 or 12, up to x^top:
    E4^2 and E4^3 - 720 Delta."""
    e4 = e4_x(top)
    if weight == 8:
        return mul(e4, e4, top)
    if weight == 12:
        cube = mul(mul(e4, e4, top), e4, top)
        return [c - 720 * d for c, d in zip(cube, delta_x(top))]
    raise ValueError("no closed form for weight %d" % weight)


def x_to_norm(xs, top):
    """A series in x = q^2 as counts by norm (odd norms empty)."""
    return [xs[k // 2] if k % 2 == 0 else 0 for k in range(top + 1)]


def root_system(cartan):
    """The roots of a simply laced root lattice, as coordinate tuples in
    the basis of simple roots whose Gram matrix is `cartan` (diagonal 2):
    the orbit of the simple roots under the simple reflections
    s_j(x) = x - (x, e_j) e_j."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, todo = set(simple), list(simple)
    while todo:
        x = todo.pop()
        gx = [sum(g * v for g, v in zip(row, x)) for row in cartan]
        for j in range(n):
            if gx[j]:
                y = x[:j] + (x[j] - gx[j],) + x[j + 1:]
                if y not in roots:
                    roots.add(y)
                    todo.append(y)
    return sorted(roots)


def zonal_coefficients(dim, degree):
    """The zonal harmonic of degree t on R^dim (dim > 2) as integers c_k of
    sum_k c_k (x,a)^(t-2k) ((x,x)(a,a))^k, content 1, c_0 > 0.  From the
    closed form of the Gegenbauer polynomial C_t^lam, lam = (dim-2)/2:
    c_k ~ (-1)^k (lam)_(t-k) 2^(t-2k) / (k! (t-2k)!)."""
    lam = Fraction(dim - 2, 2)
    coeffs = []
    for k in range(degree // 2 + 1):
        rising = Fraction(1)
        for i in range(degree - k):
            rising *= lam + i
        coeffs.append((-1) ** k * rising * 2 ** (degree - 2 * k)
                      / (math.factorial(k) * math.factorial(degree - 2 * k)))
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def harmonic_sum(gram, vectors, axis, degree):
    """The sum over `vectors` of the zonal harmonic of `degree` with the
    given axis, all in coordinates of the basis with Gram matrix `gram`."""
    ga = [sum(g * a for g, a in zip(row, axis)) for row in gram]
    aa = sum(a * b for a, b in zip(axis, ga))
    coeffs = zonal_coefficients(len(gram), degree)
    total = 0
    for x in vectors:
        u = sum(a * b for a, b in zip(x, ga))
        xx = sum(x[i] * sum(g * v for g, v in zip(row, x))
                 for i, row in enumerate(gram))
        total += sum(c * u ** (degree - 2 * k) * (xx * aa) ** k
                     for k, c in enumerate(coeffs))
    return total


def counts_of_theta(qs):
    """The exact coefficients of a library QSeries as {norm: int}."""
    out = {}
    for e, c in qs.coeffs.items():
        norm = Fraction(e, 12)
        if norm.denominator != 1 or c.denominator != 1:
            raise ValueError("coefficient %s at u^%d is not integral" % (c, e))
        out[int(norm)] = int(c)
    return out


def as_dict(counts):
    return {k: c for k, c in enumerate(counts) if c}


def compare(got, want, what):
    """None when equal, else a one-line description of the first mismatch."""
    keys = sorted(set(got) | set(want))
    for k in keys:
        if got.get(k, 0) != want.get(k, 0):
            return "%s: at %s got %s, expected %s" % (
                what, k, got.get(k, 0), want.get(k, 0))
    return None
