"""Modular form spaces for strongly modular lattices and certification.

The graded ring for level N is generated by the theta series of the
smallest strongly N-modular lattice (weight d_N) and the eta product
Delta_N (weight k_N).  Extremal forms are the unique monic combinations
whose q-expansion starts 1 + 0 q^2 + ... + 0 q^(2l) + a q^(2l+2).
"""

import math
from fractions import Fraction

from . import linalg
from .arith import divisors, exact_divisors, sigma0
from .enumeration import _counts, minimum, theta_series
from .errors import CatalogError, EmptyBasisError, ModLatticeError
from .lattice import (
    Lattice, bundled_catalog, default_level, dual, level, partial_dual,
    rescale)
from .qseries import LevelData, QSeries, delta_level
from .report import FAIL, INCONCLUSIVE, PASS, CertReport
from .shadow import odd_min_bound

from dataclasses import dataclass


def base_lattice(n_level: int) -> Lattice:
    """The catalogue lattice whose theta series generates weight d_N."""
    LevelData.for_level(n_level)
    for entry in bundled_catalog().with_claim("theta_base", n_level):
        return entry.lattice
    raise CatalogError("no base lattice for level %d in the catalogue"
                       % n_level)


def theta_base(n_level: int, precision: int) -> QSeries:
    return theta_series(base_lattice(n_level), precision)


def modform_basis(n_level: int, weight: int, precision: int) -> list:
    """Products Delta_N^i theta_N^j with k_N i + d_N j = weight, by i.

    The i-th element has leading term exactly q^(2i); empty when the
    weight is not represented.
    """
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    data = LevelData.for_level(n_level)
    if weight % data.theta_weight != 0:
        return []
    theta = theta_base(n_level, precision)
    delta = delta_level(n_level, 12 * precision)
    out = []
    power = QSeries.one(12 * precision)
    top = weight // data.weight
    for i in range(top + 1):
        j = (weight - data.weight * i) // data.theta_weight
        elem = power * theta ** j
        lead = elem.coefficient_q(2 * i)
        if lead != 1 or elem.valuation < 12 * 2 * i:
            raise ModLatticeError(
                "basis element %d for level %d is not unitriangular" %
                (i, n_level))
        out.append(elem)
        if i < top:
            power = power * delta
    return out


@dataclass(frozen=True)
class ExtremalForm:
    level: int
    weight: int
    precision: int
    series: QSeries
    coefficients: tuple

    @property
    def jump(self):
        """Exponent 2l + 2 of the first forced nonzero coefficient."""
        return extremal_min_bound(self.level, self.weight)


def extremal_form(n_level: int, weight: int, precision: int) -> ExtremalForm:
    """The modular form 1 + 0 q^2 + ... + 0 q^(2l) + a q^(2l+2) + ...

    l = floor(weight / k_N); the combination over the unitriangular basis
    is solved exactly and the positivity of a is asserted.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    jump = extremal_min_bound(n_level, weight)
    if precision <= jump:
        raise ValueError("precision must exceed 2l+2 = %d" % jump)
    basis = modform_basis(n_level, weight, precision)
    if not basis:
        raise EmptyBasisError("weight %d is not represented at level %d"
                              % (weight, n_level))
    coeffs = [Fraction(1)]
    acc = basis[0]
    for r in range(1, jump // 2):
        c = -acc.coefficient_q(2 * r)
        coeffs.append(c)
        if c:
            acc = acc + c * basis[r]
    for r in range(1, jump // 2):
        if acc.coefficient_q(2 * r) != 0:
            raise ModLatticeError("extremal window not cleared at q^%d"
                                  % (2 * r))
    if acc.coefficient_q(0) != 1:
        raise ModLatticeError("extremal form constant term is not 1")
    if acc.coefficient_q(jump) <= 0:
        raise ModLatticeError("coefficient a_%d is not positive" % jump)
    return ExtremalForm(n_level, weight, precision, acc, tuple(coeffs))


def extremal_min_bound(n_level: int, weight: int) -> int:
    data = LevelData.for_level(n_level)
    return 2 + 2 * (weight // data.weight)


# -- modularity -------------------------------------------------------------

@dataclass(frozen=True)
class DivisorResult:
    m: int
    formal: str
    exact: str
    detail: str = ""


@dataclass(frozen=True)
class ModularityVerdict:
    level: int
    precision: int
    results: tuple

    @property
    def verdict(self):
        if any(r.formal == FAIL for r in self.results):
            return FAIL
        if any(r.exact == INCONCLUSIVE for r in self.results):
            return INCONCLUSIVE
        return PASS

    def to_dict(self):
        return {
            "level": self.level,
            "precision": self.precision,
            "verdict": self.verdict,
            "divisors": [
                {"m": r.m, "formal": r.formal, "exact": r.exact,
                 "detail": r.detail}
                for r in self.results],
        }

    to_json = CertReport.to_json

    def render(self):
        lines = ["[%s] strong modularity at level %d (window q^%d)"
                 % (self.verdict, self.level, self.precision)]
        for r in self.results:
            extra = " (%s)" % r.detail if r.detail else ""
            lines.append("  m=%-3d formal: %-4s exact: %s%s"
                         % (r.m, r.formal, r.exact, extra))
        return "\n".join(lines)


def sturm_norm(lats, n_level=1) -> int:
    """Norm up to which the theta series of lats (one dimension n, one
    determinant, so one character) and a form of level n_level with that
    character must agree to be equal.  Sturm: a form of weight k on
    Gamma0(M) vanishing at infinity to an order above k psi(M) / 12,
    psi(M) = M prod_(p | M) (1 + 1/p), is zero (for half-integral k, take
    the 4th power).  Even lattices: 2 floor(n psi(M) / 24), the order
    being half the norm, M the lcm of n_level and the levels; odd L
    through sqrt(2)L: floor(n psi(M) / 24), M from the sqrt(2)L."""
    even = all(lat.is_even for lat in lats)
    m = math.lcm(n_level, *(level(lat if even else rescale(lat, 2))
                            for lat in lats))
    primes = [p for p in divisors(m) if sigma0(p) == 2]
    top = lats[0].dim * m * math.prod(p + 1 for p in primes) \
        // math.prod(primes) // 24
    return 2 * top if even else top


def check_modular(lat: Lattice, precision: int = None, n_level=None,
                  isometry_budget: int = None,
                  exact: bool = True) -> ModularityVerdict:
    """Strong modularity certificate: for every exact divisor m of the
    level, the rescaled partial dual L_m must have the theta series of L
    (formal) and, within isometry_budget search nodes
    (isometry.DEFAULT_BUDGET when None), an exact isometry.  L_m has L's
    dimension and determinant, so its character, and by Sturm's theorem
    formal is proved on the window q^(s + 2), s the sturm_norm of L and
    its partial duals (`precision` q-units where wider).  Supply n_level
    when an odd lattice's dual scale differs from the intended level."""
    from .isometry import (DEFAULT_BUDGET, ISOMETRIC, NOT_ISOMETRIC,
                           find_isometry)
    if isometry_budget is None:
        isometry_budget = DEFAULT_BUDGET
    if not lat.is_integral:
        raise ModLatticeError("modularity checks need an integral lattice")
    n_level = default_level(lat) if n_level is None else n_level
    duals = {m: rescale(partial_dual(lat, m, lat_level=n_level), m)
             for m in exact_divisors(n_level)}
    window = max(precision or 0, 2 + sturm_norm(
        [lat] + [pd for pd in duals.values() if pd.is_integral]))
    results = []
    for m, pd in duals.items():
        if pd.det != lat.det:
            results.append(DivisorResult(
                m, FAIL, "skipped",
                "determinant %s != %s" % (pd.det, lat.det)))
            continue
        if not pd.is_integral:
            results.append(DivisorResult(
                m, FAIL, "skipped", "rescaled partial dual not integral"))
            continue
        if linalg.mat_eq(pd.gram, lat.gram):
            results.append(DivisorResult(m, PASS, PASS, "identical gram"))
            continue
        equal, _, diff = theta_series(lat, window).agree(
            theta_series(pd, window))
        if not equal:
            results.append(DivisorResult(
                m, FAIL, "skipped",
                "theta differs first at u-exponent %s" % (diff,)))
            continue
        if not exact:
            results.append(DivisorResult(m, PASS, "skipped", ""))
            continue
        status, _, nodes = find_isometry(lat, pd, budget=isometry_budget)
        if status == ISOMETRIC:
            results.append(DivisorResult(m, PASS, PASS,
                                         "%d nodes" % nodes))
        elif status == NOT_ISOMETRIC:
            results.append(DivisorResult(
                m, FAIL, FAIL, "isometry search exhausted"))
        else:
            results.append(DivisorResult(
                m, PASS, INCONCLUSIVE,
                "budget %d exhausted" % isometry_budget))
    return ModularityVerdict(n_level, window, tuple(results))


def check_extremal(lat: Lattice, n_level=None,
                   threads: int = 1) -> CertReport:
    """Extremality certificate for a strongly modular lattice of either
    parity, after the premises of its genus (LevelData.genus_premise).

    Even L: det L = N^k (k = dim/2) gives theta_L the character
    ((-1)^k N^k / .) of the level-N ring, so theta_L and the extremal
    form F lie in M_k(Gamma0(lcm(N, level L)), chi) and, by Sturm's
    theorem, are equal once they agree up to sturm_norm, the furthest L
    is swept.  Pass proves theta_L = F: minimum (the bound), kissing
    number and theta are F's, and every rescaled partial dual has theta
    F | W_m = F.  Fail names the first norm that differs: below the
    bound, min(L).

    Odd L (report "check-extremal-odd"): the minimum, from one sweep,
    against the bound of shadow.odd_min_bound, which is 3 in the
    exceptional dimension 2 k_N - sigma0(N).
    """
    odd = not lat.is_even
    check = "check-extremal-odd" if odd else "check-extremal"
    n_level = default_level(lat) if n_level is None else n_level
    inputs = {"dim": lat.dim, "det": lat.det, "level": n_level}
    reason = LevelData.for_level(n_level).genus_premise(lat.dim, odd,
                                                        lat.det)
    if reason:
        return CertReport(check, FAIL, inputs, {"reason": reason},
                          witnesses=[{"level": n_level, "dim": lat.dim,
                                      "det": lat.det}])
    if odd:
        bound = odd_min_bound(n_level, lat.dim)
        rep = minimum(lat, threads=threads)
        verdict = PASS if rep.minimum == bound else FAIL
        return CertReport(
            check, verdict, inputs,
            {"minimum": rep.minimum, "bound": bound, "kissing": rep.kissing},
            witnesses=([] if verdict == PASS
                       else [{"minimum": rep.minimum, "bound": bound}]))
    # det^2 = N^dim makes dim even: an even lattice of odd dimension has
    # a Gram matrix alternating mod 2, so an even determinant, and no
    # admissible N > 1 is a square
    weight = lat.dim // 2
    bound = extremal_min_bound(n_level, weight)
    s = sturm_norm([lat], n_level)
    form = extremal_form(n_level, weight, 2 + max(bound, s))
    for top in sorted({min(bound, s), s}):  # a minimum below the bound first
        theta = theta_series(lat, top + 1, threads=threads)
        equal, _, diff = theta.agree(form.series)
        if not equal:
            break
    if equal:
        return CertReport(
            check, PASS, inputs,
            {"minimum": bound, "bound": bound,
             "kissing": int(form.series.coefficient_q(bound)),
             "theta": str(form.series.truncate(12 * (bound + 2))),
             "window_q": bound + 2})
    if diff < 12 * bound:
        norm = diff // 12
        return CertReport(
            check, FAIL, inputs,
            {"reason": "minimum %s below extremal bound %d" % (norm, bound),
             "kissing": int(theta.coefficient_q(norm))},
            witnesses=[{"minimum": norm, "bound": bound}])
    return CertReport(
        check, FAIL, inputs,
        {"reason": "theta does not match the extremal form"},
        witnesses=[{"first_difference_u_exponent": diff}])


# -- transformation formula -------------------------------------------------

def _counting_constant(lat: Lattice):
    """C with |{x : (x,x) <= r}| <= C r^(n/2) for r >= 1 (coordinate box)."""
    inv = linalg.inverse(lat.gram)
    c = 1.0
    for i in range(lat.dim):
        c *= 2.0 * math.sqrt(float(inv[i][i])) + 1.0
    return c


def _theta_value(lat: Lattice, t: float, tol: float):
    """(sum over L of e^(-pi (x,x) t), rigorous tail bound)."""
    n = lat.dim
    c = _counting_constant(lat)
    bound = 1
    while True:
        ratio = ((bound + 2.0) / (bound + 1.0)) ** (n / 2.0) * \
            math.exp(-math.pi * t)
        if ratio < 1.0:
            tail = (c * (bound + 1.0) ** (n / 2.0) *
                    math.exp(-math.pi * bound * t) / (1.0 - ratio))
            if tail < tol:
                break
        bound += 1
        if bound > 10000:
            return None, None
    # fsum: the memo may hold the counts in another order
    total = math.fsum(count * math.exp(-math.pi * float(norm) * t)
                      for norm, count in _counts(lat, bound).counts.items())
    return total, tail


def transformation_check(lat: Lattice, t, tolerance: float = 1e-9
                         ) -> CertReport:
    """Numeric check of theta_{L*}(i t) = t^(-n/2) sqrt(det L) theta_L(i/t)
    with rigorous tail bounds on both truncated sums.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    tf = float(t)
    inputs = {"dim": lat.dim, "det": lat.det, "t": t}
    d = dual(lat)
    goal = tolerance / 4.0
    lhs, tail_l = _theta_value(d, tf, goal)
    rhs_theta, tail_r = _theta_value(lat, 1.0 / tf, goal)
    if lhs is None or rhs_theta is None:
        return CertReport(
            "transformation-check", INCONCLUSIVE, inputs,
            {"hint": "tail bound does not close below tolerance %g; "
             "increase tolerance or t" % tolerance})
    factor = tf ** (-lat.dim / 2.0) * math.sqrt(float(lat.det))
    rhs = factor * rhs_theta
    err_budget = tail_l + factor * tail_r + tolerance
    diff = abs(lhs - rhs)
    verdict = PASS if diff <= err_budget else FAIL
    return CertReport(
        "transformation-check", verdict, inputs,
        {"lhs": lhs, "rhs": rhs, "difference": diff,
         "tail_bounds": tail_l + factor * tail_r,
         "tolerance": tolerance},
        witnesses=([] if verdict == PASS else
                   [{"lhs": lhs, "rhs": rhs, "difference": diff}]))
