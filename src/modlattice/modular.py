"""Modular form spaces for strongly modular lattices and certification.

The graded ring for level N is generated by the theta series of the
smallest strongly N-modular lattice (weight d_N) and the eta product
Delta_N (weight k_N).  Extremal forms are the unique monic combinations
whose q-expansion starts 1 + 0 q^2 + ... + 0 q^(2l) + a q^(2l+2).
"""

import math
import time
from fractions import Fraction

from . import linalg
from .arith import exact_divisors
from .enumeration import _counts, minimum, theta_series
from .errors import CatalogError, EmptyBasisError, ModLatticeError
from .lattice import (
    Lattice, bundled_catalog, default_level, partial_dual, rescale, dual)
from .qseries import LevelData, QSeries, delta_level
from .report import FAIL, INCONCLUSIVE, PASS, CertReport

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
        data = LevelData.for_level(self.level)
        return 2 * (self.weight // data.weight) + 2


def extremal_form(n_level: int, weight: int, precision: int) -> ExtremalForm:
    """The modular form 1 + 0 q^2 + ... + 0 q^(2l) + a q^(2l+2) + ...

    l = floor(weight / k_N); the combination over the unitriangular basis
    is solved exactly and the positivity of a is asserted.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    data = LevelData.for_level(n_level)
    l = weight // data.weight
    if precision <= 2 * l + 2:
        raise ValueError("precision must exceed 2l+2 = %d" % (2 * l + 2))
    basis = modform_basis(n_level, weight, precision)
    if not basis:
        raise EmptyBasisError("weight %d is not represented at level %d"
                              % (weight, n_level))
    coeffs = [Fraction(1)]
    acc = basis[0]
    for r in range(1, l + 1):
        c = -acc.coefficient_q(2 * r)
        coeffs.append(c)
        if c:
            acc = acc + c * basis[r]
    for r in range(1, l + 1):
        if acc.coefficient_q(2 * r) != 0:
            raise ModLatticeError("extremal window not cleared at q^%d"
                                  % (2 * r))
    if acc.coefficient_q(0) != 1:
        raise ModLatticeError("extremal form constant term is not 1")
    if acc.coefficient_q(2 * l + 2) <= 0:
        raise ModLatticeError("coefficient a_%d is not positive"
                              % (2 * l + 2))
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
    def formal_pass(self):
        return all(r.formal == PASS for r in self.results)

    @property
    def exact_pass(self):
        return self.formal_pass and all(
            r.exact in (PASS, "skipped") for r in self.results)

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

    def render(self):
        lines = ["[%s] strong modularity at level %d (window q^%d)"
                 % (self.verdict, self.level, self.precision)]
        for r in self.results:
            extra = " (%s)" % r.detail if r.detail else ""
            lines.append("  m=%-3d formal: %-4s exact: %s%s"
                         % (r.m, r.formal, r.exact, extra))
        return "\n".join(lines)


def _resolve_level(lat: Lattice, n_level):
    return default_level(lat) if n_level is None else n_level


def check_modular(lat: Lattice, precision: int = 20, n_level=None,
                  isometry_budget: int = None,
                  exact: bool = True) -> ModularityVerdict:
    """Strong modularity certificate: for every exact divisor m of the
    level, the rescaled partial dual must have the same theta series on
    the window (formal) and, within isometry_budget search nodes
    (isometry.DEFAULT_BUDGET when None), an exact isometry.

    Odd lattices are checked formally the same way; supply n_level when
    the integral scale of the dual differs from the intended level.
    """
    from .isometry import (DEFAULT_BUDGET, ISOMETRIC, NOT_ISOMETRIC,
                           find_isometry)
    if isometry_budget is None:
        isometry_budget = DEFAULT_BUDGET
    if not lat.is_integral:
        raise ModLatticeError("modularity checks need an integral lattice")
    n_level = _resolve_level(lat, n_level)
    results = []
    for m in exact_divisors(n_level):
        pd = rescale(partial_dual(lat, m, lat_level=n_level), m)
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
        equal, window, diff = theta_series(lat, precision).agree(
            theta_series(pd, precision))
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
    return ModularityVerdict(n_level, precision, tuple(results))


def _det_power_check(lat, n_level):
    n = lat.dim
    if n % 2:
        return False
    return lat.det == Fraction(n_level) ** (n // 2)


def check_extremal(lat: Lattice, n_level=None,
                   threads: int = 1) -> CertReport:
    """Extremality certificate for an even strongly modular lattice.

    Pass means minimum(L) equals 2 + 2 floor(k / k_N) for weight
    k = dim/2 and the theta series matches the extremal form on the
    computed window of 2l + 4 q-units.
    """
    t0 = time.time()
    inputs = {"dim": lat.dim, "det": lat.det}
    if not lat.is_even:
        return CertReport("check-extremal", FAIL, inputs,
                          {"reason": "lattice is not even"},
                          witnesses=[{"parity": "odd"}])
    n_level = _resolve_level(lat, n_level)
    inputs["level"] = n_level
    data = LevelData.for_level(n_level)
    if not _det_power_check(lat, n_level):
        expected = (Fraction(n_level) ** (lat.dim // 2)
                    if lat.dim % 2 == 0 else "n/a (odd dimension)")
        return CertReport(
            "check-extremal", FAIL, inputs,
            {"reason": "determinant is not N^(dim/2)"},
            witnesses=[{"det": lat.det, "expected": expected}])
    weight = lat.dim // 2
    l = weight // data.weight
    window = 2 * l + 4
    verdict = check_modular(lat, precision=window, n_level=n_level,
                            exact=False)
    if not verdict.formal_pass:
        bad = [r for r in verdict.results if r.formal != PASS]
        return CertReport(
            "check-extremal", FAIL, inputs,
            {"reason": "not formally strongly modular"},
            witnesses=[{"m": r.m, "detail": r.detail} for r in bad])
    bound = extremal_min_bound(n_level, weight)
    rep = minimum(lat, threads=threads)
    if rep.minimum != bound:
        return CertReport(
            "check-extremal", FAIL, inputs,
            {"reason": "minimum %s below extremal bound %d"
             % (rep.minimum, bound) if rep.minimum < bound
             else "minimum %s exceeds extremal bound %d (impossible for "
             "a modular lattice; check inputs)" % (rep.minimum, bound),
             "kissing": rep.kissing},
            witnesses=[{"minimum": rep.minimum, "bound": bound}],
            elapsed=time.time() - t0)
    form = extremal_form(n_level, weight, window)
    theta = theta_series(lat, window, threads=threads)
    equal, cmp_window, diff = theta.agree(form.series)
    if not equal:
        return CertReport(
            "check-extremal", FAIL, inputs,
            {"reason": "theta does not match the extremal form"},
            witnesses=[{"first_difference_u_exponent": diff}],
            elapsed=time.time() - t0)
    return CertReport(
        "check-extremal", PASS, inputs,
        {"minimum": rep.minimum, "bound": bound, "kissing": rep.kissing,
         "theta": str(theta), "window_q": window},
        elapsed=time.time() - t0)


def check_extremal_odd(lat: Lattice, n_level=None,
                       threads: int = 1) -> CertReport:
    """Extremality for odd strongly modular lattices.

    Uses the bound 2 floor(k/k_N) + 2 with the exceptional dimension
    2 k_N - sigma0(N) where the bound is 3.  Only the necessary shape
    conditions (dimension divisible by sigma0, determinant N^(dim/2
    sigma0-average)) are verified, not rational equivalence.
    """
    t0 = time.time()
    inputs = {"dim": lat.dim, "det": lat.det}
    if lat.is_even:
        return CertReport("check-extremal-odd", FAIL, inputs,
                          {"reason": "lattice is even; use check_extremal"})
    n_level = _resolve_level(lat, n_level)
    inputs["level"] = n_level
    data = LevelData.for_level(n_level)
    if lat.dim % data.sigma0 != 0:
        return CertReport(
            "check-extremal-odd", FAIL, inputs,
            {"reason": "dimension not a multiple of sigma0(N) = %d"
             % data.sigma0})
    scale = lat.dim // data.sigma0
    # compare det^2 with N^(l sigma0) to avoid half integer exponents
    if Fraction(lat.det) ** 2 != Fraction(n_level) ** (data.sigma0 * scale):
        return CertReport(
            "check-extremal-odd", FAIL, inputs,
            {"reason": "determinant %s is not N^(l sigma0 / 2)"
             % (lat.det,)})
    from .shadow import odd_min_bound
    bound = odd_min_bound(n_level, lat.dim)
    rep = minimum(lat, threads=threads)
    verdict = PASS if rep.minimum == bound else FAIL
    return CertReport(
        "check-extremal-odd", verdict, inputs,
        {"minimum": rep.minimum, "bound": bound, "kissing": rep.kissing},
        witnesses=([] if verdict == PASS
                   else [{"minimum": rep.minimum, "bound": bound}]),
        elapsed=time.time() - t0)


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
    t0 = time.time()
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
                   [{"lhs": lhs, "rhs": rhs, "difference": diff}]),
        elapsed=time.time() - t0)
