"""Sparse exact power series in q^(1/12) and the eta/Delta building blocks.

Convention: q = e^(pi i z), so the theta series of an even lattice has
integer q-exponents equal to the vector norms.  Exponents are stored in
units of q^(1/12) ("u-units"): u = q^(1/12), q^j = u^(12 j).  eta(m z)
then has the integral leading exponent m, and the level-N Delta products
land exactly on q^2.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

from .arith import divisors, sigma1, sigma0
from .errors import ExponentOverflowError, GranularityError, LevelError

# exponents are kept below this; the guard exists so that runaway powers
# fail loudly instead of eating memory
MAX_EXPONENT = 1 << 62

#: levels N with sigma1(N) | 24; sigma1(N) >= N+1 bounds the search
ADMISSIBLE_LEVELS = tuple(n for n in range(1, 24) if 24 % sigma1(n) == 0)


def _as_coeff(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("coefficients must be integers or Fractions, got %r" % (x,))


class QSeries:
    """Truncated power series with exact rational coefficients.

    coeffs maps u-exponent -> nonzero Fraction; precision means the
    coefficients are known exactly for all exponents < precision.
    Instances are treated as immutable.
    """

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs, precision):
        if not isinstance(precision, int) or precision < 0:
            raise ValueError("precision must be a nonnegative integer")
        if precision > MAX_EXPONENT:
            raise ExponentOverflowError("precision %d beyond exponent guard" % precision)
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(e, int):
                raise TypeError("exponents must be integers")
            c = _as_coeff(c)
            if c == 0:
                continue
            if not 0 <= e < precision:
                raise ValueError(
                    "exponent %d outside [0, precision=%d)" % (e, precision))
            clean[e] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    # -- basic constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision):
        return cls({}, precision)

    @classmethod
    def one(cls, precision):
        return cls({0: Fraction(1)}, precision)

    @classmethod
    def from_q_terms(cls, terms, precision_q):
        """Build from (q-exponent, coeff) pairs; precision given in q-units."""
        return cls({12 * j: c for j, c in dict(terms).items()}, 12 * precision_q)

    # -- inspection ---------------------------------------------------------

    @property
    def valuation(self):
        """Smallest known nonzero exponent; equals precision when none."""
        return min(self.coeffs) if self.coeffs else self.precision

    def coefficient_u(self, e):
        if e >= self.precision:
            raise ValueError("exponent %d not below precision %d" % (e, self.precision))
        return self.coeffs.get(e, Fraction(0))

    def coefficient_q(self, j):
        return self.coefficient_u(12 * j)

    @property
    def integer_granularity(self):
        return all(e % 12 == 0 for e in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.precision == other.precision and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.precision, tuple(sorted(self.coeffs.items()))))

    def __neg__(self):
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.precision)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.precision, other.precision)
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e < prec:
                out[e] = out.get(e, Fraction(0)) + c
        return QSeries(out, prec)

    def __sub__(self, other):
        return self.__add__(-other) if isinstance(other, QSeries) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            if c == 0:
                return QSeries.zero(self.precision)
            return QSeries({e: c * v for e, v in self.coeffs.items()}, self.precision)
        if not isinstance(other, QSeries):
            return NotImplemented
        # product coefficients are reliable only below this: a term of the
        # other factor at its valuation shifts the unknown part of self
        prec = min(self.precision + other.valuation,
                   other.precision + self.valuation)
        if prec > MAX_EXPONENT:
            raise ExponentOverflowError("product precision beyond exponent guard")
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < prec:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QSeries(out, prec)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QSeries.one(self.precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def truncate(self, precision):
        prec = min(self.precision, precision)
        return QSeries({e: c for e, c in self.coeffs.items() if e < prec}, prec)

    def agree(self, other):
        """Compare on the overlapping window.

        Returns (equal, window, first_diff) with window the common precision
        in u-units and first_diff the smallest differing u-exponent or None.
        """
        window = min(self.precision, other.precision)
        exps = {e for e in self.coeffs if e < window}
        exps |= {e for e in other.coeffs if e < window}
        diffs = sorted(e for e in exps
                       if self.coeffs.get(e, 0) != other.coeffs.get(e, 0))
        return (not diffs, window, diffs[0] if diffs else None)

    # -- rendering ----------------------------------------------------------

    def _require_granular(self):
        if not self.integer_granularity or self.precision % 12 != 0:
            raise GranularityError(
                "series has exponents outside q^Z; q-power rendering refused")

    def __str__(self):
        self._require_granular()
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            j = e // 12
            if j == 0:
                term = str(c)
            else:
                qpow = "q" if j == 1 else "q^%d" % j
                if c == 1:
                    term = qpow
                elif c == -1:
                    term = "-" + qpow
                else:
                    term = "%s*%s" % (c, qpow)
            parts.append(term)
        if not parts:
            parts = ["0"]
        text = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                text += " - " + term[1:]
            else:
                text += " + " + term
        return "%s + O(q^%d)" % (text, self.precision // 12)

    def to_json(self):
        if self.integer_granularity and self.precision % 12 == 0:
            return {
                "unit": "q",
                "prec": self.precision // 12,
                "terms": [[e // 12, str(self.coeffs[e])]
                          for e in sorted(self.coeffs)],
            }
        return {
            "unit": "q^(1/12)",
            "prec": self.precision,
            "terms": [[e, str(self.coeffs[e])] for e in sorted(self.coeffs)],
        }

    def __repr__(self):
        return "QSeries(%r, precision=%d)" % (self.coeffs, self.precision)


# -- level bookkeeping ------------------------------------------------------

_D_TABLE = {1: 4, 2: 2, 3: 1, 5: 2, 6: 2, 7: 1, 11: 1, 14: 2, 15: 2, 23: 1}


@dataclass(frozen=True)
class LevelData:
    """Numerics attached to an admissible level N.

    weight is k_N = 12 sigma0(N)/sigma1(N), the weight of Delta_N;
    theta_weight is d_N, the weight of the base theta series (half the
    minimal dimension of the genus).
    """

    level: int
    sigma0: int
    sigma1: int
    weight: int
    theta_weight: int

    @classmethod
    def for_level(cls, n):
        if n not in ADMISSIBLE_LEVELS:
            raise LevelError(
                "level %r not admissible; sigma1(N) must divide 24 "
                "(admissible: %s)" % (n, list(ADMISSIBLE_LEVELS)))
        s0, s1 = sigma0(n), sigma1(n)
        k = 12 * s0 // s1
        assert 12 * s0 % s1 == 0
        return cls(n, s0, s1, k, _D_TABLE[n])

    def genus_premise(self, dim, odd, det=None):
        """The first premise of the strongly N-modular genus of dimension
        dim, determinant det and the given parity that fails, as a
        reason, or None.  An odd genus needs N odd (LevelError, like an
        inadmissible N) and sigma0(N) | dim; either parity needs
        det^2 = N^dim (squared, to avoid half integer exponents), left
        unchecked when det is None."""
        if odd and self.level % 2 == 0:
            raise LevelError("odd strongly modular lattices need odd level")
        if odd and dim % self.sigma0:
            return ("dimension %d is not a multiple of sigma0(%d) = %d"
                    % (dim, self.level, self.sigma0))
        if det is not None and Fraction(det) ** 2 != self.level ** dim:
            return ("determinant %s is not N^(dim/2) for N = %d, dim %d"
                    % (det, self.level, dim))
        return None

    @classmethod
    def all(cls):
        return [cls.for_level(n) for n in ADMISSIBLE_LEVELS]


# -- eta products -----------------------------------------------------------

def dedekind_eta(scale, precision):
    """Expansion of eta(scale*z) to the given u-precision.

    eta(m z) = q^(m/12) prod_{n>=1} (1 - q^(2 m n)): leading u-exponent m,
    factor exponents 24 m n.
    """
    if not isinstance(scale, int) or scale < 1:
        raise ValueError("scale must be a positive integer")
    if precision <= scale:
        return QSeries.zero(precision)
    coeffs = {scale: Fraction(1)}
    step = 24 * scale
    n = 1
    while scale + step * n < precision:
        shift = step * n
        # multiply by (1 - u^shift) in place
        out = dict(coeffs)
        for e, c in coeffs.items():
            e2 = e + shift
            if e2 < precision:
                out[e2] = out.get(e2, Fraction(0)) - c
                if out[e2] == 0:
                    del out[e2]
        coeffs = out
        n += 1
    return QSeries(coeffs, precision)


def delta_level(level, precision):
    """Delta_N = prod_{m | N} eta(m z)^(24/sigma1(N)); weight k_N.

    Leading term is exactly q^2 (u-exponent 24) with coefficient 1.
    """
    e = 24 // LevelData.for_level(level).sigma1
    result = QSeries.one(precision)
    for m in divisors(level):
        result = result * dedekind_eta(m, precision) ** e
    return result


# -- numeric evaluation -----------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    value: float
    tail_bound: float


def eval_at_imag(series, t, tail_bound_norm=None):
    """Evaluate a q-granular series at z = i t: sum of c_j e^(-pi j t).

    tail_bound_norm = d is a caller-supplied assertion that the unknown
    coefficients satisfy |c_j| <= (j+1)^d for all q-exponents j at or
    beyond the precision; the returned tail_bound then rigorously bounds
    the truncation error (ratio-test closure).  tail_bound_norm=None
    asserts the series has no terms beyond its known ones (tail 0).
    """
    series._require_granular()
    t = float(t)
    if not t > 0:
        raise ValueError("t must be positive")
    value = 0.0
    for e in sorted(series.coeffs):
        value += float(series.coeffs[e]) * math.exp(-math.pi * (e // 12) * t)
    if tail_bound_norm is None:
        return EvalResult(value, 0.0)
    d = int(tail_bound_norm)
    x = math.exp(-math.pi * t)
    j = series.precision // 12 + (1 if series.precision % 12 else 0)
    term = (j + 1) ** d * x ** j
    tail = 0.0
    # advance until the term ratio is safely below 1, then close geometrically
    while True:
        r = x * ((j + 2) / (j + 1)) ** d
        if r <= (1.0 + x) / 2:
            tail += term / (1.0 - r)
            break
        tail += term
        j += 1
        term = (j + 1) ** d * x ** j
    return EvalResult(value, tail * (1.0 + 1e-9))
