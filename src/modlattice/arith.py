"""Small integer-arithmetic helpers used across the package."""

from fractions import Fraction
import math


def divisors(n: int) -> list:
    """Sorted list of positive divisors of n."""
    if n <= 0:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma0(n: int) -> int:
    return len(divisors(n))


def sigma1(n: int) -> int:
    return sum(divisors(n))


def exact_divisors(n: int) -> list:
    """Divisors m of n with gcd(m, n/m) = 1."""
    return [m for m in divisors(n) if math.gcd(m, n // m) == 1]


def int_or_fraction(x):
    """The rational x as an int when it is integral, else as a Fraction."""
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f
