"""Scalar special functions needed by the analytic tradeoff expressions.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

import math

# Euler-Mascheroni constant, 20 decimal digits.
EULER_GAMMA = 0.57721566490153286061

_SERIES_MAX_TERMS = 60
_LENTZ_TINY = 1e-300
_LENTZ_EPS = 2.0**-53  # 1.0's gap below: a converged d*c can round there every step


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_1^inf exp(-x*y)/y dy, x > 0.

    Uses the alternating power series for x <= 1 and a modified-Lentz
    continued fraction for x > 1: relative error below 2e-14 on [1e-8, 1e6]
    against 50-digit mpmath, worst about 1.5e-14 just above 1, where the
    fraction converges slowest.  Returns 0.0 once exp(-x) underflows
    (x >~ 745), where the true value is below the smallest positive double.

    Raises:
        ValueError: if x is NaN, infinite, or not strictly positive.
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"exp_integral_e1 requires finite x > 0, got {x!r}")
    return _e1_series(x) if x <= 1.0 else math.exp(-x) * _e1_continued_fraction(x)


def exp_e1_scaled(x: float) -> float:
    """Scaled exponential integral exp(x) * E1(x), stable for any x > 0.

    The product stays finite (it behaves like 1/x for large x) even where
    exp(x) alone would overflow, so callers combining E1 with large
    exponential prefactors should use this form.  Same regimes and accuracy
    as ``exp_integral_e1``.
    """
    x = float(x)
    if math.isnan(x) or x <= 0.0:
        raise ValueError(f"exp_e1_scaled requires finite x > 0, got {x!r}")
    if math.isinf(x):
        return 0.0
    return math.exp(x) * _e1_series(x) if x <= 1.0 else _e1_continued_fraction(x)


def _e1_series(x: float) -> float:
    """E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!), for 0 < x <= 1."""
    total = -EULER_GAMMA - math.log(x)
    term = -1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= -x / k
        contrib = term / k
        total += contrib
        if abs(contrib) < 1e-18 * abs(total):
            break
    return total


def _e1_continued_fraction(x: float) -> float:
    """Modified Lentz evaluation of exp(x)*E1(x) for x > 1.

    No denominator vanishes: D_0 = x + 1 > 1, and D_{i-1} > i gives D_i =
    (x + 1 + 2i) - i^2/D_{i-1} > i + 1; C_i likewise from C_0 = 1/_LENTZ_TINY.
    """
    b = x + 1.0
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _LENTZ_EPS:
            break
    return h


def harmonic(n: int) -> float:
    """Harmonic number H_n = sum_{i=1..n} 1/i.

    Summed with math.fsum so the result is correctly rounded; in
    particular H_{n+1} - H_n matches 1/(n+1) to within one ulp even for
    n around 1e6.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"harmonic requires n >= 1, got {n}")
    return math.fsum(1.0 / i for i in range(n, 0, -1))
