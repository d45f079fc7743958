import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayswipt.specfun import exp_e1_scaled, exp_integral_e1, harmonic

from conftest import e1_quadrature

# Frozen from the quadrature oracle (epsrel 1e-12).
E1_AT_1 = 0.21938393439552029
E1_AT_10 = 4.156968929685324e-06


def test_e1_frozen_examples():
    assert exp_integral_e1(1.0) == pytest.approx(E1_AT_1, abs=1e-10)
    assert exp_integral_e1(10.0) == pytest.approx(E1_AT_10, rel=1e-10)
    # coarse published-style rounding of the same value
    assert exp_integral_e1(10.0) == pytest.approx(4.15697e-6, rel=1e-5)


def test_e1_matches_quadrature_oracle_on_log_grid():
    for x in np.logspace(-6, 2, 100):
        oracle = e1_quadrature(float(x))
        assert exp_integral_e1(float(x)) == pytest.approx(oracle, rel=1e-10)


def test_e1_extreme_arguments():
    # relative accuracy holds at the edges of the stated range
    assert exp_integral_e1(1e-8) == pytest.approx(e1_quadrature(1e-8), rel=1e-10)
    # far tail: compare in log space against the alternating asymptotic series
    x = 700.0
    series = (1 - 1 / x + 2 / x**2 - 6 / x**3) / x
    assert exp_integral_e1(x) == pytest.approx(math.exp(-x) * series, rel=1e-8)
    # underflow region returns zero rather than raising
    assert exp_integral_e1(800.0) == 0.0


def test_e1_leading_asymptotic_term():
    x = 1000.0
    assert x * exp_e1_scaled(x) == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_e1_domain_errors(bad):
    with pytest.raises(ValueError):
        exp_integral_e1(bad)


@given(
    st.floats(min_value=1e-6, max_value=50.0),
    st.floats(min_value=1e-3, max_value=25.0),
    st.floats(min_value=1e-3, max_value=25.0),
)
@settings(max_examples=200, deadline=None)
def test_e1_strictly_decreasing_and_convex(x1, gap1, gap2):
    x2 = x1 + gap1
    x3 = x2 + gap2
    v1, v2, v3 = (exp_integral_e1(x) for x in (x1, x2, x3))
    assert v1 > v2 > v3
    mid = exp_integral_e1(0.5 * (x1 + x3))
    assert mid <= 0.5 * (v1 + v3) * (1 + 1e-12)


def test_e1_matches_mpmath_on_1e_8_to_1e6():
    """Series up to 1 and continued fraction above hold 2e-14 relative over
    [1e-8, 1e6], densely sampled just above 1, where the fraction converges
    slowest (worst about 1.5e-14), and on [99, 120], where an asymptotic
    series once took over (3.3e-13 at x = 100).  Where E1 is subnormal or
    underflows, the last ulp counts."""
    rng = np.random.default_rng(0)
    xs = [*np.logspace(-8, 6, 281), *np.linspace(99.0, 120.0, 85),
          *rng.uniform(1.0, 1.2, 400), 1.0, math.nextafter(1.0, 2.0)]
    with mpmath.workdps(50):
        for x in map(float, xs):
            e1 = mpmath.e1(x)
            scaled = float(mpmath.exp(x) * e1)
            assert exp_e1_scaled(x) == pytest.approx(scaled, rel=2e-14, abs=0.0)
            assert math.isclose(exp_integral_e1(x), float(e1), rel_tol=2e-14,
                                abs_tol=math.ulp(0.0))


@given(st.floats(min_value=1e-300, max_value=1e300))
@settings(max_examples=300, deadline=None)
def test_exp_e1_scaled_within_abramowitz_stegun_bounds(x):
    """A&S 5.1.19-5.1.20: max(1/(x+1), ln(1+2/x)/2) < exp(x) E1(x) <=
    min(1/x, ln(1+1/x)), to rounding where the bounds meet at large x."""
    value = exp_e1_scaled(x)
    lower = max(1.0 / (x + 1.0), 0.5 * math.log1p(2.0 / x))
    upper = min(1.0 / x, math.log1p(1.0 / x))
    assert lower * (1.0 - 1e-15) <= value <= upper * (1.0 + 1e-15)


def test_exp_e1_scaled_is_zero_at_infinity():
    assert exp_e1_scaled(math.inf) == 0.0


def test_exp_e1_scaled_matches_product():
    for x in np.logspace(-6, math.log10(600.0), 60):
        x = float(x)
        assert exp_e1_scaled(x) == pytest.approx(
            math.exp(x) * exp_integral_e1(x), rel=1e-10
        )


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert harmonic(3) == pytest.approx(11.0 / 6.0, abs=0.0)


def test_harmonic_domain_error():
    with pytest.raises(ValueError):
        harmonic(0)
    with pytest.raises(ValueError):
        harmonic(-3)


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 99_999, 999_999])
def test_harmonic_recurrence_within_one_ulp(n):
    lhs = harmonic(n + 1) - harmonic(n)
    assert abs(lhs - 1.0 / (n + 1)) <= math.ulp(harmonic(n))
