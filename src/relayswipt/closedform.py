"""Analytic capacity, energy, and outage expressions for the selection schemes.

Conventions used throughout:

* ``config.mean_snr`` is the per-hop mean SNR, so each relay's end-to-end
  SNR is exponential with mean ``mean_snr / 2``.
* The feasible average transferred energy spans ``[mean_energy,
  H_N * mean_energy]`` where H_N is the N-th harmonic number; the tradeoff
  factor ``delta`` is the normalized position inside that interval.
* Every curve-versus-energy function is evaluated by composing the
  parameter inversion (mu, tau or nu from energy) with the
  parameter-form expression; that composition is the one route.
* The forms that read per-config constants (H_N, E1 terms, c_min, c_max,
  the single-relay outage) are methods of ``_Forms``, which computes each
  constant at most once.  A public function evaluates on a fresh one; a
  caller with many cells of one config holds one, with the same bits.
* ``delta = 1`` (equivalently ``tau = inf`` / ``nu = inf``) degenerates to
  pure best-energy selection and is evaluated through that limit.

Functions raise ValueError when an argument leaves its stated domain, and
for tradeoff curves with a single relay (N = 1), where the energy range
collapses and the tradeoff factor is undefined.  ``c_max``, ``c_ts`` and
``c_tc`` also raise it above N = 21, where their alternating sum cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .model import SystemConfig
from .specfun import exp_e1_scaled, harmonic

__all__ = [
    "TradeoffPoint", "tradeoff_point", "c_min", "c_max", "energy_bounds", "delta_from_energy",
    "energy_from_delta", "mu_from_energy", "c_ts", "tau_from_energy", "energy_tc_of_tau",
    "c_tc_of_tau", "c_tc", "nu_from_energy", "energy_wd_of_nu", "c_wd_of_nu", "c_wd", "outage_ts",
    "outage_tc_of_tau", "outage_tc", "outage_wd_of_nu", "outage_wd", "asymptotic_outage",
    "array_gain", "pareto_outage_energy", "pareto_no_outage", "pareto_outage_energy_min",
    "delta_range_outage",
]

_LN2 = math.log(2.0)
_REL_SLACK = 1e-9
_SINGULAR_TOL = 1e-8
_PERTURB = 1e-6
# Largest N whose best-SNR sum is within 1e-9 relative on a 1 dB grid over
# -20..60 dB: worst 4.8e-10 at N = 21, 1.02e-9 at N = 22, near 13 dB, set by
# E1's rounding just above x = 1 (tau > 0 cancels less).
_MAX_SUM_RELAYS = 21

SchemeName = Literal["ts", "tc", "wd"]


# ---------------------------------------------------------------------------
#  Tradeoff points and boundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TradeoffPoint:
    """One (average energy, performance value) point of a tradeoff curve."""

    energy: float
    value: float
    delta: float


def tradeoff_point(config: SystemConfig, energy: float, value: float) -> TradeoffPoint:
    """Build a TradeoffPoint, validating energy bounds and deriving delta (N >= 2)."""
    delta = delta_from_energy(config, energy)
    return TradeoffPoint(energy=float(energy), value=float(value), delta=delta)


def c_min(config: SystemConfig) -> float:
    """Smallest achievable ergodic capacity: selection ignores the SNRs."""
    return _Forms(config).c_min


def c_max(config: SystemConfig) -> float:
    """Largest achievable ergodic capacity: always pick the best-SNR relay."""
    return _Forms(config).c_max


def _best_snr_capacity_above(config: SystemConfig, tau: float) -> tuple[float, tuple[float, float]]:
    """E[C(best SNR); best SNR >= tau] for finite tau >= 0 by the alternating order-statistics
    sum, and its j = 0 factors exp(-2*tau/gbar) and exp(x)*E1(x) at x = 2*(1 + tau)/gbar.
    Raises ValueError for N above ``_MAX_SUM_RELAYS``, where the sum cancels."""
    g = config.mean_snr
    n = config.n_relays
    if n > _MAX_SUM_RELAYS:
        raise ValueError(f"capacity closed forms need n_relays <= {_MAX_SUM_RELAYS}, "
                         f"got n_relays={n}")
    log1ptau = math.log1p(tau)
    total = 0.0
    for j in range(n):
        coeff = n * (-1.0) ** j * math.comb(n - 1, j) / (2.0 * (j + 1) * _LN2)
        damp = math.exp(-2.0 * (j + 1) * tau / g)
        scaled = exp_e1_scaled(2.0 * (j + 1) * (1.0 + tau) / g)
        if j == 0:
            first = damp, scaled
        total += coeff * damp * (scaled + log1ptau)
    return total, first


def energy_bounds(config: SystemConfig) -> tuple[float, float]:
    """(min, max) feasible average transferred energy: (eps, H_N * eps)."""
    return _Forms(config).bounds


def _require_multi_relay(config: SystemConfig) -> None:
    if config.n_relays < 2:
        raise ValueError("tradeoff curves need n_relays >= 2 (energy range is degenerate for N=1)")


def _require_two_relays(config: SystemConfig) -> None:
    if config.n_relays != 2:
        raise ValueError(f"requires exactly 2 relays, got n_relays={config.n_relays}")


def _no_outage_one(config: SystemConfig) -> float:
    """exp(-2 theta / mean SNR) of a two-relay config: P(one relay's SNR >= theta)."""
    _require_two_relays(config)
    return math.exp(-2.0 * config.outage_threshold / config.mean_snr)


def _check_weight(name: str, value: float) -> float:
    """A policy parameter (tau, nu or zeta): >= 0, math.inf allowed."""
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if math.isnan(delta) or not (0.0 <= delta <= 1.0):
        raise ValueError(f"tradeoff factor must be in [0, 1], got {delta!r}")
    return delta


def delta_from_energy(config: SystemConfig, energy: float) -> float:
    """Tradeoff factor delta = (energy/eps - 1) / (H_N - 1), clamped to [0, 1]."""
    return _Forms(config).delta_from_energy(energy)


def energy_from_delta(config: SystemConfig, delta: float) -> float:
    """Average energy achieving tradeoff factor delta."""
    return _Forms(config).energy_from_delta(delta)


class _Forms:
    """The closed forms of one config, each per-config constant computed at most once."""

    def __init__(self, config: SystemConfig):
        self.config = config

    # The constants, each computed on first use: H_N, the energy bounds, exp(x)*E1(x) at
    # x = 2/gbar and 4/gbar, c_min, c_max and p1 = Pr{one relay's SNR < threshold}.
    hn = cached_property(lambda self: harmonic(self.config.n_relays))
    bounds = cached_property(lambda self: (self.config.mean_energy,
                                           self.hn * self.config.mean_energy))
    x2 = cached_property(lambda self: exp_e1_scaled(2.0 / self.config.mean_snr))
    x4 = cached_property(lambda self: exp_e1_scaled(4.0 / self.config.mean_snr))
    c_min = cached_property(lambda self: self.x2 / (2.0 * _LN2))
    c_max = cached_property(lambda self: _best_snr_capacity_above(self.config, 0.0)[0])
    p1 = cached_property(lambda self: -math.expm1(-2.0 * self.config.outage_threshold
                                                  / self.config.mean_snr))

    def delta_from_energy(self, energy: float) -> float:
        _require_multi_relay(self.config)
        lo, hi = self.bounds
        slack = _REL_SLACK * hi
        if math.isnan(energy) or not (lo - slack <= energy <= hi + slack):
            raise ValueError(f"energy {energy!r} outside feasible range [{lo}, {hi}]")
        return min(max((energy - lo) / (hi - lo), 0.0), 1.0)

    def energy_from_delta(self, delta: float) -> float:
        _require_multi_relay(self.config)
        delta = _check_delta(delta)
        return (1.0 + delta * (self.hn - 1.0)) * self.config.mean_energy

    def mu_from_energy(self, energy: float) -> float:
        return 1.0 - self.delta_from_energy(energy)

    def c_ts(self, energy: float) -> float:
        mu = self.mu_from_energy(energy)
        return mu * self.c_max + (1.0 - mu) * self.c_min

    def tau_from_energy(self, energy: float) -> float:
        rho = self.delta_from_energy(energy)
        if rho >= 1.0:
            return math.inf
        return -0.5 * self.config.mean_snr * math.log1p(-rho ** (1.0 / self.config.n_relays))

    def c_tc_of_tau(self, tau: float) -> float:
        _require_multi_relay(self.config)
        tau = _check_weight("tau", tau)
        if math.isinf(tau):
            return self.c_min
        q = -math.expm1(-2.0 * tau / self.config.mean_snr)
        # the below-tau term shares the j = 0 factors of the best-SNR sum
        total, (damp, scaled) = _best_snr_capacity_above(self.config, tau)
        below = (self.x2 - damp * scaled - damp * math.log1p(tau)) / (2.0 * _LN2)
        return total + below * q ** (self.config.n_relays - 1)

    def c_tc(self, energy: float) -> float:
        return self.c_tc_of_tau(self.tau_from_energy(energy))

    def nu_from_energy(self, energy: float) -> float:
        _require_two_relays(self.config)
        rho = self.delta_from_energy(energy)
        if rho >= 1.0:
            return math.inf
        eps = self.config.mean_energy
        span = 3.0 * eps - 2.0 * self.energy_from_delta(rho)
        return 0.5 * self.config.mean_snr / eps * (math.sqrt(eps / span) - 1.0)

    def c_wd_of_nu(self, nu: float) -> float:
        _require_two_relays(self.config)
        nu = _check_weight("nu", nu)
        if math.isinf(nu):
            return self.c_min
        g = self.config.mean_snr
        eps = self.config.mean_energy
        if nu > 0.0 and abs(g - 2.0 * nu * eps) < _SINGULAR_TOL * g:
            return 0.5 * (self.c_wd_of_nu(nu * (1.0 - _PERTURB))
                          + self.c_wd_of_nu(nu * (1.0 + _PERTURB)))
        u = 2.0 * nu * eps / g
        cross = u * u * exp_e1_scaled(2.0 / g + 2.0 / (g * u)) if u > 0.0 else 0.0
        return (2.0 * (1.0 - u * u) * self.x2 + cross - self.x4) / (2.0 * (1.0 - u * u) * _LN2)

    def c_wd(self, energy: float) -> float:
        return self.c_wd_of_nu(self.nu_from_energy(energy))

    def outage_ts(self, delta: float) -> float:
        _require_multi_relay(self.config)
        delta = _check_delta(delta)
        return (1.0 - delta) * self.p1 ** self.config.n_relays + delta * self.p1

    def outage_tc(self, delta: float) -> float:
        _require_multi_relay(self.config)
        delta = _check_delta(delta)
        n = self.config.n_relays
        p1 = self.p1
        if delta <= p1 ** n:
            return p1 ** n
        return p1 * delta ** ((n - 1.0) / n)

    def outage_wd(self, delta: float) -> float:
        _require_two_relays(self.config)
        delta = _check_delta(delta)
        return outage_wd_of_nu(self.config, self.nu_from_energy(self.energy_from_delta(delta)))


# ---------------------------------------------------------------------------
#  Time-sharing scheme
# ---------------------------------------------------------------------------


def mu_from_energy(config: SystemConfig, energy: float) -> float:
    """Selection probability mu achieving the target average energy.

    mu = (H_N*eps - energy) / (eps*(H_N - 1)); equals 1 - delta.
    """
    return _Forms(config).mu_from_energy(energy)


def c_ts(config: SystemConfig, energy: float) -> float:
    """Time-sharing ergodic capacity at the given average energy."""
    return _Forms(config).c_ts(energy)


# ---------------------------------------------------------------------------
#  Threshold-checking scheme
# ---------------------------------------------------------------------------


def tau_from_energy(config: SystemConfig, energy: float) -> float:
    """SNR threshold tau achieving the target average energy.

    Returns math.inf at the top of the energy range, where the policy
    degenerates to pure best-energy selection.
    """
    return _Forms(config).tau_from_energy(energy)


def energy_tc_of_tau(config: SystemConfig, tau: float) -> float:
    """Average transferred energy of threshold checking with threshold tau."""
    _require_multi_relay(config)
    tau = _check_weight("tau", tau)
    q = -math.expm1(-2.0 * tau / config.mean_snr)  # Pr{one SNR < tau}
    eps = config.mean_energy
    hn = harmonic(config.n_relays)
    return eps * (1.0 + (hn - 1.0) * q ** config.n_relays)


def c_tc_of_tau(config: SystemConfig, tau: float) -> float:
    """Threshold-checking ergodic capacity as a function of tau.

    Conditional split: capacity of the best-SNR relay above tau plus the
    capacity of an SNR-independent relay when every SNR is below tau.
    """
    return _Forms(config).c_tc_of_tau(tau)


def c_tc(config: SystemConfig, energy: float) -> float:
    """Threshold-checking ergodic capacity at the given average energy."""
    return _Forms(config).c_tc(energy)


# ---------------------------------------------------------------------------
#  Weighted-difference scheme (two relays)
# ---------------------------------------------------------------------------


def nu_from_energy(config: SystemConfig, energy: float) -> float:
    """Weighting coefficient nu achieving the target average energy.

    Returns math.inf at the top of the range (pure best-energy selection).
    """
    return _Forms(config).nu_from_energy(energy)


def energy_wd_of_nu(config: SystemConfig, nu: float) -> float:
    """Average transferred energy of the weighted-difference rule."""
    _require_two_relays(config)
    nu = _check_weight("nu", nu)
    eps = config.mean_energy
    if math.isinf(nu):
        return 1.5 * eps
    g = config.mean_snr
    ratio = g / (g + 2.0 * nu * eps)
    return 0.5 * eps * (3.0 - ratio * ratio)


def c_wd_of_nu(config: SystemConfig, nu: float) -> float:
    """Weighted-difference ergodic capacity as a function of nu.

    The expression has a removable 0/0 singularity where
    2 * nu * mean_energy == mean_snr; it is evaluated there by averaging
    two one-sided perturbations of nu.
    """
    return _Forms(config).c_wd_of_nu(nu)


def c_wd(config: SystemConfig, energy: float) -> float:
    """Weighted-difference ergodic capacity at the given average energy."""
    return _Forms(config).c_wd(energy)


# ---------------------------------------------------------------------------
#  Outage probabilities
# ---------------------------------------------------------------------------


def outage_ts(config: SystemConfig, delta: float) -> float:
    """Time-sharing outage probability at tradeoff factor delta."""
    return _Forms(config).outage_ts(delta)


def outage_tc_of_tau(config: SystemConfig, tau: float) -> float:
    """Threshold-checking outage probability as a function of tau."""
    _require_multi_relay(config)
    tau = _check_weight("tau", tau)
    p1 = _Forms(config).p1
    if tau <= config.outage_threshold:
        return p1 ** config.n_relays
    q = -math.expm1(-2.0 * tau / config.mean_snr)
    return p1 * q ** (config.n_relays - 1)


def outage_tc(config: SystemConfig, delta: float) -> float:
    """Threshold-checking outage probability at tradeoff factor delta."""
    return _Forms(config).outage_tc(delta)


def outage_wd_of_nu(config: SystemConfig, nu: float) -> float:
    """Weighted-difference outage probability as a function of nu.

    Shares the removable singularity of the capacity expression at
    2 * nu * mean_energy == mean_snr and is perturbed there the same way.
    """
    a = _no_outage_one(config)
    nu = _check_weight("nu", nu)
    if math.isinf(nu):
        return 1.0 - a
    g = config.mean_snr
    eps = config.mean_energy
    if nu > 0.0 and abs(g - 2.0 * nu * eps) < _SINGULAR_TOL * g:
        lo = outage_wd_of_nu(config, nu * (1.0 - _PERTURB))
        hi = outage_wd_of_nu(config, nu * (1.0 + _PERTURB))
        return 0.5 * (lo + hi)
    u = 2.0 * nu * eps / g
    if u == 0.0:
        return (1.0 - a) ** 2
    flip = a ** (1.0 / u)  # exp(-threshold / (nu * eps))
    return ((1.0 - a) ** 2 + u * u * (a * (2.0 - flip) - 1.0)) / (1.0 - u * u)


def outage_wd(config: SystemConfig, delta: float) -> float:
    """Weighted-difference outage probability at tradeoff factor delta."""
    return _Forms(config).outage_wd(delta)


# ---------------------------------------------------------------------------
#  High-SNR asymptotics
# ---------------------------------------------------------------------------


def _asymptotic_factor(scheme: SchemeName, config: SystemConfig, delta: float) -> float:
    delta = _check_delta(delta)
    if scheme == "ts":
        return delta
    if scheme == "tc":
        n = config.n_relays
        return delta ** ((n - 1.0) / n)
    if scheme == "wd":
        _require_two_relays(config)
        return 1.0 - math.sqrt(1.0 - delta)
    raise ValueError(f"unknown scheme {scheme!r}; expected 'ts', 'tc' or 'wd'")


def asymptotic_outage(scheme: SchemeName, config: SystemConfig, delta: float) -> float:
    """Leading-order high-SNR outage probability of a scheme at factor delta."""
    _require_multi_relay(config)
    factor = _asymptotic_factor(scheme, config, delta)
    return 2.0 * config.outage_threshold / config.mean_snr * factor


def array_gain(scheme: SchemeName, config: SystemConfig, delta: float) -> float:
    """Array gain G_a of the unit-diversity high-SNR outage law.

    Defined through P_out = (G_a * mean_snr / threshold)^(-1); diverges as
    delta -> 0 where the diversity order is recovered instead.
    """
    _require_multi_relay(config)
    factor = _asymptotic_factor(scheme, config, delta)
    if factor == 0.0:
        return math.inf
    return 1.0 / (2.0 * factor)


# ---------------------------------------------------------------------------
#  Pareto-optimal outage policy (two relays)
# ---------------------------------------------------------------------------


def pareto_outage_energy(config: SystemConfig, zeta: float) -> float:
    """Average transferred energy of the outage-metric Pareto policy.

    zeta = 0 and zeta = inf return the respective analytic limits (the
    policy's feasible energy range is [pareto_outage_energy_min, 1.5*eps]).
    """
    a = _no_outage_one(config)
    zeta = _check_weight("zeta", zeta)
    eps = config.mean_energy
    scale = zeta * eps  # 0 for zeta = 0, and where the product underflows: the zeta = 0 limit
    t = 1.0 / scale if scale > 0.0 else math.inf
    # (1+t) exp(-t) underflows before t overflows; cut off explicitly
    decay = (1.0 + t) * math.exp(-t) if t < 745.0 else 0.0
    return eps * ((a * a - a + 1.5) + a * (1.0 - a) * decay)


def pareto_no_outage(config: SystemConfig, zeta: float) -> float:
    """No-outage probability of the outage-metric Pareto policy."""
    a = _no_outage_one(config)
    zeta = _check_weight("zeta", zeta)
    scale = zeta * config.mean_energy  # 0 also where the product underflows: the zeta = 0 limit
    decay = math.exp(-1.0 / scale) if scale > 0.0 else 0.0
    return a * (2.0 - a) - a * (1.0 - a) * decay


def pareto_outage_energy_min(config: SystemConfig) -> float:
    """Infimum of the Pareto policy's energy range (the zeta -> 0+ limit)."""
    a = _no_outage_one(config)
    return config.mean_energy * (1.5 + a * a - a)


def delta_range_outage(config: SystemConfig) -> tuple[float, float]:
    """Tradeoff-factor interval covered by the outage-metric Pareto policy."""
    a = _no_outage_one(config)
    return 1.0 - 2.0 * (a - a * a), 1.0
