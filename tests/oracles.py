"""Composite closed forms: the paper's curves written directly in the energy.

The library evaluates each tradeoff curve by one route: the parameter
inversion (mu, tau or nu from the energy) composed with the parameter-form
expression.  The functions below transcribe the single-expression forms
instead, so that tests comparing the two routes catch a transcription slip
in either.  They are test oracles and are not part of the package.

``capacity_policy_integrals`` is the frontier's quadrature written as one
expression per grid and evaluated afresh on every call, on nodes it builds
itself from numpy; the library must give the same bits from its own node
tables, held grids and in-place passes.
"""

import math

import numpy as np

from relayswipt.closedform import c_max, c_min, delta_from_energy, energy_from_delta
from relayswipt.model import SystemConfig
from relayswipt.specfun import exp_e1_scaled, harmonic

_LN2 = math.log(2.0)
# the library's bridge of the weighted-difference removable singularity
_SINGULAR_TOL = 1e-8
_PERTURB = 1e-6
# the frontier's geometric panels over the scaled SNR gap
_PANEL_EDGES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 25.0, 60.0)


def _require_two_relays(config: SystemConfig) -> None:
    if config.n_relays != 2:
        raise ValueError(f"requires exactly 2 relays, got n_relays={config.n_relays}")


def c_ts_composite(config: SystemConfig, energy: float) -> float:
    """Direct single-expression form of the time-sharing capacity curve."""
    delta_from_energy(config, energy)  # domain check
    g = config.mean_snr
    eps = config.mean_energy
    hn = harmonic(config.n_relays)
    n = config.n_relays
    ssum = 0.0
    for j in range(n):
        ssum += (
            n * (-1.0) ** j * math.comb(n - 1, j)
            * exp_e1_scaled(2.0 * (j + 1) / g)
            / (2.0 * (j + 1) * _LN2)
        )
    num = (energy - eps) * exp_e1_scaled(2.0 / g) + (eps * hn - energy) * math.log(4.0) * ssum
    return num / (2.0 * eps * (hn - 1.0) * _LN2)


def c_tc_composite(config: SystemConfig, energy: float) -> float:
    """Direct single-expression form of the threshold-checking curve."""
    rho = delta_from_energy(config, energy)
    if rho >= 1.0:
        return c_min(config)
    g = config.mean_snr
    n = config.n_relays
    q = 1.0 - rho ** (1.0 / n)
    lnq = math.log(q)
    arg1 = 1.0 - 0.5 * g * lnq  # equals 1 + tau
    first = (
        rho ** ((n - 1.0) / n)
        / (2.0 * _LN2)
        * (
            exp_e1_scaled(2.0 / g)
            - q * exp_e1_scaled(2.0 / g - lnq)
            - q * math.log(arg1)
        )
    )
    second = 0.0
    for j in range(n):
        coeff = n * (-1.0) ** j * math.comb(n - 1, j) * q ** (j + 1) / (2.0 * (j + 1) * _LN2)
        second += coeff * (exp_e1_scaled(2.0 * (j + 1) * arg1 / g) + math.log(arg1))
    return first + second


def c_wd_composite(config: SystemConfig, energy: float) -> float:
    """Direct single-expression form of the weighted-difference curve."""
    _require_two_relays(config)
    rho = delta_from_energy(config, energy)
    if rho >= 1.0:
        return c_min(config)
    eps = config.mean_energy
    clamped = energy_from_delta(config, rho)
    t = 1.0 - math.sqrt(eps / (3.0 * eps - 2.0 * clamped))  # <= 0
    if abs(1.0 - t * t) < _SINGULAR_TOL:
        lo = _c_wd_from_t(config, t * (1.0 - _PERTURB))
        hi = _c_wd_from_t(config, t * (1.0 + _PERTURB))
        return 0.5 * (lo + hi)
    return _c_wd_from_t(config, t)


def _c_wd_from_t(config: SystemConfig, t: float) -> float:
    g = config.mean_snr
    x2 = exp_e1_scaled(2.0 / g)
    x4 = exp_e1_scaled(4.0 / g)
    if t == 0.0:
        cross = 0.0
    else:
        cross = t * t * exp_e1_scaled(2.0 * (1.0 - 1.0 / t) / g)
    return (2.0 * (1.0 - t * t) * x2 + cross - x4) / (2.0 * (1.0 - t * t) * _LN2)


def outage_ts_composite(config: SystemConfig, energy: float) -> float:
    """Direct energy-parameterized form of the time-sharing outage curve."""
    delta_from_energy(config, energy)  # domain check
    g = config.mean_snr
    gth = config.outage_threshold
    eps = config.mean_energy
    hn = harmonic(config.n_relays)
    ratio = energy / eps
    a = math.exp(-2.0 * gth / g)
    inner = ratio + (hn - ratio) * (1.0 - a) ** config.n_relays - 1.0
    return (a * (1.0 - ratio) + inner) / (hn - 1.0)


def outage_tc_composite(config: SystemConfig, energy: float) -> float:
    """Direct energy-parameterized form of the threshold-checking outage curve."""
    rho = delta_from_energy(config, energy)
    n = config.n_relays
    p1 = -math.expm1(-2.0 * config.outage_threshold / config.mean_snr)
    if rho <= p1 ** n:
        return p1 ** n
    return p1 * rho ** ((n - 1.0) / n)


def outage_wd_composite(config: SystemConfig, energy: float) -> float:
    """Direct energy-parameterized form of the weighted-difference outage curve."""
    _require_two_relays(config)
    rho = delta_from_energy(config, energy)
    a = math.exp(-2.0 * config.outage_threshold / config.mean_snr)
    if rho >= 1.0:
        return 1.0 - a
    eps = config.mean_energy
    clamped = energy_from_delta(config, rho)
    w = math.sqrt(eps / (3.0 * eps - 2.0 * clamped))  # >= 1
    if w == 1.0:
        return (1.0 - a) ** 2
    tm = 1.0 - w  # <= 0
    if abs(1.0 - tm * tm) < _SINGULAR_TOL:
        mid = 0.5 * (
            outage_wd_composite(config, clamped - _PERTURB * eps)
            + outage_wd_composite(config, clamped + _PERTURB * eps)
        )
        return mid
    inner = math.exp(2.0 * config.outage_threshold / (config.mean_snr * tm))
    return ((1.0 - a) ** 2 + tm * tm * (a * (2.0 - inner) - 1.0)) / (1.0 - tm * tm)


def capacity_policy_integrals(config: SystemConfig, zeta: float,
                              outer_nodes: int, inner_nodes: int):
    """(average energy, average capacity) under the capacity Pareto policy, on
    the library's quadrature rule (Gauss-Laguerre in y, Gauss-Legendre panels in
    v with the Exp(1) weight folded in), with every node and grid built for this call."""
    g = config.mean_snr
    eps = config.mean_energy
    y, wy = np.polynomial.laguerre.laggauss(outer_nodes)
    z, w = np.polynomial.legendre.leggauss(inner_nodes)
    edges = np.array(_PANEL_EDGES)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    v = edges[:-1, None] + half * (z + 1.0)
    wv = (half * w * np.exp(-v)).ravel()
    v = v.ravel()
    snr_lo = g * y[:, None] / 4.0
    snr_hi = snr_lo + g * v[None, :] / 2.0
    gap = 0.5 / _LN2 * np.log1p((snr_hi - snr_lo) / (1.0 + snr_lo))
    t = gap / (zeta * eps)
    damp = np.exp(-t)
    energy_corr = ((0.5 * (1.0 + t) * damp) * wv[None, :]).sum(axis=1)
    cap_corr = ((gap * 0.5 * damp) * wv[None, :]).sum(axis=1)
    energy = eps * (1.0 + float(wy @ energy_corr))
    capacity = c_max(config) - float(wy @ cap_corr)
    return energy, capacity
