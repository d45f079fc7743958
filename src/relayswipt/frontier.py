"""Pareto frontiers of the (energy, performance) tradeoff for two relays.

The capacity frontier has no closed form.  Each point is the pair of
expectations (average selected energy, average selected capacity) under the
capacity-metric Pareto policy at a given weight zeta.  The expectation over
the two energies given the SNR pair has a closed form (the selection
boundary is linear in the energies), which reduces the computation to a 2-d
integral over the ordered SNR pair.  The outer (smaller-SNR) dimension uses
Gauss-Laguerre; the inner SNR-gap dimension uses composite Gauss-Legendre
panels on a fixed geometric grid, because the policy's switching layer sits
near zero gap at a scale proportional to zeta and uniform nodes cannot
track it.  One node-doubling ladder certifies both uses: a frontier point
needs both coordinates within its tolerance, the weight solve's forward map
only the energy.

The integrals are a pure function of (config, zeta, rung), and one
frontier asks for many of them more than once: each weight solve grows its
bracket through the same zeta = 1, 2, 4, ..., and a point integrates again
the rungs its solve's last step computed.  So the process holds one
``_Scenario``, for the config last integrated:

* its ``c_max`` and, per rung, the read-only SNR-gap grid and its half (at
  most 0.9 MB over the four rungs);
* the integrals evaluated so far, keyed by (zeta, rung), cleared when they
  reach ``_MAX_HELD_INTEGRALS`` (a 21-point frontier holds about 270).

Another config replaces it, so a ``capacity-vs-snr`` command holds one
cell's scenario at a time, and a direct solve followed by a point at the
solved weight integrates each rung once.  An evaluation computes only
t = gap/(zeta*eps), exp(-t) and the two weighted row sums, in place and in
the operation order of the one-expression form, so every value is
bit-identical to a fresh evaluation.  The values are pure, so a race
between threads can only repeat work.

The outage frontier needs no integration: both coordinates have closed
forms, and only the weight solve is numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .closedform import (
    TradeoffPoint,
    _require_two_relays,
    c_max,
    c_min,
    delta_range_outage,
    energy_from_delta,
    pareto_no_outage,
    pareto_outage_energy,
    pareto_outage_energy_min,
    tradeoff_point,
)
from .model import SystemConfig
from .schemes import Metric

__all__ = [
    "FrontierCurve",
    "ToleranceNotMetError",
    "BracketError",
    "pareto_capacity_point",
    "solve_zeta_for_energy",
    "zeta_for_delta",
    "capacity_frontier",
    "outage_frontier",
]

# Quadrature ladder: (outer Laguerre nodes, inner Legendre nodes per panel).
_GL_LADDER = ((48, 8), (64, 12), (96, 16), (128, 24))
# Geometric panel edges for the inner integral over the scaled SNR gap; the
# policy's switching layer sits near zero at a zeta-dependent scale, and a
# panel per decade keeps it resolved wherever it lands.  Mass beyond the last
# edge is below exp(-60).
_PANEL_EDGES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 25.0, 60.0)
_DEFAULT_TOL = 1e-4
_SOLVER_BAND = 1e-4  # |energy(zeta) - target| < band * mean_energy terminates
_MAX_BRACKET = 2.0**60
# The held scenario's integrals are cleared when they reach this many.
_MAX_HELD_INTEGRALS = 4096
# exp(x) is exactly 0 for every x below this.
_EXP_ZERO_BELOW = -746.0
# A capacity gap is at most 512 bits at any finite mean SNR, so gap/(zeta*eps)
# cannot overflow while zeta*eps is at least this.
_NO_OVERFLOW_SCALE = 1e-300


_LN2 = math.log(2.0)


class ToleranceNotMetError(RuntimeError):
    """The integrator could not certify the requested tolerance."""


class BracketError(RuntimeError):
    """Bracketing failed; the sampled forward map was not monotone."""


@dataclass(frozen=True)
class FrontierCurve:
    """Tradeoff points sorted by energy, with the Pareto weight of each point."""

    points: tuple[TradeoffPoint, ...]
    zetas: tuple[float, ...]
    tolerance: float

    def __post_init__(self):
        if len(self.zetas) != len(self.points):
            raise ValueError("a frontier needs one weight per point")
        energies = [p.energy for p in self.points]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise ValueError("frontier points must be strictly increasing in energy")
        slack = max(2.0 * self.tolerance, 1e-9)
        values = [p.value for p in self.points]
        if any(b > a + slack for a, b in zip(values, values[1:])):
            raise ValueError("frontier values must be non-increasing along energy")


@lru_cache(maxsize=None)
def _rung_nodes(outer_nodes: int, inner_nodes: int):
    """Read-only (y, wy, v, wv): Gauss-Laguerre in the outer dimension, and
    the inner nodes over the panel decomposition with Exp(1) weight folded in."""
    z, w = np.polynomial.legendre.leggauss(inner_nodes)
    nodes = []
    weights = []
    for a, b in zip(_PANEL_EDGES, _PANEL_EDGES[1:]):
        half = 0.5 * (b - a)
        v = a + half * (z + 1.0)
        nodes.append(v)
        weights.append(half * w * np.exp(-v))
    grids = (*laggauss(outer_nodes), np.concatenate(nodes), np.concatenate(weights))
    for grid in grids:
        grid.flags.writeable = False
    return grids


def _gap_grids(config: SystemConfig, outer_nodes: int, inner_nodes: int):
    """The capacity gap of the ordered SNR pair on one rung's nodes, and its half.

    With (low, high) = ((gbar/2)(y/2), (gbar/2)(y/2 + v)) the gap is
    0.5*log2((1 + high) / (1 + low)), taken via log1p for small gaps.  It
    does not depend on the weight.
    """
    g = config.mean_snr
    y, _, v, _ = _rung_nodes(outer_nodes, inner_nodes)
    snr_lo = g * y[:, None] / 4.0
    snr_hi = snr_lo + g * v[None, :] / 2.0
    gap = 0.5 / _LN2 * np.log1p((snr_hi - snr_lo) / (1.0 + snr_lo))
    return gap, gap * 0.5


class _Scenario:
    """What the capacity integrals of one config share: its ``c_max``, each
    rung's read-only ``_gap_grids``, and the integrals evaluated so far,
    keyed by (zeta, outer, inner)."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.c_max = c_max(config)
        self.grids = {}
        self.integrals = {}

    def rung(self, outer_nodes: int, inner_nodes: int):
        grids = self.grids.get((outer_nodes, inner_nodes))
        if grids is None:
            grids = _gap_grids(self.config, outer_nodes, inner_nodes)
            for grid in grids:
                grid.flags.writeable = False
            self.grids[outer_nodes, inner_nodes] = grids
        return grids


@lru_cache(maxsize=1)
def _scenario(config: SystemConfig) -> _Scenario:
    """The held scenario of ``config``; asking for another config replaces it."""
    return _Scenario(config)


def _capacity_policy_integrals(config: SystemConfig, zeta: float,
                               outer_nodes: int, inner_nodes: int):
    """(average energy, average capacity) under the capacity Pareto policy.

    Integrates over the ordered SNR pair (low, high) = ((gbar/2)(y/2),
    (gbar/2)(y/2 + v)) with Exp(1) weights in y and v.  The expectation over
    the two energies given the SNR pair is analytic: with t the capacity gap
    divided by zeta*eps, the selected relay's mean energy is
    eps * (1 + (1+t) e^-t / 2) and the better-SNR relay wins with
    probability 1 - e^-t / 2.  Only the correction terms are integrated
    numerically; the t-independent parts are eps and c_max exactly, the
    latter and the gap grids taken from the held scenario.
    """
    scenario = _scenario(config)
    gap, half_gap = scenario.rung(outer_nodes, inner_nodes)
    eps = config.mean_energy
    _, wy, _, wv = _rung_nodes(outer_nodes, inner_nodes)
    # The terms 0.5*(1 + t)*damp*wv and (gap*0.5)*damp*wv, with t = gap/(zeta*eps)
    # and damp = exp(-t), in that order and in place.  Dividing by -(zeta*eps)
    # gives -t exactly, and 1 - (-t) is 1 + t exactly.
    if zeta * eps >= _NO_OVERFLOW_SCALE:
        neg_t = np.divide(gap, -(zeta * eps))
    else:
        # -t may overflow to -inf, where (1 + t)*exp(-t) would be inf*0; flooring
        # -t where exp already gives 0 leaves the terms of every finite t unchanged
        with np.errstate(over="ignore", divide="ignore"):
            neg_t = np.divide(gap, -(zeta * eps))
        np.maximum(neg_t, _EXP_ZERO_BELOW, out=neg_t)
    damp = np.exp(neg_t)
    energy_terms = np.subtract(1.0, neg_t, out=neg_t)
    energy_terms *= 0.5
    energy_terms *= damp
    energy_terms *= wv
    cap_terms = np.multiply(half_gap, damp, out=damp)
    cap_terms *= wv
    energy = eps * (1.0 + float(wy @ energy_terms.sum(axis=1)))
    capacity = scenario.c_max - float(wy @ cap_terms.sum(axis=1))
    return energy, capacity


def _certified_integrals(config: SystemConfig, zeta: float, tol: float,
                         coords: int, name: str):
    """(energy, capacity) from the first rung of the quadrature ladder that
    agrees with the rung below it to within ``tol`` on its first ``coords``
    coordinates.

    Raises:
        ToleranceNotMetError: naming ``name``, if no rung does.
    """
    held = _scenario(config).integrals
    prev = None
    for outer, inner in _GL_LADDER:
        key = (zeta, outer, inner)
        cur = held.get(key)
        if cur is None:
            if len(held) >= _MAX_HELD_INTEGRALS:
                held.clear()
            cur = held[key] = _capacity_policy_integrals(config, zeta, outer, inner)
        if prev is not None and max(abs(c - p) for c, p in zip(cur[:coords], prev)) < tol:
            return cur
        prev = cur
    raise ToleranceNotMetError(f"{name} did not reach tol={tol}")


def pareto_capacity_point(
    config: SystemConfig,
    zeta: float,
    *,
    tol: float = _DEFAULT_TOL,
) -> TradeoffPoint:
    """One point of the capacity Pareto frontier at weight zeta.

    zeta = 0 is pure best-SNR selection, (eps, c_max); zeta = math.inf is
    pure best-energy selection, (1.5*eps, c_min).  Otherwise the
    policy expectations are integrated to absolute tolerance ``tol`` on both
    coordinates.

    Raises:
        ToleranceNotMetError: if the integrator cannot certify ``tol``.
    """
    _require_two_relays(config)
    if math.isnan(zeta) or zeta < 0.0:
        raise ValueError(f"zeta must be >= 0, got {zeta!r}")
    if math.isinf(zeta):
        return tradeoff_point(config, 1.5 * config.mean_energy, c_min(config))
    if zeta == 0.0:
        return tradeoff_point(config, config.mean_energy, _scenario(config).c_max)

    ladder = f"quadrature ladder (max {_GL_LADDER[-1]} nodes)"
    return tradeoff_point(config, *_certified_integrals(config, zeta, tol, 2, ladder))


def solve_zeta_for_energy(
    config: SystemConfig,
    energy_target: float,
    metric: Metric,
    *,
    point_tol: float = 2.5e-5,
) -> float:
    """Invert the monotone map zeta -> average energy by bisection.

    The bracket is grown geometrically from [0, 1]; samples gathered while
    growing it are checked for monotonicity (a violation would indicate an
    integrator bug and raises BracketError).  Terminates when the forward
    map is within 1e-4 * mean_energy of the target.
    """
    _require_two_relays(config)
    eps = config.mean_energy
    if metric is Metric.CAPACITY:
        floor = eps

        def forward(z: float) -> float:
            return _certified_integrals(config, z, point_tol, 1, "energy integral")[0]

    elif metric is Metric.OUTAGE_INDICATOR:
        floor = pareto_outage_energy_min(config)

        def forward(z: float) -> float:
            return pareto_outage_energy(config, z)

    else:
        raise ValueError(f"unknown metric {metric!r}")

    band = _SOLVER_BAND * eps
    ceiling = 1.5 * eps
    # checked before the ceiling: where the floor lies within the band of the
    # ceiling, a target that rounds up to the ceiling is still met by zeta = 0
    if floor - band <= energy_target <= floor + band:
        return 0.0
    if not floor - band <= energy_target < ceiling:
        raise ValueError(
            f"energy target {energy_target!r} outside feasible range [{floor}, {ceiling})"
        )

    mono_slack = max(4.0 * point_tol, 1e-9) * eps
    lo, hi = 0.0, 1.0
    prev = floor
    while True:
        f_hi = forward(hi)
        if f_hi < prev - mono_slack:
            raise BracketError(
                f"energy({hi}) = {f_hi} < energy at smaller zeta {prev}; map not monotone"
            )
        if f_hi >= energy_target:
            break
        prev = f_hi
        lo, hi = hi, hi * 2.0
        if hi > _MAX_BRACKET:
            raise BracketError(f"could not bracket energy target {energy_target}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = forward(mid)
        if abs(f_mid - energy_target) < band:
            return mid
        if f_mid < energy_target:
            lo = mid
        else:
            hi = mid
    raise ToleranceNotMetError(f"bisection stalled solving for energy {energy_target}")


def zeta_for_delta(
    config: SystemConfig,
    delta: float,
    metric: Metric,
    *,
    point_tol: float = 2.5e-5,
) -> float:
    """Pareto weight whose policy transfers the energy of tradeoff factor delta.

    delta = 1 is the best-energy limit, math.inf.  Below that the weight is
    solved for; a target within the solver band above the policy's energy
    floor gives 0, and one below the floor raises ValueError, as does a
    delta outside [0, 1].
    """
    energy = energy_from_delta(config, delta)
    if delta == 1.0:
        return math.inf
    return solve_zeta_for_energy(config, energy, metric, point_tol=point_tol)


def capacity_frontier(
    config: SystemConfig,
    deltas=None,
    *,
    tol: float = _DEFAULT_TOL,
) -> FrontierCurve:
    """Capacity Pareto frontier over a grid of tradeoff factors.

    Defaults to 21 uniform points on [0, 1].  Endpoints are exact; interior
    points solve for the weight matching the energy implied by delta.
    """
    _require_two_relays(config)
    if deltas is None:
        deltas = np.linspace(0.0, 1.0, 21)
    points, zetas = [], []
    worst = 0.0
    for delta in deltas:
        zeta = zeta_for_delta(config, float(delta), Metric.CAPACITY, point_tol=tol / 4.0)
        points.append(pareto_capacity_point(config, zeta, tol=tol))
        zetas.append(zeta)
        if 0.0 < zeta < math.inf:
            worst = tol
    return FrontierCurve(points=tuple(points), zetas=tuple(zetas), tolerance=worst)


def outage_frontier(config: SystemConfig, deltas=None) -> FrontierCurve:
    """No-outage Pareto frontier over [delta_lo, 1], from closed forms only.

    The weight solve meets each energy target only to within its band,
    1e-4 * mean_energy, and a target within the band above the policy's
    energy floor gets zeta = 0.  Where the policy's energy range is so
    narrow that two grid targets lie within twice the band, their points
    may collide or come out of order; that raises ValueError naming the
    range, as does a delta below the feasible lower bound.
    """
    delta_lo, _ = delta_range_outage(config)  # raises first for n_relays != 2
    if deltas is None:
        deltas = np.linspace(delta_lo, 1.0, 21)
    band = _SOLVER_BAND * config.mean_energy
    deltas = [float(delta) for delta in deltas]
    points, zetas = [], []
    for i, delta in enumerate(deltas):
        if delta < delta_lo - 1e-12:
            raise ValueError(
                f"delta {delta} below the feasible lower bound {delta_lo} of the outage frontier"
            )
        zeta = zeta_for_delta(config, delta, Metric.OUTAGE_INDICATOR)
        point = tradeoff_point(config, pareto_outage_energy(config, zeta),
                               pareto_no_outage(config, zeta))
        if points and point.energy <= points[-1].energy:
            spacing = energy_from_delta(config, delta) - energy_from_delta(config, deltas[i - 1])
            raise ValueError(
                f"outage frontier points {i - 1} and {i} are not increasing in energy: the "
                f"policy's energy range [{pareto_outage_energy_min(config)!r}, "
                f"{1.5 * config.mean_energy!r}] is too narrow for this grid, whose targets lie "
                f"{spacing:.3g} apart, within twice the weight solver's band of {band:.3g} "
                f"(targets within the band above the range's floor snap to zeta = 0)"
            )
        points.append(point)
        zetas.append(zeta)
    return FrontierCurve(points=tuple(points), zetas=tuple(zetas), tolerance=band)
