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
needs both coordinates within its tolerance (1e-4 absolute, which only
``pareto_capacity_point`` lets a caller change), the weight solve's forward
map only the energy, to a quarter of that.

The integrals are a pure function of (config, zeta, rung).  A frontier
solves its weights in one walk, its targets in increasing order, each by
Illinois regula falsi from the tightest bracket among the walk's samples, so
no weight is evaluated twice.  A call holds one ``_Scenario`` per config,
shared by the calls inside it and gone with it: its ``c_max``, per ladder
step the read-only SNR-gap grid (at most 0.46 MB), and per step integrated
at the last weight its rungs' energies and damping array exp(-t), which only
``_certified_integrals`` reads and writes.

Almost every certification ends at the second rung, so the first two rungs
form one step: one divide, one exp and one set of multiplies over both
grids, with the row sums split per rung.  The kernel computes only the
energy, which is all the solve reads, and returns the step's damping array,
from which a point, integrated as soon as its weight is found, computes each
step's capacities (``_Scenario.capacities``); a solve computes none.  Every
value is bit-identical to a fresh one-expression evaluation of one rung, as
each operation runs in its order; the values are pure and the held arrays
read-only, so a race between threads can only repeat work.

The outage frontier needs no integration: both coordinates have closed
forms, and only the weight solve is numerical.  Both frontiers take each
weight from that solve, which meets an energy target within a band of
1e-4 * mean_energy (zeta = 0 within the band of the policy's energy floor).
A grid whose targets lie within twice the band, such as delta steps below
4e-4 on the capacity frontier, may give points that collide or swap; either
frontier then raises ValueError naming the policy's energy range, the target
spacing and the band.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .closedform import (
    TradeoffPoint,
    _check_weight,
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
# The ladder's steps, each one pass over its rungs' concatenated grids.
_LADDER_STEPS = (_GL_LADDER[:2], _GL_LADDER[2:3], _GL_LADDER[3:])
# Geometric panel edges for the inner integral over the scaled SNR gap; the
# policy's switching layer sits near zero at a zeta-dependent scale, and a
# panel per decade keeps it resolved wherever it lands.  Mass beyond the last
# edge is below exp(-60).
_PANEL_EDGES = (0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 25.0, 60.0)
_DEFAULT_TOL = 1e-4
# The weight solve certifies each energy to a quarter of a point's tolerance.
_SOLVE_TOL = _DEFAULT_TOL / 4
_SOLVER_BAND = 1e-4  # |energy(zeta) - target| < band * mean_energy terminates
_MAX_BRACKET = 2.0**60
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
    nodes, weights = [], []
    for a, b in zip(_PANEL_EDGES, _PANEL_EDGES[1:]):
        half = 0.5 * (b - a)
        v = a + half * (z + 1.0)
        nodes.append(v)
        weights.append(half * w * np.exp(-v))
    grids = (*laggauss(outer_nodes), np.concatenate(nodes), np.concatenate(weights))
    for grid in grids:
        grid.flags.writeable = False
    return grids


def _gap_grid(config: SystemConfig, rungs) -> np.ndarray:
    """The read-only capacity gap 0.5*log2((1 + high) / (1 + low)) of the
    ordered SNR pair (low, high) = ((gbar/2)(y/2), (gbar/2)(y/2 + v)), via
    log1p, on a ladder step's nodes, each rung's (outer, inner) grid flattened
    in turn.  It does not depend on the weight."""
    g = config.mean_snr
    gaps = []
    for outer_nodes, inner_nodes in rungs:
        y, _, v, _ = _rung_nodes(outer_nodes, inner_nodes)
        snr_lo = g * y[:, None] / 4.0
        snr_hi = snr_lo + g * v[None, :] / 2.0
        gaps.append(np.log1p((snr_hi - snr_lo) / (1.0 + snr_lo)).ravel())
    gap = np.concatenate(gaps)
    gap *= 0.5 / _LN2
    gap.flags.writeable = False
    return gap


@lru_cache(maxsize=None)
def _step_weights(rungs) -> np.ndarray:
    """Read-only wv of a ladder step's rungs, repeated per outer node, as its grid."""
    wv = np.concatenate([np.tile(_rung_nodes(*rung)[3], rung[0]) for rung in rungs])
    wv.flags.writeable = False
    return wv


def _rung_sums(terms: np.ndarray, rungs) -> list[float]:
    """Per rung, wy @ (rows * wv).sum(axis=1) of its rows of ``terms``, weighted in place."""
    terms *= _step_weights(rungs)
    sums, start = [], 0
    for outer_nodes, inner_nodes in rungs:
        _, wy, _, wv = _rung_nodes(outer_nodes, inner_nodes)
        rows = terms[start:start + wy.size * wv.size].reshape(wy.size, wv.size)
        sums.append(float(wy @ rows.sum(axis=1)))
        start += rows.size
    return sums


class _Scenario:
    """One config's ``c_max`` and gap grids, which the kernel reads, and ``last``, the held
    weight and each ladder step integrated at it, which only ``_certified_integrals`` touches."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.grids = {}
        self.last = (None, {})  # (zeta, {ladder step: (its rungs' energies, its damping array)})

    @cached_property
    def c_max(self) -> float:
        return c_max(self.config)

    def step(self, rungs):
        if rungs not in self.grids:
            self.grids[rungs] = _gap_grid(self.config, rungs)
        return self.grids[rungs]

    def capacities(self, rungs, damp: np.ndarray):
        """Each rung's average capacity from the step's damping array exp(-t)."""
        cap_terms = self.step(rungs) * 0.5
        cap_terms *= damp
        return [self.c_max - total for total in _rung_sums(cap_terms, rungs)]


_live_scenarios = weakref.WeakValueDictionary()  # each goes with its last holder


def _scenario(config: SystemConfig) -> _Scenario:
    """The scenario a running call holds for ``config``, else a new one for the caller to hold."""
    return _live_scenarios.get(config) or _live_scenarios.setdefault(config, _Scenario(config))


def _capacity_policy_integrals(scenario: _Scenario, zeta: float, rungs):
    """Per rung of ladder step ``rungs``, the average energy under the capacity
    Pareto policy; and the step's read-only damping array exp(-t) for its capacities.

    Integrates over the ordered SNR pair (low, high) = ((gbar/2)(y/2),
    (gbar/2)(y/2 + v)) with Exp(1) weights in y and v.  The expectation over
    the two energies given the SNR pair is analytic: with t the capacity gap
    divided by zeta*eps, the selected relay's mean energy is
    eps * (1 + (1+t) e^-t / 2) and the better-SNR relay wins with
    probability 1 - e^-t / 2.  Only the correction terms are integrated
    numerically; the t-independent parts are eps and c_max exactly, the
    latter and the gap grids taken from the scenario.
    """
    gap = scenario.step(rungs)
    eps = scenario.config.mean_energy
    # The terms 0.5*(1 + t)*damp*wv, with t = gap/(zeta*eps) and damp = exp(-t),
    # in that order and in place.  Dividing by -(zeta*eps) gives -t exactly, and
    # 1 - (-t) is 1 + t exactly.
    if zeta * eps >= _NO_OVERFLOW_SCALE:
        neg_t = np.divide(gap, -(zeta * eps))
    else:
        # -t may overflow to -inf, where (1 + t)*exp(-t) would be inf*0; flooring
        # -t where exp already gives 0 leaves the terms of every finite t unchanged
        with np.errstate(over="ignore", divide="ignore"):
            neg_t = np.divide(gap, -(zeta * eps))
        np.maximum(neg_t, _EXP_ZERO_BELOW, out=neg_t)
    damp = np.exp(neg_t)
    damp.flags.writeable = False
    energy_terms = np.subtract(1.0, neg_t, out=neg_t)
    energy_terms *= 0.5
    energy_terms *= damp
    return [eps * (1.0 + total) for total in _rung_sums(energy_terms, rungs)], damp


def _certified_integrals(scenario: _Scenario, zeta: float, tol: float, coords: int):
    """(energy, capacity), or (energy,) if ``coords`` is 1, of the first ladder
    rung within ``tol`` of the rung below it on its first ``coords`` coordinates,
    reusing the steps ``scenario`` holds of ``zeta``; raises ToleranceNotMetError
    if no rung does."""
    prev = None
    for rungs in _LADDER_STEPS:
        held, steps = scenario.last  # read once: another thread may replace it
        if held != zeta:  # the previous weight's arrays go before this one's are made
            scenario.last = (zeta, steps := {})
        if rungs not in steps:
            steps = {**steps, rungs: _capacity_policy_integrals(scenario, zeta, rungs)}
            scenario.last = (zeta, steps)
        energies, damp = steps[rungs]
        cur = zip(energies, scenario.capacities(rungs, damp)) if coords == 2 else zip(energies)
        for rung in cur:
            if prev is not None and max(abs(c - p) for c, p in zip(rung, prev)) < tol:
                return rung
            prev = rung
    scenario.last = (None, {})  # a weight that no rung certifies holds nothing
    name = "energy integral" if coords == 1 else f"quadrature ladder (max {_GL_LADDER[-1]} nodes)"
    raise ToleranceNotMetError(f"{name} did not reach tol={tol}")


def pareto_capacity_point(config: SystemConfig, zeta: float, *,
                          tol: float = _DEFAULT_TOL) -> TradeoffPoint:
    """One point of the capacity Pareto frontier at weight zeta.

    zeta = 0 is pure best-SNR selection, (eps, c_max); zeta = math.inf is
    pure best-energy selection, (1.5*eps, c_min).  Otherwise the
    policy expectations are integrated to absolute tolerance ``tol`` on both
    coordinates.

    Raises:
        ToleranceNotMetError: if the integrator cannot certify ``tol``.
    """
    _require_two_relays(config)
    zeta = _check_weight("zeta", zeta)
    if math.isinf(zeta):
        return tradeoff_point(config, 1.5 * config.mean_energy, c_min(config))
    if zeta == 0.0:
        return tradeoff_point(config, config.mean_energy, c_max(config))
    return tradeoff_point(config, *_certified_integrals(_scenario(config), zeta, tol, 2))


def _walk(config: SystemConfig, targets, metric: Metric):
    """Yield (i, zeta) as each ``targets[i]``'s weight is found (``solve_zeta_for_energy``).
    A capacity walk holds its scenario until it ends, for the points its caller integrates."""
    _require_two_relays(config)
    eps = config.mean_energy
    if metric is Metric.CAPACITY:
        scenario = _scenario(config)
        floor, forward = eps, lambda z: _certified_integrals(scenario, z, _SOLVE_TOL, 1)[0]
    elif metric is Metric.OUTAGE_INDICATOR:
        floor, forward = pareto_outage_energy_min(config), partial(pareto_outage_energy, config)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    band, ceiling = _SOLVER_BAND * eps, 1.5 * eps
    # the floor first: where it lies within the band of the ceiling, zeta = 0 meets both
    pending = []
    for i, t in enumerate(targets):
        gap = t - floor  # exact near the floor, where floor ± band would round
        if abs(gap) <= band:
            yield i, 0.0
        elif band < gap and t < ceiling:
            pending.append((t, i))
        else:
            raise ValueError(f"energy target {t!r} outside feasible range [{floor - band!r}, "
                             f"{ceiling!r}) or within {band!r} of the energy floor {floor!r}")
    pending.sort()
    samples, met = [(0.0, floor)], set()  # (zeta, energy) of each weight evaluated, by zeta
    for n, (target, index) in enumerate(pending):
        # no sample meets the target: the first above it and the one before, below it, bracket it
        k = bisect.bisect_left(samples, band, key=lambda sample: sample[1] - target)
        (a, fa), (b, fb) = samples[k - 1], samples[k] if k < len(samples) else (None, None)
        side, stale, widths = None, 1.0, []  # the last sample's side; the kept end's weight
        while index not in met:
            if b is None:  # grow the bracket past the largest sample
                z = 4.0 * a or 1.0
                if z > _MAX_BRACKET:
                    raise BracketError(f"could not bracket energy target {target}")
            else:  # Illinois: an end kept twice or more in a row counts half as much each time
                wa, wb = (stale, 1.0) if side else (1.0, stale)
                z = a + (b - a) * (wa * (target - fa) / (wa * (target - fa) + wb * (fb - target)))
                if len(widths) > 3 and b - a > 0.5 * widths[-4] or not a < z < b:
                    z = 0.5 * (a + b)  # four steps did not halve the bracket
                if len(widths) == 200 or not a < z < b:  # too narrow to split
                    raise ToleranceNotMetError(f"bisection stalled solving for energy {target}")
                widths.append(b - a)
            f = forward(z)
            if b is None and f < fa - 4.0 * _SOLVE_TOL * eps:
                raise BracketError(
                    f"energy({z}) = {f} < energy at smaller zeta {fa}; map not monotone")
            bisect.insort(samples, (z, f))
            below = target - f >= band  # else above, or it meets the target and the loop ends
            if b is not None:  # the sample replaces the end on its side; the other end is kept
                stale, side = stale * 0.5 if side == (not below) else 1.0, not below
            a, fa, b, fb = (z, f, b, fb) if below else (a, fa, z, f)
            for t, i in pending[n:]:  # the targets below this one are met
                if abs(f - t) < band and i not in met:
                    met.add(i)
                    yield i, z


def solve_zeta_for_energy(config: SystemConfig, energy_target: float, metric: Metric) -> float:
    """Invert the monotone map zeta -> average energy by Illinois regula falsi
    (Dowell & Jarratt 1971), with a bisection step wherever four steps did not
    halve the bracket.

    A target within 1e-4 * mean_energy (the band) of the policy's energy floor
    gives 0; one above that, below 1.5 * mean_energy, is solved for, until the
    forward map is within the band of it; any other raises ValueError.  The
    bracket [0, 1] grows x4 until it holds the target, each sample that grows it
    checked for monotonicity (a violation would indicate an integrator bug and
    raises BracketError); ToleranceNotMetError after 200 steps, or where the
    bracket is too narrow to split.  This is a frontier's walk with one target:
    it holds nothing after it returns.
    """
    return next(_walk(config, [energy_target], metric))[1]


def _energy_target(config: SystemConfig, delta: float) -> float:
    """The energy of factor delta; below delta = 1 it stays below delta = 1's energy,
    the best-energy limit that no finite weight reaches, which it may round up to."""
    energy, best = energy_from_delta(config, delta), energy_from_delta(config, 1.0)
    return energy if delta == 1.0 else min(energy, math.nextafter(best, 0.0))


def zeta_for_delta(config: SystemConfig, delta: float, metric: Metric) -> float:
    """Pareto weight whose policy transfers the energy of tradeoff factor delta.

    delta = 1 is the best-energy limit, math.inf.  Below that the weight is
    solved for; a target within the solver band on either side of the
    policy's energy floor gives 0, and one further below the floor raises
    ValueError, as does a delta outside [0, 1].
    """
    energy = _energy_target(config, delta)
    return math.inf if delta == 1.0 else solve_zeta_for_energy(config, energy, metric)


def _pareto_frontier(config: SystemConfig, deltas, metric: Metric, floor: float, point):
    """``point(zeta)`` and ``zeta`` at each factor, a weight meeting its energy within the
    solver band, those below delta = 1 from one walk.  Raises ValueError naming the policy's
    energy range [floor, 1.5 * eps], the target spacing and the solver band where two
    points collide or swap."""
    deltas = [float(delta) for delta in deltas]
    targets = [_energy_target(config, delta) for delta in deltas]
    interior = [i for i, delta in enumerate(deltas) if delta != 1.0]
    zetas, points = [math.inf] * len(deltas), [None] * len(deltas)
    for k, zeta in _walk(config, [targets[i] for i in interior], metric):
        zetas[interior[k]], points[interior[k]] = zeta, point(zeta)
    points = [point(math.inf) if p is None else p for p in points]
    for i in range(1, len(points)):
        if points[i].energy <= points[i - 1].energy:
            raise ValueError(
                f"{'capacity' if metric is Metric.CAPACITY else 'outage'} frontier points "
                f"{i - 1} and {i} are not increasing in energy: the policy's energy range "
                f"[{floor!r}, {1.5 * config.mean_energy!r}] is too narrow for this grid, whose "
                f"targets lie {targets[i] - targets[i - 1]:.3g} apart, within twice the weight "
                f"solver's band of {_SOLVER_BAND * config.mean_energy:.3g} (targets within the "
                f"band above the range's floor snap to zeta = 0)")
    return tuple(points), tuple(zetas)


def capacity_frontier(config: SystemConfig, deltas=None) -> FrontierCurve:
    """Capacity Pareto frontier over a grid of tradeoff factors.

    Defaults to 21 uniform points on [0, 1].  Endpoints are exact; interior
    points solve for the weight matching the energy implied by delta, and
    are integrated to ``pareto_capacity_point``'s default tol.
    """
    _require_two_relays(config)
    deltas = np.linspace(0.0, 1.0, 21) if deltas is None else deltas
    points, zetas = _pareto_frontier(config, deltas, Metric.CAPACITY, config.mean_energy,
                                     lambda zeta: pareto_capacity_point(config, zeta))
    worst = _DEFAULT_TOL if any(0.0 < zeta < math.inf for zeta in zetas) else 0.0
    return FrontierCurve(points=points, zetas=zetas, tolerance=worst)


def outage_frontier(config: SystemConfig, deltas=None) -> FrontierCurve:
    """No-outage Pareto frontier over [delta_lo, 1], from closed forms only.

    A delta below the feasible lower bound raises ValueError.  By default the
    grid has as many uniform points on [delta_lo, 1] as keep consecutive energy
    targets two solver bands apart, 2 to 21, or only delta = 1 where the energy
    floor is not below 1.5 * eps as computed.  ``tolerance`` is the solver band,
    the error of each point's energy.
    """
    delta_lo, _ = delta_range_outage(config)  # raises first for n_relays != 2
    eps, floor = config.mean_energy, pareto_outage_energy_min(config)
    if deltas is None and floor < 1.5 * eps:
        spaces = (1.5 * eps - energy_from_delta(config, delta_lo)) / (2.0 * _SOLVER_BAND * eps)
        deltas = np.linspace(delta_lo, 1.0, min(21, max(2, 1 + int(spaces))))
    deltas = [float(delta) for delta in ([1.0] if deltas is None else deltas)]
    for delta in deltas:
        if delta < delta_lo - 1e-12:
            raise ValueError(
                f"delta {delta} below the feasible lower bound {delta_lo} of the outage frontier")
    points, zetas = _pareto_frontier(
        config, deltas, Metric.OUTAGE_INDICATOR, floor,
        lambda zeta: tradeoff_point(config, pareto_outage_energy(config, zeta),
                                    pareto_no_outage(config, zeta)))
    return FrontierCurve(points=points, zetas=zetas, tolerance=_SOLVER_BAND * eps)
