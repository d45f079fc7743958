"""Shared oracles and helpers for the test suite."""

import math
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

import relayswipt.frontier as frontier
from relayswipt import SystemConfig
from relayswipt.closedform import pareto_outage_energy, pareto_outage_energy_min
from relayswipt.schemes import Metric


def e1_quadrature(x: float) -> float:
    """Independent oracle for E1(x): adaptive quadrature of exp(-x*y)/y on [1, inf)."""
    val, err = integrate.quad(
        lambda y: math.exp(-x * y) / y, 1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400
    )
    return val


def capacity_quadrature(mean_snr: float, n_relays: int) -> float:
    """Oracle for the best-of-N ergodic capacity: quadrature against the max-SNR pdf."""

    def integrand(x):
        total = 0.0
        for j in range(n_relays):
            total += (
                n_relays
                * (-1.0) ** j
                * math.comb(n_relays - 1, j)
                * (2.0 / mean_snr)
                * math.exp(-2.0 * x * (j + 1) / mean_snr)
            )
        return 0.5 * math.log2(1.0 + x) * total

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    return val


def capacity_n_relays_quadrature(mean_snr: float, n_relays: int, delta: float) -> tuple:
    """Oracle for (time sharing, threshold checking) capacity at tradeoff factor delta.

    In s = 2 * SNR / mean_snr each relay's SNR is Exp(1).  The best of N has
    density N (1 - e^-s)^(N-1) e^-s; threshold checking picks it when it
    clears s_tau, else the best-energy relay, whose SNR is then one Exp(1)
    below s_tau, and its energy target puts Pr{all below s_tau} = delta.
    """

    def cap(s):
        return 0.5 * math.log2(1.0 + 0.5 * mean_snr * s)

    def best(s):
        return cap(s) * n_relays * (-math.expm1(-s)) ** (n_relays - 1) * math.exp(-s)

    def one(s):
        return cap(s) * math.exp(-s)

    def quad(f, a, b):
        return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400)[0]

    c_best, c_one = quad(best, 0.0, np.inf), quad(one, 0.0, np.inf)
    c_ts = (1.0 - delta) * c_best + delta * c_one
    q = delta ** (1.0 / n_relays)  # Pr{one SNR below s_tau}
    if q == 1.0:
        return c_ts, c_one
    s_tau = -math.log1p(-q)
    c_tc = quad(best, s_tau, np.inf) + q ** (n_relays - 1) * quad(one, 0.0, s_tau)
    return c_ts, c_tc


def outage_n_relays_quadrature(mean_snr: float, threshold: float, n_relays: int,
                               delta: float) -> tuple:
    """Oracle for (time sharing, threshold checking) outage at tradeoff factor delta.

    In s = 2 * SNR / mean_snr each relay's SNR is Exp(1) and the outage
    threshold is s_th = 2 * threshold / mean_snr.  Time sharing picks the best
    of N with probability 1 - delta, else the best-energy relay, whose SNR is
    one Exp(1); threshold checking is as in ``capacity_n_relays_quadrature``.
    """

    def best(s):
        return n_relays * (-math.expm1(-s)) ** (n_relays - 1) * math.exp(-s)

    def one(s):
        return math.exp(-s)

    def quad(f, a, b):
        return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400)[0] if b > a else 0.0

    s_th = 2.0 * threshold / mean_snr
    out_ts = (1.0 - delta) * quad(best, 0.0, s_th) + delta * quad(one, 0.0, s_th)
    q = delta ** (1.0 / n_relays)  # Pr{one SNR below s_tau}
    if q == 1.0:
        return out_ts, quad(one, 0.0, s_th)
    s_tau = -math.log1p(-q)
    # the best clears s_tau but not s_th, or all fall below s_tau and the
    # best-energy relay, one Exp(1) below s_tau, is also below s_th
    out_tc = quad(best, s_tau, s_th) + q ** (n_relays - 1) * quad(one, 0.0, min(s_th, s_tau))
    return out_ts, out_tc


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log10(xs), np.log10(ys), 1)[0])


def toy_model_states(levels_snr, levels_energy):
    """All (snr1, snr2, e1, e2) states of the discretized two-relay model."""
    states = []
    for g1 in levels_snr:
        for g2 in levels_snr:
            for e1 in levels_energy:
                for e2 in levels_energy:
                    states.append((g1, g2, e1, e2))
    return states


@pytest.fixture
def config10():
    return SystemConfig(2, 10.0, 1.0, 1.0)


@pytest.fixture
def config100():
    return SystemConfig(2, 100.0, 1.0, 1.0)


@pytest.fixture(autouse=True)
def no_live_scenario():
    """Each test starts with no frontier scenario alive: a failed test's traceback,
    which pytest keeps, may hold one that ``frontier._scenario`` would hand back."""
    frontier._live_scenarios.clear()


def spy_on_kernel(monkeypatch, record):
    """Call ``record(scenario, zeta, rungs)`` after each capacity-kernel call, the
    one place the tests spell the kernel's signature."""
    kernel = frontier._capacity_policy_integrals

    def spy(scenario, zeta, rungs):
        result = kernel(scenario, zeta, rungs)
        record(scenario, zeta, rungs)
        return result

    monkeypatch.setattr(frontier, "_capacity_policy_integrals", spy)


def spy_on_capacities(monkeypatch, record):
    """Call ``record(scenario, rungs, damp, capacities)`` after each
    ``_Scenario.capacities`` call."""
    capacities = frontier._Scenario.capacities

    def spy(scenario, rungs, damp):
        result = capacities(scenario, rungs, damp)
        record(scenario, rungs, damp, result)
        return result

    monkeypatch.setattr(frontier._Scenario, "capacities", spy)


def held_state(scenario):
    """(the weight ``scenario`` holds, its rungs' energies by ladder step, every
    array the scenario holds: its gap grids and each held step's damping array),
    the one place the tests spell the layout of ``_Scenario.last``."""
    zeta, steps = scenario.last
    energies = {rungs: tuple(step[0]) for rungs, step in steps.items()}
    return zeta, energies, [*scenario.grids.values(), *(step[1] for step in steps.values())]


def assert_meets_target(config, metric, target, zeta):
    """``zeta`` is 0 and ``target`` within the weight solver's band of the policy's
    energy floor, or the energy the solve reads at ``zeta``, evaluated afresh, is
    within the band of ``target``."""
    band = frontier._SOLVER_BAND * config.mean_energy
    if zeta == 0.0:
        capacity = metric is Metric.CAPACITY
        floor = config.mean_energy if capacity else pareto_outage_energy_min(config)
        assert abs(target - floor) <= band
    elif metric is Metric.CAPACITY:
        scenario = frontier._Scenario(config)
        energy = frontier._certified_integrals(scenario, zeta, frontier._SOLVE_TOL, 1)[0]
        assert abs(energy - target) < band
    else:
        assert abs(pareto_outage_energy(config, zeta) - target) < band


@pytest.fixture
def integral_calls(monkeypatch):
    """Counts of rung exponentiations by (config, zeta, outer, inner): each
    _capacity_policy_integrals call exponentiates every rung of its ladder step once."""
    calls = Counter()

    def record(scenario, zeta, rungs):
        for outer_nodes, inner_nodes in rungs:
            calls[scenario.config, zeta, outer_nodes, inner_nodes] += 1

    spy_on_kernel(monkeypatch, record)
    return calls


@pytest.fixture
def grid_builds(monkeypatch):
    """Each _gap_grid build, as (config, ladder step, [weak ref to the grid])."""
    builds = []
    gap_grid = frontier._gap_grid

    def spy(config, rungs):
        grid = gap_grid(config, rungs)
        builds.append((config, rungs, [weakref.ref(grid)]))
        return grid

    monkeypatch.setattr(frontier, "_gap_grid", spy)
    return builds
