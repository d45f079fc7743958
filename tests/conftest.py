"""Shared oracles and helpers for the test suite."""

import math
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

import relayswipt.frontier as frontier
from relayswipt import SystemConfig


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
def no_held_scenario():
    """Start each test without the scenario an earlier test left held, so
    that counts of evaluations and grid builds do not depend on test order."""
    frontier._scenario.cache_clear()


@pytest.fixture
def integral_calls(monkeypatch):
    """Counts of _capacity_policy_integrals calls by (config, zeta, outer, inner)."""
    calls = Counter()
    integrals = frontier._capacity_policy_integrals

    def spy(config, zeta, outer_nodes, inner_nodes):
        calls[config, zeta, outer_nodes, inner_nodes] += 1
        return integrals(config, zeta, outer_nodes, inner_nodes)

    monkeypatch.setattr(frontier, "_capacity_policy_integrals", spy)
    return calls


@pytest.fixture
def grid_builds(monkeypatch):
    """Each _gap_grids build, as (config, outer, inner, weak refs to the grids)."""
    builds = []
    gap_grids = frontier._gap_grids

    def spy(config, outer_nodes, inner_nodes):
        grids = gap_grids(config, outer_nodes, inner_nodes)
        builds.append((config, outer_nodes, inner_nodes, [weakref.ref(g) for g in grids]))
        return grids

    monkeypatch.setattr(frontier, "_gap_grids", spy)
    return builds
