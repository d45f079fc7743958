import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayswipt.closedform as cf
import relayswipt.frontier as frontier
from relayswipt.frontier import (
    BracketError,
    FrontierCurve,
    ToleranceNotMetError,
    capacity_frontier,
    outage_frontier,
    pareto_capacity_point,
    solve_zeta_for_energy,
    zeta_for_delta,
)
from relayswipt.model import SystemConfig, snr_from_db
from relayswipt.schemes import Metric, ParetoOptimal
from relayswipt.simulate import MonteCarloConfig, run

import oracles
from conftest import toy_model_states


def test_endpoints(config100):
    zero = pareto_capacity_point(config100, 0.0)
    assert (zero.energy, zero.value) == (1.0, cf.c_max(config100))
    top = pareto_capacity_point(config100, math.inf)
    assert (top.energy, top.value) == (1.5, cf.c_min(config100))


def test_point_matches_plain_monte_carlo(config100):
    zeta = config100.mean_snr / (2.0 * config100.mean_energy)
    point = pareto_capacity_point(config100, zeta)
    mc = run(
        config100,
        ParetoOptimal(zeta=zeta, metric=Metric.CAPACITY),
        MonteCarloConfig(10_000_000, seed=313, batch_size=500_000),
    )
    cap_tol = max(3.0 * mc.capacity.std_error, 1e-3)
    energy_tol = max(3.0 * mc.energy.std_error, 1e-3)
    assert abs(mc.capacity.mean - point.value) < cap_tol
    assert abs(mc.energy.mean - point.energy) < energy_tol


def _halton(count: int, base: int) -> np.ndarray:
    """First `count` points of the van der Corput sequence in the given base."""
    idx = np.arange(1, count + 1, dtype=np.int64)
    out = np.zeros(count)
    denom = 1.0
    while idx.any():
        denom /= base
        out += denom * (idx % base)
        idx //= base
    return out


def _capacity_policy_qmc(config, zeta, count):
    """Quasi-Monte-Carlo policy expectations (2-d Halton), independent of the quadrature."""
    g = config.mean_snr
    eps = config.mean_energy
    snr1 = -0.5 * g * np.log1p(-_halton(count, 2))
    snr2 = -0.5 * g * np.log1p(-_halton(count, 3))
    f1 = 0.5 * np.log2(1.0 + snr1)
    f2 = 0.5 * np.log2(1.0 + snr2)
    t = (f1 - f2) / (zeta * eps)
    damp = np.exp(-np.abs(t))
    p_first = np.where(t >= 0.0, 1.0 - 0.5 * damp, 0.5 * damp)
    cap = f1 * p_first + f2 * (1.0 - p_first)
    energy = eps * (1.0 + 0.5 * (1.0 + np.abs(t)) * damp)
    return energy, cap


def test_quadrature_and_qmc_agree(config100):
    count = 1 << 22
    for zeta in (0.5, 5.0, 50.0):
        quad = pareto_capacity_point(config100, zeta)
        energy, cap = _capacity_policy_qmc(config100, zeta, count)
        # the QMC estimate certifies itself: both halves of the sequence agree
        assert abs(energy.mean() - energy[: count // 2].mean()) < 1e-4
        assert abs(cap.mean() - cap[: count // 2].mean()) < 1e-4
        assert energy.mean() == pytest.approx(quad.energy, abs=2e-4)
        assert cap.mean() == pytest.approx(quad.value, abs=2e-4)


def test_point_validation(config100):
    with pytest.raises(ValueError):
        pareto_capacity_point(SystemConfig(3, 10.0, 1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        pareto_capacity_point(config100, -1.0)


def test_energy_monotone_in_weight(config100):
    values = [pareto_capacity_point(config100, float(z)).energy for z in np.logspace(-3, 3, 30)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_solve_zeta_round_trip(config100):
    eps = config100.mean_energy
    assert solve_zeta_for_energy(config100, eps, Metric.CAPACITY) == 0.0
    target = 1.25
    zeta = solve_zeta_for_energy(config100, target, Metric.CAPACITY)
    assert pareto_capacity_point(config100, zeta).energy == pytest.approx(target, abs=1e-4)


def test_solve_zeta_outage_metric():
    cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    floor = cf.pareto_outage_energy_min(cfg)
    # just above the floor: tiny weight, operating point near delta = 0.5
    zeta = solve_zeta_for_energy(cfg, floor + 5e-5, Metric.OUTAGE_INDICATOR)
    assert zeta == 0.0 or cf.pareto_outage_energy(cfg, zeta) == pytest.approx(
        floor + 5e-5, abs=1e-4
    )
    assert cf.delta_from_energy(cfg, floor) == pytest.approx(0.5, abs=1e-12)
    target = 1.4
    zeta = solve_zeta_for_energy(cfg, target, Metric.OUTAGE_INDICATOR)
    assert cf.pareto_outage_energy(cfg, zeta) == pytest.approx(target, abs=1e-4)


def test_solve_zeta_domain_errors(config100):
    with pytest.raises(ValueError):
        solve_zeta_for_energy(config100, 0.9, Metric.CAPACITY)
    with pytest.raises(ValueError):
        solve_zeta_for_energy(config100, 1.5, Metric.CAPACITY)
    cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_zeta_for_energy(cfg, 1.01, Metric.OUTAGE_INDICATOR)  # below the floor


def test_zeta_for_delta_limits(config100):
    for metric in Metric:
        assert zeta_for_delta(config100, 1.0, metric) == math.inf
    assert zeta_for_delta(config100, 0.0, Metric.CAPACITY) == 0.0
    zeta = zeta_for_delta(config100, 0.5, Metric.CAPACITY)
    assert zeta == solve_zeta_for_energy(config100, 1.25, Metric.CAPACITY)
    cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)  # outage floor at delta = 0.5
    assert zeta_for_delta(cfg, 0.5, Metric.OUTAGE_INDICATOR) == 0.0
    with pytest.raises(ValueError):
        zeta_for_delta(cfg, 0.4, Metric.OUTAGE_INDICATOR)
    for delta in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            capacity_frontier(config100, [delta])


def test_outage_floor_next_to_the_ceiling():
    """At -12.74 dB the floor is within the band of the ceiling and the target
    at delta_lo < 1 rounds up to the ceiling; zeta = 0 still meets it."""
    cfg = SystemConfig(2, snr_from_db(-12.74), 1.0, 1.0)
    delta_lo, _ = cf.delta_range_outage(cfg)
    assert delta_lo < 1.0 and cf.energy_from_delta(cfg, delta_lo) == 1.5
    assert zeta_for_delta(cfg, delta_lo, Metric.OUTAGE_INDICATOR) == 0.0
    with pytest.raises(ValueError):
        solve_zeta_for_energy(cfg, 1.5 + 1e-3, Metric.OUTAGE_INDICATOR)


def test_capacity_frontier_shape_and_dominance(config100):
    curve = capacity_frontier(config100)
    assert len(curve.points) == len(curve.zetas) == 21
    assert curve.zetas[0] == 0.0 and curve.zetas[-1] == math.inf
    assert all(a < b for a, b in zip(curve.zetas, curve.zetas[1:]))
    for zeta, point in zip(curve.zetas[1:-1], curve.points[1:-1]):
        assert pareto_capacity_point(config100, zeta) == point
    assert curve.points[0].energy == pytest.approx(1.0, abs=1e-4)
    assert curve.points[0].value == pytest.approx(cf.c_max(config100), abs=1e-4)
    assert curve.points[-1].energy == pytest.approx(1.5, abs=1e-4)
    energies = [p.energy for p in curve.points]
    values = [p.value for p in curve.points]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert all(b <= a + 2e-4 for a, b in zip(values, values[1:]))
    for point in curve.points:
        energy = min(point.energy, 1.5)
        for scheme_curve in (cf.c_ts, cf.c_tc, cf.c_wd):
            assert point.value >= scheme_curve(config100, energy) - 1e-3


def test_frontier_evaluates_each_rung_once(integral_calls):
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    curve = capacity_frontier(config)
    assert max(integral_calls.values()) == 1
    assert sum(integral_calls.values()) <= 280
    # the scenario is held after the call: a repeat evaluates nothing
    first = dict(integral_calls)
    assert capacity_frontier(config) == curve
    assert dict(integral_calls) == first
    # another config in between replaces it, and the repeat evaluates everything again
    capacity_frontier(SystemConfig(2, snr_from_db(20.0), 1.0, 1.0))
    assert capacity_frontier(config) == curve
    assert all(integral_calls[key] == 2 for key in first)


def test_a_point_reuses_the_rungs_its_solve_integrated(integral_calls):
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    zeta = zeta_for_delta(config, 0.5, Metric.CAPACITY)
    solved = dict(integral_calls)
    pareto_capacity_point(config, zeta)
    assert (config, zeta, *frontier._GL_LADDER[0]) in solved
    assert max(integral_calls.values()) == 1


@settings(max_examples=300, deadline=None)
@given(
    snr_db=st.floats(-20.0, 60.0),
    eps=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    zeta=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    rung=st.sampled_from(frontier._GL_LADDER),
)
def test_integrals_are_bit_identical_to_the_one_expression_form(snr_db, eps, zeta, rung):
    config = SystemConfig(2, snr_from_db(snr_db), eps, 1.0)
    other = SystemConfig(2, snr_from_db(snr_db) * 2.0, eps, 1.0)
    expected = {cfg: oracles.capacity_policy_integrals(cfg, zeta, *rung) for cfg in (config, other)}
    frontier._scenario.cache_clear()
    # builds the grids, reuses them, then builds them again after another config
    for cfg in (config, config, other, config):
        assert frontier._capacity_policy_integrals(cfg, zeta, *rung) == expected[cfg]


@pytest.mark.parametrize("zeta", [1e-310, 5e-324])
@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_a_tiny_weight_gives_the_best_snr_point(zeta, eps):
    # zeta*eps is subnormal, or 0 at 5e-324 * 0.5: gap/(zeta*eps) overflows
    config = SystemConfig(2, 10.0, eps, 1.0)
    assert pareto_capacity_point(config, zeta) == pareto_capacity_point(config, 0.0)


def test_a_floored_weight_keeps_every_finite_term():
    # zeta*eps is below the overflow guard, yet t = gap/(zeta*eps) spans 1e-4..2e5,
    # with nodes on both sides of where exp(-t) reaches 0
    config = SystemConfig(2, 1e-297, 1.0, 1.0)
    for rung in frontier._GL_LADDER:
        assert (frontier._capacity_policy_integrals(config, 1e-301, *rung)
                == oracles.capacity_policy_integrals(config, 1e-301, *rung))


def test_cached_nodes_and_grids_are_read_only():
    config = SystemConfig(2, 10.0, 1.0, 1.0)
    pareto_capacity_point(config, 1.0)
    held = [grid for grids in frontier._scenario(config).grids.values() for grid in grids]
    nodes = [array for rung in frontier._GL_LADDER for array in frontier._rung_nodes(*rung)]
    assert held and len(nodes) == 4 * len(frontier._GL_LADDER)
    for array in held + nodes:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_held_integrals_stay_within_their_bound(integral_calls, monkeypatch):
    monkeypatch.setattr(frontier, "_MAX_HELD_INTEGRALS", 6)
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    held = frontier._scenario(config).integrals
    zetas = [0.25 * k for k in range(1, 9)]
    sizes, points = [], []
    for zeta in zetas * 2:
        points.append(pareto_capacity_point(config, zeta))
        sizes.append(len(held))
    assert max(sizes) <= 6 and any(b < a for a, b in zip(sizes, sizes[1:]))
    assert frontier._scenario(config).integrals is held
    # the second pass evaluates again what a clear dropped, to the same bits
    assert max(integral_calls.values()) == 2
    assert points[len(zetas):] == points[:len(zetas)]


def test_frontier_builds_each_grid_once(grid_builds, monkeypatch):
    cmax_calls = Counter()
    c_max = frontier.c_max

    def count(config):
        cmax_calls[config] += 1
        return c_max(config)

    monkeypatch.setattr(frontier, "c_max", count)
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    zeta = solve_zeta_for_energy(config, 1.2, Metric.CAPACITY)
    for z in (0.0, zeta, 1.0, 2.0, zeta):
        pareto_capacity_point(config, z)
    capacity_frontier(config)
    rungs = Counter((outer, inner) for _, outer, inner, _ in grid_builds)
    assert rungs and max(rungs.values()) == 1 and set(rungs) <= set(frontier._GL_LADDER)
    assert cmax_calls == Counter({config: 1})


def test_outage_frontier_endpoints_and_dominance():
    cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    a = math.exp(-2.0 * cfg.outage_threshold / cfg.mean_snr)
    curve = outage_frontier(cfg)
    assert curve.zetas[0] == 0.0 and curve.zetas[-1] == math.inf
    for zeta, point in zip(curve.zetas, curve.points):
        assert point.value == cf.pareto_no_outage(cfg, zeta)
    assert curve.points[0].delta == pytest.approx(0.5, abs=1e-9)
    assert curve.points[0].value == pytest.approx(1.0 - (1.0 - a) ** 2, abs=1e-9)
    assert curve.points[-1].value == pytest.approx(a, abs=1e-9)
    assert curve.points[-1].energy == pytest.approx(1.5, abs=1e-9)
    for point in curve.points:
        delta = point.delta
        for scheme_outage in (cf.outage_ts, cf.outage_tc, cf.outage_wd):
            assert point.value >= (1.0 - scheme_outage(cfg, delta)) - 1e-3


def test_frontier_curve_invariants_enforced():
    p1 = cf.TradeoffPoint(energy=1.0, value=2.0, delta=0.0)
    p2 = cf.TradeoffPoint(energy=1.2, value=2.5, delta=0.4)
    with pytest.raises(ValueError):
        FrontierCurve(points=(p1, p2), zetas=(0.0, 1.0), tolerance=1e-4)  # value rises
    p3 = cf.TradeoffPoint(energy=1.0, value=1.5, delta=0.0)
    with pytest.raises(ValueError):
        FrontierCurve(points=(p1, p3), zetas=(0.0, 1.0), tolerance=1e-4)  # energy ties
    with pytest.raises(ValueError):
        FrontierCurve(points=(p1,), zetas=(0.0, 1.0), tolerance=1e-4)  # one weight per point


def test_selection_rule_is_lagrangian_optimal_on_toy_model():
    """Exhaustive per-state check of the threshold selection rule.

    On a discretized two-relay model the policy maximizing
    mean F + zeta * mean energy decomposes state by state; the maximizer
    must coincide with the sign rule, and no single-state deviation may
    raise mean F without lowering mean energy.
    """
    snr_levels = (0.2, 0.8, 1.5, 3.0)
    energy_levels = (0.1, 0.5, 1.2, 2.5)
    threshold = 1.0
    states = toy_model_states(snr_levels, energy_levels)

    def metric(snr):
        return 1.0 if snr > threshold else 0.0

    for zeta in np.logspace(-2, 2, 5):
        zeta = float(zeta)
        rule_choice = []
        for g1, g2, e1, e2 in states:
            lagrangian_first = metric(g1) + zeta * e1
            lagrangian_second = metric(g2) + zeta * e2
            brute = 0 if lagrangian_first >= lagrangian_second else 1
            rule = 0 if (metric(g1) - metric(g2)) >= zeta * (e2 - e1) else 1
            assert brute == rule
            rule_choice.append(rule)
        mean_f = np.mean([metric(s[0]) if c == 0 else metric(s[1])
                          for s, c in zip(states, rule_choice)])
        mean_e = np.mean([s[2] if c == 0 else s[3] for s, c in zip(states, rule_choice)])
        for state, choice in zip(states, rule_choice):
            flip = 1 - choice
            df = (metric(state[flip]) - metric(state[choice])) / len(states)
            de = (state[2 + flip] - state[2 + choice]) / len(states)
            if df > 1e-12:
                assert de < -1e-12, (state, df, de)
        assert 0.0 <= mean_f <= 1.0 and mean_e > 0.0
