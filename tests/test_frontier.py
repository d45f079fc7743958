import math
import statistics
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from conftest import (assert_meets_target, held_state, spy_on_capacities, spy_on_kernel,
                      toy_model_states)


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


@pytest.mark.parametrize("metric", [Metric.CAPACITY, Metric.OUTAGE_INDICATOR])
def test_a_target_within_the_band_below_the_floor_gives_zero(metric):
    config = SystemConfig(2, 2.0, 1.0, 1.0)
    floor = 1.0 if metric is Metric.CAPACITY else cf.pareto_outage_energy_min(config)
    band = frontier._SOLVER_BAND * config.mean_energy
    assert solve_zeta_for_energy(config, floor - 0.5 * band, metric) == 0.0
    with pytest.raises(ValueError, match=rf"\[{floor - band!r}, 1.5\) or within"):
        solve_zeta_for_energy(config, floor - 1.5 * band, metric)


def test_a_factor_just_below_one_is_solved_below_the_ceiling():
    """energy_from_delta rounds 1 - 2**-53 up to 1.5 * eps, the best-energy limit that
    no finite weight reaches; the factor's weight is solved just below it instead."""
    config = SystemConfig(2, 1.0, 1.0, 1.0)
    delta = math.nextafter(1.0, 0.0)
    assert cf.energy_from_delta(config, delta) == 1.5
    for metric in Metric:
        assert 0.0 < zeta_for_delta(config, delta, metric) < math.inf
    curve = capacity_frontier(config, [0.5, delta])
    target = frontier._energy_target(config, delta)
    assert_meets_target(config, Metric.CAPACITY, target, curve.zetas[1])
    assert curve.points[1].energy == pytest.approx(1.5, abs=1e-4)


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
    # nothing is held after the call: a repeat evaluates every rung again, to the same bits
    first = dict(integral_calls)
    assert capacity_frontier(config) == curve
    assert integral_calls == Counter({key: 2 for key in first})


# Kernel calls of a default 21-point frontier, as the warm-started walk makes
# them; a process-wide memo that shared every (weight, ladder step) between
# bisection solves made 125-191, 1,572 in all.  The walk must not need more.
# None: the energy integral does not certify, and the frontier refuses.
_MEMO_KERNEL_CALLS = {
    (-10.0, 1e-3): 70, (-10.0, 1.0): 71, (-10.0, 1e3): 70,
    (0.0, 1e-3): 63, (0.0, 1.0): 59, (0.0, 1e3): 76,
    (10.0, 1e-3): 64, (10.0, 1.0): 62, (10.0, 1e3): 81,
    (20.0, 1e-3): 67, (20.0, 1.0): 70, (20.0, 1e3): None,
}


@pytest.mark.parametrize("snr_db, eps", sorted(_MEMO_KERNEL_CALLS))
def test_frontier_makes_no_more_kernel_calls_than_a_shared_memo(snr_db, eps, monkeypatch):
    steps = Counter()
    spy_on_kernel(monkeypatch, lambda scenario, zeta, rungs: steps.update([(zeta, rungs)]))
    config = SystemConfig(2, snr_from_db(snr_db), eps, 1.0)
    if _MEMO_KERNEL_CALLS[snr_db, eps] is None:
        with pytest.raises(ToleranceNotMetError, match="energy integral did not reach"):
            capacity_frontier(config)
    else:
        capacity_frontier(config)
        assert sum(steps.values()) <= _MEMO_KERNEL_CALLS[snr_db, eps]
    assert max(steps.values()) == 1


def test_a_lone_capacity_solve_makes_a_median_of_at_most_seven_kernel_calls(monkeypatch):
    """Over N = 2, -10..20 dB and 19 factors in 0.05..0.95 (bisection made a
    median of 12, from 4 to 18), each solve from a cold bracket."""
    calls = []
    spy_on_kernel(monkeypatch, lambda *_: calls.append(1))
    counts = []
    for snr_db in range(-10, 25, 5):
        for delta in np.linspace(0.05, 0.95, 19):
            del calls[:]
            zeta_for_delta(SystemConfig(2, snr_from_db(snr_db), 1.0, 1.0), delta, Metric.CAPACITY)
            counts.append(len(calls))
    assert len(counts) == 133 and statistics.median(counts) <= 7 and max(counts) <= 12


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("eps", [1e-3, 10.0**0.5, 100.0])
@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_a_target_at_the_edge_of_the_floor_band_snaps_is_solved_or_is_refused(
        metric, eps, side, ulps):
    """floor - band and floor + band, as computed in floats, and one ulp either side of
    each: zeta = 0 within the band of the floor, a weight meeting the target, or ValueError."""
    config = SystemConfig(2, snr_from_db(0.0), eps, 1.0)
    floor = eps if metric is Metric.CAPACITY else cf.pareto_outage_energy_min(config)
    edge = floor + side * frontier._SOLVER_BAND * eps
    target = math.nextafter(edge, edge + ulps)  # one ulp toward edge + ulps, or none
    try:
        zeta = solve_zeta_for_energy(config, target, metric)
    except ValueError:
        return
    assert_meets_target(config, metric, target, zeta)


def _spy_on_weights(patch, metric):
    """The weights at which the walk's forward map is evaluated from now on, counted:
    the capacity kernel's ladder steps, or the outage energy's calls."""
    weights = Counter()
    if metric is Metric.CAPACITY:
        spy_on_kernel(patch, lambda scenario, zeta, rungs: weights.update([(zeta, rungs)]))
    else:
        energy = frontier.pareto_outage_energy
        patch.setattr(frontier, "pareto_outage_energy",
                      lambda config, zeta: weights.update([zeta]) or energy(config, zeta))
    return weights


@settings(max_examples=40, deadline=None)
@given(
    snr_db=st.floats(-10.0, 15.0),
    eps=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    metric=st.sampled_from(Metric),
    # fractions of the policy's energy range: the first strategy lands within the
    # solver band above the floor, the second anywhere, in brackets from (0, 1] up
    fractions=st.lists(st.one_of(st.floats(0.0, 2e-4), st.floats(0.0, 0.999)),
                       min_size=1, max_size=5),
    repeats=st.integers(0, 2),
    deltas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
# targets just past the band above the floor, where floor + band rounds up past them
@example(snr_db=0.0, eps=10.0**0.5, metric=Metric.CAPACITY, fractions=[2e-4], repeats=0,
         deltas=[0.0])
@example(snr_db=0.0, eps=100.0, metric=Metric.CAPACITY, fractions=[0.00019999999999999998],
         repeats=0, deltas=[0.0])
def test_one_walk_meets_each_target_within_the_band_evaluating_each_weight_once(
        snr_db, eps, metric, fractions, repeats, deltas):
    config = SystemConfig(2, snr_from_db(snr_db), eps, 1.0)
    floor = eps if metric is Metric.CAPACITY else cf.pareto_outage_energy_min(config)
    # unsorted, with repeats
    targets = [floor + f * (1.5 * eps - floor) for f in fractions]
    targets += targets[:repeats]
    with pytest.MonkeyPatch.context() as patch:
        weights = _spy_on_weights(patch, metric)
        walked = dict(frontier._walk(config, targets, metric))
    assert sorted(walked) == list(range(len(targets)))
    assert not weights or max(weights.values()) == 1
    for i, target in enumerate(targets):
        assert_meets_target(config, metric, target, walked[i])
    # both frontiers, on a sorted grid whose targets lie more than two solver bands apart
    delta_lo = 0.0 if metric is Metric.CAPACITY else cf.delta_range_outage(config)[0]
    grid = []
    for delta in sorted(delta_lo + d * (1.0 - delta_lo) for d in deltas):
        if not grid or delta - grid[-1] > 5e-4:
            grid.append(delta)
    build = capacity_frontier if metric is Metric.CAPACITY else outage_frontier
    with pytest.MonkeyPatch.context() as patch:
        steps = _spy_on_weights(patch, Metric.CAPACITY)
        curve = build(config, grid)
    # each (weight, ladder step) integrated once, by the walk or by the point at its weight
    assert not steps or max(steps.values()) == 1
    for delta, zeta in zip(grid, curve.zetas):
        if delta == 1.0:
            assert zeta == math.inf
        else:
            assert_meets_target(config, metric, frontier._energy_target(config, delta), zeta)


@settings(max_examples=300, deadline=None)
@given(
    # kinks at least 0.01 apart: the map stays continuous, at a slope of at most 50
    knots=st.lists(st.tuples(st.integers(1, 5000), st.floats(0.0, 1.0)), min_size=1, max_size=8,
                   unique_by=lambda knot: knot[0]),
    fraction=st.floats(0.01, 0.99),
)
def test_a_bracket_four_steps_do_not_halve_is_bisected(knots, fraction):
    """On a piecewise-linear energy map, whose kinks slow regula falsi, the bracket
    before each step inside it, rebuilt from the samples before that step, is at most
    half the one five steps earlier, and the solve meets its target."""
    xs = [0.0] + sorted(x / 100 for x, _ in knots) + [1e9]
    ys = [1.0] + sorted(1.0 + 0.4999 * y for _, y in knots) + [1.49995]
    target, band = 1.0 + 0.5 * fraction, frontier._SOLVER_BAND

    def energy(zeta):
        return float(np.interp(zeta, xs, ys))
    zetas = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frontier, "pareto_outage_energy_min", lambda config: 1.0)
        patch.setattr(frontier, "pareto_outage_energy",
                      lambda config, zeta: zetas.append(zeta) or energy(zeta))
        config = SystemConfig(2, 10.0, 1.0, 1.0)
        zeta = solve_zeta_for_energy(config, target, Metric.OUTAGE_INDICATOR)
    assert zeta == zetas[-1] and abs(energy(zeta) - target) < band
    widths = []
    for k in range(len(zetas)):
        known = [(0.0, 1.0)] + [(z, energy(z)) for z in zetas[:k]]
        above = [z for z, e in known if e >= target + band]
        if above:
            widths.append(min(above) - max(z for z, e in known if e <= target - band))
    assert all(later <= 0.5 * earlier for earlier, later in zip(widths, widths[5:]))


def test_a_target_the_forward_map_jumps_over_stalls_by_name(monkeypatch):
    """The walk yields the weight of a target it meets, then names the first of
    those whose bracket shrinks to a point without meeting them."""
    monkeypatch.setattr(frontier, "pareto_outage_energy_min", lambda config: 1.0)
    monkeypatch.setattr(frontier, "pareto_outage_energy",
                        lambda config, zeta: 1.1 if zeta < 0.3 else 1.4)
    config = SystemConfig(2, 10.0, 1.0, 1.0)
    walk = frontier._walk(config, [1.3, 1.1, 1.25], Metric.OUTAGE_INDICATOR)
    index, zeta = next(walk)
    assert index == 1 and abs(frontier.pareto_outage_energy(config, zeta) - 1.1) < 1e-4
    with pytest.raises(ToleranceNotMetError, match="stalled solving for energy 1.25$"):
        next(walk)


def test_no_array_outlives_a_frontier_call(grid_builds, monkeypatch):
    """Gap grids, damping arrays and the scenario itself go with the call that made them."""
    refs = []
    exp = np.exp

    def spy_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        if isinstance(out, np.ndarray):
            refs.append(weakref.ref(out))
        return out

    # the scenario each kernel call reads, the one the running call holds
    spy_on_kernel(monkeypatch, lambda scenario, *_: refs.append(weakref.ref(scenario)))
    monkeypatch.setattr(np, "exp", spy_exp)
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    for call in (lambda: capacity_frontier(config),
                 lambda: solve_zeta_for_energy(config, 1.2, Metric.CAPACITY),
                 lambda: pareto_capacity_point(config, 0.7)):
        del refs[:], grid_builds[:]
        call()
        assert grid_builds and len(refs) > 1
        assert not [ref for *_, grid_refs in grid_builds for ref in grid_refs if ref() is not None]
        assert not [ref for ref in refs if ref() is not None]
        assert not frontier._live_scenarios


def _count_exps(monkeypatch):
    """Sizes of the arrays np.exp is called on from now on."""
    sizes = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    return sizes


def test_a_point_reuses_the_rungs_its_solve_integrated(integral_calls, monkeypatch):
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    held = frontier._scenario(config)  # what the calls below share while the test holds it
    zeta = zeta_for_delta(config, 0.5, Metric.CAPACITY)
    solved = dict(integral_calls)
    exps = _count_exps(monkeypatch)
    point = pareto_capacity_point(config, zeta)
    assert (config, zeta, *frontier._GL_LADDER[0]) in solved
    # the capacities are computed from the damping array the solve held
    assert exps == [] and dict(integral_calls) == solved
    del held  # the scenario goes; a point integrates again, to the same bits
    assert pareto_capacity_point(config, zeta) == point and exps


def test_a_held_damping_array_serves_only_its_own_weight(monkeypatch):
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    held = frontier._scenario(config)
    zetas = [solve_zeta_for_energy(config, energy, Metric.CAPACITY) for energy in (1.2, 1.3)]
    exps = _count_exps(monkeypatch)
    # the array held is the second solve's: the first weight's point exponentiates again
    last = pareto_capacity_point(config, zetas[1])
    assert exps == []
    first = pareto_capacity_point(config, zetas[0])
    assert exps
    assert [pareto_capacity_point(config, z) for z in zetas] == [first, last]
    # another config's solve in between has its own scenario and leaves this one alone
    solve_zeta_for_energy(SystemConfig(2, snr_from_db(20.0), 1.0, 1.0), 1.2, Metric.CAPACITY)
    del exps[:]
    assert pareto_capacity_point(config, zetas[1]) == last and exps == []
    del held
    assert [pareto_capacity_point(config, z) for z in zetas] == [first, last]


def _kernel_integrals(config, zeta, rungs):
    """Each rung's (energy, capacity) from one kernel call on the scenario ``config``
    resolves to, the capacities from the read-only damping array it returns."""
    scenario = frontier._scenario(config)
    energies, damp = frontier._capacity_policy_integrals(scenario, zeta, rungs)
    assert not damp.flags.writeable
    return tuple(zip(energies, scenario.capacities(rungs, damp)))


@settings(max_examples=300, deadline=None)
@given(
    snr_db=st.floats(-20.0, 60.0),
    eps=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    zeta=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
    step=st.sampled_from(frontier._LADDER_STEPS),
)
def test_integrals_are_bit_identical_to_the_one_expression_form(snr_db, eps, zeta, step):
    config = SystemConfig(2, snr_from_db(snr_db), eps, 1.0)
    other = SystemConfig(2, snr_from_db(snr_db) * 2.0, eps, 1.0)
    expected = {cfg: tuple(oracles.capacity_policy_integrals(cfg, zeta, *rung) for rung in step)
                for cfg in (config, other)}
    # builds the grids, reuses those of the scenario the test holds, builds another
    # config's, and builds them again once the test lets its scenario go; each rung of
    # a step has its own bits
    held = frontier._scenario(config)
    for cfg in (config, config, other, config):
        assert _kernel_integrals(cfg, zeta, step) == expected[cfg]
    del held
    assert _kernel_integrals(config, zeta, step) == expected[config]


def _assert_finished_capacities_keep_their_bits(config, zeta):
    """A solve step, held as its energies and damping array, then a point at its
    weight, whose capacities come from that array, give the bits of the
    one-expression form on both rungs of the first step."""
    first = frontier._LADDER_STEPS[0]
    expected = tuple(oracles.capacity_policy_integrals(config, zeta, *rung) for rung in first)
    scenario = frontier._scenario(config)
    assert frontier._certified_integrals(scenario, zeta, math.inf, 1) == expected[1][:1]
    held, steps, arrays = held_state(scenario)
    assert held == zeta and steps == {first: tuple(e for e, _ in expected)}
    damp, finished = arrays[-1], []
    with pytest.MonkeyPatch.context() as patch:
        exps = _count_exps(patch)
        spy_on_capacities(patch, lambda _, rungs, array, caps:
                          finished.append((rungs, array is damp, caps)))
        assert frontier._certified_integrals(scenario, zeta, math.inf, 2) == expected[1]
    assert exps == [] and finished == [(first, True, [c for _, c in expected])]


@settings(max_examples=200, deadline=None)
@given(
    snr_db=st.floats(-20.0, 60.0),
    eps=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    zeta=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
)
def test_a_capacity_finished_from_the_held_damping_array_keeps_its_bits(snr_db, eps, zeta):
    _assert_finished_capacities_keep_their_bits(SystemConfig(2, snr_from_db(snr_db), eps, 1.0),
                                                zeta)


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
    for step in frontier._LADDER_STEPS:
        assert (_kernel_integrals(config, 1e-301, step)
                == tuple(oracles.capacity_policy_integrals(config, 1e-301, *rung) for rung in step))
    _assert_finished_capacities_keep_their_bits(config, 1e-301)


def test_cached_nodes_and_grids_are_read_only():
    config = SystemConfig(2, 10.0, 1.0, 1.0)
    scenario = frontier._scenario(config)  # the calls below share it while the test holds it
    pareto_capacity_point(config, 1.0)
    solve_zeta_for_energy(config, 1.2, Metric.CAPACITY)
    held = held_state(scenario)[2]
    nodes = [array for rung in frontier._GL_LADDER for array in frontier._rung_nodes(*rung)]
    nodes += [frontier._step_weights(rungs) for rungs in scenario.grids]
    assert len(held) > 1 and len(nodes) == 4 * len(frontier._GL_LADDER) + len(scenario.grids)
    for array in held + nodes:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_held_integrals_stay_within_their_bound(integral_calls):
    """A scenario holds the integrals of one weight, at most one entry per ladder step."""
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    scenario = frontier._scenario(config)
    zetas = [0.25 * k for k in range(1, 9)]
    points = []
    for zeta in zetas * 2:
        points.append(pareto_capacity_point(config, zeta))
        held, steps, _ = held_state(scenario)
        assert held == zeta and 0 < len(steps) <= len(frontier._LADDER_STEPS)
    assert frontier._scenario(config) is scenario
    # the second pass evaluates again what the next weight replaced, to the same bits
    assert max(integral_calls.values()) == 2
    assert points[len(zetas):] == points[:len(zetas)]


def test_held_arrays_stay_within_the_rungs_and_one_damping_array():
    """The first two rungs live only in their step's concatenated grid, and
    the scenario holds a damping array per step of its last weight, none once
    a weight no rung certifies is refused: with the config-independent step
    weights, a 10 dB frontier holds no more than a gap grid and its half per
    rung (184,320 B over two rungs) plus one damping array, and a refused
    30 dB frontier no more than those of all four rungs (921,600 B)."""
    def held_bytes(scenario):
        arrays = held_state(scenario)[2]
        arrays += [frontier._step_weights(rungs) for rungs in scenario.grids]
        assert all(array.base is None for array in arrays)  # no views of other arrays
        return len(scenario.grids), sum(array.nbytes for array in arrays)

    damping = 11_520 * 8
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    scenario = frontier._scenario(config)  # the frontier call shares it while the test holds it
    capacity_frontier(config)
    steps, size = held_bytes(scenario)
    assert steps == 1 and size <= 184_320 + damping
    config = SystemConfig(2, snr_from_db(30.0), 1.0, 1.0)
    scenario = frontier._scenario(config)
    with pytest.raises(ToleranceNotMetError):
        capacity_frontier(config)
    steps, size = held_bytes(scenario)
    assert steps == 3 and size <= 921_600


def test_a_weight_solve_computes_no_capacity(monkeypatch):
    """Only a point reads capacities: a solve, met or refused, computes none."""
    calls = []
    spy_on_capacities(monkeypatch, lambda *args: calls.append(args[1]))
    outcomes = set()
    for snr_db in (10.0, 20.0, 25.0, 30.0):
        for eps in (1.0, 1e3):
            config = SystemConfig(2, snr_from_db(snr_db), eps, 1.0)
            for target in (1.05, 1.25, 1.45):
                try:
                    solve_zeta_for_energy(config, target * eps, Metric.CAPACITY)
                    outcomes.add("met")
                except ToleranceNotMetError:
                    outcomes.add("refused")
    assert outcomes == {"met", "refused"} and calls == []


def test_frontier_builds_each_grid_once(grid_builds, monkeypatch):
    cmax_calls = Counter()
    c_max = frontier.c_max

    def count(config):
        cmax_calls[config] += 1
        return c_max(config)

    monkeypatch.setattr(frontier, "c_max", count)
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)

    def built():
        steps = Counter(rungs for _, rungs, _ in grid_builds)
        assert steps and max(steps.values()) == 1 and set(steps) <= set(frontier._LADDER_STEPS)
        del grid_builds[:]
        return set(steps)

    # one call: each grid once, and c_max once for its scenario and once for delta = 0
    capacity_frontier(config)
    built()
    assert cmax_calls == Counter({config: 2})
    # calls that share a scenario the test holds: each grid and c_max once over all of them
    cmax_calls.clear()
    held = frontier._scenario(config)
    zeta = solve_zeta_for_energy(config, 1.2, Metric.CAPACITY)
    for z in (zeta, 1.0, 2.0, zeta):
        pareto_capacity_point(config, z)
    capacity_frontier(config, [0.25, 0.5, 0.75])
    assert built() and cmax_calls == Counter({config: 1})
    # the best-SNR point reads c_max directly and builds nothing
    del held
    pareto_capacity_point(config, 0.0)
    assert not grid_builds and cmax_calls == Counter({config: 2})


def test_outage_frontier_succeeds_or_names_its_narrow_range(monkeypatch):
    """The default grid answers at every mean SNR: where the policy's energy
    range is narrow it takes fewer points, at least two solver bands apart;
    an explicit grid whose targets collide gets the error that names the range."""
    band, walk, walked = frontier._SOLVER_BAND, frontier._walk, []
    monkeypatch.setattr(frontier, "_walk", lambda *args: walked.append(args[1]) or walk(*args))
    counts = []
    for snr_db in np.arange(-30.0, 60.25, 0.5):
        config = SystemConfig(2, snr_from_db(snr_db), 1.0, 1.0)
        curve = outage_frontier(config)
        assert curve.zetas[-1] == math.inf and curve.tolerance == band
        targets = walked.pop() + [1.5]  # delta = 1 needs no solve
        assert len(targets) <= 2 or all(b - a >= 2 * band * (1 - 1e-9)
                                        for a, b in zip(targets, targets[1:]))
        counts.append(len(curve.points))
    assert len(counts) == 181 and max(counts) == 21 and min(counts) == 1
    # the full grid wherever it fits, as in -4..26.5 dB
    assert counts[int((-4.0 + 30.0) * 2):int((26.5 + 30.0) * 2) + 1] == [21] * 62
    with pytest.raises(ValueError, match="targets lie 0 apart"):
        outage_frontier(SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0), [0.6, 0.6])


def test_outage_frontier_refuses_a_delta_below_its_feasible_bound():
    config = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)  # feasible deltas [0.5, 1]
    with pytest.raises(ValueError, match="delta 0.25 below the feasible lower bound 0.5 "):
        outage_frontier(config, [0.25, 1.0])


def test_capacity_frontier_names_a_collision():
    """Targets within twice the solver band end in the error that names the
    policy's energy range, the target spacing and the band, as on the outage
    frontier, not in FrontierCurve's generic check."""
    config = SystemConfig(2, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=(
            r"^capacity frontier points 0 and 1 are not increasing in energy: the policy's "
            r"energy range \[1\.0, 1\.5\] is too narrow for this grid, whose targets lie "
            r"5e-10 apart, within twice the weight solver's band of 0\.0001 ")):
        capacity_frontier(config, [0.5, 0.5 + 1e-9])


def test_both_frontiers_solve_and_evaluate_through_module_names(monkeypatch):
    """Each frontier takes one ``_walk`` over its factors below 1 and one point
    call per point, looked up in the module at call time, so a wrapper of those
    names sees every weight and every point."""
    calls, walked = Counter(), []
    for name in ("_walk", "pareto_capacity_point", "pareto_no_outage"):
        def spy(*args, _name=name, _original=getattr(frontier, name), **kwargs):
            calls[_name] += 1
            if _name == "_walk":
                walked.append(len(args[1]))
            return _original(*args, **kwargs)
        monkeypatch.setattr(frontier, name, spy)
    capacity_frontier(SystemConfig(2, 10.0, 1.0, 1.0), [0.0, 0.5, 1.0])
    assert calls == Counter(_walk=1, pareto_capacity_point=3) and walked == [2]
    outage_frontier(SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0), [0.6, 0.8])
    assert calls == Counter(_walk=2, pareto_capacity_point=3, pareto_no_outage=2)
    assert walked == [2, 2]


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
