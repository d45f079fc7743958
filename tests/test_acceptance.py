"""Acceptance gate: one test per acceptance criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion; each test also prints an explicit PASS line on success.
"""

import math
import time

import numpy as np
import pytest

import relayswipt.closedform as cf
from relayswipt.cli import main
from relayswipt.frontier import (
    capacity_frontier,
    outage_frontier,
    pareto_capacity_point,
)
from relayswipt.model import SystemConfig, snr_from_db
from relayswipt.schemes import (
    Metric,
    ParetoOptimal,
    ThresholdChecking,
    TimeSharing,
    WeightedDifference,
)
from relayswipt.simulate import MonteCarloConfig, run

from conftest import loglog_slope, toy_model_states

SEED = 20240601
FRAMES = 10_000_000
BATCH = 500_000


def _report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {text}")


def _within(estimate, truth, sigmas=3.0):
    return abs(estimate.mean - truth) <= sigmas * estimate.std_error


# ---------------------------------------------------------------------------


def test_criterion_1_closed_forms_match_monte_carlo():
    """Every closed form agrees with 1e7-frame MC within 3 standard errors."""
    start = time.time()
    failures = []

    def check(label, estimate, truth):
        if not _within(estimate, truth):
            z = abs(estimate.mean - truth) / estimate.std_error
            failures.append(f"{label}: z={z:.2f}")

    for n_relays in (2, 3):
        cfg = SystemConfig(n_relays, 10.0, 1.0, 1.0)
        for delta in (0.25, 0.5, 0.8):
            energy = cf.energy_from_delta(cfg, delta)
            mc = MonteCarloConfig(FRAMES, SEED, BATCH)

            r = run(cfg, TimeSharing(mu=cf.mu_from_energy(cfg, energy)), mc)
            check(f"ts N={n_relays} d={delta} cap", r.capacity, cf.c_ts(cfg, energy))
            check(f"ts N={n_relays} d={delta} en", r.energy, energy)
            check(f"ts N={n_relays} d={delta} out", r.outage, cf.outage_ts(cfg, delta))

            r = run(cfg, ThresholdChecking(tau=cf.tau_from_energy(cfg, energy)), mc)
            check(f"tc N={n_relays} d={delta} cap", r.capacity, cf.c_tc(cfg, energy))
            check(f"tc N={n_relays} d={delta} en", r.energy, energy)
            check(f"tc N={n_relays} d={delta} out", r.outage, cf.outage_tc(cfg, delta))

            if n_relays == 2:
                r = run(cfg, WeightedDifference(nu=cf.nu_from_energy(cfg, energy)), mc)
                check(f"wd d={delta} cap", r.capacity, cf.c_wd(cfg, energy))
                check(f"wd d={delta} en", r.energy, energy)
                check(f"wd d={delta} out", r.outage, cf.outage_wd(cfg, delta))

    pareto_cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    for zeta in (0.1, 1.0, 10.0):
        scheme = ParetoOptimal(zeta=zeta, metric=Metric.OUTAGE_INDICATOR)
        r = run(pareto_cfg, scheme, MonteCarloConfig(FRAMES, SEED, BATCH))
        check(f"pareto z={zeta} en", r.energy, cf.pareto_outage_energy(pareto_cfg, zeta))
        truth_out = 1.0 - cf.pareto_no_outage(pareto_cfg, zeta)
        check(f"pareto z={zeta} out", r.outage, truth_out)

    elapsed = time.time() - start
    assert not failures, failures
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds the 5 minute target"
    _report(1, f"51 closed-form/MC agreements at 1e7 frames in {elapsed:.0f}s")


def test_criterion_2_round_trip_inversions():
    """mu/tau/nu/delta forward-inverse compositions are identity to 1e-10."""
    for gbar, n_relays in ((10.0, 2), (100.0, 2), (10.0, 3)):
        cfg = SystemConfig(n_relays, gbar, 1.0, 1.0)
        lo, hi = cf.energy_bounds(cfg)
        for energy in np.linspace(lo + 1e-9, hi - 1e-9, 50):
            energy = float(energy)
            delta = cf.delta_from_energy(cfg, energy)
            assert cf.energy_from_delta(cfg, delta) == pytest.approx(energy, rel=1e-10)
            mu = cf.mu_from_energy(cfg, energy)
            assert mu == pytest.approx(1.0 - delta, rel=1e-10, abs=1e-12)
            tau = cf.tau_from_energy(cfg, energy)
            assert cf.energy_tc_of_tau(cfg, tau) == pytest.approx(energy, rel=1e-10)
            if n_relays == 2:
                nu = cf.nu_from_energy(cfg, energy)
                assert cf.energy_wd_of_nu(cfg, nu) == pytest.approx(energy, rel=1e-10)
    _report(2, "mu/tau/nu/delta round trips at 1e-10 on 50-point grids")


def test_criterion_3_tradeoff_shapes():
    """c_ts affine, c_tc and c_wd concave, and wd >= tc >= ts pointwise."""
    for gbar in (10.0, 100.0):
        cfg = SystemConfig(2, gbar, 1.0, 1.0)
        energies = np.linspace(1.0, 1.5, 50)
        ts = np.array([cf.c_ts(cfg, float(e)) for e in energies])
        tc = np.array([cf.c_tc(cfg, float(e)) for e in energies])
        wd = np.array([cf.c_wd(cfg, float(e)) for e in energies])
        assert np.all(np.abs(np.diff(ts, 2)) <= 1e-9 * ts.max())
        assert np.all(np.diff(tc, 2) <= 1e-9)
        assert np.all(np.diff(wd, 2) <= 1e-9)
        assert np.all(wd >= tc - 1e-12)
        assert np.all(tc >= ts - 1e-12)
    _report(3, "affine/concave shapes and wd >= tc >= ts at 10 and 20 dB")


def test_criterion_4_boundary_values():
    """All schemes coincide at both ends of the energy range."""
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    cmx, cmn = cf.c_max(cfg), cf.c_min(cfg)
    p1 = 1.0 - math.exp(-2.0 * cfg.outage_threshold / cfg.mean_snr)
    lo, hi = cf.energy_bounds(cfg)
    assert (lo, hi) == (1.0, 1.5)

    for curve in (cf.c_ts, cf.c_tc, cf.c_wd):
        assert curve(cfg, lo) == pytest.approx(cmx, rel=1e-6)
        assert curve(cfg, hi) == pytest.approx(cmn, rel=1e-6)
    for curve in (cf.outage_ts, cf.outage_tc, cf.outage_wd):
        assert curve(cfg, 0.0) == pytest.approx(p1**2, rel=1e-6)
        assert curve(cfg, 1.0) == pytest.approx(p1, rel=1e-6)

    mc = MonteCarloConfig(1_000_000, seed=99, batch_size=100_000)
    at_floor = [
        TimeSharing(mu=1.0),
        ThresholdChecking(tau=0.0),
        WeightedDifference(nu=0.0),
        ParetoOptimal(zeta=0.0, metric=Metric.CAPACITY),
    ]
    for scheme in at_floor:
        r = run(cfg, scheme, mc)
        assert _within(r.capacity, cmx)
        assert _within(r.energy, lo)
        assert _within(r.outage, p1**2)
    at_ceiling = [
        TimeSharing(mu=0.0),
        ThresholdChecking(tau=math.inf),
        WeightedDifference(nu=math.inf),
        ParetoOptimal(zeta=math.inf, metric=Metric.CAPACITY),
    ]
    for scheme in at_ceiling:
        r = run(cfg, scheme, mc)
        assert _within(r.capacity, cmn)
        assert _within(r.energy, hi)
        assert _within(r.outage, p1)
    _report(4, "boundary capacities, outages and energies (analytic + MC)")


def test_criterion_5_asymptotics_and_diversity_slopes():
    """High-SNR laws: 5% asymptotic accuracy at 30 dB; slopes -1 and -2."""
    delta = 0.5
    cfg = SystemConfig(2, 1000.0, 1.0, 1.0)
    exact = {
        "ts": cf.outage_ts(cfg, delta),
        "tc": cf.outage_tc(cfg, delta),
        "wd": cf.outage_wd(cfg, delta),
    }
    for scheme, value in exact.items():
        ratio = value / cf.asymptotic_outage(scheme, cfg, delta)
        assert abs(ratio - 1.0) < 0.05, (scheme, ratio)

    ratios = np.array([100.0, 10.0**2.5, 1000.0])
    frames = (1_000_000, 3_000_000, 10_000_000)
    for name in ("ts", "tc", "wd"):
        outages = []
        for ratio, n_frames in zip(ratios, frames):
            point_cfg = SystemConfig(2, float(ratio), 1.0, 1.0)
            energy = cf.energy_from_delta(point_cfg, delta)
            scheme = {
                "ts": TimeSharing(mu=cf.mu_from_energy(point_cfg, energy)),
                "tc": ThresholdChecking(tau=cf.tau_from_energy(point_cfg, energy)),
                "wd": WeightedDifference(nu=cf.nu_from_energy(point_cfg, energy)),
            }[name]
            r = run(point_cfg, scheme, MonteCarloConfig(n_frames, seed=11, batch_size=BATCH))
            outages.append(r.outage.mean)
        slope = loglog_slope(ratios, outages)
        assert abs(slope - (-1.0)) < 0.1, (name, slope)

    # interior-weight Pareto policy keeps both diversity branches active
    pareto_frames = (10_000_000, 30_000_000, 200_000_000)
    outages = []
    for ratio, n_frames in zip(ratios, pareto_frames):
        point_cfg = SystemConfig(2, float(ratio), 1.0, 1.0)
        scheme = ParetoOptimal(zeta=0.05, metric=Metric.OUTAGE_INDICATOR)
        r = run(point_cfg, scheme, MonteCarloConfig(n_frames, seed=11, batch_size=1_000_000))
        outages.append(r.outage.mean)
    slope = loglog_slope(ratios, outages)
    assert abs(slope - (-2.0)) < 0.15, slope
    _report(5, f"asymptotic ratios within 5%; slopes -1 (ts/tc/wd) and {slope:.2f} (pareto)")


def test_criterion_6_reported_value_spot_checks():
    """Known scenario constants: H2 bound, delta range, 3 dB gap, crossover."""
    # harmonic bound at two relays
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    assert cf.energy_bounds(cfg)[1] == pytest.approx(1.5, abs=0.0)

    # geometry that makes the outage Pareto range start exactly at one half
    special = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    assert cf.delta_range_outage(special)[0] == pytest.approx(0.5, abs=1e-12)

    # high-SNR horizontal gap between the max and min capacity curves
    gbar = snr_from_db(30.0)
    target = cf.c_max(SystemConfig(2, gbar, 1.0, 1.0))
    lo, hi = 1.0, 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cf.c_min(SystemConfig(2, gbar * mid, 1.0, 1.0)) < target:
            lo = mid
        else:
            hi = mid
    gap_db = 10.0 * math.log10(0.5 * (lo + hi))
    assert abs(gap_db - 3.0) <= 0.5, gap_db

    # the time-sharing / threshold-checking outage crossover sits near 5 dB
    def outage_gap(ratio_db):
        point = SystemConfig(2, snr_from_db(ratio_db), 1.0, 1.0)
        return cf.outage_ts(point, 0.5) - cf.outage_tc(point, 0.5)

    lo_db, hi_db = 2.0, 10.0
    assert outage_gap(lo_db) > 0.0 and outage_gap(hi_db) < 0.0
    for _ in range(60):
        mid_db = 0.5 * (lo_db + hi_db)
        if outage_gap(mid_db) > 0.0:
            lo_db = mid_db
        else:
            hi_db = mid_db
    crossover_db = 0.5 * (lo_db + hi_db)
    assert abs(crossover_db - 5.0) <= 1.0, crossover_db
    _report(
        6,
        f"H2 bound 1.5, delta_lo 0.5, gap {gap_db:.2f} dB, crossover {crossover_db:.2f} dB",
    )


def test_criterion_7_pareto_dominance():
    """Numerical frontiers dominate every scheme curve pointwise."""
    cfg = SystemConfig(2, snr_from_db(20.0), 1.0, 1.0)
    curve = capacity_frontier(cfg, np.linspace(0.0, 1.0, 21))
    zero = pareto_capacity_point(cfg, 0.0)
    assert zero.energy == pytest.approx(cfg.mean_energy, abs=1e-4)
    assert zero.value == pytest.approx(cf.c_max(cfg), abs=1e-4)
    for point in curve.points:
        energy = min(point.energy, 1.5)
        for scheme_curve in (cf.c_ts, cf.c_tc, cf.c_wd):
            assert point.value >= scheme_curve(cfg, energy) - 1e-3

    out_cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    delta_lo, _ = cf.delta_range_outage(out_cfg)
    out_curve = outage_frontier(out_cfg, np.linspace(delta_lo, 1.0, 21))
    for point in out_curve.points:
        for scheme_outage in (cf.outage_ts, cf.outage_tc, cf.outage_wd):
            assert point.value >= (1.0 - scheme_outage(out_cfg, point.delta)) - 1e-3
    _report(7, "capacity and no-outage frontiers dominate all scheme curves")


def test_criterion_8_toy_model_optimality():
    """Per-state exhaustive maximization matches the selection sign rule."""
    snr_levels = (0.2, 0.8, 1.5, 3.0)
    energy_levels = (0.1, 0.5, 1.2, 2.5)
    threshold = 1.0
    states = toy_model_states(snr_levels, energy_levels)

    def metric(snr):
        return 1.0 if snr > threshold else 0.0

    zetas = [0.0] + [float(z) for z in np.logspace(-3, 3, 19)]
    assert len(zetas) == 20
    for zeta in zetas:
        choices = []
        for g1, g2, e1, e2 in states:
            brute = 0 if metric(g1) + zeta * e1 >= metric(g2) + zeta * e2 else 1
            rule = 0 if (metric(g1) - metric(g2)) >= zeta * (e2 - e1) else 1
            assert brute == rule, (zeta, g1, g2, e1, e2)
            choices.append(rule)
        # no single-state deviation improves mean metric without energy loss
        for state, choice in zip(states, choices):
            flip = 1 - choice
            df = metric(state[flip]) - metric(state[choice])
            de = state[2 + flip] - state[2 + choice]
            if df > 1e-12:
                assert de < -1e-12, (zeta, state)
    _report(8, "sign rule is per-state optimal for 20 weights on the 4-level model")


def test_criterion_9_deterministic_outputs(tmp_path):
    """Same seed implies byte-identical CSVs, for any batching or workers."""
    args = [
        "tradeoff-capacity", "--mean-snr-db", "10", "--grid", "5",
        "--with-mc", "--frames", "30000", "--seed", "5",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    scheme = WeightedDifference(nu=1.0)
    base = run(cfg, scheme, MonteCarloConfig(65_537, seed=3, batch_size=10_000))
    for mc in (
        MonteCarloConfig(65_537, seed=3, batch_size=64),
        MonteCarloConfig(65_537, seed=3, batch_size=65_537),
        MonteCarloConfig(65_537, seed=3, batch_size=20_000, n_workers=3),
    ):
        assert run(cfg, scheme, mc) == base
    _report(9, "byte-identical CSVs and bit-identical estimates across batching")
