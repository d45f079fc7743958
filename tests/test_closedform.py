import math

import numpy as np
import pytest

import relayswipt.closedform as cf
from relayswipt.model import SystemConfig, snr_from_db
from relayswipt.simulate import MonteCarloConfig, run
from relayswipt.schemes import Metric, TimeSharing

import oracles
from conftest import capacity_n_relays_quadrature, capacity_quadrature

LN2 = math.log(2.0)


def single_outage(config):
    return 1.0 - math.exp(-2.0 * config.outage_threshold / config.mean_snr)


# ---------------------------------------------------------------------------
#  Capacity and energy boundaries
# ---------------------------------------------------------------------------


def test_c_min_matches_quadrature(config100):
    for gbar in (10.0, 100.0):
        cfg = SystemConfig(2, gbar, 1.0, 1.0)
        assert cf.c_min(cfg) == pytest.approx(capacity_quadrature(gbar, 1), rel=1e-9)


def test_c_min_equals_single_relay_c_max(config100):
    for n in (1, 2, 5):
        cfg = SystemConfig(n, 37.5, 1.0, 1.0)
        single = SystemConfig(1, 37.5, 1.0, 1.0)
        assert cf.c_min(cfg) == pytest.approx(cf.c_max(single), rel=1e-15)


def test_c_max_matches_quadrature():
    for n, gbar in ((1, 100.0), (2, 100.0), (2, 10.0), (3, 10.0)):
        cfg = SystemConfig(n, gbar, 1.0, 1.0)
        assert cf.c_max(cfg) == pytest.approx(capacity_quadrature(gbar, n), rel=1e-8)


def test_c_max_matches_monte_carlo_three_relays():
    cfg = SystemConfig(3, 10.0, 1.0, 1.0)
    result = run(cfg, TimeSharing(mu=1.0), MonteCarloConfig(1_000_000, seed=5, batch_size=100_000))
    assert abs(result.capacity.mean - cf.c_max(cfg)) < 3.0 * result.capacity.std_error


def test_energy_bounds():
    assert cf.energy_bounds(SystemConfig(1, 10.0, 1.0, 1.0)) == (1.0, 1.0)
    lo, hi = cf.energy_bounds(SystemConfig(2, 10.0, 1.0, 1.0))
    assert (lo, hi) == (1.0, 1.5)
    lo, hi = cf.energy_bounds(SystemConfig(3, 10.0, 2.0, 1.0))
    assert lo == 2.0 and hi == pytest.approx(2.0 * 11.0 / 6.0, rel=1e-15)


def test_delta_energy_round_trip(config10):
    assert cf.delta_from_energy(config10, 1.0) == 0.0
    assert cf.delta_from_energy(config10, 1.5) == 1.0
    assert cf.delta_from_energy(config10, 1.25) == pytest.approx(0.5, abs=1e-15)
    for delta in np.linspace(0.0, 1.0, 50):
        energy = cf.energy_from_delta(config10, float(delta))
        assert cf.delta_from_energy(config10, energy) == pytest.approx(float(delta), abs=1e-12)


def test_single_relay_tradeoff_is_domain_error():
    cfg = SystemConfig(1, 10.0, 1.0, 1.0)
    for call in (
        lambda: cf.delta_from_energy(cfg, 1.0),
        lambda: cf.energy_from_delta(cfg, 0.5),
        lambda: cf.mu_from_energy(cfg, 1.0),
        lambda: cf.c_ts(cfg, 1.0),
        lambda: cf.c_tc(cfg, 1.0),
        lambda: cf.outage_ts(cfg, 0.5),
        lambda: cf.outage_tc(cfg, 0.5),
    ):
        with pytest.raises(ValueError):
            call()


def test_energy_domain_errors(config10):
    for bad in (0.9, 1.6, math.nan):
        with pytest.raises(ValueError):
            cf.delta_from_energy(config10, bad)
        with pytest.raises(ValueError):
            cf.c_ts(config10, bad)
    with pytest.raises(ValueError):
        cf.outage_ts(config10, 1.2)
    with pytest.raises(ValueError):
        cf.outage_wd(config10, -0.1)


# ---------------------------------------------------------------------------
#  Time sharing
# ---------------------------------------------------------------------------


def test_mu_inversion(config10):
    assert cf.mu_from_energy(config10, 1.0) == 1.0
    assert cf.mu_from_energy(config10, 1.5) == 0.0
    assert cf.mu_from_energy(config10, 1.25) == pytest.approx(0.5, abs=1e-15)
    # mu = 1 - delta
    for delta in np.linspace(0.0, 1.0, 21):
        energy = cf.energy_from_delta(config10, float(delta))
        assert cf.mu_from_energy(config10, energy) == pytest.approx(1.0 - delta, abs=1e-12)


def test_c_ts_boundaries_and_midpoint(config100):
    cmx, cmn = cf.c_max(config100), cf.c_min(config100)
    assert cf.c_ts(config100, 1.0) == pytest.approx(cmx, rel=1e-14)
    assert cf.c_ts(config100, 1.5) == pytest.approx(cmn, rel=1e-14)
    assert cf.c_ts(config100, 1.25) == pytest.approx(0.5 * (cmx + cmn), rel=1e-14)


def test_c_ts_composite_equality():
    for gbar in (10.0, 100.0):
        for n in (2, 3, 4):
            cfg = SystemConfig(n, gbar, 1.0, 1.0)
            lo, hi = cf.energy_bounds(cfg)
            for energy in np.linspace(lo, hi, 50):
                energy = float(energy)
                assert cf.c_ts(cfg, energy) == pytest.approx(
                    oracles.c_ts_composite(cfg, energy), rel=1e-10
                )


def test_c_ts_is_affine(config100):
    energies = np.linspace(1.0, 1.5, 50)
    values = np.array([cf.c_ts(config100, float(e)) for e in energies])
    second = np.diff(values, 2)
    assert np.all(np.abs(second) <= 1e-9 * np.abs(values).max())


# ---------------------------------------------------------------------------
#  Threshold checking
# ---------------------------------------------------------------------------


def test_tau_inversion_round_trip():
    for gbar, n in ((10.0, 2), (100.0, 2), (10.0, 3)):
        cfg = SystemConfig(n, gbar, 1.0, 1.0)
        lo, hi = cf.energy_bounds(cfg)
        assert cf.tau_from_energy(cfg, lo) == 0.0
        assert math.isinf(cf.tau_from_energy(cfg, hi))
        for energy in np.linspace(lo + 1e-6, hi - 1e-6, 50):
            energy = float(energy)
            tau = cf.tau_from_energy(cfg, energy)
            assert cf.energy_tc_of_tau(cfg, tau) == pytest.approx(energy, rel=1e-10)


def test_tc_energy_matches_monte_carlo(config10):
    from relayswipt.schemes import ThresholdChecking

    tau = config10.mean_snr
    result = run(
        config10, ThresholdChecking(tau=tau), MonteCarloConfig(1_000_000, seed=31, batch_size=100_000)
    )
    assert abs(result.energy.mean - cf.energy_tc_of_tau(config10, tau)) < (
        3.0 * result.energy.std_error
    )


def test_c_tc_boundaries(config100):
    assert cf.c_tc_of_tau(config100, 0.0) == pytest.approx(cf.c_max(config100), rel=1e-12)
    assert cf.c_tc_of_tau(config100, math.inf) == cf.c_min(config100)
    assert cf.c_tc(config100, 1.0) == pytest.approx(cf.c_max(config100), rel=1e-12)
    assert cf.c_tc(config100, 1.5) == cf.c_min(config100)


def test_c_tc_composite_equality():
    for gbar, n in ((10.0, 2), (100.0, 2), (10.0, 3)):
        cfg = SystemConfig(n, gbar, 1.0, 1.0)
        lo, hi = cf.energy_bounds(cfg)
        for energy in np.linspace(lo, hi, 40):
            energy = float(energy)
            assert cf.c_tc(cfg, energy) == pytest.approx(
                oracles.c_tc_composite(cfg, energy), rel=1e-8
            )


def test_c_tc_concave(config100):
    energies = np.linspace(1.0, 1.5, 50)
    values = np.array([cf.c_tc(config100, float(e)) for e in energies])
    assert np.all(np.diff(values, 2) <= 1e-9)


# ---------------------------------------------------------------------------
#  Weighted difference
# ---------------------------------------------------------------------------


def test_nu_inversion_values(config10):
    assert cf.nu_from_energy(config10, 1.0) == 0.0
    assert math.isinf(cf.nu_from_energy(config10, 1.5))
    # closed-form value at the midpoint of the energy range
    expected = 0.5 * config10.mean_snr * (math.sqrt(2.0) - 1.0)
    assert cf.nu_from_energy(config10, 1.25) == pytest.approx(expected, rel=1e-14)
    # forward map at nu = 1
    assert cf.energy_wd_of_nu(config10, 1.0) == pytest.approx(0.5 * (3.0 - 100.0 / 144.0), rel=1e-14)


def test_energy_wd_of_nu_at_infinity_is_the_best_energy_mean():
    config = SystemConfig(2, 10.0, 3.0, 1.0)
    assert cf.energy_wd_of_nu(config, math.inf) == 1.5 * config.mean_energy


def test_nu_round_trip(config10):
    for energy in np.linspace(1.0 + 1e-9, 1.5 - 1e-9, 50):
        energy = float(energy)
        nu = cf.nu_from_energy(config10, energy)
        assert cf.energy_wd_of_nu(config10, nu) == pytest.approx(energy, rel=1e-10)


def test_c_wd_boundaries(config100):
    assert cf.c_wd_of_nu(config100, 0.0) == pytest.approx(cf.c_max(config100), rel=1e-14)
    assert cf.c_wd_of_nu(config100, math.inf) == cf.c_min(config100)
    assert cf.c_wd(config100, 1.0) == pytest.approx(cf.c_max(config100), rel=1e-14)
    assert cf.c_wd(config100, 1.5) == cf.c_min(config100)
    # approach of the upper boundary
    assert cf.c_wd(config100, 1.5 - 1e-9) == pytest.approx(cf.c_min(config100), rel=1e-4)


def test_c_wd_composite_equality():
    for gbar in (10.0, 100.0):
        cfg = SystemConfig(2, gbar, 1.0, 1.0)
        for energy in np.linspace(1.0, 1.5, 40):
            energy = float(energy)
            assert cf.c_wd(cfg, energy) == pytest.approx(
                oracles.c_wd_composite(cfg, energy), rel=1e-8
            )


def test_c_wd_removable_singularity(config10):
    # 2 * nu * eps == gbar: direct evaluation is 0/0, the perturbed value
    # must sit between its close neighbours
    nu_star = 0.5 * config10.mean_snr / config10.mean_energy
    at = cf.c_wd_of_nu(config10, nu_star)
    below = cf.c_wd_of_nu(config10, nu_star * (1.0 - 1e-4))
    above = cf.c_wd_of_nu(config10, nu_star * (1.0 + 1e-4))
    assert min(above, below) <= at <= max(above, below) or (
        at == pytest.approx(0.5 * (above + below), rel=1e-6)
    )
    assert at == pytest.approx(0.5 * (above + below), rel=1e-5)


def test_c_wd_concave(config100):
    energies = np.linspace(1.0, 1.5, 50)
    values = np.array([cf.c_wd(config100, float(e)) for e in energies])
    assert np.all(np.diff(values, 2) <= 1e-9)


def test_capacity_curve_ordering():
    """Pointwise dominance c_wd >= c_tc >= c_ts at 10 and 20 dB."""
    for gbar in (10.0, 100.0):
        cfg = SystemConfig(2, gbar, 1.0, 1.0)
        for energy in np.linspace(1.0, 1.5, 50):
            energy = float(energy)
            ts, tc, wd = cf.c_ts(cfg, energy), cf.c_tc(cfg, energy), cf.c_wd(cfg, energy)
            assert wd >= tc - 1e-12
            assert tc >= ts - 1e-12


def test_c_wd_lies_between_time_sharing_and_frontier(config100):
    from relayswipt.frontier import pareto_capacity_point, solve_zeta_for_energy

    energy = 1.25
    wd = cf.c_wd(config100, energy)
    zeta = solve_zeta_for_energy(config100, energy, Metric.CAPACITY)
    frontier_value = pareto_capacity_point(config100, zeta).value
    assert cf.c_ts(config100, energy) <= wd <= frontier_value + 1e-6


# ---------------------------------------------------------------------------
#  Outage probabilities
# ---------------------------------------------------------------------------


def test_outage_ts_endpoints(config10):
    p1 = single_outage(config10)
    assert cf.outage_ts(config10, 0.0) == pytest.approx(p1**2, rel=1e-14)
    assert cf.outage_ts(config10, 1.0) == pytest.approx(p1, rel=1e-14)
    cfg3 = SystemConfig(3, 10.0, 1.0, 1.0)
    assert cf.outage_ts(cfg3, 0.0) == pytest.approx(single_outage(cfg3) ** 3, rel=1e-14)


def test_outage_ts_composite_equality(config10):
    for delta in np.linspace(0.0, 1.0, 40):
        delta = float(delta)
        energy = cf.energy_from_delta(config10, delta)
        assert cf.outage_ts(config10, delta) == pytest.approx(
            oracles.outage_ts_composite(config10, energy), rel=1e-11
        )


def test_outage_tc_piecewise(config10):
    p1 = single_outage(config10)
    n = config10.n_relays
    assert cf.outage_tc(config10, 0.0) == pytest.approx(p1**n, rel=1e-14)
    assert cf.outage_tc(config10, 1.0) == pytest.approx(p1, rel=1e-14)
    # continuity at the breakpoint delta* = p1^N
    star = p1**n
    assert cf.outage_tc(config10, star - 1e-13) == pytest.approx(
        cf.outage_tc(config10, star + 1e-13), abs=1e-12
    )
    # tau form agrees below and above the threshold
    assert cf.outage_tc_of_tau(config10, 0.5) == pytest.approx(p1**n, rel=1e-14)
    tau = 3.0
    q = 1.0 - math.exp(-2.0 * tau / config10.mean_snr)
    assert cf.outage_tc_of_tau(config10, tau) == pytest.approx(p1 * q ** (n - 1), rel=1e-14)


def test_outage_tc_composite_equality():
    for n in (2, 3):
        cfg = SystemConfig(n, 10.0, 1.0, 1.0)
        lo, hi = cf.energy_bounds(cfg)
        for energy in np.linspace(lo, hi, 40):
            energy = float(energy)
            delta = cf.delta_from_energy(cfg, energy)
            assert cf.outage_tc(cfg, delta) == pytest.approx(
                oracles.outage_tc_composite(cfg, energy), rel=1e-12
            )


def test_outage_wd_limits(config10):
    p1 = single_outage(config10)
    assert cf.outage_wd(config10, 0.0) == pytest.approx(p1**2, rel=1e-12)
    assert cf.outage_wd(config10, 1e-12) == pytest.approx(p1**2, rel=1e-9)
    # the upper limit is approached at rate sqrt(1 - delta)
    assert cf.outage_wd(config10, 1.0 - 1e-12) == pytest.approx(p1, rel=1e-5)
    assert cf.outage_wd(config10, 1.0) == pytest.approx(p1, rel=1e-15)
    assert cf.outage_wd_of_nu(config10, math.inf) == pytest.approx(p1, rel=1e-15)


def test_outage_wd_composite_equality(config10):
    for delta in np.linspace(0.0, 1.0, 40):
        delta = float(delta)
        energy = cf.energy_from_delta(config10, delta)
        assert cf.outage_wd(config10, delta) == pytest.approx(
            oracles.outage_wd_composite(config10, energy), rel=1e-8, abs=1e-12
        )


def test_outage_wd_removable_singularity(config10):
    nu_star = 0.5 * config10.mean_snr / config10.mean_energy
    at = cf.outage_wd_of_nu(config10, nu_star)
    below = cf.outage_wd_of_nu(config10, nu_star * (1.0 - 1e-4))
    above = cf.outage_wd_of_nu(config10, nu_star * (1.0 + 1e-4))
    assert at == pytest.approx(0.5 * (above + below), rel=1e-5)


# ---------------------------------------------------------------------------
#  Asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_ordering_and_edges(config10):
    delta = 0.5
    wd = cf.asymptotic_outage("wd", config10, delta)
    ts = cf.asymptotic_outage("ts", config10, delta)
    tc = cf.asymptotic_outage("tc", config10, delta)
    assert wd < ts < tc
    base = 2.0 * config10.outage_threshold / config10.mean_snr
    for scheme in ("ts", "tc", "wd"):
        assert cf.asymptotic_outage(scheme, config10, 1.0) == pytest.approx(base, rel=1e-14)
    assert cf.array_gain("ts", config10, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert cf.array_gain("tc", config10, 0.5) == pytest.approx(1.0 / (2.0 * 0.5**0.5), rel=1e-14)
    assert cf.array_gain("wd", config10, 0.5) == pytest.approx(
        1.0 / (2.0 * (1.0 - math.sqrt(0.5))), rel=1e-14
    )
    assert math.isinf(cf.array_gain("ts", config10, 0.0))
    with pytest.raises(ValueError):
        cf.asymptotic_outage("bogus", config10, 0.5)


def test_exact_approaches_asymptotic():
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


def test_exact_outage_ordering_moderate_snr():
    for ratio in (10.0, 100.0, 1000.0):
        cfg = SystemConfig(2, ratio, 1.0, 1.0)
        for delta in np.linspace(0.05, 0.95, 10):
            delta = float(delta)
            wd = cf.outage_wd(cfg, delta)
            ts = cf.outage_ts(cfg, delta)
            tc = cf.outage_tc(cfg, delta)
            assert wd <= ts + 1e-15
            assert ts <= tc + 1e-15


# ---------------------------------------------------------------------------
#  Pareto outage closed forms
# ---------------------------------------------------------------------------


def test_pareto_outage_limits(config10):
    eps = config10.mean_energy
    a = math.exp(-2.0 * config10.outage_threshold / config10.mean_snr)
    assert cf.pareto_outage_energy(config10, 0.0) == pytest.approx(
        eps * (1.5 + a * a - a), rel=1e-14
    )
    assert cf.pareto_outage_energy_min(config10) == pytest.approx(eps * (1.5 + a * a - a))
    assert cf.pareto_no_outage(config10, 0.0) == pytest.approx(1.0 - (1.0 - a) ** 2, rel=1e-14)
    assert cf.pareto_outage_energy(config10, math.inf) == pytest.approx(1.5 * eps, rel=1e-14)
    assert cf.pareto_no_outage(config10, math.inf) == pytest.approx(a, rel=1e-14)
    # tiny-but-positive weights approach the zero-weight limits
    assert cf.pareto_outage_energy(config10, 1e-9) == pytest.approx(
        cf.pareto_outage_energy(config10, 0.0), rel=1e-12
    )


@pytest.mark.parametrize("zeta", [1e-310, 5e-324])
@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_a_tiny_weight_gives_the_zero_weight_outage_forms(zeta, eps):
    # zeta*eps is subnormal, or 0 at 5e-324 * 0.5: the zeta = 0 limit either way
    config = SystemConfig(2, 10.0, eps, 1.0)
    for form in (cf.pareto_outage_energy, cf.pareto_no_outage):
        assert form(config, zeta) == form(config, 0.0)


def test_pareto_energy_monotone_in_weight(config10):
    zetas = np.logspace(-3, 3, 30)
    values = [cf.pareto_outage_energy(config10, float(z)) for z in zetas]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_delta_range_special_geometry():
    threshold = 1.0
    cfg = SystemConfig(2, 2.0 * threshold / LN2, 1.0, threshold)
    lo, hi = cf.delta_range_outage(cfg)
    assert hi == 1.0
    assert lo == pytest.approx(0.5, abs=1e-12)


def test_pareto_requires_two_relays():
    cfg = SystemConfig(3, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cf.pareto_outage_energy(cfg, 1.0)
    with pytest.raises(ValueError):
        cf.nu_from_energy(cfg, cf.energy_from_delta(cfg, 0.5))


# ---------------------------------------------------------------------------
#  Boundary agreement across schemes
# ---------------------------------------------------------------------------


def test_all_schemes_agree_at_boundaries(config10):
    cmx, cmn = cf.c_max(config10), cf.c_min(config10)
    p1 = single_outage(config10)
    for curve in (cf.c_ts, cf.c_tc, cf.c_wd):
        assert curve(config10, 1.0) == pytest.approx(cmx, rel=1e-6)
        assert curve(config10, 1.5) == pytest.approx(cmn, rel=1e-6)
    for curve in (cf.outage_ts, cf.outage_tc, cf.outage_wd):
        assert curve(config10, 0.0) == pytest.approx(p1**2, rel=1e-6)
        assert curve(config10, 1.0) == pytest.approx(p1, rel=1e-6)


def test_tradeoff_point_validation(config10):
    point = cf.tradeoff_point(config10, 1.25, 0.9)
    assert point.delta == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        cf.tradeoff_point(config10, 1.6, 0.9)
    # delta is undefined for one relay: the module's N = 1 error, not delta 0
    with pytest.raises(ValueError, match="need n_relays >= 2"):
        cf.tradeoff_point(SystemConfig(1, 10.0, 1.0, 1.0), 1.0, 0.9)


def test_best_snr_sum_is_refused_past_its_accurate_relay_counts(monkeypatch):
    """The alternating sum behind c_max, c_ts and c_tc cancels as N grows.  At
    the bound it stays within 1e-9 of the best-of-N quadrature over -20..60 dB
    (the worst cell is near -7 dB); one relay more does not, and is refused."""
    n = cf._MAX_SUM_RELAYS

    def worst_error(n_relays):
        errors = []
        for snr_db in [*np.arange(-20.0, 60.5, 1.0), -7.45]:
            config = SystemConfig(n_relays, snr_from_db(snr_db), 1.0, 1.0)
            want = capacity_n_relays_quadrature(config.mean_snr, n_relays, 0.0)[0]
            errors.append(abs(cf.c_max(config) - want) / want)
        return max(errors)

    assert worst_error(n) < 1e-9
    config = SystemConfig(n + 1, 10.0, 1.0, 1.0)
    for call in (cf.c_max, lambda c: cf.c_ts(c, 2.0), lambda c: cf.c_tc(c, 2.0)):
        with pytest.raises(ValueError, match=f"n_relays <= {n}, got n_relays={n + 1}"):
            call(config)
    monkeypatch.setattr(cf, "_MAX_SUM_RELAYS", n + 1)
    assert worst_error(n + 1) > 1e-9
