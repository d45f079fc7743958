import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayswipt.closedform as cf
import relayswipt.simulate as simulate
from relayswipt.model import SystemConfig, frames_from_uniforms
from relayswipt.schemes import (
    Metric,
    ParetoOptimal,
    ThresholdChecking,
    TimeSharing,
    WeightedDifference,
    select_indices,
)
from relayswipt.simulate import Estimate, MonteCarloConfig, frame_uniforms, run


def test_mc_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(n_frames=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(n_frames=100, batch_size=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(n_frames=10, batch_size=5, n_workers=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(n_frames=10, batch_size=5, seed=-1)


def test_frame_uniforms_split_invariance():
    full = frame_uniforms(seed=3, n_relays=2, start=0, count=64)
    head = frame_uniforms(seed=3, n_relays=2, start=0, count=10)
    mid = frame_uniforms(seed=3, n_relays=2, start=10, count=37)
    tail = frame_uniforms(seed=3, n_relays=2, start=47, count=17)
    assert np.array_equal(full, np.vstack([head, mid, tail]))
    # random access to a single frame
    assert np.array_equal(full[33:34], frame_uniforms(seed=3, n_relays=2, start=33, count=1))


@pytest.mark.parametrize("n_relays", range(1, 9))
def test_frame_uniforms_random_access_inside_philox_blocks(n_relays):
    """Frames are packed without padding, so most start inside a 4-word block."""
    words = 2 * n_relays + 1
    full = frame_uniforms(seed=5, n_relays=n_relays, start=0, count=40)
    assert full.shape == (40, words)
    for start in (1, 2, 3, 13, 22, 35):
        assert start * words % 4 != 0
        part = frame_uniforms(seed=5, n_relays=n_relays, start=start, count=40 - start)
        assert np.array_equal(full[start:], part)


def test_batch_larger_than_n_frames_is_accepted(config10):
    mc = MonteCarloConfig(n_frames=10, batch_size=20)
    assert run(config10, TimeSharing(mu=0.5), mc) == run(
        config10, TimeSharing(mu=0.5), MonteCarloConfig(n_frames=10)
    )


def test_huge_batch_is_cut_into_bounded_chunks(monkeypatch):
    cfg = SystemConfig(8, 10.0, 1.0, 1.0)
    scheme = ThresholdChecking(tau=3.0)
    drawn = []

    def spy(*args):
        u = frame_uniforms(*args)
        drawn.append(u.nbytes)
        return u

    monkeypatch.setattr(simulate, "frame_uniforms", spy)
    huge = run(cfg, scheme, MonteCarloConfig(250_000, seed=4, batch_size=10**9))
    assert len(drawn) > 1 and max(drawn) <= simulate._CHUNK_BYTES
    assert huge == run(cfg, scheme, MonteCarloConfig(250_000, seed=4))


@pytest.mark.parametrize("n_relays", [1, 8])
def test_chunk_memory_stays_under_the_cap(n_relays):
    """The cap bounds a whole chunk, temporaries included, not its uniforms."""
    cfg = SystemConfig(n_relays, 10.0, 1.0, 1.0)
    mc = MonteCarloConfig(300_000, seed=5, batch_size=10**9, n_workers=1)
    tracemalloc.start()
    try:
        run(cfg, TimeSharing(mu=0.5), mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert simulate._CHUNK_BYTES / 2 < peak <= simulate._CHUNK_BYTES


def test_single_chunk_runs_without_a_pool(config10, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk run started a thread pool")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    mc = MonteCarloConfig(10_000, seed=1, batch_size=60_000, n_workers=3)
    assert sum(run(config10, TimeSharing(mu=0.5), mc).selection_counts) == 10_000


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_workers_default_to_available_cores():
    assert MonteCarloConfig(1).n_workers == len(os.sched_getaffinity(0))


@st.composite
def _scenario(draw):
    n_relays = draw(st.integers(1, 8))
    schemes = [
        st.builds(TimeSharing, mu=st.floats(0.0, 1.0)),
        st.builds(ThresholdChecking, tau=st.floats(0.0, 20.0)),
    ]
    if n_relays == 2:
        weights = st.one_of(st.floats(0.0, 10.0), st.just(math.inf))
        schemes += [
            st.builds(WeightedDifference, nu=weights),
            st.builds(ParetoOptimal, zeta=weights, metric=st.sampled_from(Metric)),
        ]
    cfg = SystemConfig(n_relays, draw(st.floats(0.1, 1000.0)), draw(st.floats(0.01, 100.0)))
    return cfg, draw(st.one_of(schemes))


@given(
    _scenario(),
    st.integers(1, 50_000),
    st.integers(1, 60_000),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=30, deadline=None)
def test_run_invariant_to_chunking_and_workers(scenario, n_frames, batch_size, n_workers, seed):
    cfg, scheme = scenario
    reference = run(cfg, scheme, MonteCarloConfig(n_frames, seed, batch_size=10_000, n_workers=1))
    mc = MonteCarloConfig(n_frames, seed, batch_size=batch_size, n_workers=n_workers)
    assert run(cfg, scheme, mc) == reference


def test_run_bit_identical_across_batch_and_workers(config10):
    scheme = TimeSharing(mu=0.5)
    base = run(config10, scheme, MonteCarloConfig(n_frames=123_457, seed=7, batch_size=10_000))
    for mc in (
        MonteCarloConfig(n_frames=123_457, seed=7, batch_size=33_333),
        MonteCarloConfig(n_frames=123_457, seed=7, batch_size=1),
        MonteCarloConfig(n_frames=123_457, seed=7, batch_size=123_457),
        MonteCarloConfig(n_frames=123_457, seed=7, batch_size=7_919, n_workers=4),
    ):
        assert run(config10, scheme, mc) == base


def test_different_seeds_differ(config10):
    a = run(config10, TimeSharing(mu=0.5), MonteCarloConfig(50_000, seed=1))
    b = run(config10, TimeSharing(mu=0.5), MonteCarloConfig(50_000, seed=2))
    assert a.capacity.mean != b.capacity.mean


def test_selection_counts_sum_to_n(config10):
    result = run(config10, ThresholdChecking(tau=2.0), MonteCarloConfig(40_000, seed=3))
    assert sum(result.selection_counts) == 40_000
    assert len(result.selection_counts) == 2


def test_estimates_match_direct_computation(config10):
    """Mean, standard error and n follow the per-frame sample statistics."""
    n = 25_000
    scheme = WeightedDifference(nu=0.8)
    result = run(config10, scheme, MonteCarloConfig(n, seed=17, batch_size=10_000))
    u = frame_uniforms(17, 2, 0, n)
    snr, energy, coins = frames_from_uniforms(config10, u)
    sel = select_indices(scheme, snr, energy, coins, config10.outage_threshold)
    rows = np.arange(n)
    cap = 0.5 * np.log2(1.0 + snr[rows, sel])
    assert result.capacity.n == n
    assert result.capacity.mean == pytest.approx(cap.mean(), rel=1e-12)
    assert result.capacity.std_error == pytest.approx(
        cap.std(ddof=1) / math.sqrt(n), rel=1e-9
    )
    esel = energy[rows, sel]
    assert result.energy.mean == pytest.approx(esel.mean(), rel=1e-12)
    out = (snr[rows, sel] < config10.outage_threshold).mean()
    assert result.outage.mean == pytest.approx(out, abs=0.0)


def test_degenerate_time_sharing_matches_best_relay(config10):
    result = run(config10, TimeSharing(mu=1.0), MonteCarloConfig(200_000, seed=21))
    assert abs(result.capacity.mean - cf.c_max(config10)) < 3 * result.capacity.std_error
    assert abs(result.energy.mean - config10.mean_energy) < 3 * result.energy.std_error
    result = run(config10, TimeSharing(mu=0.0), MonteCarloConfig(200_000, seed=21))
    assert abs(result.capacity.mean - cf.c_min(config10)) < 3 * result.capacity.std_error
    assert abs(result.energy.mean - 1.5) < 3 * result.energy.std_error


def test_zero_weight_wd_matches_max_snr_selection(config10):
    """Same seed: nu = 0 must reproduce pure max-SNR selection exactly."""
    mc = MonteCarloConfig(100_000, seed=12, batch_size=50_000)
    wd = run(config10, WeightedDifference(nu=0.0), mc)
    best = run(config10, TimeSharing(mu=1.0), mc)  # always the best-SNR relay
    assert wd.selection_counts == best.selection_counts
    assert wd.capacity == best.capacity


def test_closed_forms_within_three_sigma(config10):
    energy = cf.energy_from_delta(config10, 0.5)
    cases = [
        (TimeSharing(mu=0.5), cf.c_ts(config10, energy), cf.outage_ts(config10, 0.5)),
        (
            ThresholdChecking(tau=cf.tau_from_energy(config10, energy)),
            cf.c_tc(config10, energy),
            cf.outage_tc(config10, 0.5),
        ),
        (
            WeightedDifference(nu=cf.nu_from_energy(config10, energy)),
            cf.c_wd(config10, energy),
            cf.outage_wd(config10, 0.5),
        ),
    ]
    for scheme, cap_true, out_true in cases:
        result = run(config10, scheme, MonteCarloConfig(1_000_000, seed=777, batch_size=100_000))
        assert abs(result.capacity.mean - cap_true) < 3 * result.capacity.std_error
        assert abs(result.energy.mean - energy) < 3 * result.energy.std_error
        assert abs(result.outage.mean - out_true) < 3 * result.outage.std_error


def test_wd_closed_forms_at_high_snr(config100):
    energy = 1.25
    scheme = WeightedDifference(nu=cf.nu_from_energy(config100, energy))
    result = run(config100, scheme, MonteCarloConfig(1_000_000, seed=890, batch_size=100_000))
    assert abs(result.capacity.mean - cf.c_wd(config100, energy)) < 3 * result.capacity.std_error
    assert abs(result.energy.mean - energy) < 3 * result.energy.std_error
    assert abs(result.outage.mean - cf.outage_wd(config100, 0.5)) < 3 * result.outage.std_error


def test_pareto_outage_scheme_within_three_sigma():
    threshold = 1.0
    cfg = SystemConfig(2, 2.0 * threshold / math.log(2.0), 1.0, threshold)
    zeta = 0.5
    scheme = ParetoOptimal(zeta=zeta, metric=Metric.OUTAGE_INDICATOR)
    result = run(cfg, scheme, MonteCarloConfig(1_000_000, seed=51, batch_size=100_000))
    assert abs(result.energy.mean - cf.pareto_outage_energy(cfg, zeta)) < (
        3 * result.energy.std_error
    )
    assert abs((1.0 - result.outage.mean) - cf.pareto_no_outage(cfg, zeta)) < (
        3 * result.outage.std_error
    )


def test_low_confidence_flag():
    quiet = SystemConfig(2, 10_000.0, 1.0, 1.0)  # outage is a rare event here
    result = run(quiet, TimeSharing(mu=1.0), MonteCarloConfig(20_000, seed=2))
    assert result.low_confidence
    noisy = SystemConfig(2, 2.0, 1.0, 1.0)
    result = run(noisy, TimeSharing(mu=1.0), MonteCarloConfig(20_000, seed=2))
    assert not result.low_confidence


def test_coverage_calibration():
    """The 1.96-sigma interval covers the truth ~95% of the time.

    Checked over 100 independent seeds; at least one representative
    (scheme, metric) pair must land in the binomial band [93, 97].
    """
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    energy = cf.energy_from_delta(cfg, 0.5)
    nu = cf.nu_from_energy(cfg, energy)
    reps = [
        (TimeSharing(mu=0.5), "capacity", cf.c_ts(cfg, energy)),
        (WeightedDifference(nu=nu), "energy", energy),
        (WeightedDifference(nu=nu), "outage", cf.outage_wd(cfg, 0.5)),
    ]
    in_band = []
    for scheme, metric, truth in reps:
        hits = 0
        for seed in range(100):
            result = run(cfg, scheme, MonteCarloConfig(40_000, seed=seed, batch_size=40_000))
            est: Estimate = getattr(result, metric)
            if abs(est.mean - truth) <= 1.96 * est.std_error:
                hits += 1
        in_band.append(93 <= hits <= 97)
    assert any(in_band), f"coverage out of band for all representatives: {in_band}"
