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


_MC_FIELDS = ["n_frames", "seed", "batch_size", "n_workers"]


@pytest.mark.parametrize("field", _MC_FIELDS)
@pytest.mark.parametrize("value", [1.5, 2500.5, -1, math.nan, math.inf, "3", None, 3 + 0j],
                         ids=repr)
def test_mc_config_rejects_a_non_integral_field_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        MonteCarloConfig(**{"n_frames": 10, field: value})


@pytest.mark.parametrize("field", _MC_FIELDS)
@pytest.mark.parametrize("value", [10_000, 1e4, np.int64(10_000), np.float64(1e4)], ids=repr)
def test_mc_config_stores_an_integral_field_as_int(field, value):
    mc = MonteCarloConfig(**{"n_frames": 10, field: value})
    assert type(getattr(mc, field)) is int and getattr(mc, field) == 10_000


def test_mc_config_takes_an_integral_float_frame_count_and_seed(config10):
    """n_frames=1e4 used to pass validation and fail in run; seed=1.5 used to run as seed 1."""
    scheme = TimeSharing(mu=0.5)
    assert (run(config10, scheme, MonteCarloConfig(1e4, seed=7.0))
            == run(config10, scheme, MonteCarloConfig(10_000, seed=7)))
    assert MonteCarloConfig(10, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match="^seed"):
        MonteCarloConfig(10, seed=2**64)


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


@pytest.mark.parametrize("n_relays", [1, 2, 3, 8])
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


@given(
    st.integers(1, 50_000),
    st.integers(1, 60_000),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**64 - 1),
    st.sampled_from([simulate._MEMO_BYTES, 2**20]),
)
@settings(max_examples=30, deadline=None)
def test_runs_in_a_frame_scope_equal_runs_outside(n_frames, batch_size, n_workers, seed, cap):
    """Also with a memo cap of 1 MiB, which holds two 10,000-frame chunks at N = 2
    (400 kB of frames and 80 kB of coins each), so later chunks spill."""
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    schemes = [TimeSharing(mu=0.3), ThresholdChecking(tau=4.0), WeightedDifference(nu=0.7),
               ParetoOptimal(zeta=1.0, metric=Metric.CAPACITY),
               ParetoOptimal(zeta=1.0, metric=Metric.OUTAGE_INDICATOR)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_MEMO_BYTES", cap)
        mc = MonteCarloConfig(n_frames, seed, batch_size=batch_size, n_workers=n_workers)
        outside = [run(cfg, scheme, mc) for scheme in schemes]
        with simulate._shared_frames():
            inside = [run(cfg, scheme, mc) for scheme in schemes + schemes]
            assert simulate._frame_memo.get().nbytes <= cap
    assert inside == outside + outside


def test_frame_scope_spills_past_its_cap(config10, monkeypatch):
    drawn = []
    draw = simulate.frame_uniforms

    def spy(seed, n_relays, start, count):
        drawn.append(start)
        return draw(seed, n_relays, start, count)

    monkeypatch.setattr(simulate, "frame_uniforms", spy)
    monkeypatch.setattr(simulate, "_MEMO_BYTES", 2**20)
    mc = MonteCarloConfig(50_000, seed=2, batch_size=10_000, n_workers=2)
    scheme = TimeSharing(mu=0.5)
    reference = run(config10, scheme, mc)
    drawn.clear()
    with simulate._shared_frames():
        assert run(config10, scheme, mc) == run(config10, scheme, mc) == reference
        memo = simulate._frame_memo.get()
        assert len(memo.chunks) == 2 and memo.nbytes == 2 * 480_000
    assert len(drawn) == 5 + 3


def test_shared_frames_are_read_only(config10):
    with simulate._shared_frames():
        run(config10, TimeSharing(mu=0.5), MonteCarloConfig(40_000, seed=1))
        chunks = list(simulate._frame_memo.get().chunks.values())
    assert len(chunks) == 2
    for chunk in chunks:
        for array in chunk:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_a_frame_scope_retains_at_most_the_cap():
    """Four large runs with different seeds would keep ~37 MiB of frames and coins."""
    cfg = SystemConfig(1, 10.0, 1.0, 1.0)
    tracemalloc.start()
    try:
        with simulate._shared_frames():
            for seed in range(4):
                mc = MonteCarloConfig(300_000, seed, batch_size=10**9, n_workers=1)
                run(cfg, TimeSharing(mu=0.5), mc)
            retained = tracemalloc.get_traced_memory()[0]
            kept = simulate._frame_memo.get().nbytes
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert simulate._MEMO_BYTES / 2 < kept <= retained <= simulate._MEMO_BYTES
    assert left < 2**20


@pytest.mark.parametrize("n_relays, frames", [(1, 20_000), (2, 20_000), (3, 20_000),
                                               (4, 10_000), (8, 10_000)])
def test_default_chunks_hold_two_blocks_where_they_fit(n_relays, frames, monkeypatch):
    """Two statistics blocks fit the chunk cap at N <= 3, one at N >= 4."""
    drawn = []
    draw = simulate.frame_uniforms

    def spy(seed, n, start, count):
        drawn.append(count)
        return draw(seed, n, start, count)

    monkeypatch.setattr(simulate, "frame_uniforms", spy)
    run(SystemConfig(n_relays, 10.0, 1.0, 1.0), TimeSharing(mu=0.5),
        MonteCarloConfig(60_000, seed=1, n_workers=1))
    assert drawn == [frames] * (60_000 // frames)


def test_single_chunk_runs_without_a_pool(config10, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk run started a thread pool")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    mc = MonteCarloConfig(10_000, seed=1, batch_size=60_000, n_workers=3)
    assert sum(run(config10, TimeSharing(mu=0.5), mc).selection_counts) == 10_000


def test_pool_starts_no_more_threads_than_cores(config10, monkeypatch):
    """A stand-in pool records its size and runs the jobs inline, so no thread starts."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", InlinePool)
    scheme = TimeSharing(mu=0.5)
    reference = run(config10, scheme, MonteCarloConfig(50_000, seed=1, n_workers=1))
    for cores, started in [(3, [3]), (8, [5]), (1, [])]:  # five chunks
        monkeypatch.setattr(simulate, "_default_workers", lambda cores=cores: cores)
        sizes.clear()
        mc = MonteCarloConfig(50_000, seed=1, batch_size=10_000, n_workers=100_000)
        assert run(config10, scheme, mc) == reference
        assert sizes == started


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_workers_default_to_available_cores():
    cores, quota = len(os.sched_getaffinity(0)), simulate._cpu_quota()
    assert MonteCarloConfig(1).n_workers == (cores if quota is None else min(cores, quota))


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "200000 100000\n"}, 2),
    ({"cpu.max": "20000 100000\n"}, 1),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "250000\n"}, None),  # period unreadable
    ({}, None),
])
def test_cpu_quota_from_cgroup_files(tmp_path, files, cpus):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert simulate._cpu_quota(tmp_path) == cpus


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_default_workers_capped_by_the_quota(tmp_path):
    cores = len(os.sched_getaffinity(0))
    assert simulate._default_workers(tmp_path) == cores  # no quota files
    (tmp_path / "cpu.max").write_text("100000 100000\n")
    assert simulate._default_workers(tmp_path) == 1
    (tmp_path / "cpu.max").write_text(f"{100000 * (cores + 3)} 100000\n")
    assert simulate._default_workers(tmp_path) == cores


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
    """Three cores are claimed, so that pools of two and three threads run on any host."""
    cfg, scheme = scenario
    reference = run(cfg, scheme, MonteCarloConfig(n_frames, seed, batch_size=10_000, n_workers=1))
    mc = MonteCarloConfig(n_frames, seed, batch_size=batch_size, n_workers=n_workers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_default_workers", lambda: 3)
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


# Every estimate and selection count of these runs, recorded before the
# column-wise selection kernels replaced per-row argmax and 2-D gathers.  A
# change to any frame's selection, gather or reduction moves a bit here.
_PIN_SEEDS = (5, 2**63 + 11)
_PIN_FRAMES = 23_457  # not a multiple of the statistics block


def _pinned_cases():
    cases = {}
    for n in (1, 2, 3, 8):
        cases[f"ts N={n}"] = (n, TimeSharing(mu=0.6))
        cases[f"tc N={n}"] = (n, ThresholdChecking(tau=4.0))
    for label, weight in (("0.7", 0.7), ("inf", math.inf)):
        cases[f"wd nu={label}"] = (2, WeightedDifference(nu=weight))
        cases[f"pareto-capacity zeta={label}"] = (2, ParetoOptimal(weight, Metric.CAPACITY))
        cases[f"pareto-outage zeta={label}"] = (2, ParetoOptimal(weight, Metric.OUTAGE_INDICATOR))
    # metric ties are common here, so the energy tie rule decides many frames
    cases["pareto-outage zeta=0"] = (2, ParetoOptimal(0.0, Metric.OUTAGE_INDICATOR))
    return cases


_PINNED = {
    ("ts N=1", _PIN_SEEDS[0]):
        "0x1.13e06ae7d81e6p+0 0x1.dfacd8ef8887dp-9 0x1.010fa1e8bd98ap+0 "
        "0x1.b1775367bf7bcp-8 0x1.748bd32abf9efp-3 0x1.4a260237ffdcap-9 23457",
    ("ts N=1", _PIN_SEEDS[1]):
        "0x1.136a5fd67ee31p+0 0x1.e0589126c2453p-9 0x1.00e5376783dc1p+0 "
        "0x1.ae14e3a6623aep-8 0x1.717d89fb00676p-3 0x1.491763a18da66p-9 23457",
    ("tc N=1", _PIN_SEEDS[0]):
        "0x1.13e06ae7d81e6p+0 0x1.dfacd8ef8887dp-9 0x1.010fa1e8bd98ap+0 "
        "0x1.b1775367bf7bcp-8 0x1.748bd32abf9efp-3 0x1.4a260237ffdcap-9 23457",
    ("tc N=1", _PIN_SEEDS[1]):
        "0x1.136a5fd67ee31p+0 0x1.e0589126c2453p-9 0x1.00e5376783dc1p+0 "
        "0x1.ae14e3a6623aep-8 0x1.717d89fb00676p-3 0x1.491763a18da66p-9 23457",
    ("ts N=2", _PIN_SEEDS[0]):
        "0x1.43bd1d76f3e9bp+0 0x1.c63c10855553ap-9 0x1.35f6c5d581696p+0 "
        "0x1.d29fd5c426ceap-8 0x1.7e963159eac32p-4 0x1.f21615da3e9a7p-10 11756,11701",
    ("ts N=2", _PIN_SEEDS[1]):
        "0x1.43a8753d8e315p+0 0x1.c7c68168b2adap-9 0x1.325c17d4e35adp+0 "
        "0x1.ccb918a5912a0p-8 0x1.8379d9a64fe8cp-4 0x1.f4edc0f7aa0b5p-10 11802,11655",
    ("tc N=2", _PIN_SEEDS[0]):
        "0x1.55a67951960eep+0 0x1.d807d9f9b7f6fp-9 0x1.28763cc02cfdbp+0 "
        "0x1.c9e436b1b66b2p-8 0x1.a47a89a9faa70p-4 0x1.03bfd4ed013fdp-9 11831,11626",
    ("tc N=2", _PIN_SEEDS[1]):
        "0x1.56d1382a6b120p+0 0x1.d8ca1a21232a5p-9 0x1.24fb1c3254c31p+0 "
        "0x1.c882e6be8cf78p-8 0x1.a4d3f11d2672dp-4 0x1.03d847b2f262ep-9 11899,11558",
    ("ts N=3", _PIN_SEEDS[0]):
        "0x1.5d66cd246ae8ep+0 0x1.c70be34da369cp-9 0x1.557f5b15d6b98p+0 "
        "0x1.e80477476b2b7p-8 0x1.3e808a4c0627cp-4 0x1.ca5d644bf75bap-10 7758,7846,7853",
    ("ts N=3", _PIN_SEEDS[1]):
        "0x1.5d04bf9353fb9p+0 0x1.c76155237d588p-9 0x1.54290ee5178a9p+0 "
        "0x1.eaded0b0a02dap-8 0x1.3598bc53295a0p-4 0x1.c471964892be4p-10 7838,7739,7880",
    ("tc N=3", _PIN_SEEDS[0]):
        "0x1.838e07234af0cp+0 0x1.a60445c7f6e9ep-9 0x1.243cbfd6e6399p+0 "
        "0x1.cbb4cdad15dc6p-8 0x1.c06adda7aa59ap-5 0x1.8558761f1c539p-10 7856,7874,7727",
    ("tc N=3", _PIN_SEEDS[1]):
        "0x1.83311d637df4fp+0 0x1.a9aa9e80dac29p-9 0x1.250cd7ba0b045p+0 "
        "0x1.d0ac94c64bb51p-8 0x1.c6b423c0beaeap-5 0x1.87e7ebbd0a3e8p-10 7824,7792,7841",
    ("ts N=8", _PIN_SEEDS[0]):
        "0x1.8f0aca542176cp+0 0x1.e8d5993b4c8edp-9 0x1.b03b806af8a68p+0 "
        "0x1.282a4dc257ab8p-7 0x1.2290364e56752p-4 0x1.b76a707f267fbp-10 "
        "2927,2939,2934,3003,2947,2957,2884,2866",
    ("ts N=8", _PIN_SEEDS[1]):
        "0x1.8f7cbc42d5a9cp+0 0x1.eb031b8f2353cp-9 0x1.ad7e2a7957fffp+0 "
        "0x1.2701122226a56p-7 0x1.2af1e91a71912p-4 0x1.bd37a323738bap-10 "
        "2957,3012,2934,2916,2951,2945,2916,2826",
    ("tc N=8", _PIN_SEEDS[0]):
        "0x1.de67c97bc82dbp+0 0x1.060693952082ap-9 0x1.04d288fa59086p+0 "
        "0x1.afc3b95df98bdp-8 0x1.cfc8a57331625p-9 0x1.968ae64781362p-12 "
        "2890,2916,2967,2973,2954,2962,2876,2919",
    ("tc N=8", _PIN_SEEDS[1]):
        "0x1.df5a9c8ab281cp+0 0x1.055f097542e5cp-9 0x1.04476883f52b8p+0 "
        "0x1.b3cb5ba04501ep-8 0x1.3e808a4c0627cp-9 0x1.51170805de100p-12 "
        "2990,3052,2892,2918,2904,2889,2951,2861",
    ("wd nu=0.7", _PIN_SEEDS[0]):
        "0x1.6229278ca4943p+0 0x1.9b5cb3746efe9p-9 0x1.1f1624df85b65p+0 "
        "0x1.d72a531963615p-8 0x1.6060bcef9e639p-5 0x1.5b46ae11843a1p-10 11805,11652",
    ("wd nu=0.7", _PIN_SEEDS[1]):
        "0x1.63983fa5b4e6ep+0 0x1.9acf3be71b902p-9 0x1.1ad0713629da8p+0 "
        "0x1.d672d2936bd7ap-8 0x1.5b7d14a3393dep-5 0x1.58f74878b563fp-10 11821,11636",
    ("pareto-capacity zeta=0.7", _PIN_SEEDS[0]):
        "0x1.4b35da7248f6cp+0 0x1.bcfbd7e8a7557p-9 0x1.62ff788cef7adp+0 "
        "0x1.fa4482dd7a3dep-8 0x1.41a52d5890524p-4 0x1.cc6de3abb9744p-10 11719,11738",
    ("pareto-capacity zeta=0.7", _PIN_SEEDS[1]):
        "0x1.4c3d885570b52p+0 0x1.bfc27f372d6f0p-9 0x1.5fb8c1ea2c60fp+0 "
        "0x1.fa2651e462122p-8 0x1.436432986b4d7p-4 0x1.cd9210743cfd2p-10 11854,11603",
    ("pareto-outage zeta=0.7", _PIN_SEEDS[0]):
        "0x1.2ee0c38c1d1c1p+0 0x1.ac89788feff82p-9 0x1.716135f373aacp+0 "
        "0x1.ef561dee7539fp-8 0x1.1a01cfc8a5733p-4 0x1.b1625250ae759p-10 11672,11785",
    ("pareto-outage zeta=0.7", _PIN_SEEDS[1]):
        "0x1.2efbeaee7c64ap+0 0x1.aea8d941b6217p-9 0x1.6ec0bdab3d1e7p+0 "
        "0x1.ef7ceedee9bb6p-8 0x1.1c73a3eed8060p-4 0x1.b31e7325f4d36p-10 11868,11589",
    ("wd nu=inf", _PIN_SEEDS[0]):
        "0x1.133889b8d8c8cp+0 0x1.ded80b4a9d25cp-9 0x1.80d80852a1215p+0 "
        "0x1.e330892bdf829p-8 0x1.71ed4b4af7263p-3 0x1.493e2e10141e8p-9 11636,11821",
    ("wd nu=inf", _PIN_SEEDS[1]):
        "0x1.129dfbe9934f1p+0 0x1.df95c0adc8806p-9 0x1.7f23861cedd6cp+0 "
        "0x1.e231c2b16d419p-8 0x1.76e74d74273edp-3 0x1.4af551e2c36f6p-9 11865,11592",
    ("pareto-capacity zeta=inf", _PIN_SEEDS[0]):
        "0x1.133889b8d8c8cp+0 0x1.ded80b4a9d25cp-9 0x1.80d80852a1215p+0 "
        "0x1.e330892bdf829p-8 0x1.71ed4b4af7263p-3 0x1.493e2e10141e8p-9 11636,11821",
    ("pareto-capacity zeta=inf", _PIN_SEEDS[1]):
        "0x1.129dfbe9934f1p+0 0x1.df95c0adc8806p-9 0x1.7f23861cedd6cp+0 "
        "0x1.e231c2b16d419p-8 0x1.76e74d74273edp-3 0x1.4af551e2c36f6p-9 11865,11592",
    ("pareto-outage zeta=inf", _PIN_SEEDS[0]):
        "0x1.133889b8d8c8cp+0 0x1.ded80b4a9d25cp-9 0x1.80d80852a1215p+0 "
        "0x1.e330892bdf829p-8 0x1.71ed4b4af7263p-3 0x1.493e2e10141e8p-9 11636,11821",
    ("pareto-outage zeta=inf", _PIN_SEEDS[1]):
        "0x1.129dfbe9934f1p+0 0x1.df95c0adc8806p-9 0x1.7f23861cedd6cp+0 "
        "0x1.e231c2b16d419p-8 0x1.76e74d74273edp-3 0x1.4af551e2c36f6p-9 11865,11592",
    ("pareto-outage zeta=0", _PIN_SEEDS[0]):
        "0x1.37cc2f40059c6p+0 0x1.96c6534c59ca1p-9 0x1.5b7a6553dbe8dp+0 "
        "0x1.dfdb1187fc695p-8 0x1.0d9bf75012af2p-5 0x1.315d4e9c54447p-10 11681,11776",
    ("pareto-outage zeta=0", _PIN_SEEDS[1]):
        "0x1.3855aa8ddd80cp+0 0x1.98e46c91018ccp-9 0x1.57a28ccb9c5ccp+0 "
        "0x1.dc3a0d1c46e28p-8 0x1.0bdcf21037b3fp-5 0x1.306854a3170e2p-10 11856,11601",
}


def test_run_estimates_are_pinned():
    """float.hex of every estimate and the selection counts, per case and seed."""
    mismatched = []
    for name, (n_relays, scheme) in _pinned_cases().items():
        for seed in _PIN_SEEDS:
            result = run(SystemConfig(n_relays, 10.0, 1.0, 1.0), scheme,
                         MonteCarloConfig(_PIN_FRAMES, seed))
            estimates = (result.capacity, result.energy, result.outage)
            assert all(e.n == _PIN_FRAMES for e in estimates)
            got = " ".join(f"{e.mean.hex()} {e.std_error.hex()}" for e in estimates)
            got += " " + ",".join(str(c) for c in result.selection_counts)
            if got != _PINNED[name, seed]:
                mismatched.append((name, seed))
    assert not mismatched


@pytest.mark.parametrize("mean_snr, mean_energy, quantity", [
    (1e308, 1.0, "mean SNR"),  # the largest SNR draw, about 18.4 * mean SNR, overflows
    (10.0, 1e160, "mean energy"),  # the square of the largest energy draw overflows
])
def test_a_run_whose_draws_would_overflow_is_refused_before_drawing(
        mean_snr, mean_energy, quantity, monkeypatch):
    monkeypatch.setattr(simulate, "frame_uniforms", lambda *args: pytest.fail("drew frames"))
    with pytest.raises(ValueError, match=f"^{quantity} .* too large to simulate"):
        run(SystemConfig(2, mean_snr, mean_energy, 1.0), TimeSharing(mu=0.5),
            MonteCarloConfig(20_000))


def test_a_run_at_the_largest_mean_snr_it_accepts_is_finite():
    result = run(SystemConfig(2, 9.7e306, 1.0, 1.0), TimeSharing(mu=0.5), MonteCarloConfig(20_000))
    estimates = (result.capacity, result.energy, result.outage)
    assert all(math.isfinite(v) for e in estimates for v in (e.mean, e.std_error))


def test_a_run_whose_sum_overflows_is_refused():
    # each squared energy is finite, but 20,000 of them overflow their sum; with the
    # default workers, and in two chunks on two worker threads, which do not inherit
    # the caller's error state: an overflow warning would fail the test
    for mc in (MonteCarloConfig(20_000), MonteCarloConfig(20_000, batch_size=10_000, n_workers=2)):
        with pytest.raises(ValueError, match="squared energy sum"):
            run(SystemConfig(2, 10.0, 3.5e152, 1.0), TimeSharing(mu=0.5), mc)
