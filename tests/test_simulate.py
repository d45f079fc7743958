import math
import os
import sys
import threading
import tracemalloc
from types import SimpleNamespace

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
def test_frame_uniforms_random_access_at_any_word_offset(n_relays):
    """Frames are packed without padding; a draw may start at any frame, so at any
    word offset k(2N+1) of the stream, and stop at any frame."""
    words = 2 * n_relays + 1
    full = frame_uniforms(seed=5, n_relays=n_relays, start=0, count=40)
    assert full.shape == (40, words)
    for start in range(40):
        for count in {0, 1, min(3, 40 - start), 40 - start}:
            part = frame_uniforms(seed=5, n_relays=n_relays, start=start, count=count)
            assert np.array_equal(full[start:start + count], part)


@pytest.mark.parametrize("n_relays", [1, 2, 3, 8])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("far", [2**60, 2**64])
def test_frame_uniforms_far_into_the_stream(far, seed, n_relays):
    """Starts near 2**60 frames sit past word 2**64 at N = 8, and near 2**64 frames at
    every N: the jump needs all 128 bits of the state.  The reference reaches the same
    word by jumps below 2**62 words each."""
    words = 2 * n_relays + 1
    first = frame_uniforms(seed, n_relays, far - 3, 10)
    second = frame_uniforms(seed, n_relays, far + 2, 10)
    assert np.array_equal(first[5:], second[:5])
    bits = np.random.PCG64DXSM(seed)
    offset = (far - 3) * words
    for _ in range(offset >> 62):
        bits.advance(2**62)
    bits.advance(offset % 2**62)
    assert np.array_equal(first, np.random.Generator(bits).random(10 * words).reshape(10, words))


@pytest.mark.parametrize("n_relays", [1, 2, 3, 8])
@pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
def test_frame_uniforms_follow_one_sequential_stream(seed, n_relays):
    """Frame k is words [k(2N+1), (k+1)(2N+1)) of one sequential PCG64DXSM draw."""
    words = 2 * n_relays + 1
    stream = np.random.Generator(np.random.PCG64DXSM(seed)).random(60 * words)
    for start, count in ((0, 60), (1, 7), (13, 22), (59, 1), (30, 0)):
        assert np.array_equal(frame_uniforms(seed, n_relays, start, count),
                              stream[start * words:(start + count) * words].reshape(count, words))


def test_largest_uniform_is_what_the_overflow_guard_assumes():
    """A uniform is the top 53 bits of a 64-bit word times 2**-53, so the largest is
    1 - 2**-53, the value ``_LARGEST_LOG`` is taken at."""
    words = np.random.PCG64DXSM(11).random_raw(5 * 300)
    assert np.array_equal(frame_uniforms(11, 2, 0, 300).ravel(), (words >> 11) * 2.0**-53)
    largest = ((2**64 - 1) >> 11) * 2.0**-53
    assert largest == 1.0 - 2.0**-53 and simulate._LARGEST_LOG == math.log1p(-largest)


@pytest.mark.parametrize("name, args", [
    ("seed", (1.5, 2, 0, 4)),
    ("seed", (-1, 2, 0, 4)),
    ("seed", (2**64, 2, 0, 4)),
    ("seed", ("3", 2, 0, 4)),
    ("seed", (math.nan, 2, 0, 4)),
    ("n_relays", (1, 0, 0, 4)),
    ("n_relays", (1, -2, 0, 4)),
    ("n_relays", (1, 2.5, 0, 4)),
    ("start", (1, 2, -3, 4)),
    ("start", (1, 2, 0.5, 4)),
    ("count", (1, 2, 0, -1)),
    ("count", (1, 2, 0, 1.5)),
], ids=repr)
def test_frame_uniforms_refuses_a_bad_argument_by_name(name, args):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        frame_uniforms(*args)


@pytest.mark.parametrize("seed", [2**64 - 1, np.uint64(2**64 - 1), float(2**63)])
def test_frame_uniforms_takes_an_integral_seed_of_any_type(seed):
    assert np.array_equal(frame_uniforms(seed, 2, 3, 4), frame_uniforms(int(seed), 2, 3, 4))


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
    """Every rule family at three or more weights, so that a kept weight-free stage
    serves several runs.  Also with a memo cap of 1 MiB, which holds the frames
    and coins of one or two chunks at N = 2 (480 kB per 10,000 frames) and few of
    their stages (180 kB per 10,000 frames for the gather base and time sharing's
    stage alone), so later chunks and stages spill."""
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    schemes = [TimeSharing(mu=0.3), ThresholdChecking(tau=4.0), WeightedDifference(nu=0.7),
               ParetoOptimal(zeta=1.0, metric=Metric.CAPACITY),
               ParetoOptimal(zeta=1.0, metric=Metric.OUTAGE_INDICATOR),
               TimeSharing(mu=0.0), TimeSharing(mu=1.0),
               ThresholdChecking(tau=0.0), ThresholdChecking(tau=math.inf)]
    for weight in (0.0, 2.5, math.inf):
        schemes += [WeightedDifference(nu=weight),
                    ParetoOptimal(zeta=weight, metric=Metric.CAPACITY),
                    ParetoOptimal(zeta=weight, metric=Metric.OUTAGE_INDICATOR)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_MEMO_BYTES", cap)
        mc = MonteCarloConfig(n_frames, seed, batch_size=batch_size, n_workers=n_workers)
        outside = [run(cfg, scheme, mc) for scheme in schemes]
        with simulate._shared_frames():
            inside = [run(cfg, scheme, mc) for scheme in schemes + schemes]
            assert simulate._frame_memo.get().nbytes <= cap
    assert inside == outside + outside


@pytest.mark.parametrize("n_relays, frames", [(1, 4000), (2, 4000), (3, 4000), (8, 4000),
                                               (256, 300), (257, 300)])
@pytest.mark.parametrize("mean_snr", [1e-300, 1e-5, 1.0, 37.0, 1e150, 9.7e306])
def test_rank_path_selects_as_the_value_rule(n_relays, frames, mean_snr):
    """Outside a frame scope time sharing and threshold checking select on the
    uniforms, with tau mapped to a uniform; that must pick the relay that
    ``select_indices`` picks on the transformed frames, at tau on a drawn best
    SNR, at both its float neighbours, at 0 and at infinity."""
    cfg = SystemConfig(n_relays, mean_snr, 3.0, 1.0)
    u = frame_uniforms(11, n_relays, 0, frames)
    snr, energy, coins = frames_from_uniforms(cfg, u.copy())
    n = n_relays
    ranks = u[:, :n], u[:, n : 2 * n], u[:, 2 * n]
    taus = [0.0, math.inf]
    for best in np.quantile(snr.max(axis=1), [0.0, 0.1, 0.5, 0.9, 1.0], method="nearest"):
        taus += [np.nextafter(best, 0.0), best, np.nextafter(best, math.inf)]
    for tau in taus:
        by_rank = ThresholdChecking(tau=simulate._uniform_threshold(cfg, tau))
        assert np.array_equal(select_indices(by_rank, *ranks),
                              select_indices(ThresholdChecking(tau=tau), snr, energy)), tau
    for mu in (0.0, 0.37, 1.0):
        assert np.array_equal(select_indices(TimeSharing(mu=mu), *ranks),
                              select_indices(TimeSharing(mu=mu), snr, energy, coins)), mu
    # the engine's pass: a chunk's sums and counts equal those of its transformed frames
    tau = taus[9]  # the median best SNR
    for scheme, rank_scheme in [
        (ThresholdChecking(tau=tau), ThresholdChecking(tau=simulate._uniform_threshold(cfg, tau))),
        (TimeSharing(mu=0.37), TimeSharing(mu=0.37)),
    ]:
        by_rank = simulate._chunk_stats(cfg, rank_scheme, 11, 0, frames, None)
        by_value = simulate._chunk_stats(cfg, scheme, 11, 0, frames, simulate._FrameMemo())
        assert all(np.array_equal(a, b) for a, b in zip(by_rank, by_value))


def test_frame_scope_spills_past_its_cap(config10, monkeypatch):
    drawn = []
    draw = simulate.frame_uniforms

    def spy(seed, n_relays, start, count):
        drawn.append(start)
        return draw(seed, n_relays, start, count)

    # A 10,000-frame chunk at N = 2 keeps 5 words of frames and a coin per frame,
    # and with them the gather base (one intp) and time sharing's weight-free
    # stage (two bool indices and the best SNR): 66 bytes per frame in all.
    chunk = 10_000 * (5 * 8 + 8 + 8 + 2 * 1 + 8)
    monkeypatch.setattr(simulate, "frame_uniforms", spy)
    monkeypatch.setattr(simulate, "_MEMO_BYTES", 2 * chunk)
    mc = MonteCarloConfig(50_000, seed=2, batch_size=10_000, n_workers=2)
    scheme = TimeSharing(mu=0.5)
    reference = run(config10, scheme, mc)
    drawn.clear()
    with simulate._shared_frames():
        assert run(config10, scheme, mc) == run(config10, scheme, mc) == reference
        memo = simulate._frame_memo.get()
        assert len(memo.chunks) == 2 and memo.nbytes == 2 * chunk
        # each record holds its frames and two kept arrays: no stage is kept without its chunk
        assert all(record.keys() == {"frames", "at", "best relays"} for record in memo.chunks.values())
    assert len(drawn) == 5 + 3


def test_shared_frames_are_read_only(config10):
    """The kept frames and, for each of the six families, the kept weight-free arrays."""
    schemes = [TimeSharing(mu=0.5), WeightedDifference(nu=0.7), WeightedDifference(nu=math.inf),
               ParetoOptimal(zeta=1.0, metric=Metric.CAPACITY),
               ParetoOptimal(zeta=1.0, metric=Metric.OUTAGE_INDICATOR)]
    with simulate._shared_frames():
        for scheme in schemes + schemes:
            run(config10, scheme, MonteCarloConfig(40_000, seed=1))
        records = list(simulate._frame_memo.get().chunks.values())
    # the frames, a stage per family and the gather base
    assert len(records) == 2 and all(len(record) == 1 + len(schemes) + 1 for record in records)
    for record in records:
        for arrays in record.values():
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


@pytest.mark.parametrize("n_relays", [1, 2, 3, 8])
def test_runs_in_a_frame_scope_equal_runs_outside_on_tied_draws(n_relays, monkeypatch):
    """Draws on a grid of quarters make SNRs, energies and coins tie in most
    frames, so every tie rule decides: the lowest index wins, a weighted
    difference tie goes to relay 0, a Pareto tie to the larger energy, then
    relay 0; a best SNR equal to tau clears it."""
    draw = simulate.frame_uniforms
    monkeypatch.setattr(simulate, "frame_uniforms", lambda *args: np.floor(draw(*args) * 4) / 4)
    cfg = SystemConfig(n_relays, 10.0, 1.0, 1.0)
    tau = float(frames_from_uniforms(cfg, np.full((1, 2 * n_relays + 1), 0.5))[0][0, 0])
    schemes = [TimeSharing(mu=0.3), TimeSharing(mu=0.5), ThresholdChecking(tau=tau),
               ThresholdChecking(tau=0.0)]
    if n_relays == 2:
        for weight in (0.0, 0.4, math.inf):
            schemes += [WeightedDifference(nu=weight),
                        ParetoOptimal(zeta=weight, metric=Metric.CAPACITY),
                        ParetoOptimal(zeta=weight, metric=Metric.OUTAGE_INDICATOR)]
    mc = MonteCarloConfig(30_000, seed=3, batch_size=10_000, n_workers=2)
    outside = [run(cfg, scheme, mc) for scheme in schemes]
    with simulate._shared_frames():
        inside = [run(cfg, scheme, mc) for scheme in schemes + schemes]
        assert any(len(record) > 1 for record in simulate._frame_memo.get().chunks.values())
    assert inside == outside + outside


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


def _spy_on_threads(monkeypatch, thread):
    """Give ``simulate`` a ``threading`` whose Thread is ``thread``."""
    monkeypatch.setattr(simulate, "threading", SimpleNamespace(Lock=threading.Lock, Thread=thread))


def test_single_chunk_runs_without_a_pool(config10, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chunk run started a thread")

    _spy_on_threads(monkeypatch, no_thread)
    mc = MonteCarloConfig(10_000, seed=1, batch_size=60_000, n_workers=3)
    assert sum(run(config10, TimeSharing(mu=0.5), mc).selection_counts) == 10_000


def test_pool_starts_no_more_threads_than_cores(config10, monkeypatch):
    """The caller evaluates chunks too: W chunk-evaluating threads are W - 1 started threads."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    _spy_on_threads(monkeypatch, Counted)
    scheme = TimeSharing(mu=0.5)
    reference = run(config10, scheme, MonteCarloConfig(50_000, seed=1, n_workers=1))
    assert started == []
    for cores, helpers in [(3, 2), (8, 4), (1, 0)]:  # five chunks
        monkeypatch.setattr(simulate, "_CORES", cores)
        started.clear()
        mc = MonteCarloConfig(50_000, seed=1, batch_size=10_000, n_workers=100_000)
        assert run(config10, scheme, mc) == reference
        assert len(started) == helpers and not any(t.is_alive() for t in started)


def test_threads_claim_every_chunk_once_under_frequent_switches(monkeypatch):
    """Eight threads on any host, switching every microsecond: a lost or repeated
    claim would evaluate a chunk twice, or leave one unevaluated."""
    config, scheme = SystemConfig(1, 10.0, 1.0, 1.0), TimeSharing(mu=0.5)
    reference = run(config, scheme, MonteCarloConfig(400_000, seed=2, n_workers=1))
    starts, chunk_stats = [], simulate._chunk_stats
    monkeypatch.setattr(simulate, "_chunk_stats",
                        lambda *args: starts.append(args[3]) or chunk_stats(*args))
    monkeypatch.setattr(simulate, "_CORES", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run(config, scheme, MonteCarloConfig(400_000, seed=2, batch_size=10_000,
                                                      n_workers=8))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(starts) == list(range(0, 400_000, 10_000)) and result == reference


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_an_error_in_a_chunk_propagates_and_no_thread_outlives_the_run(
        config10, monkeypatch, failing):
    """Each thread waits for the other on its first chunk, so both hold one; then the
    failing thread's chunk raises."""
    both_claimed, seen = threading.Barrier(2, timeout=30), set()
    chunk_stats = simulate._chunk_stats

    def flaky(*args):
        me = threading.current_thread()
        if me not in seen:
            seen.add(me)
            both_claimed.wait()
            if (me is threading.main_thread()) == (failing == "caller"):
                raise RuntimeError(f"the {failing}'s chunk failed")
        return chunk_stats(*args)

    monkeypatch.setattr(simulate, "_chunk_stats", flaky)
    monkeypatch.setattr(simulate, "_CORES", 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"the {failing}'s chunk failed"):
        run(config10, TimeSharing(mu=0.5), MonteCarloConfig(50_000, seed=1, batch_size=10_000,
                                                            n_workers=2))
    assert threading.active_count() == before


def test_a_run_reads_no_cgroup_or_affinity_file(config10, monkeypatch):
    """The cores are read once per process, at import, not by each multi-chunk run."""
    def no_read(*args):
        raise AssertionError("a run read the cores it may use")

    scheme = TimeSharing(mu=0.5)
    reference = run(config10, scheme, MonteCarloConfig(50_000, seed=1, n_workers=1))
    monkeypatch.setattr(simulate, "_CORES", 2)
    monkeypatch.setattr(simulate, "_cpu_quota", no_read)
    monkeypatch.setattr(simulate, "_default_workers", no_read)
    mc = MonteCarloConfig(50_000, seed=1, batch_size=10_000, n_workers=2)  # five chunks
    assert run(config10, scheme, mc) == reference


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
# column-wise selection kernels replaced per-row argmax and 2-D gathers, and
# again when frames moved to the PCG64DXSM stream, after each estimate matched
# its closed form within |z| <= 5.  A change to any frame's draw, selection,
# gather or reduction moves a bit here.
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
        "0x1.13a7847b4298cp+0 0x1.dedb5efa7497ap-9 0x1.fd845789a7397p-1 "
        "0x1.aa0b5718d6e34p-8 0x1.717d89fb00676p-3 0x1.491763a18da66p-9 23457",
    ("ts N=1", _PIN_SEEDS[1]):
        "0x1.1520e2cdb68ffp+0 0x1.deff5c0ddc643p-9 0x1.fb45fe87d9db4p-1 "
        "0x1.a4f1fe1640553p-8 0x1.6f7b7724c4935p-3 0x1.48646316da3f8p-9 23457",
    ("tc N=1", _PIN_SEEDS[0]):
        "0x1.13a7847b4298cp+0 0x1.dedb5efa7497ap-9 0x1.fd845789a7397p-1 "
        "0x1.aa0b5718d6e34p-8 0x1.717d89fb00676p-3 0x1.491763a18da66p-9 23457",
    ("tc N=1", _PIN_SEEDS[1]):
        "0x1.1520e2cdb68ffp+0 0x1.deff5c0ddc643p-9 0x1.fb45fe87d9db4p-1 "
        "0x1.a4f1fe1640553p-8 0x1.6f7b7724c4935p-3 0x1.48646316da3f8p-9 23457",
    ("ts N=2", _PIN_SEEDS[0]):
        "0x1.45981772eaab2p+0 0x1.c38a2f43d6950p-9 0x1.3217f35c0063fp+0 "
        "0x1.cba50b08243fbp-8 0x1.6d4cb094f2d96p-4 0x1.e7d5b49c0af2fp-10 11764,11693",
    ("ts N=2", _PIN_SEEDS[1]):
        "0x1.463a1e5b7be93p+0 0x1.c6c23ec685e95p-9 0x1.2f653e5b22dc6p+0 "
        "0x1.c888c626269d2p-8 0x1.77f383cdaaa25p-4 0x1.ee3061ec7da32p-10 11655,11802",
    ("tc N=2", _PIN_SEEDS[0]):
        "0x1.5772f6ec78dabp+0 0x1.d4d1839c8117bp-9 0x1.266ed245886b5p+0 "
        "0x1.c666b61d3978ap-8 0x1.9304552b6cd76p-4 0x1.fdcdd78afb32ap-10 11764,11693",
    ("tc N=2", _PIN_SEEDS[1]):
        "0x1.58a95e078aed8p+0 0x1.d72b3fc7e8305p-9 0x1.23f8d31464255p+0 "
        "0x1.bcc92462df34fp-8 0x1.99d3b67142de1p-4 0x1.00cf3da4f5e0dp-9 11727,11730",
    ("ts N=3", _PIN_SEEDS[0]):
        "0x1.5f440c2cb9d91p+0 0x1.c606dbe40f6c4p-9 0x1.50e6ba8126aa3p+0 "
        "0x1.e50aa5eeb153ap-8 0x1.2af1e91a71912p-4 0x1.bd37a323738bap-10 7921,7765,7771",
    ("ts N=3", _PIN_SEEDS[1]):
        "0x1.5e49b20f281abp+0 0x1.c58c39e708ccdp-9 0x1.534dcc928b78bp+0 "
        "0x1.e3d74fe1ce486p-8 0x1.34331e867a2abp-4 0x1.c3814c32227cdp-10 7814,7780,7863",
    ("tc N=3", _PIN_SEEDS[0]):
        "0x1.8491dc74ab27ep+0 0x1.a65cf0fd1253dp-9 0x1.203ac5d0771e9p+0 "
        "0x1.c47b4997f01f4p-8 0x1.ac82d502e9f73p-5 0x1.7d18262f7fc86p-10 7871,7694,7892",
    ("tc N=3", _PIN_SEEDS[1]):
        "0x1.83a483720184bp+0 0x1.aa6acabf10220p-9 0x1.21be9ce6125c8p+0 "
        "0x1.c654b64875f49p-8 0x1.cf6f3e0005967p-5 0x1.8b6d635521ef2p-10 7834,7822,7801",
    ("ts N=8", _PIN_SEEDS[0]):
        "0x1.8df7a212cf686p+0 0x1.ece4d05cd5216p-9 0x1.b06004d0da45cp+0 "
        "0x1.28e901013fce5p-7 0x1.2906302100b00p-4 0x1.bbe59e69ec318p-10 "
        "2997,2824,2935,2975,2884,2937,2948,2957",
    ("ts N=8", _PIN_SEEDS[1]):
        "0x1.8da145a6f2ab3p+0 0x1.ec3d0aa30922fp-9 0x1.aeb2a90be344cp+0 "
        "0x1.2711fe5a458aep-7 0x1.300245206c9cbp-4 0x1.c0ac3f2c084ebp-10 "
        "2842,2931,2891,2945,2930,2973,2952,2993",
    ("tc N=8", _PIN_SEEDS[0]):
        "0x1.dec904e916077p+0 0x1.09d00b917bc5cp-9 0x1.036bbc11df9a4p+0 "
        "0x1.b19b125995306p-8 0x1.76613247658d1p-9 0x1.6d630c579a4d3p-12 "
        "2997,2860,2935,2987,2877,2899,2910,2992",
    ("tc N=8", _PIN_SEEDS[1]):
        "0x1.de1245523ec62p+0 0x1.070e823487b80p-9 0x1.04144a25315bdp+0 "
        "0x1.b06f3c8924c1ep-8 0x1.76613247658d1p-9 0x1.6d630c579a4d3p-12 "
        "2844,2932,2888,2941,2944,2929,2972,3007",
    ("wd nu=0.7", _PIN_SEEDS[0]):
        "0x1.6372ec1f21e11p+0 0x1.9a6bb613e7ecep-9 0x1.1cc24279c6f60p+0 "
        "0x1.d1af034315c2fp-8 0x1.515c5c974326cp-5 0x1.541ef8a40bec3p-10 11785,11672",
    ("wd nu=0.7", _PIN_SEEDS[1]):
        "0x1.64e24ed7bfe4ap+0 0x1.9b8ae9f6e0d3ep-9 0x1.19c0f11f82061p+0 "
        "0x1.c899dd9e96966p-8 0x1.56996c56d4184p-5 0x1.56a31e89b637fp-10 11705,11752",
    ("pareto-capacity zeta=0.7", _PIN_SEEDS[0]):
        "0x1.4cb70817e5577p+0 0x1.bd10791e4965cp-9 0x1.5faebb6fb0c7ep+0 "
        "0x1.f2c953f4cc41bp-8 0x1.3f600cebf3a55p-4 0x1.caf0881a8f960p-10 11720,11737",
    ("pareto-capacity zeta=0.7", _PIN_SEEDS[1]):
        "0x1.4dded90760d5bp+0 0x1.c0223a0af9b2cp-9 0x1.5e88abd1f6e41p+0 "
        "0x1.f02e4f44e98a9p-8 0x1.3e2722d8da5bfp-4 0x1.ca22769c3893fp-10 11639,11818",
    ("pareto-outage zeta=0.7", _PIN_SEEDS[0]):
        "0x1.2f9276af7a64ap+0 0x1.ac1ff68546a3ep-9 0x1.6e57c3b022ac1p+0 "
        "0x1.e8149c0bc50e4p-8 0x1.13e53d6927042p-4 0x1.ad016b53be229p-10 11730,11727",
    ("pareto-outage zeta=0.7", _PIN_SEEDS[1]):
        "0x1.30a73437726cap+0 0x1.ad813e308fd3cp-9 0x1.6d3b5962be146p+0 "
        "0x1.e5ea1f365f2efp-8 0x1.178ffba272e06p-4 0x1.afa3ca0f3e3f9p-10 11645,11812",
    ("wd nu=inf", _PIN_SEEDS[0]):
        "0x1.1443895798ea3p+0 0x1.dc5fcdc0f052cp-9 0x1.7e40e3032355dp+0 "
        "0x1.db2477ea8535cp-8 0x1.6d1ffcdb5cf37p-3 0x1.4791107c189bap-9 11752,11705",
    ("wd nu=inf", _PIN_SEEDS[1]):
        "0x1.138769d232837p+0 0x1.e13cef440d7b6p-9 0x1.7d9cb603c040dp+0 "
        "0x1.d8e77ce00ac37p-8 0x1.76e74d74273edp-3 0x1.4af551e2c36f6p-9 11696,11761",
    ("pareto-capacity zeta=inf", _PIN_SEEDS[0]):
        "0x1.1443895798ea3p+0 0x1.dc5fcdc0f052cp-9 0x1.7e40e3032355dp+0 "
        "0x1.db2477ea8535cp-8 0x1.6d1ffcdb5cf37p-3 0x1.4791107c189bap-9 11752,11705",
    ("pareto-capacity zeta=inf", _PIN_SEEDS[1]):
        "0x1.138769d232837p+0 0x1.e13cef440d7b6p-9 0x1.7d9cb603c040dp+0 "
        "0x1.d8e77ce00ac37p-8 0x1.76e74d74273edp-3 0x1.4af551e2c36f6p-9 11696,11761",
    ("pareto-outage zeta=inf", _PIN_SEEDS[0]):
        "0x1.1443895798ea3p+0 0x1.dc5fcdc0f052cp-9 0x1.7e40e3032355dp+0 "
        "0x1.db2477ea8535cp-8 0x1.6d1ffcdb5cf37p-3 0x1.4791107c189bap-9 11752,11705",
    ("pareto-outage zeta=inf", _PIN_SEEDS[1]):
        "0x1.138769d232837p+0 0x1.e13cef440d7b6p-9 0x1.7d9cb603c040dp+0 "
        "0x1.d8e77ce00ac37p-8 0x1.76e74d74273edp-3 0x1.4af551e2c36f6p-9 11696,11761",
    ("pareto-outage zeta=0", _PIN_SEEDS[0]):
        "0x1.38c44978e145bp+0 0x1.9631b64f5146dp-9 0x1.57bc7a331b5d6p+0 "
        "0x1.d6e736d2644bfp-8 0x1.f798b6bcb2274p-6 0x1.276feaa0e3f9bp-10 11723,11734",
    ("pareto-outage zeta=0", _PIN_SEEDS[1]):
        "0x1.39db4e407fdf4p+0 0x1.97869a01dc4e2p-9 0x1.573f90c209e5ep+0 "
        "0x1.d63ca7691efadp-8 0x1.0a7754438884ap-5 0x1.2fa3b6778ee80p-10 11703,11754",
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
    # default workers, and in two chunks on the caller and a helper thread, which does not
    # inherit the caller's error state: an overflow warning would fail the test
    for mc in (MonteCarloConfig(20_000), MonteCarloConfig(20_000, batch_size=10_000, n_workers=2)):
        with pytest.raises(ValueError, match="squared energy sum"):
            run(SystemConfig(2, 10.0, 3.5e152, 1.0), TimeSharing(mu=0.5), mc)
