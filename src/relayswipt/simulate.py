"""Deterministic Monte Carlo engine for any (config, scheme) pair.

Frame k's 2N+1 uniforms (N SNR draws, N energy draws, one selection coin) are
packed back to back in a PCG64DXSM stream seeded by the seed, from word k(2N+1)
on (``advance`` jumps there), so a frame's content depends only on (seed, k).
Every scheme reads the same layout, coin included, so runs of different schemes
with one seed share their channel draws.  Accumulation happens over fixed-size
statistics blocks that are reduced in block order.  Together these make the
result bit-identical for a given (config, scheme, seed, n_frames) no matter how
frames are chunked or how many workers evaluate the chunks.

``batch_size`` and ``n_workers`` are therefore pure throughput knobs.
``n_workers`` defaults to the cores this process may run on (CPU affinity),
capped by a cgroup CPU quota rounded up, read once per process.  W threads
evaluate a run's chunks, W the least of ``n_workers``, those cores and the
run's chunks: the calling thread and W - 1 helper threads it starts, each
claiming the next chunk from one shared counter, so a run with one chunk or on
one core starts no thread.  Each holds one chunk of at most 3 MiB.

A run's pass over a chunk: the selection rule reads its SNR and energy columns
one at a time; the selected relay's SNR and energy are gathered by flat index
k(2N+1) + relay (the energy N words on) into one (5, count) array of per-frame
statistics, computed in place and reduced per block at once; the selection
counts are a count of the ones at N = 2, else a bincount.  Weighted difference
and Pareto compare values, so their chunk is transformed in place first.  Time
sharing and threshold checking read a frame only through the order of each
column group and the best SNR against tau: outside a scope (below) they select
on the uniforms and transform only the two gathered draws.

Runs that share (config, seed, n_frames) read the same frames, so a caller
that makes many of them (the CLI's ``--with-mc`` overlay: one run per
scheme and tradeoff factor) may open ``_shared_frames()`` around them.
Inside that scope each chunk is drawn and transformed once and kept, read-only,
for every later run of the scope, in one record with its gather base k(2N+1) and
each rule family's weight-free stage (``schemes``), so a run does only the
weight stage, the gather and the sums.  All of it counts against ``_MEMO_BYTES``
(16 MiB); a chunk past the cap keeps no record.  Nothing outlives the scope.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import SystemConfig, _inverse_cdf, frames_from_uniforms, uniforms_per_frame
from .schemes import (SchemeParam, ThresholdChecking, TimeSharing, _free_stage, _stage_family,
                      _weight_stage, select_indices, validate_scheme)

__all__ = [
    "MonteCarloConfig",
    "Estimate",
    "SimulationResult",
    "frame_uniforms",
    "run",
]

# Frames per statistics block; fixed so that sums are invariant to chunking.
_STAT_BLOCK = 10_000

# Bytes one chunk may hold: per frame, its 2N+1 uniforms and up to
# _TEMP_WORDS 8-byte temporaries (measured at N = 1..8).  A ``_shared_frames``
# scope keeps up to _MEMO_BYTES of frames and coins.
_CHUNK_BYTES = 3 * 2**20
_TEMP_WORDS = 12
_MEMO_BYTES = 16 * 2**20

# Minimum expected outage events before the estimate is trusted.
_MIN_OUTAGE_EVENTS = 100

# log1p(-u) at the largest uniform a draw gives, 1 - 2**-53, is -53 ln 2:
# no draw exceeds about 36.74 times its scale.
_LARGEST_LOG = math.log1p(-(1.0 - 2.0**-53))
_SUM_NAMES = ("capacity", "squared capacity", "energy", "squared energy", "outage")


def _cpu_quota(cgroup: str | os.PathLike = "/sys/fs/cgroup") -> int | None:
    """CPUs a cgroup CPU quota allows, rounded up; None when unlimited or unreadable.

    Reads cgroup v2 ``cpu.max`` ("max 100000" or "150000 100000"), else cgroup
    v1 ``cpu/cpu.cfs_quota_us`` and ``cpu/cpu.cfs_period_us`` (quota -1 when
    unlimited).
    """
    root = Path(cgroup)
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            quota, period = (int(w) for w in " ".join(
                (root / name).read_text() for name in names).split())
        except (OSError, ValueError):  # absent, "max", or not two numbers
            continue
        return max(1, -(-quota // period)) if quota > 0 and period > 0 else None
    return None


def _default_workers(cgroup: str | os.PathLike = "/sys/fs/cgroup") -> int:
    """CPU affinity (1 where the platform cannot tell), capped by a cgroup CPU quota."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    quota = _cpu_quota(cgroup)
    return cores if quota is None else min(cores, quota)


_CORES = _default_workers()  # read once per process: it reads cgroup files


def _integer(name, value, low, high=math.inf):
    """``value`` as an int in [low, high]; an integral float, bool or numpy value counts."""
    number = int(value) if isinstance(value, numbers.Real) and value % 1 == 0 else value
    if type(number) is not int or not low <= number <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return number


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling plan: frame budget, seed, and throughput knobs.

    ``batch_size`` (20,000 frames by default) is cut into whole statistics
    blocks within the 3 MiB chunk cap: 20,000 frames at N <= 3, 10,000 at
    N >= 4.  ``n_workers`` is an upper bound: at most that many threads, the
    caller included, evaluate a run's chunks, and no more than it has chunks
    or than the cores this process may run on (``_default_workers``, read at import).
    """

    n_frames: int
    seed: int = 0
    batch_size: int = 2 * _STAT_BLOCK
    n_workers: int = _CORES

    def __post_init__(self):
        for name, low, high in (("n_frames", 1, math.inf), ("seed", 0, 2**64 - 1),
                                ("batch_size", 1, math.inf), ("n_workers", 1, math.inf)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low, high))


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error and the sample count."""

    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class SimulationResult:
    """Estimates plus per-relay selection counts for one simulation run."""

    capacity: Estimate
    energy: Estimate
    outage: Estimate
    selection_counts: tuple[int, ...]
    low_confidence: bool


def frame_uniforms(seed: int, n_relays: int, start: int, count: int) -> np.ndarray:
    """Uniform draws for frames [start, start+count), shape (count, 2N+1).

    Frame k starts at word k(2N+1) of the PCG64DXSM stream seeded by the
    seed, which ``advance`` reaches in O(log k) steps, so any partition of the
    frame range yields identical rows.  Raises ValueError naming the argument
    unless seed is an integer in [0, 2**64 - 1], n_relays >= 1 and start, count >= 0.
    """
    seed = _integer("seed", seed, 0, 2**64 - 1)
    n_relays = _integer("n_relays", n_relays, 1)
    start = _integer("start", start, 0)
    count = _integer("count", count, 0)
    words = uniforms_per_frame(n_relays)
    bits = np.random.PCG64DXSM(seed)
    bits.advance(start * words)
    return np.random.Generator(bits).random(count * words).reshape(count, words)


class _FrameMemo:
    """A scope's chunk records by (config, seed, start, count): their kept arrays by name."""

    def __init__(self):
        self.chunks = {}
        self.nbytes = 0
        self.lock = threading.Lock()  # chunks are evaluated on helper threads too


_frame_memo: contextvars.ContextVar[_FrameMemo | None] = contextvars.ContextVar(
    "_frame_memo", default=None)


@contextlib.contextmanager
def _shared_frames():
    """Share drawn and transformed chunks among the runs made inside the scope."""
    token = _frame_memo.set(_FrameMemo())
    try:
        yield
    finally:
        _frame_memo.reset(token)


def _keep(memo, key, name, arrays, u):
    """Keep arrays, read-only, in key's record within ``_MEMO_BYTES``; views into u cost nothing."""
    nbytes = sum(a.nbytes for a in arrays if a is u or not np.may_share_memory(a, u))
    with memo.lock:
        if name not in memo.chunks.get(key, ()) and memo.nbytes + nbytes <= _MEMO_BYTES:
            for array in arrays:
                array.flags.writeable = False
            memo.chunks.setdefault(key, {})[name] = arrays
            memo.nbytes += nbytes


def _chunk_stats(config, scheme, seed, start, count, memo):
    """Per-statistics-block sums for frames [start, start+count).

    Returns a (5, blocks) array of the capacity, squared capacity, energy,
    squared energy and outage sums of each block, and the selection counts.
    ``start`` must be a multiple of the statistics block size.  Without a memo,
    time sharing and threshold checking select on the uniforms (tau mapped by
    ``run``) and transform only the chosen relay's draws: the same relay, as
    the transform is nondecreasing, unless two draws round to one value.
    """
    n, threshold = config.n_relays, config.outage_threshold
    key = (config, int(seed), start, count)
    rank = memo is None and isinstance(scheme, (TimeSharing, ThresholdChecking))
    if memo is None or (record := memo.chunks.get(key)) is None:
        u = frame_uniforms(seed, n, start, count)  # snr and energy are views into u
        record = {"frames": (u, u[:, :n], u[:, n : 2 * n], u[:, 2 * n]) if rank else (
            u, *frames_from_uniforms(config, u))}  # transformed in place
        if memo is not None:
            _keep(memo, key, "frames", record["frames"], u)
    u, snr, energy, coins = record["frames"]

    def kept(name, make):  # the arrays the memo keeps with this chunk, else make()'s
        if (arrays := record.get(name)) is None:
            _keep(memo, key, name, arrays := make(), u)
        return arrays

    # Flat index of each frame's selected SNR in the contiguous frame array;
    # its energy sits N words further on, at the same index of the array
    # shifted by N.  The indices are in range by construction: "clip" skips
    # the bounds check and the copy of ``out`` that the default mode makes.
    if memo is not None and key in memo.chunks:
        family = _stage_family(scheme)
        stage = kept(family, lambda: _free_stage(family, snr, energy, threshold))
        sel = _weight_stage(scheme, stage, coins)
        at = kept("at", lambda: (np.arange(0, count * u.shape[1], u.shape[1]),))[0] + sel
    else:
        sel = select_indices(scheme, snr, energy, coins, threshold)
        at = np.arange(0, count * u.shape[1], u.shape[1])
        at += sel
    stats = np.empty((5, count))  # written in place: fewer passes than np.stack
    cap, cap_sq, en, en_sq, out = stats
    u.take(at, out=cap, mode="clip")
    u.ravel()[n:].take(at, out=en, mode="clip")
    if rank:
        _inverse_cdf(config, stats[:3:2], cap, en)
    np.less(cap, threshold, out=out)
    cap += 1.0
    np.log2(cap, out=cap)
    cap *= 0.5
    np.multiply(cap, cap, out=cap_sq)
    np.multiply(en, en, out=en_sq)
    # a block sum may overflow to inf, which ``run`` refuses by name; helper
    # threads do not inherit the caller's error state, so it is set here
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(stats, np.arange(0, count, _STAT_BLOCK), axis=1)
    if n == 2:  # a count of the ones is a twentieth of a bincount's cost
        ones = np.count_nonzero(sel)
        return sums, np.array([count - ones, ones])
    return sums, np.bincount(sel, minlength=n)


def _uniform_threshold(config, tau):
    """The smallest draw, a multiple of 2**-53, whose SNR is >= tau (1.0 if none):
    a frame's best SNR reaches tau iff its largest SNR draw reaches this.  A
    64-way bisection over the 2**53 draws, each probe by the engine's transform."""
    lo, hi = 0, 2**53  # the answer, in units of 2**-53, lies in [lo, hi]
    while lo < hi:
        k = np.arange(lo, hi, -(-(hi - lo) // 64))
        u = k * 2.0**-53
        below = np.count_nonzero(_inverse_cdf(config, u, u) < tau)
        lo, hi = (int(k[below - 1]) + 1 if below else lo), (int(k[below]) if below < k.size else hi)
    return lo * 2.0**-53


def _estimate(total: float, total_sq: float, n: int) -> Estimate:
    var = max(total_sq - total * total / n, 0.0) / (n - 1) if n > 1 else 0.0
    return Estimate(mean=total / n, std_error=math.sqrt(var / n), n=n)


def run(config: SystemConfig, scheme: SchemeParam, mc: MonteCarloConfig) -> SimulationResult:
    """Estimate ergodic capacity, average energy, and outage for a scheme.

    Per frame: draw the channel realization from the seed-derived substream,
    apply the scheme (time sharing consumes the frame's coin), and
    accumulate the selected relay's capacity, energy and outage indicator.
    Raises ValueError, before drawing a frame, where the largest SNR draw or
    the square of the largest energy draw would overflow, and where a sum does.
    """
    validate_scheme(scheme, config.n_relays)
    n = mc.n_frames
    # the largest draw of each kind, in the transform's arithmetic, and the square of the energy
    if not math.isfinite(_LARGEST_LOG * (-0.5 * config.mean_snr)):
        raise ValueError(f"mean SNR {config.mean_snr!r} is too large to simulate: "
                         f"a frame's SNR draw would overflow")
    top_energy = _LARGEST_LOG * -config.mean_energy
    if not math.isfinite(top_energy * top_energy):
        raise ValueError(f"mean energy {config.mean_energy!r} is too large to simulate: "
                         f"the square of a frame's energy draw would overflow")

    # Chunks are whole numbers of statistics blocks so block boundaries are
    # global, independent of batch_size; each chunk fits the cap.
    frame_bytes = 8 * (uniforms_per_frame(config.n_relays) + _TEMP_WORDS)
    max_blocks = _CHUNK_BYTES // (frame_bytes * _STAT_BLOCK)
    chunk = max(1, min(-(-mc.batch_size // _STAT_BLOCK), max_blocks)) * _STAT_BLOCK
    jobs = [(s, min(chunk, n - s)) for s in range(0, n, chunk)]
    memo = _frame_memo.get()  # read here: helper threads do not see this context
    if memo is None and isinstance(scheme, ThresholdChecking):  # chunks compare uniforms
        scheme = ThresholdChecking(_uniform_threshold(config, scheme.tau))

    workers = min(mc.n_workers, len(jobs), _CORES)
    results, errors, claims, lock = [None] * len(jobs), [], iter(range(len(jobs))), threading.Lock()

    def evaluate():  # claim the next chunk until none is left or a thread has failed
        while True:
            with lock:
                i = None if errors else next(claims, None)
            if i is None:
                return
            try:
                results[i] = _chunk_stats(config, scheme, mc.seed, *jobs[i], memo)
            except BaseException as error:  # the other threads stop at their next claim
                errors.append(error)

    # The caller evaluates chunks beside workers - 1 helper threads.
    helpers = [threading.Thread(target=evaluate) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        evaluate()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]

    # Blocks are merged in block order, whatever the chunking.
    block_sums = np.concatenate([chunk_sums for chunk_sums, _ in results], axis=1)
    counts = sum(chunk_counts for _, chunk_counts in results)
    with np.errstate(over="ignore"):  # an overflowing sum is refused by name below
        sums = block_sums.sum(axis=1).tolist()
    for name, total in zip(_SUM_NAMES, sums):
        if not math.isfinite(total):
            raise ValueError(f"the {name} sum over {n} frames overflows")
    cap_sum, cap_sq, en_sum, en_sq, out_sum = sums

    return SimulationResult(
        capacity=_estimate(cap_sum, cap_sq, n),
        energy=_estimate(en_sum, en_sq, n),
        outage=_estimate(out_sum, out_sum, n),  # Bernoulli: sum of squares is the sum
        selection_counts=tuple(counts.tolist()),
        low_confidence=bool(out_sum < _MIN_OUTAGE_EVENTS),
    )
