"""relayswipt benchmark: a seeded, single-process, closed-loop runner.

    python3 bench/run.py --workload mc_long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, measured without
tracing, each timing scaled to a reference host speed (see ``reference_ms``;
the report holds the unscaled figures); with ``--trace 1`` it installs span
wrappers around each layer of the package and prints the per-layer metrics
and the tracing overhead.
Every metric is printed as ``name value unit``, then a JSON report line
(environment, preset fingerprints, op counts, refusals and failures), and
last one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see workloads.py and README.md): ``mc_long``, ``figures``,
``mc_overlay``.  Each op's output is checked after the op, untimed; an op
whose output check fails, or that raises, counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
SETUP_REFERENCE_REPEATS = 15
# Op time of the sample re-run to measure the tracing overhead.
OVERHEAD_SAMPLE_S = 1.0

PRESETS = (
    ("fig3", "tradeoff-capacity"),
    ("fig4", "tradeoff-capacity"),
    ("fig5", "tradeoff-outage"),
    ("fig6", "capacity-vs-snr"),
    ("fig7", "outage-vs-snr"),
    ("fig8", "outage-vs-snr"),
)

def import_program():
    """Import relayswipt from this checkout's src/, or exit non-zero."""
    if not (SRC / "relayswipt" / "__init__.py").is_file():
        print(f"error: no relayswipt sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import relayswipt
    import relayswipt.cli  # noqa: F401

    if Path(relayswipt.__file__).resolve().parent != SRC / "relayswipt":
        print(f"error: relayswipt imported from {relayswipt.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return relayswipt


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``repeats`` fresh processes, run one after another.

    Returns the samples scaled to the reference host speed (see
    ``reference_ms``; the loop is timed before and after each process) and
    the raw samples.
    """
    scaled, raw = [], []
    before = reference_ms(SETUP_REFERENCE_REPEATS)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        after = reference_ms(SETUP_REFERENCE_REPEATS)
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * 2.0 * REFERENCE_MS / (before + after))
        before = after
    return scaled, raw


def _cache_sizes() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def environment(rs) -> dict:
    import numpy as np

    from relayswipt.simulate import frame_uniforms
    from workloads import MC_LONG_CASES

    defaults = {f.name: f.default for f in dataclasses.fields(rs.MonteCarloConfig)
                if f.default is not dataclasses.MISSING}
    chunk_bytes = {}
    for n, scheme, frames in MC_LONG_CASES:
        rows = min(frames, defaults["batch_size"])
        chunk_bytes[f"N={n} {scheme}"] = int(frame_uniforms(0, n, 0, rows).nbytes)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "relayswipt": rs.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_per_core": _cache_sizes(),
        "mc_defaults": defaults,
        "mc_long_chunk_bytes": chunk_bytes,
    }


# The reference loop: a fixed pure-Python and numpy workload that does not
# touch relayswipt.  It takes about REFERENCE_MS on one core of the 2-vCPU
# Xeon VM the benchmark was built on.  That host's speed drifts by up to
# +-25% over seconds to minutes, so every op is timed between two runs of the
# loop and its time is scaled to a host on which the loop takes REFERENCE_MS.
# Over six minutes of such drift, 10 s medians of the op times of each
# workload moved with slope 1.0-1.1 against this loop's; with a random gather
# from an 8 MB table added to the loop, the slope was 1.1-1.25.
REFERENCE_MS = 1.0
_REFERENCE_X = None


def reference_ms(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` runs of the reference loop, in ms."""
    import numpy as np

    global _REFERENCE_X
    if _REFERENCE_X is None:
        _REFERENCE_X = np.linspace(0.0, 1.0, 50_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum(i * i for i in range(10_000))
        float(np.log1p(_REFERENCE_X).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def preset_fingerprints() -> dict[str, str]:
    """sha256 of each preset CSV, rendered once, untimed."""
    import relayswipt.cli

    out = {}
    for name, command in PRESETS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = relayswipt.cli.main([command, "--preset", name])
        out[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest() if code == 0 \
            else f"exit {code}"
    return out


def _run_ops(workload: str, seed: int, seconds: float, tracer, frames_scale: float):
    """Closed loop over whole rounds until ``seconds`` of op time are spent.

    The reference loop runs before the first op and after each op.  An op's
    scaled time is its wall time times REFERENCE_MS over the mean of the two
    loop times around it.  Returns the records and the loop times.
    """
    from workloads import WORKLOADS, execute, judge

    records = []  # (op, seconds, outcome, round, scaled seconds)
    references = [reference_ms(3)]
    timed = 0.0
    for round_index, ops in enumerate(WORKLOADS[workload](seed, frames_scale)):
        for op in ops:
            scope = tracer.op(len(records)) if tracer is not None else contextlib.nullcontext()
            with scope:
                t0 = time.perf_counter()
                executed = execute(op)
                dt = time.perf_counter() - t0
            references.append(reference_ms())
            scaled = dt * 2.0 * REFERENCE_MS / (references[-2] + references[-1])
            timed += dt
            records.append((op, dt, judge(op, *executed), round_index, scaled))
        if timed >= seconds:
            return records, references


def tracing_overhead(records):
    """Traced minus untraced wall time of the first ops, as % of untraced.

    The ops are re-run untraced and traced in turn (ABAB), after the main
    loop, so both sides run warm; the spans of these re-runs are discarded.
    """
    from tracing import Tracer
    from workloads import execute

    sample, total = [], 0.0
    for op, dt, *_ in records:
        sample.append(op)
        total += dt
        if total >= OVERHEAD_SAMPLE_S:
            break
    walls = {False: 0.0, True: 0.0}
    for traced in (False, True, False, True):
        tracer = Tracer().install() if traced else None
        try:
            for i, op in enumerate(sample):
                scope = tracer.op(i) if tracer is not None else contextlib.nullcontext()
                with scope:
                    t0 = time.perf_counter()
                    execute(op)
                    walls[traced] += time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
    pct = 100.0 * (walls[True] - walls[False]) / walls[False]
    return pct, {"ops": len(sample), "traced_s": walls[True], "untraced_s": walls[False]}


def _p90(durations):
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=10, method="inclusive")[8]


def _quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _timings(durations, round_of):
    """Throughput and op-time percentiles of one run, from op seconds.

    Each is taken per round (ops over round time, median and 90th
    percentile of the round's op times) and the run reports its median over
    the rounds.  Every round has the same composition and the run ends on a
    whole round.  A median over rounds stays put while host slowdowns the
    reference loop misses cover less than half of the run; a percentile of
    the pooled op times moves as soon as they cover a tenth of it.
    """
    rounds: dict[int, list[float]] = {}
    for dt, r in zip(durations, round_of):
        rounds.setdefault(r, []).append(dt)
    rounds = list(rounds.values())
    return {"ops_per_s": statistics.median(len(r) / sum(r) for r in rounds),
            "op_p50_ms": statistics.median(statistics.median(r) for r in rounds) * 1e3,
            "op_p90_ms": statistics.median(_p90(r) for r in rounds) * 1e3}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 frames_scale: float = 1.0, setup_probes: int = SETUP_PROBES):
    """Measure one workload; returns (result line dict, report dict, tracer or None)."""
    import relayswipt as rs
    from setup_probe import warm_up
    from tracing import Tracer, layer_metrics

    setup, setup_raw = measure_setup(setup_probes) if not trace and setup_probes else ([], [])
    warm_up()
    env = environment(rs)
    fingerprints = preset_fingerprints()

    tracer = Tracer().install() if trace else None
    try:
        records, references = _run_ops(workload, seed, seconds, tracer, frames_scale)
    finally:
        if tracer is not None:
            tracer.uninstall()

    statuses = Counter(o.status for _, _, o, *_ in records)
    attempted = len(records)
    failed = statuses["failed"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "reference_ms": _quartiles(references),
        "preset_sha256": fingerprints,
        "ops": {"attempted": attempted, "ok": statuses["ok"], "refused": statuses["refused"],
                "failed": failed, "timed_s": sum(r[1] for r in records),
                "frames": sum(op.frames for op, *_ in records), "rounds": records[-1][3] + 1},
        "error_rate": (attempted - statuses["ok"]) / attempted,
        "refusals": dict(Counter(re.sub(r"[-+.\w]*\d[-+.\w]*", "#", o.reason)
                                 for _, _, o, *_ in records if o.status == "refused")),
        "failures": [f"{op.label}: {o.reason}"
                     for op, _, o, *_ in records if o.status == "failed"][:5],
    }

    if not trace:
        metrics = {"setup_s": statistics.median(setup) if setup else 0.0,
                   **_timings([r[4] for r in records], [r[3] for r in records]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "success_rate": statuses["ok"] / attempted}
        report["setup_samples_s"] = setup
        report["unscaled"] = {"setup_s": statistics.median(setup_raw) if setup_raw else 0.0,
                              **_timings([r[1] for r in records], [r[3] for r in records])}
    else:
        cli_bytes = sum(o.bytes_out for _, _, o, *_ in records)
        stage_times = env["mc_defaults"]["n_workers"] <= env["nproc"]
        metrics = layer_metrics(tracer, attempted, cli_bytes, stage_times)
        metrics["trace.overhead_pct"], report["trace_overhead"] = tracing_overhead(records)
        # single-thread reference: the first mc_long case pinned to one worker
        single = 0.0
        if workload == "mc_long":
            cfg, scheme, mc = records[0][0].args
            t0 = time.perf_counter()
            rs.run(cfg, scheme, dataclasses.replace(mc, n_workers=1))
            single = (time.perf_counter() - t0) * 1e9 / mc.n_frames
        metrics["simulate.single_thread_ns_per_frame"] = single
        report["spans"] = tracer.count()
        report["absent"] = tracer.absent

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["mc_long", "figures", "mc_overlay"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    result, report, tracer = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.save(path)
        report["spans_file"] = str(path.relative_to(ROOT))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:11s} {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
