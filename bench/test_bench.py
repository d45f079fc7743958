"""Self-tests of the benchmark: seeded generation, a smoke run of every
workload (traced and untraced), and the span accounting of the traced run.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import COLUMNS, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _labels(name, seed, rounds=2):
    gen = WORKLOADS[name](seed, 0.01)
    return [[op.label for op in next(gen)] for _ in range(rounds)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_changes_with_seed(name):
    assert _labels(name, 7) == _labels(name, 7)
    assert _labels(name, 7) != _labels(name, 8)


@pytest.fixture(scope="module")
def smoke():
    """One round of each workload at a smoke size, untraced and traced."""
    out = {}
    for name in WORKLOADS:
        for trace in (False, True):
            out[name, trace] = bench.run_workload(
                name, seed=3, seconds=0, trace=trace, frames_scale=0.01,
                setup_probes=1 if name == "mc_long" else 0)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(smoke, name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, report, _ = smoke[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        assert report["ops"]["attempted"] == result["attempted"]
        assert set(report["preset_sha256"]) == {f"fig{i}" for i in range(3, 9)}


def test_untraced_metrics_are_positive(smoke):
    result, report, _ = smoke["mc_long", False]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v > 0 for v in values.values()), values
    assert report["setup_samples_s"] and values["setup_s"] == report["setup_samples_s"][0]


def test_layers_reached_and_bypassed(smoke):
    def layer(name):
        return {k: v["value"] for k, v in smoke[name, True][0]["metrics"].items()}

    figures, mc_long, overlay = layer("figures"), layer("mc_long"), layer("mc_overlay")
    assert all(v == 0 for k, v in figures.items() if k.startswith("simulate."))
    assert all(v == 0 for k, v in mc_long.items()
               if k.startswith(("frontier.", "closedform.", "specfun.", "cli.")))
    assert mc_long["simulate.runs"] == 1 and mc_long["simulate.single_thread_ns_per_frame"] > 0
    assert overlay["simulate.runs"] == 84 and overlay["frontier.points"] == 21
    assert figures["closedform.calls_per_op"] > 0 and figures["cli.self_ms_per_op"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_self_times_fit_in_op_wall_time(smoke, name):
    tracer = smoke[name, True][2]
    spans = tracer.spans()
    selfs = self_times(spans)
    op_col, parent_col = COLUMNS.index("op"), COLUMNS.index("parent")
    t0, t1 = COLUMNS.index("start_ns"), COLUMNS.index("end_ns")
    assert (selfs >= 0).all()
    roots = spans[spans[:, parent_col] < 0]
    assert len(roots) == smoke[name, True][0]["attempted"]
    for root in roots:
        inner = (spans[:, op_col] == root[op_col]) & (spans[:, parent_col] >= 0)
        assert selfs[inner].sum() <= root[t1] - root[t0]


def test_self_time_takes_the_union_of_overlapping_children():
    # span 0 is the op (0..100); span 1 (10..90) has two children from
    # worker threads overlapping on 40..50, so they cover 20..70.
    rows = np.array([
        [0, 0, 0, -1, 0, 100, 0, 0],
        [1, 1, 0, 0, 10, 90, 0, 0],
        [2, 2, 0, 1, 20, 50, 0, 0],
        [3, 2, 0, 1, 40, 70, 0, 0],
    ], dtype=np.int64)
    assert self_times(rows).tolist() == [20, 30, 30, 30]
