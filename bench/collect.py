"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 101-110 --out bench/baseline.json
    python3 bench/collect.py --seeds 111-120 --against bench/baseline.json

For every workload and metric it reports the median of the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile distance as a share of the median.  A spread at or above a
third of the metric's bound in BENCHMARK.json is marked ``WIDE``.  With
``--against`` it also reports each median's change from the medians in an
earlier summary and marks a change for the worse beyond the bound
``WORSE``.  Each workload's line also gives the median ``reference_ms``
of its runs, the reference loop outside relayswipt that timings are scaled
by, so a change of host speed between two sets shows.  Runs are made one
after another from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write the summary as JSON")
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary = {"seeds": _seeds(args.seeds), "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in summary["seeds"]]
        entry = {
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "error_rate": [rep["error_rate"] for _, rep in runs],
            "reference_ms": [rep["reference_ms"]["median"] for _, rep in runs],
            "unscaled": [rep.get("unscaled") for _, rep in runs],
            "refusals": [rep["refusals"] for _, rep in runs],
            "failures": [f for _, rep in runs for f in rep["failures"]][:10],
            "environment": runs[0][1]["environment"],
            "preset_sha256": runs[0][1]["preset_sha256"],
            "metrics": {},
        }
        for name in runs[0][0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r, _ in runs])
            stats["unit"] = runs[0][0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            flags = []
            bound = bounds.get(name)
            if bound is not None and name != "setup_s" and stats["spread"] >= bound / 3:
                flags.append("WIDE")
            change = ""
            old = earlier.get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                rel = stats["median"] / old["median"] - 1.0
                worse = rel if better[name] == "lower" else -rel
                change = f"{rel:+8.2%}"
                if bound is not None and worse > bound:
                    flags.append("WORSE")
            ok = ok and not flags
            print(f"{workload:11s} {name:38s} {stats['median']:12.6g} {stats['unit']:6s} "
                  f"spread {stats['spread']:6.2%} {change} {' '.join(flags)}")
        refs = entry["reference_ms"]
        print(f"{workload:11s} correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} reference_ms={statistics.median(refs):.3f} "
              f"(runs {min(refs):.3f}..{max(refs):.3f})")
        ok = ok and entry["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
