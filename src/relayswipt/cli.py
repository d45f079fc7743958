"""Command line interface: tradeoff curves, outage sweeps, and MC runs as CSV.

Subcommands map one-to-one to the bundled figure presets:

* ``tradeoff-capacity`` (fig3, fig4): capacity-energy tradeoff of all schemes
  plus the numerically computed Pareto frontier.
* ``tradeoff-outage`` (fig5): no-outage probability versus transferred energy.
* ``capacity-vs-snr`` (fig6): per-scheme capacity over an SNR grid for fixed
  tradeoff factors.
* ``outage-vs-snr`` (fig7, fig8): outage probability versus the SNR-to-
  threshold ratio.
* ``montecarlo``: a single simulation run with full estimates.

All numeric CSV fields are written with round-trip precision; rerunning a
command with the same flags (including ``--seed``) reproduces the output
byte for byte.  Exit codes: 0 success, 2 usage error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import closedform as cf
from .frontier import (
    BracketError,
    ToleranceNotMetError,
    capacity_frontier,
    pareto_capacity_point,
    zeta_for_delta,
)
from .model import SystemConfig, _read_config_file, _resolve_scenario, snr_from_db
from .schemes import (
    Metric,
    ParetoOptimal,
    SchemeParam,
    ThresholdChecking,
    TimeSharing,
    WeightedDifference,
)
from .simulate import MonteCarloConfig, _shared_frames, run

_LN2 = math.log(2.0)

_DEFAULTS = {"n_relays": 2, "mean_snr_db": 10.0, "mean_energy": 1.0, "seed": 0}
_PRESETS = {
    "fig3": {"command": "tradeoff-capacity", "mean_snr_db": 20.0, "x_axis": "energy"},
    "fig4": {"command": "tradeoff-capacity", "mean_snr_db": 10.0, "x_axis": "delta"},
    "fig5": {"command": "tradeoff-outage"},
    "fig6": {"command": "capacity-vs-snr"},
    "fig7": {"command": "outage-vs-snr", "n_relays": 2, "deltas": "0,0.5,1"},
    "fig8": {"command": "outage-vs-snr", "n_relays": 3, "deltas": "0.01,0.5,1"},
}


def _fmt(value) -> str:
    """Round-trip text for a cell; empty cells stay empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, int, str)):
        return str(value)
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[_fmt(v) for v in row] for row in rows])


def _write_gnuplot(out_path: str, header: list[str], x_column: str, y_columns: list[str],
                   logscale_y: bool = False) -> None:
    script = out_path + ".gp"
    xi = header.index(x_column) + 1
    lines = [
        "set datafile separator ','",
        f"set xlabel '{x_column}'",
        "set key outside",
    ]
    if logscale_y:
        lines.append("set logscale y")
    plots = [
        f"'{out_path}' using {xi}:{header.index(col) + 1} with lines title '{col}'"
        for col in y_columns
        if col in header
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(script, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_grid(text: str, flag: str) -> np.ndarray:
    """Parse 'start:stop:num' into a uniform grid; ``flag`` names it in errors."""
    try:
        start, stop, num = text.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError:
        raise ValueError(f"{flag} must be 'start:stop:num', got {text!r}") from None
    if not (-math.inf < start < stop < math.inf and num >= 2):
        raise ValueError(f"{flag} needs finite start < stop and num >= 2, got {text!r}")
    return np.linspace(start, stop, num)


def _parse_deltas(text: str) -> list[float]:
    """Parse the comma list of ``--deltas``; errors name the flag and quote ``text``."""
    try:
        deltas = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        deltas = []
    if not deltas or any(not 0.0 <= d <= 1.0 for d in deltas):
        raise ValueError(f"--deltas must be a comma list within [0, 1], got {text!r}")
    if len({f"{d:g}" for d in deltas}) != len(deltas):  # f"{d:g}" names d's columns
        raise ValueError(f"--deltas must be distinct to 6 significant digits, got {text!r}")
    return deltas


def _add_command(subs, name: str, handler, help: str, *, mean_snr: bool,
                 threshold: bool, seed: bool, gnuplot: bool) -> argparse.ArgumentParser:
    """A subcommand with the scenario and output flags its handler reads.

    Its presets come from ``_PRESETS``.  A config file may still set any
    scenario key, so that one file serves every command.
    """
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(handler=handler)
    presets = [preset for preset, keys in _PRESETS.items() if keys["command"] == name]
    if presets:
        sub.add_argument("--preset", choices=presets)
    sub.add_argument("--config", help="key-value config file; flags override it")
    sub.add_argument("--n-relays", type=int, default=None)
    if mean_snr:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--mean-snr", type=float, default=None, help="mean per-hop SNR, linear")
        group.add_argument("--mean-snr-db", type=float, default=None, help="mean per-hop SNR, dB")
    sub.add_argument("--mean-energy", type=float, default=None)
    if threshold:
        thr = sub.add_mutually_exclusive_group()
        thr.add_argument("--outage-threshold", type=float, default=None,
                         help="linear SNR threshold")
        thr.add_argument("--rate", type=float, default=None,
                         help="rate r; threshold = 2^(2r) - 1")
    if seed:
        sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default="-", help="CSV output path, '-' for stdout")
    if gnuplot:
        sub.add_argument("--gnuplot", action="store_true",
                         help="also write a <out>.gp plot script (needs --out)")
    return sub


def _build_config(args, preset: dict) -> tuple[SystemConfig, int]:
    """Resolve the scenario: built-in defaults < preset < config file < flags."""
    file_keys = _read_config_file(args.config) if args.config else {}
    return _resolve_scenario(_DEFAULTS, preset, file_keys, vars(args))


def _checked_grid(grid: int) -> int:
    if grid < 2:
        raise ValueError(f"--grid needs at least 2 points, got {grid}")
    return grid


# ---------------------------------------------------------------------------
#  Subcommand handlers
# ---------------------------------------------------------------------------
# Each returns (header, rows, plot); ``main`` writes the CSV and, for
# --gnuplot, a script plotting plot = (x column, y columns[, log y]) if set.
_Table = tuple[list[str], list[list], tuple | None]


def cmd_tradeoff_capacity(args) -> _Table:
    preset = _PRESETS.get(args.preset, {})
    config, seed = _build_config(args, preset)
    x_axis = args.x_axis or preset.get("x_axis", "energy")
    deltas = np.linspace(0.0, 1.0, _checked_grid(args.grid))
    frontier = capacity_frontier(config, deltas)
    header = ["delta", "energy", "c_ts", "c_tc", "c_wd", "c_pareto"]
    if args.with_mc:
        for name in ("ts", "tc", "wd", "pareto"):
            header += [f"mc_c_{name}", f"mc_c_{name}_stderr",
                       f"mc_e_{name}", f"mc_e_{name}_stderr"]
    rows = []
    # every overlay run has the same (config, seed, n_frames): draw its frames once
    with _shared_frames():
        for delta, point, zeta in zip(deltas, frontier.points, frontier.zetas):
            delta = float(delta)
            energy = cf.energy_from_delta(config, delta)
            row = [
                delta,
                energy,
                cf.c_ts(config, energy),
                cf.c_tc(config, energy),
                cf.c_wd(config, energy),
                point.value,
            ]
            if args.with_mc:
                schemes = [
                    TimeSharing(mu=cf.mu_from_energy(config, energy)),
                    ThresholdChecking(tau=cf.tau_from_energy(config, energy)),
                    WeightedDifference(nu=cf.nu_from_energy(config, energy)),
                    ParetoOptimal(zeta=zeta, metric=Metric.CAPACITY),
                ]
                for scheme in schemes:
                    result = run(config, scheme, MonteCarloConfig(args.frames, seed))
                    row += [
                        result.capacity.mean, result.capacity.std_error,
                        result.energy.mean, result.energy.std_error,
                    ]
            rows.append(row)
    return header, rows, (x_axis, ["c_ts", "c_tc", "c_wd", "c_pareto"])


def cmd_tradeoff_outage(args) -> _Table:
    config, _ = _build_config(args, _PRESETS.get(args.preset, {}))
    if args.mean_snr is None and args.mean_snr_db is None and not args.config:
        # default geometry maximizes the Pareto policy's feasible delta range
        config = dataclasses.replace(config, mean_snr=2.0 * config.outage_threshold / _LN2)
    deltas = np.linspace(0.0, 1.0, _checked_grid(args.grid))
    delta_lo, _ = cf.delta_range_outage(config)
    header = ["delta", "energy", "noout_ts", "noout_tc", "noout_wd", "noout_pareto"]
    rows = []
    for delta in deltas:
        delta = float(delta)
        energy = cf.energy_from_delta(config, delta)
        pareto = None
        if delta >= delta_lo - 1e-12:
            zeta = zeta_for_delta(config, delta, Metric.OUTAGE_INDICATOR)
            pareto = cf.pareto_no_outage(config, zeta)
        rows.append([
            delta,
            energy,
            1.0 - cf.outage_ts(config, delta),
            1.0 - cf.outage_tc(config, delta),
            1.0 - cf.outage_wd(config, delta),
            pareto,
        ])
    return header, rows, ("delta", ["noout_ts", "noout_tc", "noout_wd", "noout_pareto"])


def cmd_capacity_vs_snr(args) -> _Table:
    preset = _PRESETS.get(args.preset, {})
    config, _ = _build_config(args, preset)
    snr_db_grid = _parse_grid(args.snr_db, "--snr-db")
    deltas = _parse_deltas(args.deltas or preset.get("deltas", "0,0.5,1"))
    header = ["snr_db"]
    for delta in deltas:
        for name in ("ts", "tc", "wd", "pareto"):
            header.append(f"c_{name}_d{delta:g}")
    rows = []
    for snr_db in snr_db_grid:
        point_config = dataclasses.replace(config, mean_snr=snr_from_db(snr_db))
        row = [float(snr_db)]
        for delta in deltas:
            energy = cf.energy_from_delta(point_config, delta)
            row.append(cf.c_ts(point_config, energy))
            row.append(cf.c_tc(point_config, energy))
            row.append(cf.c_wd(point_config, energy))
            zeta = zeta_for_delta(point_config, delta, Metric.CAPACITY)
            row.append(pareto_capacity_point(point_config, zeta).value)
        rows.append(row)
    return header, rows, ("snr_db", header[1:])


def cmd_outage_vs_snr(args) -> _Table:
    preset = _PRESETS.get(args.preset, {})
    config, _ = _build_config(args, preset)
    ratio_db_grid = _parse_grid(args.ratio_db, "--ratio-db")
    deltas = _parse_deltas(args.deltas or preset.get("deltas", "0,0.5,1"))
    two_relay = config.n_relays == 2
    header = ["ratio_db"]
    for delta in deltas:
        header += [f"out_ts_d{delta:g}", f"out_tc_d{delta:g}"]
        if two_relay:
            header += [f"out_wd_d{delta:g}", f"out_pareto_d{delta:g}"]
    rows = []
    for ratio_db in ratio_db_grid:
        gbar = config.outage_threshold * snr_from_db(ratio_db)
        point_config = dataclasses.replace(config, mean_snr=gbar)
        row = [float(ratio_db)]
        for delta in deltas:
            row.append(cf.outage_ts(point_config, delta))
            row.append(cf.outage_tc(point_config, delta))
            if two_relay:
                row.append(cf.outage_wd(point_config, delta))
                row.append(_pareto_outage_at_delta(point_config, delta))
        rows.append(row)
    return header, rows, ("ratio_db", header[1:], True)


def _pareto_outage_at_delta(config: SystemConfig, delta: float) -> float:
    """Outage of the outage-metric Pareto policy at a requested factor.

    Factors below the policy's feasible lower bound are lifted to it: the
    policy then transfers more energy than requested at no outage cost.
    """
    delta_lo, _ = cf.delta_range_outage(config)
    zeta = zeta_for_delta(config, max(delta, delta_lo), Metric.OUTAGE_INDICATOR)
    return 1.0 - cf.pareto_no_outage(config, zeta)


def cmd_montecarlo(args) -> _Table:
    config, seed = _build_config(args, {})
    scheme = _scheme_from_args(args)
    result = run(config, scheme, MonteCarloConfig(args.frames, seed, n_workers=args.workers))
    header = [
        "scheme", "n_frames", "seed",
        "capacity_mean", "capacity_stderr",
        "energy_mean", "energy_stderr",
        "outage_mean", "outage_stderr",
        "low_confidence",
    ] + [f"count_relay{i + 1}" for i in range(config.n_relays)]
    row = [
        args.scheme, args.frames, seed,
        result.capacity.mean, result.capacity.std_error,
        result.energy.mean, result.energy.std_error,
        result.outage.mean, result.outage.std_error,
        result.low_confidence,
    ] + list(result.selection_counts)
    return header, [row], None


def _scheme_from_args(args) -> SchemeParam:
    if args.scheme == "time-sharing":
        if args.mu is None:
            raise ValueError("--mu is required for --scheme time-sharing")
        return TimeSharing(mu=args.mu)
    if args.scheme == "threshold-checking":
        if args.tau is None:
            raise ValueError("--tau is required for --scheme threshold-checking")
        return ThresholdChecking(tau=args.tau)
    if args.scheme == "weighted-difference":
        if args.nu is None:
            raise ValueError("--nu is required for --scheme weighted-difference")
        return WeightedDifference(nu=args.nu)
    metric = Metric.CAPACITY if args.metric == "capacity" else Metric.OUTAGE_INDICATOR
    if args.zeta is None:
        raise ValueError("--zeta is required for --scheme pareto")
    return ParetoOptimal(zeta=args.zeta, metric=metric)


# ---------------------------------------------------------------------------
#  Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relayswipt",
        description="Capacity/outage versus wireless energy transfer tradeoffs "
                    "for relay selection over two-hop Rayleigh links.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    cap = _add_command(subs, "tradeoff-capacity", cmd_tradeoff_capacity,
                       "capacity-energy tradeoff curves",
                       mean_snr=True, threshold=False, seed=True, gnuplot=True)
    cap.add_argument("--grid", type=int, default=21, help="number of delta grid points")
    cap.add_argument("--x-axis", choices=["energy", "delta"], default=None)
    cap.add_argument("--with-mc", action="store_true", help="add Monte Carlo overlay columns")
    cap.add_argument("--frames", type=int, default=100_000, help="MC frames per overlay point")

    out = _add_command(subs, "tradeoff-outage", cmd_tradeoff_outage,
                       "no-outage versus energy tradeoff curves",
                       mean_snr=True, threshold=True, seed=False, gnuplot=True)
    out.add_argument("--grid", type=int, default=21)

    # the grid sets the mean SNR of these two, so they take no --mean-snr
    cvs = _add_command(subs, "capacity-vs-snr", cmd_capacity_vs_snr,
                       "scheme capacities over an SNR grid",
                       mean_snr=False, threshold=False, seed=False, gnuplot=True)
    cvs.add_argument("--snr-db", default="0:30:16", help="SNR grid 'start:stop:num' in dB")
    cvs.add_argument("--deltas", default=None, help="comma list of tradeoff factors")

    ovs = _add_command(subs, "outage-vs-snr", cmd_outage_vs_snr,
                       "scheme outage over an SNR/threshold grid",
                       mean_snr=False, threshold=True, seed=False, gnuplot=True)
    ovs.add_argument("--ratio-db", default="0:30:16",
                     help="mean SNR over threshold, 'start:stop:num' in dB")
    ovs.add_argument("--deltas", default=None)

    mc = _add_command(subs, "montecarlo", cmd_montecarlo, "one Monte Carlo run, single CSV row",
                      mean_snr=True, threshold=True, seed=True, gnuplot=False)
    mc.add_argument("--scheme", required=True,
                    choices=["time-sharing", "threshold-checking",
                             "weighted-difference", "pareto"])
    mc.add_argument("--mu", type=float, default=None)
    mc.add_argument("--tau", type=float, default=None)
    mc.add_argument("--nu", type=float, default=None)
    mc.add_argument("--zeta", type=float, default=None)
    mc.add_argument("--metric", choices=["capacity", "outage"], default="capacity")
    mc.add_argument("--frames", type=int, default=1_000_000)
    mc.add_argument("--workers", type=int, default=MonteCarloConfig.n_workers)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    gnuplot = getattr(args, "gnuplot", False)  # montecarlo writes no plot
    try:
        if gnuplot and args.out == "-":
            raise ValueError("--gnuplot needs --out PATH: the plot script reads the CSV file")
        header, rows, plot = args.handler(args)
        _write_csv(args.out, header, rows)
        if gnuplot:
            _write_gnuplot(args.out, header, *plot)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader left (``| head``); devnull takes what is still buffered
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ToleranceNotMetError, BracketError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
