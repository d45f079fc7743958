"""Command line interface: tradeoff curves, outage sweeps, and MC runs as CSV.

Subcommands map one-to-one to the bundled figure presets:

* ``tradeoff-capacity`` (fig3, fig4): capacity-energy tradeoff of all schemes
  plus the numerically computed Pareto frontier.
* ``tradeoff-outage`` (fig5): no-outage probability versus transferred energy.
* ``capacity-vs-snr`` (fig6): per-scheme capacity over an SNR grid for fixed
  tradeoff factors.
* ``outage-vs-snr`` (fig7, fig8): outage probability versus the SNR-to-
  threshold ratio, by the same sweep with the mean SNR scaled by the threshold.
* ``montecarlo``: a single simulation run with full estimates.

Each metric's two figures share one row builder, which evaluates every closed
form of a config on one ``closedform._Forms`` (so each per-config constant once)
and before the frontier.  Weighted difference and the Pareto policies are
defined for two relays only, so at N != 2 the figure commands keep only the
time-sharing and threshold-checking columns (and ``--with-mc`` only those two).

All numeric CSV fields are written with round-trip precision; rerunning a
command with the same flags (including ``--seed``) reproduces the output
byte for byte.  Exit codes: 0 success, 2 usage error, 1 numerical failure.

``main(argv)`` builds its parser on the first call and reuses it for the
rest of the process, so repeated in-process calls pay only for their
numbers; a one-shot process builds it once either way.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import closedform as cf
from .frontier import (
    BracketError,
    ToleranceNotMetError,
    capacity_frontier,
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
    def quoted(text: str) -> str:  # gnuplot reads '' as ' in a single-quoted string
        return "'" + text.replace("'", "''") + "'"

    script = out_path + ".gp"
    xi = header.index(x_column) + 1
    lines = [
        "set datafile separator ','",
        f"set xlabel {quoted(x_column)}",
        "set key outside",
    ]
    if logscale_y:
        lines.append("set logscale y")
    plots = [
        f"{quoted(out_path)} using {xi}:{header.index(col) + 1} with lines title {quoted(col)}"
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
        # + 0.0 maps -0 to 0, which names the same columns, and leaves every other factor as it is
        deltas = [float(tok) + 0.0 for tok in text.split(",") if tok.strip() != ""]
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
# Each takes the parsed flags and the preset and (config, seed) ``main``
# resolved for them, and returns (header, rows, plot); ``main`` writes the CSV
# and, for --gnuplot, a script plotting plot = (x column, y columns[, log y]).
_Table = tuple[list[str], list[list], tuple | None]
# Scheme columns of the figures; weighted difference and the Pareto
# policies are defined for two relays only, so other N keep the first two.
_SCHEMES = ("ts", "tc", "wd", "pareto")
# The same schemes, in the same order, by montecarlo's --scheme choice: its weight
# flag and its rule.
_MC_SCHEMES = {
    "time-sharing": ("mu", TimeSharing),
    "threshold-checking": ("tau", ThresholdChecking),
    "weighted-difference": ("nu", WeightedDifference),
    "pareto": ("zeta", ParetoOptimal),
}


def _capacity_rows(forms: cf._Forms, deltas: list[float]) -> list[list]:
    """Per factor: energy, c_ts, c_tc and at N = 2 also c_wd, the Pareto value and weight.
    Every closed form runs before the frontier, so one that refuses costs no kernel call;
    the Pareto cells come from one frontier call over the factors in increasing order."""
    config = forms.config
    schemes = (forms.c_ts, forms.c_tc, forms.c_wd)[:3 if config.n_relays == 2 else 2]
    energies = [forms.energy_from_delta(delta) for delta in deltas]
    rows = [[energy] + [capacity(energy) for capacity in schemes] for energy in energies]
    if config.n_relays == 2:
        order = sorted(range(len(deltas)), key=deltas.__getitem__)
        frontier = capacity_frontier(config, [deltas[i] for i in order])
        for i, point, zeta in zip(order, frontier.points, frontier.zetas):
            rows[i] += [point.value, zeta]
    return rows


def _outage_rows(forms: cf._Forms, deltas: list[float]) -> tuple[float | None, list[list]]:
    """delta_lo (None at N != 2) and per factor outage_ts, outage_tc and at N = 2 also
    outage_wd and the Pareto policy's no-outage at the factor lifted to delta_lo, where
    the policy transfers more energy than asked at no outage cost.  The weight of each
    distinct lifted factor is solved once, after every closed form."""
    config = forms.config
    schemes = (forms.outage_ts, forms.outage_tc, forms.outage_wd)[:3 if config.n_relays == 2 else 2]
    rows = [[outage(delta) for outage in schemes] for delta in deltas]
    if config.n_relays != 2:
        return None, rows
    delta_lo, _ = cf.delta_range_outage(config)
    lifted = [max(delta, delta_lo) for delta in deltas]
    zetas = {d: zeta_for_delta(config, d, Metric.OUTAGE_INDICATOR) for d in dict.fromkeys(lifted)}
    for row, delta in zip(rows, lifted):
        row.append(cf.pareto_no_outage(config, zetas[delta]))
    return delta_lo, rows


def cmd_tradeoff_capacity(args, preset: dict, config: SystemConfig, seed: int) -> _Table:
    x_axis = args.x_axis or preset.get("x_axis", "energy")
    deltas = np.linspace(0.0, 1.0, _checked_grid(args.grid)).tolist()
    names = _SCHEMES if config.n_relays == 2 else _SCHEMES[:2]
    header = ["delta", "energy"] + [f"c_{name}" for name in names]
    if args.with_mc:
        mc = MonteCarloConfig(args.frames, seed)
        for name in names:
            header += [f"mc_c_{name}", f"mc_c_{name}_stderr",
                       f"mc_e_{name}", f"mc_e_{name}_stderr"]
    rows = []
    forms = cf._Forms(config)
    # every overlay run has the same (config, seed, n_frames): draw its frames once
    with _shared_frames():
        for delta, (energy, *values) in zip(deltas, _capacity_rows(forms, deltas)):
            row = [delta, energy] + values[:len(names)]
            if args.with_mc:
                weights = [forms.mu_from_energy(energy), forms.tau_from_energy(energy)]
                if config.n_relays == 2:
                    weights += [forms.nu_from_energy(energy), values[-1]]
                for (_, scheme), weight in zip(_MC_SCHEMES.values(), weights):
                    result = run(config, scheme(weight), mc)
                    row += [
                        result.capacity.mean, result.capacity.std_error,
                        result.energy.mean, result.energy.std_error,
                    ]
            rows.append(row)
    return header, rows, (x_axis, header[2:2 + len(names)])


def cmd_tradeoff_outage(args, preset: dict, config: SystemConfig, seed: int) -> _Table:
    if args.mean_snr is None and args.mean_snr_db is None and not args.config:
        # default geometry maximizes the Pareto policy's feasible delta range
        config = dataclasses.replace(config, mean_snr=2.0 * config.outage_threshold / _LN2)
    deltas = np.linspace(0.0, 1.0, _checked_grid(args.grid)).tolist()
    forms = cf._Forms(config)
    delta_lo, cells = _outage_rows(forms, deltas)
    names = _SCHEMES if config.n_relays == 2 else _SCHEMES[:2]
    header = ["delta", "energy"] + [f"noout_{name}" for name in names]
    rows = []
    for delta, outages in zip(deltas, cells):
        row = [delta, forms.energy_from_delta(delta)] + [1.0 - p for p in outages[:3]]
        if delta_lo is not None:  # the Pareto column is empty below delta_lo
            row.append(outages[3] if delta >= delta_lo - 1e-12 else None)
        rows.append(row)
    return header, rows, ("delta", header[2:])


def _snr_sweep(args, preset: dict, config: SystemConfig, grid, scale: float, prefix: str, cells):
    """Header and rows over ``grid`` (dB) and ``--deltas``; ``cells(forms, deltas)`` gives each
    factor's cells from the closed forms of grid point x, at mean SNR ``scale * snr_from_db(x)``."""
    deltas = _parse_deltas(args.deltas or preset.get("deltas", "0,0.5,1"))
    names = _SCHEMES if config.n_relays == 2 else _SCHEMES[:2]
    header = [f"{prefix}_{name}_d{delta:g}" for delta in deltas for name in names]
    rows = []
    for x in grid:
        forms = cf._Forms(dataclasses.replace(config, mean_snr=scale * snr_from_db(x)))
        rows.append([float(x)] + sum(cells(forms, deltas), []))
    return header, rows


def cmd_capacity_vs_snr(args, preset: dict, config: SystemConfig, seed: int) -> _Table:
    grid = _parse_grid(args.snr_db, "--snr-db")
    header, rows = _snr_sweep(args, preset, config, grid, 1.0, "c", lambda forms, deltas: [
        values[1:5] for values in _capacity_rows(forms, deltas)])
    return ["snr_db"] + header, rows, ("snr_db", header)


def cmd_outage_vs_snr(args, preset: dict, config: SystemConfig, seed: int) -> _Table:
    grid = _parse_grid(args.ratio_db, "--ratio-db")
    header, rows = _snr_sweep(
        args, preset, config, grid, config.outage_threshold, "out",
        lambda forms, deltas: [outages[:3] + [1.0 - p for p in outages[3:]]
                               for outages in _outage_rows(forms, deltas)[1]])
    return ["ratio_db"] + header, rows, ("ratio_db", header, True)


def cmd_montecarlo(args, preset: dict, config: SystemConfig, seed: int) -> _Table:
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
    flag, scheme = _MC_SCHEMES[args.scheme]
    weight = getattr(args, flag)
    if weight is None:
        raise ValueError(f"--{flag} is required for --scheme {args.scheme}")
    if scheme is ParetoOptimal and args.metric == "outage":
        return ParetoOptimal(zeta=weight, metric=Metric.OUTAGE_INDICATOR)
    return scheme(weight)  # the Pareto policy's metric defaults to capacity


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
    mc.add_argument("--scheme", required=True, choices=list(_MC_SCHEMES))
    for flag, _ in _MC_SCHEMES.values():
        mc.add_argument(f"--{flag}", type=float, default=None)
    mc.add_argument("--metric", choices=["capacity", "outage"], default="capacity")
    mc.add_argument("--frames", type=int, default=1_000_000)
    mc.add_argument("--workers", type=int, default=MonteCarloConfig.n_workers)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads: built on the first call, then reused.

    A parse leaves the parser as it was and fills a fresh namespace, so
    one parser serves every call of the process.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    gnuplot = getattr(args, "gnuplot", False)  # montecarlo writes no plot
    try:
        if gnuplot and args.out == "-":
            raise ValueError("--gnuplot needs --out PATH: the plot script reads the CSV file")
        preset = _PRESETS.get(getattr(args, "preset", None), {})  # montecarlo takes none
        header, rows, plot = args.handler(args, preset, *_build_config(args, preset))
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
    except (ValueError, OSError, MemoryError) as exc:  # numpy refuses a grid too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
