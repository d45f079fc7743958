import argparse
import inspect

import relayswipt
from relayswipt.cli import build_parser

# Every name the package exports.  A name belongs here if the CLI, the Monte
# Carlo engine or the frontier uses it, or if it is a quantity of the paper.
PUBLIC_NAMES = [
    "BracketError", "Estimate", "FrontierCurve", "Metric", "MonteCarloConfig",
    "ParetoOptimal", "SchemeParam", "SimulationResult", "SystemConfig",
    "ThresholdChecking", "TimeSharing", "ToleranceNotMetError", "TradeoffPoint",
    "WeightedDifference", "__version__", "array_gain", "asymptotic_outage",
    "c_max", "c_min", "c_tc", "c_ts", "c_wd", "capacity_frontier",
    "delta_from_energy", "delta_range_outage", "energy_bounds",
    "energy_from_delta", "exp_e1_scaled", "harmonic", "mu_from_energy",
    "nu_from_energy", "outage_frontier", "outage_tc", "outage_ts", "outage_wd",
    "pareto_capacity_point", "pareto_no_outage", "pareto_outage_energy",
    "pareto_outage_energy_min", "run", "select", "snr_from_db",
    "solve_zeta_for_energy", "tau_from_energy",
]


def test_public_surface_is_pinned():
    assert sorted(relayswipt.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 44
    for name in PUBLIC_NAMES:
        assert getattr(relayswipt, name) is not None


# The parameter names of every function in ``relayswipt.__all__`` (classes
# excluded).  A knob
# added to or removed from a function shows up here, as a flag does below.
PUBLIC_SIGNATURES = {
    "array_gain": ["scheme", "config", "delta"],
    "asymptotic_outage": ["scheme", "config", "delta"],
    "c_max": ["config"],
    "c_min": ["config"],
    "c_tc": ["config", "energy"],
    "c_ts": ["config", "energy"],
    "c_wd": ["config", "energy"],
    "capacity_frontier": ["config", "deltas"],
    "delta_from_energy": ["config", "energy"],
    "delta_range_outage": ["config"],
    "energy_bounds": ["config"],
    "energy_from_delta": ["config", "delta"],
    "exp_e1_scaled": ["x"],
    "harmonic": ["n"],
    "mu_from_energy": ["config", "energy"],
    "nu_from_energy": ["config", "energy"],
    "outage_frontier": ["config", "deltas"],
    "outage_tc": ["config", "delta"],
    "outage_ts": ["config", "delta"],
    "outage_wd": ["config", "delta"],
    "pareto_capacity_point": ["config", "zeta", "tol"],
    "pareto_no_outage": ["config", "zeta"],
    "pareto_outage_energy": ["config", "zeta"],
    "pareto_outage_energy_min": ["config"],
    "run": ["config", "scheme", "mc"],
    "select": ["snr", "energy", "scheme", "coin", "outage_threshold"],
    "snr_from_db": ["db"],
    "solve_zeta_for_energy": ["config", "energy_target", "metric"],
    "tau_from_energy": ["config", "energy"],
}


def test_public_signatures_are_pinned():
    functions = {name: getattr(relayswipt, name) for name in relayswipt.__all__}
    signatures = {name: list(inspect.signature(fn).parameters) for name, fn in functions.items()
                  if callable(fn) and not isinstance(fn, type)}
    assert signatures == PUBLIC_SIGNATURES


# Every flag of each subcommand.  A command takes a flag only if it reads it;
# a config file may still set any scenario key.
CLI_FLAGS = {
    "tradeoff-capacity": [
        "--config", "--frames", "--gnuplot", "--grid", "--mean-energy", "--mean-snr",
        "--mean-snr-db", "--n-relays", "--out", "--preset", "--seed", "--with-mc", "--x-axis",
    ],
    "tradeoff-outage": [
        "--config", "--gnuplot", "--grid", "--mean-energy", "--mean-snr", "--mean-snr-db",
        "--n-relays", "--out", "--outage-threshold", "--preset", "--rate",
    ],
    "capacity-vs-snr": [
        "--config", "--deltas", "--gnuplot", "--mean-energy", "--n-relays", "--out",
        "--preset", "--snr-db",
    ],
    "outage-vs-snr": [
        "--config", "--deltas", "--gnuplot", "--mean-energy", "--n-relays", "--out",
        "--outage-threshold", "--preset", "--rate", "--ratio-db",
    ],
    "montecarlo": [
        "--config", "--frames", "--mean-energy", "--mean-snr", "--mean-snr-db", "--metric",
        "--mu", "--n-relays", "--nu", "--out", "--outage-threshold", "--rate", "--scheme",
        "--seed", "--tau", "--workers", "--zeta",
    ],
}


def test_cli_flags_are_pinned():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: sorted(flag for action in sub._actions for flag in action.option_strings
                        if not isinstance(action, argparse._HelpAction))
        for command, sub in subs.choices.items()
    }
    assert flags == CLI_FLAGS
    assert sum(map(len, CLI_FLAGS.values())) == 59
