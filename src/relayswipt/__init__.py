"""Relay selection tradeoffs between information and wireless energy transfer.

Two-hop decode-and-forward relays over i.i.d. Rayleigh fading serve a data
receiver and an RF energy harvester at once; picking the relay trades
capacity (or outage) against transferred energy.  The package provides the
selection policies, the closed-form tradeoff and outage expressions, a
deterministic Monte Carlo engine that validates them, and numerical Pareto
frontiers, plus a CSV-emitting CLI.
"""

from .closedform import (
    TradeoffPoint,
    array_gain,
    asymptotic_outage,
    c_max,
    c_min,
    c_tc,
    c_ts,
    c_wd,
    delta_from_energy,
    delta_range_outage,
    energy_bounds,
    energy_from_delta,
    mu_from_energy,
    nu_from_energy,
    outage_tc,
    outage_ts,
    outage_wd,
    pareto_no_outage,
    pareto_outage_energy,
    pareto_outage_energy_min,
    tau_from_energy,
)
from .frontier import (
    BracketError,
    FrontierCurve,
    ToleranceNotMetError,
    capacity_frontier,
    outage_frontier,
    pareto_capacity_point,
    solve_zeta_for_energy,
)
from .model import SystemConfig, snr_from_db
from .schemes import (
    Metric,
    ParetoOptimal,
    SchemeParam,
    ThresholdChecking,
    TimeSharing,
    WeightedDifference,
    select,
)
from .simulate import Estimate, MonteCarloConfig, SimulationResult, run
from .specfun import exp_e1_scaled, harmonic

__version__ = "0.1.0"

__all__ = [
    "TradeoffPoint", "array_gain", "asymptotic_outage", "c_max", "c_min",
    "c_tc", "c_ts", "c_wd", "delta_from_energy", "delta_range_outage",
    "energy_bounds", "energy_from_delta", "mu_from_energy", "nu_from_energy",
    "outage_tc", "outage_ts", "outage_wd", "pareto_no_outage",
    "pareto_outage_energy", "pareto_outage_energy_min", "tau_from_energy",
    "BracketError", "FrontierCurve", "ToleranceNotMetError",
    "capacity_frontier", "outage_frontier", "pareto_capacity_point",
    "solve_zeta_for_energy",
    "SystemConfig", "snr_from_db",
    "Metric", "ParetoOptimal", "SchemeParam", "ThresholdChecking",
    "TimeSharing", "WeightedDifference", "select",
    "Estimate", "MonteCarloConfig", "SimulationResult", "run",
    "exp_e1_scaled", "harmonic",
    "__version__",
]
