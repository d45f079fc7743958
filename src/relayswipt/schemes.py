"""Relay selection policies.

Each policy maps one channel frame (plus, for time sharing, a uniform coin)
to the index of the relay to activate.  Indices are 0-based.  The rules
live in ``select_indices``, which applies them to whole batches and is what
the Monte Carlo engine uses; ``select`` runs it on a single frame.  Ties are
probability-zero events under the continuous fading model; the conventions
below exist so results are reproducible:

* best SNR, best energy: exact tie selects the lowest index;
* weighted difference: exact tie selects relay 0;
* Pareto policy: exact tie selects the relay with the larger energy, then
  relay 0;
* outage metric: an SNR equal to the threshold is no outage, as in
  ``model.outage_indicator`` and the Monte Carlo engine.

An infinite weight (nu or zeta = math.inf) selects the best-energy relay.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelFrame

__all__ = [
    "Metric",
    "TimeSharing",
    "ThresholdChecking",
    "WeightedDifference",
    "ParetoOptimal",
    "SchemeParam",
    "validate_scheme",
    "select",
    "select_indices",
]


class Metric(enum.Enum):
    """Per-frame performance metric maximized by the Pareto policy."""

    CAPACITY = "capacity"
    OUTAGE_INDICATOR = "outage-indicator"


@dataclass(frozen=True)
class TimeSharing:
    """Pick the best-SNR relay with probability mu, else the best-energy relay."""

    mu: float

    def __post_init__(self):
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must be in [0, 1], got {self.mu!r}")


@dataclass(frozen=True)
class ThresholdChecking:
    """Pick the best-SNR relay when its SNR clears tau, else the best-energy relay.

    tau may be math.inf, which degenerates to always picking the
    best-energy relay.
    """

    tau: float

    def __post_init__(self):
        if math.isnan(self.tau) or self.tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau!r}")


@dataclass(frozen=True)
class WeightedDifference:
    """Two-relay rule: relay 0 wins iff snr0 - snr1 > nu * (energy1 - energy0).

    nu may be math.inf, the limit of pure best-energy selection.
    """

    nu: float

    def __post_init__(self):
        if math.isnan(self.nu) or self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu!r}")


@dataclass(frozen=True)
class ParetoOptimal:
    """Two-relay rule: relay 0 wins iff F(snr0) - F(snr1) > zeta * (energy1 - energy0).

    F is the instantaneous capacity or the no-outage indicator, per
    ``metric``.  zeta may be math.inf, the limit of pure best-energy
    selection.
    """

    zeta: float
    metric: Metric = Metric.CAPACITY

    def __post_init__(self):
        if not isinstance(self.metric, Metric):
            raise ValueError(f"metric must be a Metric, got {self.metric!r}")
        if math.isnan(self.zeta) or self.zeta < 0.0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta!r}")


SchemeParam = TimeSharing | ThresholdChecking | WeightedDifference | ParetoOptimal


def validate_scheme(scheme: SchemeParam, n_relays: int) -> None:
    """Reject scheme/relay-count combinations the policies do not support."""
    if isinstance(scheme, (WeightedDifference, ParetoOptimal)) and n_relays != 2:
        raise ValueError(
            f"{type(scheme).__name__} requires exactly 2 relays, got n_relays={n_relays}"
        )
    if not isinstance(scheme, (TimeSharing, ThresholdChecking, WeightedDifference, ParetoOptimal)):
        raise ValueError(f"unknown scheme {scheme!r}")


def select(frame: ChannelFrame, scheme: SchemeParam, coin: float = 0.0,
           outage_threshold: float = 1.0) -> int:
    """Apply any scheme to a single frame."""
    return int(select_indices(scheme, frame.snr[None, :], frame.energy[None, :],
                              np.array([coin]), outage_threshold)[0])


def select_indices(
    scheme: SchemeParam,
    snr: np.ndarray,
    energy: np.ndarray,
    coins: np.ndarray | None = None,
    outage_threshold: float = 1.0,
) -> np.ndarray:
    """Vectorized selection over a batch of frames.

    Args:
        snr, energy: arrays of shape (m, N).
        coins: per-frame uniforms in [0, 1); required for time sharing.

    Returns:
        int array of shape (m,) with the selected relay index per frame.
    """
    snr = np.asarray(snr, dtype=float)
    energy = np.asarray(energy, dtype=float)
    n_relays = snr.shape[1]
    validate_scheme(scheme, n_relays)
    kappa = np.argmax(snr, axis=1)
    lam = np.argmax(energy, axis=1)

    if isinstance(scheme, TimeSharing):
        if coins is None:
            raise ValueError("time sharing needs per-frame coins")
        return np.where(np.asarray(coins) < scheme.mu, kappa, lam)
    if isinstance(scheme, ThresholdChecking):
        rows = np.arange(snr.shape[0])
        return np.where(snr[rows, kappa] >= scheme.tau, kappa, lam)
    weight = scheme.nu if isinstance(scheme, WeightedDifference) else scheme.zeta
    if math.isinf(weight):
        return lam
    rhs = weight * (energy[:, 1] - energy[:, 0])
    if isinstance(scheme, WeightedDifference):
        return (snr[:, 0] - snr[:, 1] < rhs).astype(np.intp)
    if scheme.metric is Metric.CAPACITY:
        f = 0.5 * np.log2(1.0 + snr)
    else:
        f = (snr >= outage_threshold).astype(float)
    lhs = f[:, 0] - f[:, 1]
    tie = (energy[:, 1] > energy[:, 0]).astype(np.intp)
    return np.where(lhs > rhs, 0, np.where(lhs < rhs, 1, tie)).astype(np.intp)
