"""Relay selection policies.

Each policy maps one channel frame (plus, for time sharing, a uniform coin)
to the index of the relay to activate.  Indices are 0-based.  The rules
live in ``select_indices``, which applies them to whole batches and is what
the Monte Carlo engine uses; ``select`` runs it on a single frame.  Each rule
has a weight-free stage over the SNR and energy columns (``_free_stage``: the
best-SNR index, best SNR and best-energy index, or the two-relay rules' metric
gain, energy cost and tie flag) and a weight stage (``_weight_stage``), which
works in place on the first unless it is read-only, as the engine's frame scope
keeps it per chunk for every weight.  The rules work column by column.  A
best-relay index is one running maximum: the bool comparison of the first two
columns, raised to column j wherever column j strictly beats the maximum so
far, in a small unsigned type.  Time sharing and threshold checking combine
the two indices exactly as (kappa ^ lambda) * cond ^ lambda, cast to intp
once.  So they read a frame only through the order within its SNR and its
energy columns, and whether its best SNR reaches tau.  Ties are
probability-zero events under the continuous fading model; the conventions
below exist so results are reproducible:

* best SNR, best energy: exact tie selects the lowest index;
* weighted difference: exact tie selects relay 0;
* Pareto policy: exact tie selects the relay with the larger energy, then
  relay 0;
* outage metric: an SNR equal to the threshold is no outage, as in the
  Monte Carlo engine.

An infinite weight (nu or zeta = math.inf) selects the best-energy relay.
A NaN in what a rule compares raises ValueError: a NaN SNR or energy, or
one that arithmetic on infinities makes (inf - inf, 0 * inf).  NaN
propagates through a maximum, so the check takes one maximum of each row
maximum or weighted difference a rule computes anyway, and of the SNR
difference that the outage indicators would otherwise hide.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

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


def select(snr, energy, scheme: SchemeParam, coin: float = 0.0,
           outage_threshold: float = 1.0) -> int:
    """Apply any scheme to a single frame of per-relay SNRs and energies.

    ``coin`` is the time-sharing uniform, in [0, 1) as the engine draws it.
    """
    snr = np.asarray(snr, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if snr.ndim != 1 or energy.shape != snr.shape or snr.size < 1:
        raise ValueError("snr and energy must be 1-d arrays of equal nonzero length")
    if not (np.all(np.isfinite(snr)) and np.all(np.isfinite(energy))):
        raise ValueError("frame entries must be finite")
    if np.any(snr < 0.0) or np.any(energy < 0.0):
        raise ValueError("frame entries must be nonnegative")
    if not 0.0 <= coin < 1.0:
        raise ValueError(f"coin must be in [0, 1), got {coin!r}")
    if math.isnan(outage_threshold):
        raise ValueError("outage_threshold must not be NaN")
    return int(select_indices(scheme, snr[None, :], energy[None, :],
                              np.array([coin]), outage_threshold)[0])


def _reject_nan(a: np.ndarray) -> np.ndarray:
    """a, unless it holds a NaN: one maximum, as NaN propagates through it."""
    if math.isnan(a.max(initial=-math.inf)):
        raise ValueError("the selection rule compares a NaN: a NaN snr or energy, "
                         "or inf - inf or 0 * inf")
    return a


def _argmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise argmax (ties to the lowest index) and row maximum of an (m, N) array.

    One running maximum: the bool comparison of columns 0 and 1, then j for
    each further column j that strictly beats the maximum so far, in the
    smallest unsigned type that holds N - 1; callers cast it to intp once.
    Raises ValueError if x holds a NaN, which the maximum propagates.
    """
    n, a = x.shape[1], x[:, 0]
    idx, top = (x[:, 1] > a, np.maximum(a, x[:, 1])) if n > 1 else (np.zeros(a.shape, bool), a)
    if n > 2:
        kind = np.min_scalar_type(n - 1)
        idx = idx.view(kind) if kind.itemsize == 1 else idx.astype(kind)
        beats, last = np.empty_like(idx), np.empty_like(top)
        for j in range(2, n):  # column j beats the maximum iff it raises it
            top, last = np.maximum(top, x[:, j], out=last), top
            np.greater(top, last, out=beats)
            beats *= j
            np.maximum(idx, beats, out=idx)
    _reject_nan(top)
    return idx, top


def _pick(cond: np.ndarray, kappa: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """kappa where cond holds, else lam, as intp; in place unless kappa is read-only."""
    kappa = np.bitwise_xor(kappa, lam, out=kappa if kappa.flags.writeable else None)
    kappa *= cond
    kappa ^= lam
    return kappa.astype(np.intp, copy=False)


def _stage_family(scheme: SchemeParam):
    """The key of a rule's weight-free stage, which TS and TC share, as do infinite weights."""
    if isinstance(scheme, (TimeSharing, ThresholdChecking)):
        return "best relays"
    weight = scheme.nu if isinstance(scheme, WeightedDifference) else scheme.zeta
    return "best energy" if math.isinf(weight) else getattr(scheme, "metric", "difference")


def _free_stage(family, snr, energy, outage_threshold: float) -> tuple[np.ndarray, ...]:
    """The arrays of a rule family (``_stage_family``) that its weight leaves alone:
    (kappa, best SNR, lambda), (lambda,), or (F(s0) - F(s1), e1 - e0[, e1 > e0])."""
    if family == "best relays":
        return (*_argmax_rows(snr), _argmax_rows(energy)[0])
    if family == "best energy":
        return _argmax_rows(energy)[:1]
    e0, e1, s0, s1 = energy[:, 0], energy[:, 1], snr[:, 0], snr[:, 1]
    cost = e1 - e0
    if family == "difference":
        return _reject_nan(s0 - s1), cost
    if family is Metric.CAPACITY:  # 0.5 log2(1 + s0) - 0.5 log2(1 + s1)
        lhs, minus = s0 + 1.0, s1 + 1.0
        for half in (lhs, minus):
            np.log2(half, out=half)
            half *= 0.5
        lhs -= minus
    else:
        _reject_nan(s0 - s1)  # the indicators below would swallow a NaN SNR
        lhs = (s0 >= outage_threshold).astype(float)
        lhs -= s1 >= outage_threshold
    return _reject_nan(lhs), cost, e1 > e0


def _weight_stage(scheme: SchemeParam, stage: tuple[np.ndarray, ...], coins) -> np.ndarray:
    """The indices a rule picks from its ``_free_stage``, in place on it unless it is read-only."""
    if isinstance(scheme, (TimeSharing, ThresholdChecking)):
        kappa, best, lam = stage
        cond = coins < scheme.mu if isinstance(scheme, TimeSharing) else best >= scheme.tau
        return _pick(cond, kappa, lam)
    if len(stage) == 1:  # an infinite weight: the best-energy index
        return stage[0].astype(np.intp)
    lhs, cost, *more_energy = stage
    weight = scheme.nu if isinstance(scheme, WeightedDifference) else scheme.zeta
    rhs = _reject_nan(np.multiply(cost, weight, out=cost if cost.flags.writeable else None))
    pick1 = lhs < rhs  # relay 1 if its gain beats its cost, or (Pareto) ties it with more energy
    if more_energy:
        pick1 |= (lhs == rhs) & more_energy[0]
    return pick1.astype(np.intp)


def select_indices(
    scheme: SchemeParam,
    snr: np.ndarray,
    energy: np.ndarray,
    coins: np.ndarray | None = None,
    outage_threshold: float = 1.0,
) -> np.ndarray:
    """Vectorized selection over a batch of frames.

    Args:
        snr, energy: arrays of shape (m, N); strided views are fine, as the
            rules read them one column at a time.
        coins: per-frame uniforms in [0, 1), shape (m,); required for time
            sharing.

    Returns:
        int array of shape (m,) with the selected relay index per frame.
    """
    snr = np.asarray(snr, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if snr.ndim != 2 or snr.shape[1] < 1:
        raise ValueError(f"snr must have shape (m, N) with N >= 1, got {snr.shape}")
    if energy.shape != snr.shape:
        raise ValueError(f"energy shape {energy.shape} differs from snr shape {snr.shape}")
    validate_scheme(scheme, snr.shape[1])

    if isinstance(scheme, TimeSharing):
        if coins is None:
            raise ValueError("time sharing needs per-frame coins")
        coins = np.asarray(coins)
        if coins.shape != snr.shape[:1]:
            raise ValueError(f"coins must have shape {snr.shape[:1]}, got {coins.shape}")
    stage = _free_stage(_stage_family(scheme), snr, energy, outage_threshold)
    return _weight_stage(scheme, stage, coins)
