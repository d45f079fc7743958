"""System configuration, per-frame channel realizations, and link metrics.

A transmission frame consists of, for each of the N relays, an end-to-end
two-hop SNR and an independent exponential harvestable energy with mean
``mean_energy``.  The end-to-end SNR is the minimum of two i.i.d.
exponential hop SNRs with mean ``mean_snr``, hence itself exponential with
mean ``mean_snr / 2``; it is drawn directly from that law.

All sampling goes through the inverse CDF ``-mean * log1p(-u)`` applied to
uniform draws laid out in a fixed per-frame order (N SNR uniforms, N energy
uniforms, one selection coin), so that a frame's content depends only on
its uniforms and not on how frames are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "ChannelFrame",
    "snr_from_db",
    "snr_to_db",
    "uniforms_per_frame",
    "frames_from_uniforms",
    "sample_frame",
    "instantaneous_capacity",
    "outage_indicator",
    "load_config_file",
]


def snr_from_db(db: float) -> float:
    """Convert an SNR in dB to linear scale."""
    return 10.0 ** (float(db) / 10.0)


def snr_to_db(linear: float) -> float:
    """Convert a linear SNR to dB."""
    if linear <= 0:
        raise ValueError(f"linear SNR must be > 0, got {linear!r}")
    return 10.0 * math.log10(float(linear))


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemConfig:
    """Static scenario parameters.

    Attributes:
        n_relays: number of candidate relays N (>= 1).
        mean_snr: mean per-hop SNR, linear scale (the end-to-end SNR of a
            relay then has mean ``mean_snr / 2``).
        mean_energy: mean per-relay harvestable energy.
        outage_threshold: end-to-end SNR below which a frame is in outage.
    """

    n_relays: int
    mean_snr: float
    mean_energy: float
    outage_threshold: float = 1.0

    def __post_init__(self):
        if int(self.n_relays) != self.n_relays or self.n_relays < 1:
            raise ValueError(f"n_relays must be an integer >= 1, got {self.n_relays!r}")
        object.__setattr__(self, "n_relays", int(self.n_relays))
        object.__setattr__(self, "mean_snr", _require_positive("mean_snr", self.mean_snr))
        object.__setattr__(self, "mean_energy", _require_positive("mean_energy", self.mean_energy))
        object.__setattr__(
            self, "outage_threshold", _require_positive("outage_threshold", self.outage_threshold)
        )

    @classmethod
    def from_rate(
        cls, n_relays: int, mean_snr: float, mean_energy: float, rate: float
    ) -> "SystemConfig":
        """Build a config from a fixed transmission rate r (bits/s/Hz).

        The outage threshold is 2^(2r) - 1; the factor 2 in the exponent
        reflects the two-phase half-duplex relaying.
        """
        rate = _require_positive("rate", rate)
        return cls(n_relays, mean_snr, mean_energy, 2.0 ** (2.0 * rate) - 1.0)

    @classmethod
    def from_physical(
        cls,
        n_relays: int,
        mean_snr: float,
        absorption: float,
        noise_power: float,
        outage_threshold: float = 1.0,
    ) -> "SystemConfig":
        """Build a config from harvester and noise parameters.

        ``absorption`` is the harvester's energy absorption coefficient
        (0 < beta <= 1); the mean harvested energy is
        ``absorption * noise_power * mean_snr``.  The transmit power cancels
        out of that product and is not needed.
        """
        absorption = float(absorption)
        if not (0.0 < absorption <= 1.0):
            raise ValueError(f"absorption coefficient must be in (0, 1], got {absorption!r}")
        noise_power = _require_positive("noise_power", noise_power)
        mean_snr = _require_positive("mean_snr", mean_snr)
        return cls(n_relays, mean_snr, absorption * noise_power * mean_snr, outage_threshold)


@dataclass(frozen=True, eq=False)
class ChannelFrame:
    """One frame's per-relay end-to-end SNRs and harvestable energies."""

    snr: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        snr = np.asarray(self.snr, dtype=float)
        energy = np.asarray(self.energy, dtype=float)
        if snr.ndim != 1 or energy.shape != snr.shape or snr.size < 1:
            raise ValueError("snr and energy must be 1-d arrays of equal nonzero length")
        if not (np.all(np.isfinite(snr)) and np.all(np.isfinite(energy))):
            raise ValueError("frame entries must be finite")
        if np.any(snr < 0.0) or np.any(energy < 0.0):
            raise ValueError("frame entries must be nonnegative")
        object.__setattr__(self, "snr", snr)
        object.__setattr__(self, "energy", energy)

    @property
    def n_relays(self) -> int:
        return self.snr.size


def uniforms_per_frame(n_relays: int) -> int:
    """Number of uniform draws one frame consumes: 2N + 1.

    Per relay: end-to-end SNR and harvested energy; plus one selection coin
    shared by all schemes.
    """
    return 2 * n_relays + 1


def frames_from_uniforms(config: SystemConfig, u: np.ndarray):
    """Transform a block of uniform draws into channel realizations, in place.

    Args:
        u: array of shape (m, w) with w >= 2N+1, entries in [0, 1).  Columns
           0..N-1 are the relays' SNR uniforms, N..2N-1 their energy
           uniforms, and column 2N is the selection coin.  ``u`` is consumed:
           a float64 array is overwritten, other input is copied first.

    Returns:
        (snr, energy, coins): arrays of shape (m, N), (m, N) and (m,).
        ``snr`` and ``energy`` are views into ``u``'s storage; ``coins`` is a
        copy of ``u[:, 2N]`` as it was before the call.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    n = config.n_relays
    need = uniforms_per_frame(n)
    if u.shape[1] < need:
        raise ValueError(f"need at least {need} uniforms per frame, got {u.shape[1]}")
    u = u[:, :need]
    coins = u[:, 2 * n].copy()
    # Whole rows, coin included, in one contiguous pass: 3x faster than a
    # strided pass over the 2N draw columns alone.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    for j in range(n):
        u[:, j] *= -0.5 * config.mean_snr
        u[:, n + j] *= -config.mean_energy
    return u[:, :n], u[:, n : 2 * n], coins


def sample_frame(config: SystemConfig, rng: np.random.Generator) -> ChannelFrame:
    """Draw one channel frame from a numpy Generator.

    Consumes exactly 2N+1 uniform doubles in the fixed frame order, so two
    generators in the same state produce identical frames.
    """
    u = rng.random(uniforms_per_frame(config.n_relays))
    snr, energy, _ = frames_from_uniforms(config, u)
    return ChannelFrame(snr=snr[0], energy=energy[0])


def instantaneous_capacity(snr):
    """Half-duplex instantaneous capacity 0.5 * log2(1 + snr), in bits/s/Hz.

    Accepts a scalar or array; raises on negative or NaN input.
    """
    arr = np.asarray(snr, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError("snr must be nonnegative and not NaN")
    out = 0.5 * np.log2(1.0 + arr)
    return float(out) if np.isscalar(snr) or arr.ndim == 0 else out


def outage_indicator(snr: float, threshold: float) -> int:
    """1 if the SNR is strictly below the threshold, else 0.

    Equality counts as no-outage; the boundary event has probability zero
    under the continuous fading model, so the convention only pins down
    test behavior.
    """
    return 1 if snr < threshold else 0


# Scenario keys, each with the type a config file's text is read as.
_CONFIG_KEYS = {
    "n_relays": int,
    "mean_snr": float,
    "mean_snr_db": float,
    "mean_energy": float,
    "seed": int,
    "rate": float,
    "outage_threshold": float,
}
# Each pair spells one quantity two ways; a source that sets either key
# replaces both.
_KEY_PAIRS = (("mean_snr", "mean_snr_db"), ("outage_threshold", "rate"))


def _resolve_scenario(*sources: dict) -> tuple[SystemConfig, int | None]:
    """Merge scenario keys into (SystemConfig, seed); later sources win.

    Keys that are not scenario keys, and keys set to None, are ignored.  The
    outage threshold defaults to 1 and the seed to None; n_relays,
    mean_energy and one of mean_snr / mean_snr_db must be set by some source.
    """
    values = {}
    for source in sources:
        given = {k: v for k, v in source.items() if k in _CONFIG_KEYS and v is not None}
        for pair in _KEY_PAIRS:
            if not given.keys().isdisjoint(pair):
                for key in pair:
                    values.pop(key, None)
        values.update(given)
    mean_snr = values["mean_snr"] if "mean_snr" in values else snr_from_db(values["mean_snr_db"])
    scenario = (values["n_relays"], mean_snr, values["mean_energy"])
    if "rate" in values:
        config = SystemConfig.from_rate(*scenario, values["rate"])
    else:
        config = SystemConfig(*scenario, values.get("outage_threshold", 1.0))
    return config, values.get("seed")


def _read_config_file(path) -> dict:
    """Read a key-value config file into scenario keys (see load_config_file)."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, _, value = line.partition(sep)
                    break
            else:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value.strip()

    for a, b in _KEY_PAIRS:
        if a in raw and b in raw:
            raise ValueError(f"config sets both {a!r} and {b!r}")
    missing = {"n_relays", "mean_energy"} - raw.keys()
    if missing or ("mean_snr" not in raw and "mean_snr_db" not in raw):
        raise ValueError(f"config missing required keys: {sorted(missing) or ['mean_snr']}")
    return {key: kind(raw[key]) for key, kind in _CONFIG_KEYS.items() if key in raw}


def load_config_file(path) -> tuple[SystemConfig, int | None]:
    """Parse a key-value config file into (SystemConfig, seed).

    One ``key = value`` pair per line ('=' or ':' separators, '#' comments).
    Keys: n_relays, mean_snr OR mean_snr_db, mean_energy, outage_threshold
    OR rate, and an optional seed.  SNR is stored linear.
    """
    return _resolve_scenario(_read_config_file(path))
