"""Seeded workloads of the relayswipt benchmark, and the output check of each op.

Each workload is a closed loop with one caller: ``rounds(seed)`` yields
rounds of operations forever and run.py runs them in order, one at a
time, until its time budget is spent, always finishing a round.  Every
round has the same composition; only the seeded scenario parameters differ.
In ``mc_long`` and ``mc_overlay`` those come from a rotated low-discrepancy
sequence (Kronecker / R-sequence with a seeded shift), so any prefix of
rounds covers the parameter range evenly and two seeds give statistically
alike runs.  ``figures`` repeats one fixed set of scenarios in a seeded
order (see ``figures_rounds``).

An operation calls the program only through its public entry points,
``relayswipt.run`` and ``relayswipt.cli.main(argv)``, looked up at call time
so that trace wrappers see the call.  Its check runs afterwards, untimed,
and returns None when the output is right or a reason when it is not.

Outcome of an op: "ok" (exit 0 and check passed), "refused" (the CLI
exited 1 or 2 with an error message: its documented answer for a scenario
it does not support or cannot certify), or "failed" (an exception escaped,
or the output check failed).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# R-sequence step sizes: golden ratio for 1-d, plastic number for 2-d.
_PHI1 = 0.6180339887498949
_G2 = 1.324717957244746
_ALPHA2 = (1.0 / _G2, 1.0 / (_G2 * _G2))

# A correct engine breaks a z bound of 6.5 with probability 8e-11 per test;
# mc_long makes about a thousand tests in a run, so below 1e-7 per run.
Z_BOUND_LONG = 6.5
# The overlay makes 168 tests per op and ~150 ops per run: 2.6e-12 per
# test, below 1e-7 per run.
Z_BOUND_OVERLAY = 7.0
# Chernoff bound on each binomial tail for outage counts, per test.
TAIL_ALPHA = 1e-11
# Absolute accuracy the frontier certifies (default tol) plus the energy
# band of the weight solve, both 1e-4 (times mean energy).
FRONTIER_TOL = 1e-4
SOLVE_BAND = 1e-4


@dataclass
class Op:
    """One operation: a call into the program plus the check of its output."""

    label: str
    kind: str  # "mc" or "cli"
    args: tuple
    check: Callable
    frames: int = 0


@dataclass
class Outcome:
    status: str  # "ok" | "refused" | "failed"
    reason: str = ""
    bytes_out: int = 0


def _kronecker(shift, r, alpha):
    return [float((s + r * a) % 1.0) for s, a in zip(shift, alpha)]


def _harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
#  Executing an op
# ---------------------------------------------------------------------------


def execute(op: Op):
    """Run one op; returns (result, exit code, stdout text, stderr text, error)."""
    import relayswipt
    import relayswipt.cli

    if op.kind == "mc":
        try:
            return relayswipt.run(*op.args), 0, "", "", None
        except Exception as exc:  # counted as a failed op, never raised
            return None, None, "", "", exc
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = relayswipt.cli.main(list(op.args))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    except Exception as exc:  # counted as a failed op, never raised
        return None, None, out.getvalue(), err.getvalue(), exc
    return None, code, out.getvalue(), err.getvalue(), None


def judge(op: Op, result, code, stdout, stderr, error) -> Outcome:
    """Classify an executed op and run its output check."""
    if error is not None:
        return Outcome("failed", f"{type(error).__name__}: {error}")
    nbytes = len(stdout.encode())
    if code != 0:
        if code in (1, 2) and stderr.strip():
            return Outcome("refused", stderr.strip().splitlines()[-1], nbytes)
        return Outcome("failed", f"exit {code} without an error message", nbytes)
    reason = op.check(result if op.kind == "mc" else stdout)
    if reason:
        return Outcome("failed", reason, nbytes)
    return Outcome("ok", "", nbytes)


# ---------------------------------------------------------------------------
#  Statistical checks
# ---------------------------------------------------------------------------


def _z_check(label, mc_mean, mc_se, truth, truth_tol, bound):
    denom = math.sqrt(mc_se * mc_se + truth_tol * truth_tol)
    if not (math.isfinite(mc_mean) and math.isfinite(truth)):
        return f"{label}: non-finite estimate {mc_mean!r} or reference {truth!r}"
    if denom == 0.0:
        return None if mc_mean == truth else f"{label}: {mc_mean} != {truth} with zero error"
    z = abs(mc_mean - truth) / denom
    return None if z <= bound else f"{label}: z = {z:.2f} (MC {mc_mean}, closed form {truth})"


def _kl_bernoulli(q, p):
    """Kullback-Leibler divergence KL(Bern(q) || Bern(p))."""
    total = 0.0
    if q > 0.0:
        total += q * math.log(q / p) if p > 0.0 else math.inf
    if q < 1.0:
        total += (1.0 - q) * math.log((1.0 - q) / (1.0 - p)) if p < 1.0 else math.inf
    return total


def _tail_check(label, mc_mean, n, truth):
    """Chernoff test of an outage count: P(tail) <= exp(-n KL) must stay above alpha."""
    q = min(max(mc_mean, 0.0), 1.0)
    p = min(max(truth, 0.0), 1.0)
    if n * _kl_bernoulli(q, p) <= -math.log(TAIL_ALPHA):
        return None
    return f"{label}: outage {q} in {n} frames is implausible for p = {p}"


# ---------------------------------------------------------------------------
#  mc_long
# ---------------------------------------------------------------------------

# (N, scheme, frames).  The frame counts give each call about 0.12-0.2 s on
# one core of a 2-vCPU Xeon VM.  An odd number of cases makes a round's
# median op one case's time rather than the mean of two cases.
MC_LONG_CASES = (
    (2, "ts", 1_000_000),
    (2, "tc", 1_000_000),
    (2, "wd", 1_000_000),
    (2, "pareto-capacity", 1_000_000),
    (2, "pareto-outage", 1_000_000),
    (3, "ts", 400_000),
    (3, "tc", 400_000),
    (8, "ts", 200_000),
    (8, "tc", 200_000),
)


def _mc_long_op(n, scheme_name, frames, snr_db, u, mc_seed):
    import relayswipt as rs
    from relayswipt.schemes import Metric

    cfg = rs.SystemConfig(n, rs.snr_from_db(snr_db), 1.0)
    mc = rs.MonteCarloConfig(n_frames=frames, seed=mc_seed)
    if scheme_name == "pareto-outage":
        lo = rs.delta_range_outage(cfg)[0]
        delta = lo + (1.0 - lo) * (0.05 + 0.9 * u)
    else:
        delta = 0.05 + 0.9 * u
    energy = rs.energy_from_delta(cfg, delta)
    cap = en = out = None  # closed-form references; None where there is none
    tight = 1e-9
    if scheme_name == "ts":
        scheme = rs.TimeSharing(mu=rs.mu_from_energy(cfg, energy))
        cap, en, out = rs.c_ts(cfg, energy), energy, rs.outage_ts(cfg, delta)
    elif scheme_name == "tc":
        scheme = rs.ThresholdChecking(tau=rs.tau_from_energy(cfg, energy))
        cap, en, out = rs.c_tc(cfg, energy), energy, rs.outage_tc(cfg, delta)
    elif scheme_name == "wd":
        scheme = rs.WeightedDifference(nu=rs.nu_from_energy(cfg, energy))
        cap, en, out = rs.c_wd(cfg, energy), energy, rs.outage_wd(cfg, delta)
    elif scheme_name == "pareto-capacity":
        zeta = rs.solve_zeta_for_energy(cfg, energy, Metric.CAPACITY)
        scheme = rs.ParetoOptimal(zeta=zeta, metric=Metric.CAPACITY)
        point = rs.pareto_capacity_point(cfg, zeta)
        cap, en = point.value, point.energy
        tight = FRONTIER_TOL
    else:
        zeta = rs.solve_zeta_for_energy(cfg, energy, Metric.OUTAGE_INDICATOR)
        scheme = rs.ParetoOptimal(zeta=zeta, metric=Metric.OUTAGE_INDICATOR)
        en, out = rs.pareto_outage_energy(cfg, zeta), 1.0 - rs.pareto_no_outage(cfg, zeta)

    label = f"N={n} {scheme_name} snr={snr_db:.3f}dB delta={delta:.4f}"

    def check(result):
        problems = []
        if cap is not None:
            problems.append(_z_check("capacity", result.capacity.mean, result.capacity.std_error,
                                     cap, tight * max(1.0, abs(cap)), Z_BOUND_LONG))
        if en is not None:
            problems.append(_z_check("energy", result.energy.mean, result.energy.std_error,
                                     en, tight * max(1.0, abs(en)), Z_BOUND_LONG))
        if out is not None:
            problems.append(_tail_check("outage", result.outage.mean, frames, out))
        if sum(result.selection_counts) != frames:
            problems.append(f"selection counts sum to {sum(result.selection_counts)}")
        problems = [p for p in problems if p]
        return f"{label}: " + "; ".join(problems) if problems else None

    return Op(label, "mc", (cfg, scheme, mc), check, frames=frames)


def mc_long_rounds(seed, frames_scale=1.0):
    rng = np.random.default_rng([seed, 1])
    shifts = rng.random((len(MC_LONG_CASES), 2))
    r = 0
    while True:
        ops = []
        for (n, name, frames), shift in zip(MC_LONG_CASES, shifts):
            u_snr, u_delta = _kronecker(shift, r, _ALPHA2)
            frames = max(10_000, int(frames * frames_scale))
            ops.append(_mc_long_op(n, name, frames, 20.0 * u_snr, u_delta,
                                   int(rng.integers(2**63))))
        yield ops
        r += 1


# ---------------------------------------------------------------------------
#  CSV invariants (figures, mc_overlay)
# ---------------------------------------------------------------------------


def _parse_csv(text):
    """Data rows as dicts of float, or None for an empty cell."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("CSV has no data rows")
    header = rows[0]
    data = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} cells under a header of {len(header)}")
        data.append({h: (float(v) if v != "" else None) for h, v in zip(header, row)})
    return data


def _capacity_cap(n, gbar):
    """Jensen: E[0.5 log2(1 + max SNR)] <= 0.5 log2(1 + E[max SNR]), E[max SNR] = H_N gbar / 2."""
    return 0.5 * math.log2(1.0 + _harmonic(n) * gbar / 2.0)


def figures_check(command, n, snr_db, eps):
    """Invariants of one CLI figure that share no code with the library.

    Cells are finite; only the Pareto column of tradeoff-outage may be
    empty, below the policy's feasible tradeoff range.  Probabilities lie in
    [0, 1], energies in [eps, H_N eps], capacities in [0, Jensen bound],
    and the Pareto column is at least every other scheme's column less the
    frontier tolerance.
    """
    h_n = _harmonic(n)
    slack = 1e-12

    def check(text):
        try:
            data = _parse_csv(text)
        except ValueError as exc:
            return f"{command}: {exc}"
        for row in data:
            for name, value in row.items():
                if value is None:
                    if not (command == "tradeoff-outage" and name == "noout_pareto"):
                        return f"{command}: empty cell in column {name}"
                    continue
                if not math.isfinite(value):
                    return f"{command}: non-finite {name} = {value}"
                if name.startswith(("noout_", "out_")) and not (-slack <= value <= 1.0 + slack):
                    return f"{command}: probability {name} = {value} outside [0, 1]"
                if name == "energy" and not (eps * (1 - slack) <= value <= h_n * eps * (1 + slack)):
                    return f"{command}: energy {value} outside [{eps}, {h_n * eps}]"
                if name.startswith("c_"):
                    gbar = 10.0 ** ((row["snr_db"] if "snr_db" in row else snr_db) / 10.0)
                    top = _capacity_cap(n, gbar)
                    if not (-slack <= value <= top * (1 + slack)):
                        return f"{command}: capacity {name} = {value} outside [0, {top}]"
            for name, value in row.items():
                if "pareto" not in name or value is None:
                    continue
                for scheme in ("ts", "tc", "wd"):
                    other = row.get(name.replace("pareto", scheme))
                    if other is None:
                        continue
                    if name.startswith("out_"):
                        bad = value > other + FRONTIER_TOL
                    else:
                        bad = value < other - FRONTIER_TOL
                    if bad:
                        return (f"{command}: Pareto column {name} = {value} is beaten by "
                                f"{scheme} = {other} at {row}")
        return None

    return check


# ---------------------------------------------------------------------------
#  figures
# ---------------------------------------------------------------------------

# Template slots: 14 closed-form-only ones (~2-5 ms per op on one core of a
# 2-vCPU Xeon VM) and 6 with frontier solves (~40-200 ms), so the median
# falls in the fast mode and the 90th percentile inside the slow one.
# Scenarios span mean SNR -20..60 dB and mean energy 1e-3..1e3.  Frontier
# failures at high SNR or large mean energy and rejections of N != 2 by the
# two-relay commands stay in the mix; they are answered by a clear error
# (exit 1 or 2), counted as refused and reported in success_rate.
FIGURES_TEMPLATES = (
    ("tradeoff-outage", 2),
    ("tradeoff-outage", 2),
    ("tradeoff-outage", 2),
    ("tradeoff-outage", 2),
    ("outage-vs-snr", 2),
    ("outage-vs-snr", 2),
    ("outage-vs-snr", 2),
    ("outage-vs-snr", 3),
    ("outage-vs-snr", 3),
    ("outage-vs-snr", 8),
    ("outage-vs-snr", 8),
    ("tradeoff-capacity", 3),
    ("tradeoff-capacity", 8),
    ("capacity-vs-snr", 4),
    ("tradeoff-capacity", 2),
    ("tradeoff-capacity", 2),
    ("tradeoff-capacity", 2),
    ("capacity-vs-snr", 2),
    ("capacity-vs-snr", 2),
    ("capacity-vs-snr", 2),
)


def _figures_op(command, n, u_snr, u_energy):
    eps = 10.0 ** (-3.0 + 6.0 * u_energy)
    argv = [command, "--n-relays", str(n), f"--mean-energy={eps!r}"]
    snr_db = -20.0 + 80.0 * u_snr
    if command in ("tradeoff-outage", "tradeoff-capacity"):
        argv.append(f"--mean-snr-db={snr_db!r}")
    else:
        # a 20 dB wide, 16 point grid whose start sweeps -20..40 dB
        lo = -20.0 + 60.0 * u_snr
        flag = "--snr-db" if command == "capacity-vs-snr" else "--ratio-db"
        argv.append(f"{flag}={lo!r}:{lo + 20.0!r}:16")
    label = " ".join(argv)
    return Op(label, "cli", tuple(argv), figures_check(command, n, snr_db, eps))


# Scenarios per template slot in a round: an 8-point Fibonacci lattice over
# (mean SNR, mean energy), rotated by a fixed offset per slot.
FIGURES_POINTS, _FIGURES_LATTICE_STEP = 8, 3


def figures_scenarios():
    """The fixed scenarios of a figures round: (command, N, u_snr, u_energy)."""
    out = []
    for slot, (command, n) in enumerate(FIGURES_TEMPLATES):
        shift_snr, shift_energy = _kronecker((0.5 / FIGURES_POINTS,) * 2, slot, _ALPHA2)
        for i in range(FIGURES_POINTS):
            step = _FIGURES_LATTICE_STEP * i % FIGURES_POINTS
            out.append((command, n, (shift_snr + i / FIGURES_POINTS) % 1.0,
                        (shift_energy + step / FIGURES_POINTS) % 1.0))
    return out


def figures_rounds(seed, frames_scale=1.0):
    """Rounds of the same 160 scenarios, each round in a seeded order.

    Every round holds the same scenarios, so a run's cost does not depend on
    which scenarios a seed draws: whether a mean energy trips the
    ``nu >= 0`` defect is an erratic function of its last bits, and runs
    that drew scenarios at random differed by ~15% in cost for that alone.
    """
    rng = np.random.default_rng([seed, 2])
    scenarios = figures_scenarios()
    while True:
        yield [_figures_op(*scenarios[i]) for i in rng.permutation(len(scenarios))]


# ---------------------------------------------------------------------------
#  mc_overlay
# ---------------------------------------------------------------------------

OVERLAY_FRAMES = 10_000
OVERLAY_OPS_PER_ROUND = 8
_SCHEMES = ("ts", "tc", "wd", "pareto")


def overlay_check(label):
    """MC columns against the closed-form columns of the same CSV, by z-score."""

    def check(text):
        try:
            data = _parse_csv(text)
        except ValueError as exc:
            return f"{label}: {exc}"
        problems = []
        for row in data:
            for name, value in row.items():
                if value is None or not math.isfinite(value):
                    return f"{label}: bad cell {name} = {value}"
            for s in _SCHEMES:
                tol = FRONTIER_TOL if s == "pareto" else 1e-9
                e_tol = SOLVE_BAND if s == "pareto" else 1e-9
                problems.append(_z_check(f"c_{s} at delta={row['delta']}", row[f"mc_c_{s}"],
                                         row[f"mc_c_{s}_stderr"], row[f"c_{s}"], tol,
                                         Z_BOUND_OVERLAY))
                problems.append(_z_check(f"e_{s} at delta={row['delta']}", row[f"mc_e_{s}"],
                                         row[f"mc_e_{s}_stderr"], row["energy"], e_tol,
                                         Z_BOUND_OVERLAY))
        problems = [p for p in problems if p]
        return f"{label}: " + "; ".join(problems[:3]) if problems else None

    return check


def mc_overlay_rounds(seed, frames_scale=1.0):
    """Rounds of eight ops at consecutive points of a rotated golden-ratio sequence."""
    rng = np.random.default_rng([seed, 3])
    shift = rng.random(1)
    r = 0
    while True:
        ops = []
        for _ in range(OVERLAY_OPS_PER_ROUND):
            (u,) = _kronecker(shift, r, (_PHI1,))
            snr_db = 20.0 * u
            argv = ("tradeoff-capacity", "--with-mc", "--frames", str(OVERLAY_FRAMES),
                    f"--mean-snr-db={snr_db!r}", "--mean-energy", "1",
                    "--seed", str(int(rng.integers(2**31))))
            label = " ".join(argv)
            ops.append(Op(label, "cli", argv, overlay_check(label), frames=84 * OVERLAY_FRAMES))
            r += 1
        yield ops


WORKLOADS = {
    "mc_long": mc_long_rounds,
    "figures": figures_rounds,
    "mc_overlay": mc_overlay_rounds,
}
