import argparse
import csv
import functools
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayswipt.cli as cli
import relayswipt.closedform as cf
import relayswipt.frontier as frontier
import relayswipt.simulate as simulate
from relayswipt.cli import build_parser, main
from relayswipt.model import SystemConfig, snr_from_db
from relayswipt.schemes import Metric, ParetoOptimal, ThresholdChecking, TimeSharing
from relayswipt.simulate import MonteCarloConfig, run

import oracles
from conftest import (assert_meets_target, capacity_n_relays_quadrature,
                      outage_n_relays_quadrature, spy_on_kernel)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return header, data


def cell(header, row, name):
    return float(row[header.index(name)])


def test_tradeoff_capacity_fig3(tmp_path):
    out = tmp_path / "fig3.csv"
    rc = main(["tradeoff-capacity", "--preset", "fig3", "--grid", "5", "--out", str(out)])
    assert rc == 0
    header, data = read_csv(out)
    assert header[:6] == ["delta", "energy", "c_ts", "c_tc", "c_wd", "c_pareto"]
    cfg = SystemConfig(2, snr_from_db(20.0), 1.0, 1.0)
    cmx = cf.c_max(cfg)
    first = data[0]
    for name in ("c_ts", "c_tc", "c_wd", "c_pareto"):
        assert cell(header, first, name) == pytest.approx(cmx, rel=1e-6)
    assert cell(header, data[-1], "energy") == pytest.approx(1.5)
    # curve ordering holds on every row
    for row in data:
        assert cell(header, row, "c_pareto") >= cell(header, row, "c_wd") - 1e-3
        assert cell(header, row, "c_wd") >= cell(header, row, "c_tc") - 1e-12
        assert cell(header, row, "c_tc") >= cell(header, row, "c_ts") - 1e-12


def test_tradeoff_capacity_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["tradeoff-capacity", "--mean-snr-db", "10", "--grid", "5",
            "--with-mc", "--frames", "20000", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, data = read_csv(a)
    assert "mc_c_ts" in header and "mc_c_pareto_stderr" in header


def test_with_mc_reuses_the_frontier_weights(tmp_path, monkeypatch):
    walks, solves = [], []
    walk = frontier._walk
    monkeypatch.setattr(frontier, "_walk", lambda *args: walks.append(args[1]) or walk(*args))
    monkeypatch.setattr(frontier, "solve_zeta_for_energy", lambda *args: solves.append(args))
    out = tmp_path / "mc.csv"
    grid, frames, seed = 5, 2000, 3
    assert main(["tradeoff-capacity", "--with-mc", "--grid", str(grid), "--frames", str(frames),
                 "--seed", str(seed), "--out", str(out)]) == 0
    # one walk over the grid points below delta = 1, no solve repeated for the overlay
    assert len(walks) == 1 and len(walks[0]) == len(set(walks[0])) == grid - 1 and not solves
    monkeypatch.undo()
    header, data = read_csv(out)
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    curve = frontier.capacity_frontier(config, [cell(header, row, "delta") for row in data])
    for zeta, row in zip(curve.zetas, data):
        result = run(config, ParetoOptimal(zeta=zeta, metric=Metric.CAPACITY),
                     MonteCarloConfig(frames, seed))
        assert cell(header, row, "mc_c_pareto") == result.capacity.mean
        assert cell(header, row, "mc_e_pareto") == result.energy.mean


@pytest.mark.parametrize("frames, chunks", [(10_000, 1), (None, 5)])
def test_with_mc_draws_each_chunk_once(frames, chunks, monkeypatch, capsys):
    drawn = Counter()
    draw = simulate.frame_uniforms

    def spy(seed, n_relays, start, count):
        drawn[seed, n_relays, start, count] += 1
        return draw(seed, n_relays, start, count)

    monkeypatch.setattr(simulate, "frame_uniforms", spy)
    argv = ["tradeoff-capacity", "--with-mc", "--seed", "4"]
    assert main(argv + (["--frames", str(frames)] if frames else [])) == 0
    assert len(drawn) == chunks and set(drawn.values()) == {1}
    assert simulate._frame_memo.get() is None


def test_only_the_overlay_shares_frames(monkeypatch, capsys):
    memos = []
    chunk_stats = simulate._chunk_stats

    def spy(*args):
        memos.append(args[-1])
        return chunk_stats(*args)

    monkeypatch.setattr(simulate, "_chunk_stats", spy)
    assert main(["montecarlo", "--scheme", "time-sharing", "--mu", "0.5",
                 "--frames", "30000", "--workers", "2"]) == 0
    run(SystemConfig(2, 10.0, 1.0, 1.0), ParetoOptimal(zeta=1.0, metric=Metric.CAPACITY),
        MonteCarloConfig(30_000))
    assert len(memos) == 4 and set(memos) == {None}
    assert main(["tradeoff-capacity", "--with-mc", "--grid", "2", "--frames", "20000"]) == 0
    assert len(memos) == 4 + 8 and None not in memos[4:]


@pytest.mark.parametrize("argv, exponentiations", [
    (["--preset", "fig6"], 387),
    # the three interior factors of an SNR row share one frontier call
    (["--snr-db=0:20:16", "--deltas", "0.25,0.5,0.75"], 912),
], ids=["fig6", "three-interior-deltas"])
def test_capacity_vs_snr_evaluates_each_rung_once(argv, exponentiations, integral_calls, capsys):
    assert main(["capacity-vs-snr"] + argv) == 0
    assert max(integral_calls.values()) == 1
    assert sum(integral_calls.values()) <= exponentiations


@pytest.mark.parametrize("command", ["tradeoff-capacity", "capacity-vs-snr"])
def test_a_refusing_closed_form_costs_no_kernel_call(command, integral_calls, monkeypatch,
                                                     capsys):
    """Every closed form of a figure is evaluated before its frontier, so one
    that refuses ends the command before any capacity integral."""
    def refuse(forms, energy):
        raise ValueError("c_wd refuses")

    monkeypatch.setattr(cf._Forms, "c_wd", refuse)  # the row builder's closed forms
    assert main([command]) == 2
    assert capsys.readouterr().err == "error: c_wd refuses\n" and not integral_calls


def test_capacity_vs_snr_columns_do_not_depend_on_the_order_of_the_factors(capsys):
    header, data = _table(["capacity-vs-snr", "--snr-db", "0:20:3", "--deltas", "1,0.5,0"],
                          capsys)
    sorted_header, sorted_data = _table(
        ["capacity-vs-snr", "--snr-db", "0:20:3", "--deltas", "0,0.5,1"], capsys)
    assert header != sorted_header and sorted(header) == sorted(sorted_header)
    for name in header:
        assert ([row[header.index(name)] for row in data]
                == [row[sorted_header.index(name)] for row in sorted_data])


def test_capacity_vs_snr_refuses_factors_within_the_solver_band(capsys):
    """An SNR row's Pareto cells are one frontier, which refuses factors whose
    energy targets lie within twice the weight solver's band, as --grid 4001 does."""
    assert main(["capacity-vs-snr", "--snr-db", "0:20:3", "--deltas", "0.5,0.500001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: capacity frontier points")
    assert "solver's band" in captured.err


@pytest.mark.parametrize("argv, solves", [
    (["outage-vs-snr", "--preset", "fig7"], 16),  # one per SNR row
    (["tradeoff-outage", "--preset", "fig5"], 10),
])
def test_outage_figures_solve_each_lifted_factor_once(argv, solves, monkeypatch, capsys):
    calls = []
    solve = frontier.solve_zeta_for_energy
    monkeypatch.setattr(frontier, "solve_zeta_for_energy",
                        lambda *args: calls.append(args) or solve(*args))
    assert main(argv) == 0
    assert len(calls) == solves


def test_capacity_vs_snr_holds_one_config_of_grids(grid_builds, monkeypatch, capsys):
    """Only the scenario of the config being integrated is held: its gap grids
    stay alive, read-only, and every other cell's are dropped, the last one's too."""
    live_after_call = []

    def after_call(scenario, *_):
        live = [(cfg, ref()) for cfg, *_, refs in grid_builds for ref in refs if ref() is not None]
        assert all(cfg == scenario.config and not grid.flags.writeable for cfg, grid in live)
        live_after_call.append(len(live))

    spy_on_kernel(monkeypatch, after_call)
    assert main(["capacity-vs-snr", "--snr-db=-20:25:16"]) == 0
    assert len({config for config, *_ in grid_builds}) == 16
    assert max(Counter((cfg, rungs) for cfg, rungs, _ in grid_builds).values()) == 1
    assert 0 < max(live_after_call) <= len(frontier._LADDER_STEPS)
    assert grid_builds[-1][0].mean_snr == snr_from_db(25.0)
    assert not [ref for *_, refs in grid_builds for ref in refs if ref() is not None]


def test_tradeoff_outage_fig5(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["tradeoff-outage", "--preset", "fig5", "--grid", "9", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert header == ["delta", "energy", "noout_ts", "noout_tc", "noout_wd", "noout_pareto"]
    cfg = SystemConfig(2, 2.0 / math.log(2.0), 1.0, 1.0)
    a = math.exp(-2.0 / cfg.mean_snr)
    # the Pareto column exists only from delta = 0.5 on at this geometry
    for row in data:
        delta = cell(header, row, "delta")
        pareto = row[header.index("noout_pareto")]
        if delta < 0.5 - 1e-9:
            assert pareto == ""
        else:
            assert pareto != ""
    # left endpoint of the Pareto column and the shared delta = 1 value
    first_defined = next(r for r in data if r[header.index("noout_pareto")] != "")
    assert cell(header, first_defined, "noout_pareto") == pytest.approx(
        1.0 - (1.0 - a) ** 2, abs=1e-9
    )
    last = data[-1]
    for name in ("noout_ts", "noout_tc", "noout_wd", "noout_pareto"):
        assert cell(header, last, name) == pytest.approx(a, abs=1e-9)


def test_capacity_vs_snr(tmp_path):
    out = tmp_path / "cap.csv"
    assert main([
        "capacity-vs-snr", "--snr-db", "0:30:7", "--deltas", "0,1",
        "--out", str(out),
    ]) == 0
    header, data = read_csv(out)
    assert header[0] == "snr_db"
    prev = -1.0
    for row in data:
        snr_db = cell(header, row, "snr_db")
        cfg = SystemConfig(2, snr_from_db(snr_db), 1.0, 1.0)
        for name in ("c_ts_d0", "c_tc_d0", "c_wd_d0", "c_pareto_d0"):
            assert cell(header, row, name) == pytest.approx(cf.c_max(cfg), rel=1e-9)
        for name in ("c_ts_d1", "c_tc_d1", "c_wd_d1", "c_pareto_d1"):
            assert cell(header, row, name) == pytest.approx(cf.c_min(cfg), rel=1e-9)
        assert cell(header, row, "c_ts_d0") > prev  # monotone in SNR
        prev = cell(header, row, "c_ts_d0")


def test_outage_vs_snr_three_relays_omits_two_relay_schemes(tmp_path):
    out = tmp_path / "out3.csv"
    assert main([
        "outage-vs-snr", "--preset", "fig8", "--ratio-db", "0:30:4", "--out", str(out),
    ]) == 0
    header, data = read_csv(out)
    assert not any("wd" in h or "pareto" in h for h in header)
    assert "out_ts_d0.01" in header and "out_tc_d0.01" in header
    for row in data:
        ratio = snr_from_db(cell(header, row, "ratio_db"))
        cfg = SystemConfig(3, ratio, 1.0, 1.0)
        assert cell(header, row, "out_ts_d0.5") == pytest.approx(
            cf.outage_ts(cfg, 0.5), rel=1e-9
        )


@pytest.mark.parametrize("argv, snr_db_column", [
    (["tradeoff-capacity", "--n-relays", "3", "--grid", "5"], None),
    (["capacity-vs-snr", "--n-relays", "3", "--snr-db=-10:30:5"], "snr_db"),
])
def test_capacity_commands_keep_time_sharing_and_threshold_checking_at_three_relays(
        argv, snr_db_column, capsys):
    """Weighted difference and the Pareto frontier need two relays; at N = 3
    the capacity commands drop their columns and match a quadrature oracle."""
    assert main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    header, data = rows[0], rows[1:]
    assert not any("wd" in h or "pareto" in h for h in header)
    checked = 0
    for row in data:
        snr_db = cell(header, row, snr_db_column) if snr_db_column else 10.0
        for name in header:
            if not name.startswith("c_"):
                continue
            scheme, _, delta = name[2:].partition("_d")
            delta = float(delta) if delta else cell(header, row, "delta")
            ts, tc = capacity_n_relays_quadrature(snr_from_db(snr_db), 3, delta)
            assert cell(header, row, name) == pytest.approx(ts if scheme == "ts" else tc,
                                                           rel=1e-9)
            checked += 1
    assert checked == 2 * len(data) * (1 if snr_db_column is None else 3)


@pytest.mark.parametrize("n_relays, snr_db, flags", [
    (3, None, []),
    (3, 10.0, []),
    (3, -10.0, ["--rate", "0.5"]),
    (4, 25.0, ["--outage-threshold", "3"]),
    (8, 3.0, ["--mean-energy", "1e3"]),
])
def test_tradeoff_outage_keeps_time_sharing_and_threshold_checking_beyond_two_relays(
        n_relays, snr_db, flags, capsys):
    """At N != 2 the command drops weighted difference and the Pareto policy,
    and its cells match an order-statistics quadrature oracle."""
    given = dict(zip(flags[::2], map(float, flags[1::2])))
    threshold = (2.0 ** (2.0 * given["--rate"]) - 1.0 if "--rate" in given
                 else given.get("--outage-threshold", 1.0))
    if snr_db is not None:
        flags = flags + [f"--mean-snr-db={snr_db}"]
    assert main(["tradeoff-outage", "--n-relays", str(n_relays), "--grid", "9"] + flags) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    header, data = rows[0], rows[1:]
    assert header == ["delta", "energy", "noout_ts", "noout_tc"] and len(data) == 9
    # without a mean SNR the command takes the default geometry 2*threshold/ln 2
    mean_snr = 2.0 * threshold / math.log(2.0) if snr_db is None else snr_from_db(snr_db)
    for row in data:
        ts, tc = outage_n_relays_quadrature(mean_snr, threshold, n_relays,
                                            cell(header, row, "delta"))
        assert cell(header, row, "noout_ts") == pytest.approx(1.0 - ts, rel=1e-9, abs=1e-14)
        assert cell(header, row, "noout_tc") == pytest.approx(1.0 - tc, rel=1e-9, abs=1e-14)


def test_with_mc_at_three_relays_runs_time_sharing_and_threshold_checking(capsys):
    frames, seed = 3000, 5
    assert main(["tradeoff-capacity", "--n-relays", "3", "--with-mc", "--grid", "3",
                 "--frames", str(frames), "--seed", str(seed)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    header, data = rows[0], rows[1:]
    assert header == ["delta", "energy", "c_ts", "c_tc"] + [
        f"mc_{q}_{name}{se}" for name in ("ts", "tc") for q in ("c", "e") for se in ("", "_stderr")
    ]
    config = SystemConfig(3, snr_from_db(10.0), 1.0, 1.0)
    for row in data:
        energy = cell(header, row, "energy")
        for name, scheme in (("ts", TimeSharing(mu=cf.mu_from_energy(config, energy))),
                             ("tc", ThresholdChecking(tau=cf.tau_from_energy(config, energy)))):
            result = run(config, scheme, MonteCarloConfig(frames, seed))
            assert cell(header, row, f"mc_c_{name}") == result.capacity.mean
            assert cell(header, row, f"mc_e_{name}") == result.energy.mean


def test_outage_vs_snr_pareto_column(tmp_path):
    out = tmp_path / "out2.csv"
    assert main(["outage-vs-snr", "--ratio-db", "0:20:3", "--deltas", "0.5",
                 "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert "out_pareto_d0.5" in header
    for row in data:
        assert 0.0 <= cell(header, row, "out_pareto_d0.5") <= 1.0
        # the Pareto policy never does worse than weighted difference here
        assert cell(header, row, "out_pareto_d0.5") <= cell(header, row, "out_wd_d0.5") + 1e-9


def _table(argv, capsys):
    """The CSV ``main(argv)`` writes to stdout, as a header and its rows."""
    assert main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    return rows[0], rows[1:]


def test_the_vs_snr_figures_agree_with_the_tradeoff_figures_cell_for_cell(capsys):
    """At N = 2, the same mean SNR and the same factor, a vs-SNR cell is the
    tradeoff figure's cell: the same closed form and the same Pareto weight."""
    compared = Counter()
    header, data = _table(["capacity-vs-snr", "--snr-db", "10:20:2", "--deltas", "0.25,0.5"],
                          capsys)
    for row in data:
        snr_db = f"{cell(header, row, 'snr_db'):g}"
        th, tdata = _table(["tradeoff-capacity", "--mean-snr-db", snr_db, "--grid", "5"], capsys)
        for trow in tdata:
            suffix = f"_d{cell(th, trow, 'delta'):g}"
            if "c_ts" + suffix in header:
                for name in ("c_ts", "c_tc", "c_wd", "c_pareto"):
                    assert cell(header, row, name + suffix) == cell(th, trow, name)
                compared["capacity"] += 1
    header, data = _table(["outage-vs-snr", "--ratio-db", "0:10:3", "--outage-threshold", "1",
                           "--deltas", "0,0.25,0.5,0.75,1"], capsys)
    for row in data:
        ratio_db = f"{cell(header, row, 'ratio_db'):g}"
        th, tdata = _table(["tradeoff-outage", "--mean-snr-db", ratio_db,
                            "--outage-threshold", "1", "--grid", "5"], capsys)
        for trow in tdata:
            suffix = f"_d{cell(th, trow, 'delta'):g}"
            for name in ("ts", "tc", "wd"):
                out = cell(header, row, f"out_{name}{suffix}")
                assert cell(th, trow, f"noout_{name}") == 1.0 - out
            if trow[th.index("noout_pareto")]:  # empty below the policy's delta_lo
                noout = cell(th, trow, "noout_pareto")
                assert cell(header, row, "out_pareto" + suffix) == 1.0 - noout
                compared["outage pareto"] += 1
    assert compared == {"capacity": 4, "outage pareto": 5}


def test_capacity_vs_snr_rows_are_the_tradeoff_cells_at_their_snr(capsys):
    """Each SNR row of capacity-vs-snr holds the closed forms of its own mean SNR:
    at N = 3 too, its cells are the bytes of the tradeoff figure at that SNR."""
    header, data = _table(["capacity-vs-snr", "--n-relays", "3", "--snr-db=-20:60:5",
                           "--deltas", "0,0.25,1"], capsys)
    compared = 0
    for row in data:
        snr_db = f"{cell(header, row, 'snr_db'):g}"
        th, tdata = _table(["tradeoff-capacity", "--n-relays", "3", "--mean-snr-db", snr_db,
                            "--grid", "5", "--x-axis", "delta"], capsys)
        for trow in tdata:
            suffix = f"_d{cell(th, trow, 'delta'):g}"
            if "c_ts" + suffix in header:
                for name in ("c_ts", "c_tc"):
                    assert row[header.index(name + suffix)] == trow[th.index(name)]
                compared += 1
    assert compared == 3 * len(data) == 15


def _bits_or_refusal(call):
    """Each cell's bits (float.hex), or the type and text of what the call raised."""
    try:
        return [[float(value).hex() for value in row] for row in call()]
    except Exception as exc:
        return type(exc), str(exc)


def _fresh_closedform():
    """A new copy of the closedform module: no state of the copy under test reaches it."""
    spec = importlib.util.find_spec("relayswipt.closedform")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh_capacity_cells(forms, make, deltas):
    """The closed-form cells of a capacity row, each from one public call of ``forms`` (a
    closedform module) on a new config."""
    schemes = (forms.c_ts, forms.c_tc, forms.c_wd)[:3 if make().n_relays == 2 else 2]
    energies = [forms.energy_from_delta(make(), delta) for delta in deltas]
    return [[energy] + [capacity(make(), energy) for capacity in schemes] for energy in energies]


def _fresh_outage_cells(forms, make, deltas):
    schemes = (forms.outage_ts, forms.outage_tc, forms.outage_wd)
    return [[outage(make(), delta) for outage in schemes[:3 if make().n_relays == 2 else 2]]
            for delta in deltas]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(2, 8), st.floats(-20.0, 60.0), st.floats(-300.0, 300.0),
                          st.floats(-3.0, 3.0)), min_size=2, max_size=2),
       st.lists(st.floats(0.0, 1.0), max_size=3))
def test_no_closed_form_constant_crosses_configs(scenarios, interior):
    """Every closed-form cell of a row builder is the public single call on an equal
    but distinct config, bit for bit, or the same refusal (the nu < 0 inputs refuse).
    The single calls run on a new copy of the module, which no earlier row has seen."""
    deltas = [0.0] + interior + [1.0]
    fresh = _fresh_closedform()
    pareto = SimpleNamespace(points=[SimpleNamespace(value=0.0)] * len(deltas),
                             zetas=[0.0] * len(deltas))
    with mock.patch.object(cli, "capacity_frontier", lambda config, deltas: pareto), \
            mock.patch.object(cli, "zeta_for_delta", lambda config, delta, metric: 1.0):
        for n, snr_db, log_eps, log_threshold in scenarios:
            def make():
                return SystemConfig(n, snr_from_db(snr_db), 10.0 ** log_eps, 10.0 ** log_threshold)

            width = 3 if n == 2 else 2
            rows = _bits_or_refusal(lambda: [
                row[:1 + width] for row in cli._capacity_rows(cf._Forms(make()), deltas)])
            assert rows == _bits_or_refusal(lambda: _fresh_capacity_cells(fresh, make, deltas))
            rows = _bits_or_refusal(lambda: [
                row[:width] for row in cli._outage_rows(cf._Forms(make()), deltas)[1]])
            assert rows == _bits_or_refusal(lambda: _fresh_outage_cells(fresh, make, deltas))


# E1 calls recorded when each row began to hold its config's constants; per-cell
# constants made 464 (fig6) and 212 (fig4).
@pytest.mark.parametrize("argv, configs, e1_calls", [
    (["capacity-vs-snr", "--preset", "fig6"], 16, 224),
    (["tradeoff-capacity", "--preset", "fig4"], 1, 69),
], ids=["fig6", "fig4"])
def test_a_capacity_row_evaluates_c_max_once_per_config(argv, configs, e1_calls, monkeypatch,
                                                         capsys):
    """A row builder holds one config's closed forms: c_max's best-SNR sum runs once per
    config outside the frontier (whose own c_max calls are its business), and the E1
    calls of the whole command stay within those recorded when rows began to share them."""
    rows_c_max, e1, in_frontier = Counter(), [], []
    c_max, exp_e1_scaled, capacity_frontier = (cf._Forms.c_max.func, cf.exp_e1_scaled,
                                               cli.capacity_frontier)

    def spy_c_max(forms):
        if not in_frontier:
            rows_c_max[forms.config] += 1
        return c_max(forms)

    def spy_frontier(*args):
        in_frontier.append(True)
        try:
            return capacity_frontier(*args)
        finally:
            in_frontier.pop()

    spy = functools.cached_property(spy_c_max)
    spy.__set_name__(cf._Forms, "c_max")
    monkeypatch.setattr(cf._Forms, "c_max", spy)
    monkeypatch.setattr(cli, "capacity_frontier", spy_frontier)
    monkeypatch.setattr(cf, "exp_e1_scaled", lambda x: e1.append(x) or exp_e1_scaled(x))
    assert main(argv) == 0
    assert len(rows_c_max) == configs and set(rows_c_max.values()) == {1}
    assert len(e1) <= e1_calls


def test_montecarlo_row_and_determinism(tmp_path):
    out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    args = ["montecarlo", "--scheme", "time-sharing", "--mu", "0.5",
            "--mean-snr-db", "10", "--frames", "30000", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, data = read_csv(out1)
    assert header[:3] == ["scheme", "n_frames", "seed"]
    row = data[0]
    assert row[0] == "time-sharing"
    assert int(row[1]) == 30000
    counts = [int(row[header.index(f"count_relay{i}")]) for i in (1, 2)]
    assert sum(counts) == 30000


def test_montecarlo_infinite_weight_is_best_energy(tmp_path):
    """``--nu inf`` / ``--zeta inf`` estimate what time sharing with mu = 0 does."""
    base = ["montecarlo", "--mean-snr-db", "10", "--frames", "20000", "--seed", "2"]
    want = tmp_path / "ts.csv"
    assert main(base + ["--scheme", "time-sharing", "--mu", "0", "--out", str(want)]) == 0
    _, (expected,) = read_csv(want)
    for argv in (["--scheme", "weighted-difference", "--nu", "inf"],
                 ["--scheme", "pareto", "--zeta", "inf"],
                 ["--scheme", "pareto", "--metric", "outage", "--zeta", "inf"]):
        got = tmp_path / "got.csv"
        assert main(base + argv + ["--out", str(got)]) == 0
        _, (row,) = read_csv(got)
        assert row[1:] == expected[1:]  # all but the scheme name: estimates and counts
    with pytest.raises(SystemExit):  # inf is the one spelling of the limit
        main(base + ["--scheme", "pareto", "--energy-only"])


def test_montecarlo_usage_errors(capsys):
    assert main(["montecarlo", "--scheme", "time-sharing", "--mu", "1.5",
                 "--frames", "1000"]) == 2
    assert main(["montecarlo", "--scheme", "weighted-difference",
                 "--frames", "1000"]) == 2  # missing --nu
    assert main(["montecarlo", "--scheme", "pareto", "--zeta", "1.0",
                 "--n-relays", "3", "--frames", "1000"]) == 2
    assert main(["tradeoff-capacity", "--grid", "1"]) == 2


@pytest.mark.parametrize("flag, value, quantity", [
    ("--mean-snr", "1e308", "mean SNR 1e+308"), ("--mean-energy", "1e160", "mean energy 1e+160"),
])
def test_a_montecarlo_run_whose_draws_would_overflow_exits_2(flag, value, quantity, capsys):
    assert main(["montecarlo", "--scheme", "time-sharing", "--mu", "0.5",
                 "--frames", "20000", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {quantity} is too large")
    assert main(["tradeoff-capacity", "--with-mc", "--frames", "10000", "--grid", "2",
                 flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {quantity} is too large")


def test_a_montecarlo_run_whose_sum_overflows_exits_2_with_one_line():
    """Each frame's squared energy is finite but their sum is not: a fresh interpreter,
    whose warnings print as a user sees them, writes the error line and nothing else."""
    proc = subprocess.run(
        [sys.executable, "-m", "relayswipt.cli", "montecarlo", "--scheme", "time-sharing",
         "--mu", "0.5", "--frames", "20000", "--mean-energy", "3.5e152"],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the squared energy sum over 20000 frames overflows\n"


@pytest.mark.parametrize("scheme, flag", [
    ("time-sharing", "mu"), ("threshold-checking", "tau"),
    ("weighted-difference", "nu"), ("pareto", "zeta"),
])
def test_a_missing_weight_flag_names_itself(scheme, flag, capsys):
    assert main(["montecarlo", "--scheme", scheme, "--frames", "1000"]) == 2
    assert capsys.readouterr().err == f"error: --{flag} is required for --scheme {scheme}\n"


def test_capacity_commands_refuse_relay_counts_past_the_closed_forms(capsys):
    bound = cf._MAX_SUM_RELAYS
    assert main(["tradeoff-capacity", "--n-relays", "60", "--grid", "3"]) == 2
    assert main(["capacity-vs-snr", "--n-relays", str(bound + 1), "--snr-db", "0:10:2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: capacity closed forms need n_relays <= {bound}, got n_relays={n}"
                   for n in (60, bound + 1)]
    assert main(["tradeoff-capacity", "--n-relays", str(bound), "--grid", "3"]) == 0


@pytest.mark.parametrize("argv", [
    ["tradeoff-capacity", "--n-relays", "21", "--grid", "5"],
    ["capacity-vs-snr", "--n-relays", "21", "--snr-db=-20:60:17"],
])
def test_capacity_commands_match_the_oracle_at_twenty_one_relays(argv, capsys):
    """At the largest N the closed forms answer, every cell stays within 1e-9
    of the best-of-N quadrature (worst 1.1e-10 on these grids)."""
    assert main(argv) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    header, data = rows[0], rows[1:]
    errors = []
    for row in data:
        snr_db = cell(header, row, "snr_db") if "snr_db" in header else 10.0
        for name in (h for h in header if h.startswith("c_")):
            scheme, _, delta = name[2:].partition("_d")
            delta = float(delta) if delta else cell(header, row, "delta")
            ts, tc = capacity_n_relays_quadrature(snr_from_db(snr_db), 21, delta)
            want = ts if scheme == "ts" else tc
            errors.append(abs(cell(header, row, name) - want) / want)
    assert len(errors) == 2 * len(data) * (1 if "delta" in header else 3)
    assert max(errors) < 1e-9


@pytest.mark.parametrize("error", [frontier.ToleranceNotMetError, frontier.BracketError])
def test_numerical_failure_exits_one(error, monkeypatch, capsys):
    """A frontier that cannot certify its result ends the run with exit 1 and
    no CSV, apart from the usage errors' exit 2."""
    def fail(*args, **kwargs):
        raise error("weight solve did not converge")
    monkeypatch.setattr(cli, "capacity_frontier", fail)
    assert main(["tradeoff-capacity", "--grid", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: weight solve did not converge\n"


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(
        "n_relays = 2\nmean_snr_db = 10\nmean_energy = 1\noutage_threshold = 1\nseed = 11\n"
    )
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--scheme", "threshold-checking", "--tau", "2",
                 "--config", str(cfg_file), "--frames", "20000", "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert int(data[0][header.index("seed")]) == 11
    # explicit flag beats the file
    assert main(["montecarlo", "--scheme", "threshold-checking", "--tau", "2",
                 "--config", str(cfg_file), "--frames", "20000", "--seed", "3",
                 "--out", str(out)]) == 0
    header, data = read_csv(out)
    assert int(data[0][header.index("seed")]) == 3


# sha256 of each preset's CSV; a change to any of them must be deliberate and
# recorded in CHANGES.md.  The Pareto cells of fig3-fig6 rest on
# test_preset_pareto_weights_meet_their_targets_and_the_oracle.
PRESET_SHA256 = {
    "fig3": "8b3aba4a36deba528542c8a5d25e489f0d320556a34671a73f2a08b749e5ed80",
    "fig4": "5daad7e79228f537458914771be794ad2914719b55f40c262d9689e9344b7a1a",
    "fig5": "af0cddc96dc3a90d26c9b523708d207ebf45ef1aa0ac00b700e0f829c059f13b",
    "fig6": "337f1811a51db86dce5ad4de739b0bfdd73f44ab6abd2c8b46d61c75c315216b",
    "fig7": "97f139e2159df002cf937bfe81fce5f721f034379b522bc284780241a6ccaa27",
    "fig8": "d7ba080c8a058a3750ccff93fbd48017977bfb837224c24e5347f35f4cee830c",
}
PRESET_COMMANDS = {
    "fig3": "tradeoff-capacity", "fig4": "tradeoff-capacity", "fig5": "tradeoff-outage",
    "fig6": "capacity-vs-snr", "fig7": "outage-vs-snr", "fig8": "outage-vs-snr",
}


def test_all_presets_run_fast(tmp_path):
    """Analytic-resolution figure commands finish well inside 60 seconds."""
    import time

    for preset, command in PRESET_COMMANDS.items():
        out = tmp_path / f"{preset}.csv"
        start = time.time()
        assert main([command, "--preset", preset, "--out", str(out)]) == 0
        assert time.time() - start < 60.0
        header, data = read_csv(out)
        assert header and data


@pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
def test_preset_bytes_are_pinned(preset, capsys):
    assert main([PRESET_COMMANDS[preset], "--preset", preset]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[preset]


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5", "fig6"])
def test_preset_pareto_weights_meet_their_targets_and_the_oracle(preset, monkeypatch, capsys):
    """The weight solve may end anywhere within its band, so this, not the weights
    themselves, is what the pinned Pareto bytes rest on: each Pareto cell's weight
    meets its row's energy target (for fig5, the factor lifted to delta_lo) within
    the band, checked afresh, and a capacity cell is within the frontier's tol of
    the one-expression quadrature on the finest rung at that weight."""
    solved = []  # (config, factor, weight, frontier point or None)
    if preset == "fig5":
        solve = cli.zeta_for_delta

        def spy(config, delta, metric):
            solved.append((config, delta, solve(config, delta, metric), None))
            return solved[-1][2]
        monkeypatch.setattr(cli, "zeta_for_delta", spy)
    else:
        build = cli.capacity_frontier

        def spy(config, deltas):
            curve = build(config, deltas)
            solved.extend(zip([config] * len(deltas), deltas, curve.zetas, curve.points))
            return curve
        monkeypatch.setattr(cli, "capacity_frontier", spy)
    assert main([PRESET_COMMANDS[preset], "--preset", preset]) == 0
    capsys.readouterr()
    metric = Metric.OUTAGE_INDICATOR if preset == "fig5" else Metric.CAPACITY
    interior = 0
    for config, delta, zeta, point in solved:
        if delta == 1.0:
            assert zeta == math.inf
            continue
        assert_meets_target(config, metric, frontier._energy_target(config, delta), zeta)
        if point is not None and zeta > 0.0:
            _, capacity = oracles.capacity_policy_integrals(config, zeta, *frontier._GL_LADDER[-1])
            assert abs(point.value - capacity) < frontier._DEFAULT_TOL
            interior += 1
    assert interior >= 5 or (preset == "fig5" and len(solved) >= 5)


CONFIG_FILES = {
    "snr_db": "n_relays = 2\nmean_snr_db = 20\nmean_energy = 2\nseed = 11\n",
    "snr_rate": "n_relays = 2\nmean_snr = 50\nmean_energy = 0.5\nrate = 0.5\n",
    "threshold": "n_relays = 2\nmean_snr_db = 15\nmean_energy = 1\noutage_threshold = 2\nseed = 5\n",
}
_MC = ["montecarlo", "--scheme", "threshold-checking", "--tau", "2", "--frames", "5000"]

# (config file or None, argv) -> (exit code, sha256 of stdout); recorded before
# the scenario resolver was shared between the config file and the CLI, and the
# Pareto cells again after the weight solve became a warm-started regula falsi;
# the montecarlo rows again when frames moved to the PCG64DXSM stream, after
# each estimate matched its closed form within |z| <= 5.
CLI_PINS = {
    ("snr_db", ("tradeoff-outage", "--grid", "5")):
        (0, "3bbf33d425b12fc923541b3fcfdc5d768616151698a184e5dc739575a35fae11"),
    ("snr_db", ("tradeoff-outage", "--grid", "5", "--mean-snr", "30")):
        (0, "0621e0293a7e1c3fc0e46efb15bc238bdb0be7185bdf19bdadcc7bda8146e0c7"),
    ("snr_db", ("tradeoff-capacity", "--grid", "5", "--mean-snr", "5")):
        (0, "4cf545f74619eb67063a579873671861d2bf042c12800651c71b3457f8c12493"),
    ("snr_rate", ("tradeoff-outage", "--grid", "5")):
        (0, "734e047239248314f97a63596d0b974fbb6d6a91cc3ca62834ad013fc448ffc8"),
    ("snr_rate", ("tradeoff-outage", "--grid", "5", "--mean-snr-db", "12")):
        (0, "b4b127920680b7d45d4acd3b61dd481cff39709deffc8e81ee80e710d66ac774"),
    ("snr_rate", ("tradeoff-outage", "--grid", "5", "--outage-threshold", "2")):
        (0, "117454311844df381e4aeb28f34269cf8f83b70dd658add202fb659dabf3e7b7"),
    ("threshold", ("tradeoff-outage", "--grid", "5")):
        (0, "d68917687c65d659bdbd633d92d70c45865b5101dd2e760bc35cd9ddccff5633"),
    ("threshold", ("tradeoff-outage", "--grid", "5", "--rate", "0.25")):
        (0, "39c07ef5d9500476d5dbff47c968b48de6e9a7f6413439ab5df6f422d2e558d6"),
    ("threshold", tuple(_MC)):
        (0, "e9b6b6441926b2d9eaeb79555b0e2223f54b43c1f6cb577a812baf02a764c353"),
    ("threshold", tuple(_MC) + ("--seed", "3")):
        (0, "9099a5abdaf5aabdc3222a119811d9bf68d04dfba50b4226cdf4e6545453ce86"),
    ("threshold", tuple(_MC) + ("--mean-snr", "40", "--rate", "0.5")):
        (0, "7e799caba747ca6793b92ad8eaded6df950523ce4344d25197b28e97a5adab00"),
    ("snr_rate", tuple(_MC)):
        (0, "1b579a5cf71902ecdbbc7812dea22723d9aff03b9f4d5e22dd595e9714abec54"),
    (None, ("tradeoff-outage", "--rate", "0.5")):
        (0, "af0cddc96dc3a90d26c9b523708d207ebf45ef1aa0ac00b700e0f829c059f13b"),
    (None, ("tradeoff-outage", "--rate", "0.75")):
        (0, "eb877fe9b660ff135a51bbe7ebc2149eff1f0f5fd8fd1e3656fe17ea97437135"),
    (None, ("outage-vs-snr", "--n-relays", "3")):
        (0, "61b26831bea372979b1db8c4c173855894e30561a1a8cbb632c4c7b83c7ce4ac"),
    (None, ("capacity-vs-snr", "--snr-db=-5:25:7")):
        (0, "b67b33d34081ed4942289536424084a79be8ac309c88dc9bcef19288495cc2b6"),
    # N = 3 keeps the ts and tc columns; recorded after their cells matched
    # a quadrature oracle (test_capacity_commands_keep_time_sharing_...)
    (None, ("tradeoff-capacity", "--n-relays", "3", "--grid", "5")):
        (0, "e7147ed16e184bf023af0ec15114b3a6bc044699a1a8a992fa1ba40d318f7e13"),
    (None, ("capacity-vs-snr", "--n-relays", "3", "--snr-db=-10:30:5")):
        (0, "28dc3006efcf8435626684ebf240a0a1cb00adca26bc2b1de73e5e182e236e07"),
    # recorded after its cells matched an order-statistics oracle
    # (test_tradeoff_outage_keeps_time_sharing_and_threshold_checking_beyond_two_relays)
    (None, ("tradeoff-outage", "--n-relays", "3", "--grid", "5")):
        (0, "82dcee129b014f2e32b262ee24f65925db4aba0aaad2f770e36eb1a025b7d94f"),
    # the largest N the capacity closed forms answer; recorded after its cells
    # matched a quadrature oracle (test_capacity_commands_match_the_oracle_at_...)
    (None, ("tradeoff-capacity", "--n-relays", "21", "--grid", "5")):
        (0, "cbd54d6fe313a88a17909695a32504186ac244542317966e4cb956f236e5be16"),
}


@pytest.mark.parametrize(
    "case", list(CLI_PINS),
    ids=lambda c: "_".join((str(c[0]),) + c[1]).replace("--", "").replace(":", "_"),
)
def test_cli_output_is_pinned(case, tmp_path, capsys):
    config, argv = case
    if config is not None:
        path = tmp_path / "scenario.cfg"
        path.write_text(CONFIG_FILES[config])
        argv = argv + ("--config", str(path))
    code = main(list(argv))
    text = capsys.readouterr().out
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == CLI_PINS[case]


@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_tradeoff_outage_names_a_bad_threshold(value, capsys):
    """The default geometry is derived from the threshold, so the error names it."""
    assert main(["tradeoff-outage", "--outage-threshold", value]) == 2
    err = capsys.readouterr().err
    assert "outage_threshold" in err and "mean_snr" not in err


@pytest.mark.parametrize("argv, name", [
    (["tradeoff-outage", "--rate", "600"], "rate"),
    (["montecarlo", "--scheme", "time-sharing", "--mu", "0.5", "--mean-snr-db", "4000"],
     "mean_snr_db"),
])
def test_overflowing_scenario_is_a_usage_error(argv, name, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err


@pytest.mark.parametrize("out", [[], ["--out", "-"]])
@pytest.mark.parametrize("command", ["tradeoff-capacity", "tradeoff-outage",
                                     "capacity-vs-snr", "outage-vs-snr"])
def test_gnuplot_needs_an_output_path(command, out, capsys):
    assert main([command, "--gnuplot"] + out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--gnuplot needs --out PATH" in captured.err


@pytest.mark.parametrize("argv", [
    ["tradeoff-capacity", "--outage-threshold", "2"],
    ["tradeoff-capacity", "--rate", "0.5"],
    ["tradeoff-outage", "--seed", "3"],
    ["capacity-vs-snr", "--mean-snr", "5"],
    ["capacity-vs-snr", "--mean-snr-db", "40"],
    ["capacity-vs-snr", "--outage-threshold", "2"],
    ["capacity-vs-snr", "--rate", "0.5"],
    ["capacity-vs-snr", "--seed", "3"],
    ["outage-vs-snr", "--mean-snr", "5"],
    ["outage-vs-snr", "--mean-snr-db", "40"],
    ["outage-vs-snr", "--seed", "3"],
    ["montecarlo", "--batch-size", "1000"],
    ["montecarlo", "--gnuplot"],
    ["montecarlo", "--gnuplot", "--out", "-"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    if argv[0] == "montecarlo":
        argv = argv + ["--scheme", "time-sharing", "--mu", "0.5", "--frames", "1000"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["capacity-vs-snr", "--snr-db", "nan:10:3"],
    ["capacity-vs-snr", "--snr-db", "0:inf:3"],
    ["capacity-vs-snr", "--snr-db", "0:10"],
    ["outage-vs-snr", "--ratio-db=-inf:10:3"],
    ["outage-vs-snr", "--ratio-db", "10:0:3"],
    ["outage-vs-snr", "--ratio-db", "0:10:x"],
])
def test_a_malformed_grid_names_its_flag(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag, _, text = argv[1].partition("=")
    text = text or argv[2]
    assert captured.out == "" and captured.err.startswith(f"error: {flag} ")
    assert repr(text) in captured.err


@pytest.mark.parametrize("argv", [
    ["tradeoff-capacity", "--grid", "100000000000000000"],
    ["capacity-vs-snr", "--snr-db", "0:30:100000000000000000"],
    ["outage-vs-snr", "--ratio-db", "0:30:100000000000000000"],
])
def test_a_grid_too_large_to_allocate_is_a_usage_error(argv, capsys):
    """numpy refuses 10**17 grid points (711 PiB) before allocating any of them."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("deltas", ["1,0,0", "0.5,0.50", "0.1234561,0.1234564", "0,-0"])
@pytest.mark.parametrize("command", ["capacity-vs-snr", "outage-vs-snr"])
def test_deltas_with_a_repeated_column_label_are_refused(command, deltas, capsys):
    assert main([command, "--deltas", deltas]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "distinct" in captured.err and repr(deltas) in captured.err


@pytest.mark.parametrize("command, grid", [("capacity-vs-snr", "--snr-db=0:10:2"),
                                           ("outage-vs-snr", "--ratio-db=0:10:2")])
def test_a_negative_zero_delta_is_zero(command, grid, capsys):
    zero = _table([command, grid, "--deltas", "0"], capsys)
    assert _table([command, grid, "--deltas", "-0"], capsys) == zero
    assert any(name.endswith("_d0") for name in zero[0])


@pytest.mark.parametrize("deltas", ["0.5,x", "x", "0.5,,1e"])
@pytest.mark.parametrize("command", ["capacity-vs-snr", "outage-vs-snr"])
def test_a_malformed_delta_list_names_its_flag(command, deltas, capsys):
    assert main([command, "--deltas", deltas]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --deltas ")
    assert repr(deltas) in captured.err and "Traceback" not in captured.err


def test_gnuplot_script(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["tradeoff-capacity", "--preset", "fig4", "--grid", "5",
                 "--out", str(out), "--gnuplot"]) == 0
    script = tmp_path / "fig4.csv.gp"
    assert script.exists()
    text = script.read_text()
    assert "plot" in text and "fig4.csv" in text
    # gnuplot reads '' as one ' inside a single-quoted string
    out = tmp_path / "it's.csv"
    assert main(["tradeoff-outage", "--grid", "3", "--out", str(out), "--gnuplot"]) == 0
    text = (tmp_path / "it's.csv.gp").read_text()
    assert "it''s.csv' using 1:3 with lines title 'noout_ts'" in text and "it's" not in text


def _cli_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_pipe_exits_quietly():
    """``relayswipt outage-vs-snr | head -1`` ends with exit 0 and no message."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "relayswipt.cli", "outage-vs-snr"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    proc.stdout.close()  # the reader is gone before the first write
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_with_mc_bytes_are_pinned(capsys):
    """MC overlay columns, recorded before the column-wise selection kernels; the
    Pareto columns again after the weight solve became a warm-started regula falsi;
    every MC column again when frames moved to the PCG64DXSM stream, after each
    matched the closed-form column of its row within |z| <= 5."""
    assert main(["tradeoff-capacity", "--with-mc", "--frames", "20000", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9757307c0e0d2133505f8408ff43a3c7705c102d999e63ac93930d816e89d14e"
    )


# ---------------------------------------------------------------------------
#  One parser per process
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """Drop the process's parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


def test_main_builds_its_parser_once(fresh_parser, monkeypatch, capsys):
    builds = []

    def spy():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    codes = [_exit_code(argv) for argv in (
        ["outage-vs-snr", "--n-relays", "3", "--ratio-db", "0:10:3"],
        ["tradeoff-outage", "--grid", "3"],
        ["capacity-vs-snr", "--seed", "3"],
        ["capacity-vs-snr", "--n-relays", "3", "--snr-db", "0:10:2"],
        ["montecarlo", "--scheme", "time-sharing", "--mu", "0.5", "--frames", "1000"],
        ["tradeoff-capacity", "--n-relays", "3", "--grid", "2"],
    )]
    assert codes == [0, 0, 2, 0, 0, 0]
    assert len(builds) == 1


def test_a_flag_does_not_outlive_its_call(fresh_parser, monkeypatch, tmp_path, capsys):
    """Each call parses into a fresh namespace: ``--gnuplot``, ``--with-mc`` and
    ``--out`` of one call are gone from the next, which sees the defaults."""
    seen = []
    build_config = cli._build_config

    def spy(args, preset):
        seen.append(args)
        return build_config(args, preset)

    monkeypatch.setattr(cli, "_build_config", spy)
    out = tmp_path / "fig.csv"
    first = ["tradeoff-capacity", "--n-relays", "3", "--grid", "2", "--with-mc",
             "--frames", "1000", "--seed", "7", "--gnuplot", "--out", str(out)]
    second = ["tradeoff-capacity", "--n-relays", "3", "--grid", "2"]
    assert main(first) == 0 and main(second) == 0
    assert seen[0].with_mc and seen[0].gnuplot and seen[0].out == str(out)
    assert seen[0] is not seen[1]
    assert vars(seen[1]) == vars(build_parser().parse_args(second))
    assert (seen[1].with_mc, seen[1].gnuplot, seen[1].out) == (False, False, "-")
    assert (seen[1].frames, seen[1].seed) == (100_000, None)


def test_a_usage_error_leaves_the_next_call_unchanged(fresh_parser, capsys):
    valid = ["outage-vs-snr", "--n-relays", "3", "--ratio-db", "0:20:5", "--deltas", "0.2,0.7"]
    assert main(valid) == 0
    alone = capsys.readouterr().out
    cli._parser.cache_clear()
    for argv in (
        ["outage-vs-snr", "--seed", "3"],  # a flag the command does not read
        ["outage-vs-snr", "--rate", "0.5", "--outage-threshold", "2"],  # exclusive pair
        ["outage-vs-snr", "--n-relays", "x"],  # a bad value
        ["montecarlo", "--mu", "0.5"],  # a required flag missing
        ["outage-vs-snr", "--deltas", "x"],  # refused by the handler
    ):
        assert _exit_code(argv) == 2
    capsys.readouterr()
    assert main(valid) == 0
    assert capsys.readouterr().out == alone


def test_the_shared_parser_prints_the_help_of_a_fresh_one(fresh_parser, capsys):
    assert main(["outage-vs-snr", "--ratio-db", "0:10:2"]) == 0
    assert _exit_code(["tradeoff-capacity", "--x-axis", "bogus"]) == 2
    shared, fresh = cli._parser(), build_parser()
    assert shared is cli._parser() and shared is not fresh
    assert shared.format_help() == fresh.format_help()

    def subparsers(parser):
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return subs.choices

    assert list(subparsers(shared)) == list(subparsers(fresh))
    for name, sub in subparsers(shared).items():
        assert sub.format_help() == subparsers(fresh)[name].format_help()
