import csv
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import relayswipt.closedform as cf
import relayswipt.frontier as frontier
import relayswipt.simulate as simulate
from relayswipt.cli import main
from relayswipt.model import SystemConfig, snr_from_db
from relayswipt.schemes import Metric, ParetoOptimal
from relayswipt.simulate import MonteCarloConfig, run


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
    targets = []
    solve = frontier.solve_zeta_for_energy

    def counting_solve(config, energy_target, metric, **kwargs):
        targets.append(energy_target)
        return solve(config, energy_target, metric, **kwargs)

    monkeypatch.setattr(frontier, "solve_zeta_for_energy", counting_solve)
    out = tmp_path / "mc.csv"
    grid, frames, seed = 5, 2000, 3
    assert main(["tradeoff-capacity", "--with-mc", "--grid", str(grid), "--frames", str(frames),
                 "--seed", str(seed), "--out", str(out)]) == 0
    # one solve per grid point below delta = 1, none repeated for the overlay
    assert len(targets) == len(set(targets)) == grid - 1
    monkeypatch.undo()
    header, data = read_csv(out)
    config = SystemConfig(2, snr_from_db(10.0), 1.0, 1.0)
    curve = frontier.capacity_frontier(config, [cell(header, row, "delta") for row in data])
    for zeta, row in zip(curve.zetas, data):
        result = run(config, ParetoOptimal(zeta=zeta, metric=Metric.CAPACITY),
                     MonteCarloConfig(frames, seed))
        assert cell(header, row, "mc_c_pareto") == result.capacity.mean
        assert cell(header, row, "mc_e_pareto") == result.energy.mean


@pytest.mark.parametrize("frames, chunks", [(10_000, 1), (None, 10)])
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
    assert len(memos) == 6 and set(memos) == {None}
    assert main(["tradeoff-capacity", "--with-mc", "--grid", "2", "--frames", "20000"]) == 0
    assert len(memos) == 6 + 16 and None not in memos[6:]


def test_capacity_vs_snr_evaluates_each_rung_once(integral_calls, capsys):
    assert main(["capacity-vs-snr", "--preset", "fig6"]) == 0
    assert max(integral_calls.values()) == 1 and sum(integral_calls.values()) <= 387


def test_capacity_vs_snr_holds_one_config_of_grids(grid_builds, monkeypatch, capsys):
    """Only the scenario of the config last integrated is held: its gap grids
    stay alive, read-only, and every other cell's are dropped."""
    live_after_call = []
    integrals = frontier._capacity_policy_integrals

    def evaluate(config, *args):
        result = integrals(config, *args)
        live = [(cfg, ref()) for cfg, *_, refs in grid_builds for ref in refs if ref() is not None]
        assert all(cfg == config and not grid.flags.writeable for cfg, grid in live)
        live_after_call.append(len(live))
        return result

    monkeypatch.setattr(frontier, "_capacity_policy_integrals", evaluate)
    assert main(["capacity-vs-snr", "--snr-db=-20:25:16"]) == 0
    assert len({config for config, *_ in grid_builds}) == 16
    assert max(Counter((cfg, outer, inner) for cfg, outer, inner, _ in grid_builds).values()) == 1
    assert 0 < max(live_after_call) <= 2 * len(frontier._GL_LADDER)
    last = grid_builds[-1][0]
    assert {cfg for cfg, *_, refs in grid_builds for ref in refs if ref() is not None} == {last}
    assert last.mean_snr == snr_from_db(25.0)


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
# recorded in CHANGES.md.
PRESET_SHA256 = {
    "fig3": "8f3e678421bf844bab99ad61bb172702984a53cc517ac602a8625f6f3fbbad83",
    "fig4": "b9187451af9e6319c6a9d46aaae0f6d3e0d5fbd6b2f36f52ccefd6aff737c561",
    "fig5": "7dea31133e27aff6bcd5f59c8e04414fefdba050e9f98f1e37b2cb3769643d3c",
    "fig6": "74b9f5575a92a7a2c26ffa95fec37029635be83720f04c37114e4bc6f38becf6",
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


CONFIG_FILES = {
    "snr_db": "n_relays = 2\nmean_snr_db = 20\nmean_energy = 2\nseed = 11\n",
    "snr_rate": "n_relays = 2\nmean_snr = 50\nmean_energy = 0.5\nrate = 0.5\n",
    "threshold": "n_relays = 2\nmean_snr_db = 15\nmean_energy = 1\noutage_threshold = 2\nseed = 5\n",
}
_MC = ["montecarlo", "--scheme", "threshold-checking", "--tau", "2", "--frames", "5000"]

# (config file or None, argv) -> (exit code, sha256 of stdout); recorded before
# the scenario resolver was shared between the config file and the CLI.
CLI_PINS = {
    ("snr_db", ("tradeoff-outage", "--grid", "5")):
        (0, "3bbf33d425b12fc923541b3fcfdc5d768616151698a184e5dc739575a35fae11"),
    ("snr_db", ("tradeoff-outage", "--grid", "5", "--mean-snr", "30")):
        (0, "0621e0293a7e1c3fc0e46efb15bc238bdb0be7185bdf19bdadcc7bda8146e0c7"),
    ("snr_db", ("tradeoff-capacity", "--grid", "5", "--mean-snr", "5")):
        (0, "5f53fb1e789a1db33cc41867c97bd2645581eec256a1077cbfbd4989d72c1ee9"),
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
        (0, "092da6d3ae1254a54024cb0876c68b96910b0d56b85b9752a1ef9216c2719335"),
    ("threshold", tuple(_MC) + ("--seed", "3")):
        (0, "1795cee72ff8da260953da13505d0c2eca441348b2a1ce99dfdb45f0c0918094"),
    ("threshold", tuple(_MC) + ("--mean-snr", "40", "--rate", "0.5")):
        (0, "a821d740b7f55bba03eceea926b700f5ff5dbf5103076b3e5da5a2192504f3c8"),
    ("snr_rate", tuple(_MC)):
        (0, "efd556643ca66b7e751acc1c518d812531a061741962b42163a28c1db56f6d9b"),
    (None, ("tradeoff-outage", "--rate", "0.5")):
        (0, "7dea31133e27aff6bcd5f59c8e04414fefdba050e9f98f1e37b2cb3769643d3c"),
    (None, ("tradeoff-outage", "--rate", "0.75")):
        (0, "8a6d13c447aea0b696e35396d266d8470ddac6c0f583a21235c634fb1431a5fd"),
    (None, ("outage-vs-snr", "--n-relays", "3")):
        (0, "61b26831bea372979b1db8c4c173855894e30561a1a8cbb632c4c7b83c7ce4ac"),
    (None, ("capacity-vs-snr", "--snr-db=-5:25:7")):
        (0, "6d093cca000cddd5a2b71f5e15f4dfd2ed2dae8762fa9f4452b282838d7802a0"),
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


@pytest.mark.parametrize("deltas", ["1,0,0", "0.5,0.50", "0.1234561,0.1234564"])
@pytest.mark.parametrize("command", ["capacity-vs-snr", "outage-vs-snr"])
def test_deltas_with_a_repeated_column_label_are_refused(command, deltas, capsys):
    assert main([command, "--deltas", deltas]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "distinct" in captured.err and repr(deltas) in captured.err


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


def test_closed_pipe_exits_quietly():
    """``relayswipt outage-vs-snr | head -1`` ends with exit 0 and no message."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "relayswipt.cli", "outage-vs-snr"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_with_mc_bytes_are_pinned(capsys):
    """MC overlay columns, recorded before the column-wise selection kernels."""
    assert main(["tradeoff-capacity", "--with-mc", "--frames", "20000", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "454d54438ca4c4fb3783ae5813281650dad698252c0cf6e9c2a117dcd9b9a342"
    )
