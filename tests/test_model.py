import math

import numpy as np
import pytest
from scipy import stats

from relayswipt.model import (
    SystemConfig,
    _read_config_file,
    _resolve_scenario,
    frames_from_uniforms,
    snr_from_db,
)
from relayswipt.simulate import frame_uniforms


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(0, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(2, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(2, 10.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SystemConfig(2, 10.0, 1.0, math.nan)
    with pytest.raises(ValueError):
        SystemConfig(2.5, 10.0, 1.0, 1.0)


def test_config_from_rate():
    cfg = SystemConfig.from_rate(2, 10.0, 1.0, rate=1.0)
    assert cfg.outage_threshold == 3.0  # 2^(2r) - 1 exactly
    cfg = SystemConfig.from_rate(2, 10.0, 1.0, rate=0.5)
    assert cfg.outage_threshold == 1.0
    with pytest.raises(ValueError, match="rate"):
        SystemConfig.from_rate(2, 10.0, 1.0, rate=600.0)  # 2^1200 overflows


def test_snr_db_round_trip():
    assert snr_from_db(10.0) == pytest.approx(10.0)
    assert snr_from_db(20.0) == pytest.approx(100.0)
    for db in (-10.0, 0.0, 7.5, 30.0):
        assert 10.0 * math.log10(snr_from_db(db)) == pytest.approx(db, abs=1e-12)
    with pytest.raises(ValueError, match="mean_snr_db"):
        snr_from_db(4000.0)  # 10^400 overflows


def test_sample_means_within_three_sigma():
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    u = frame_uniforms(seed=2024, n_relays=2, start=0, count=500_000)
    snr, energy, _ = frames_from_uniforms(cfg, u)
    for arr, mean in ((snr, cfg.mean_snr / 2.0), (energy, cfg.mean_energy)):
        flat = arr.ravel()
        se = flat.std(ddof=1) / math.sqrt(flat.size)
        assert abs(flat.mean() - mean) < 3.0 * se


def test_max_snr_cdf_matches_order_statistics():
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    u = frame_uniforms(seed=2024, n_relays=2, start=0, count=50_000)
    snr, _, _ = frames_from_uniforms(cfg, u)
    x = cfg.mean_snr
    emp = float((snr.max(axis=1) <= x).mean())
    theo = (1.0 - math.exp(-2.0 * x / cfg.mean_snr)) ** 2
    se = math.sqrt(theo * (1.0 - theo) / snr.shape[0])
    assert abs(emp - theo) < 3.0 * se


def test_snr_samples_pass_ks_test():
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    u = frame_uniforms(seed=2024, n_relays=2, start=0, count=50_000)
    snr, _, _ = frames_from_uniforms(cfg, u)
    result = stats.kstest(snr.ravel(), "expon", args=(0.0, cfg.mean_snr / 2.0))
    assert result.pvalue >= 0.001


def test_frames_from_uniforms_consumes_float64_input():
    cfg = SystemConfig(2, 10.0, 1.0, 1.0)
    u = frame_uniforms(seed=3, n_relays=2, start=0, count=4)
    coin = u[:, 4].copy()
    snr, energy, coins = frames_from_uniforms(cfg, u)
    assert np.shares_memory(snr, u) and np.shares_memory(energy, u)
    assert np.array_equal(coins, coin) and not np.shares_memory(coins, u)
    wide = np.full((3, 8), 0.5, dtype=np.float32)  # other dtypes are copied
    snr, _, _ = frames_from_uniforms(cfg, wide)
    assert np.all(wide == 0.5) and np.allclose(snr, 5.0 * math.log(2.0))
    with pytest.raises(ValueError, match="shape"):
        frames_from_uniforms(cfg, np.full(5, 0.5))  # one frame, 1-d


def test_load_config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# two-relay scenario\n"
        "n_relays = 2\n"
        "mean_snr_db = 20\n"
        "mean_energy = 1.0\n"
        "rate = 0.5\n"
        "seed = 42\n"
    )
    cfg, seed = _resolve_scenario(_read_config_file(path))
    assert cfg.n_relays == 2
    assert cfg.mean_snr == pytest.approx(100.0)
    assert cfg.outage_threshold == pytest.approx(1.0)
    assert seed == 42


def test_load_config_file_linear_snr_and_threshold(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("n_relays: 3\nmean_snr: 10\nmean_energy: 2\noutage_threshold: 1.5\n")
    cfg, seed = _resolve_scenario(_read_config_file(path))
    assert (cfg.n_relays, cfg.mean_snr, cfg.mean_energy) == (3, 10.0, 2.0)
    assert cfg.outage_threshold == 1.5
    assert seed is None


@pytest.mark.parametrize(
    "content",
    [
        "n_relays = 2\nmean_snr = 10\nmean_snr_db = 10\nmean_energy = 1\n",
        "n_relays = 2\nmean_snr = 10\nmean_energy = 1\nrate = 1\noutage_threshold = 3\n",
        "n_relays = 2\nmean_energy = 1\n",
        "n_relays = 2\nmean_snr = 10\nmean_energy = 1\nbogus = 3\n",
        "just some words\n",
    ],
)
def test_load_config_file_rejects_bad_input(tmp_path, content):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    with pytest.raises(ValueError):
        _resolve_scenario(_read_config_file(path))


def test_load_config_file_names_a_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("n_relays = 2\nmean_snr = 10\nmean_energy = 1\nmean_snr: 20\n")
    with pytest.raises(ValueError, match=r"dup\.cfg:4: duplicate key 'mean_snr'$"):
        _read_config_file(path)
