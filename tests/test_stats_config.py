import json
import math

import numpy as np
import pytest

from zgff.config import ExperimentConfig, RunManifest, model_params_from
from zgff.errors import ConfigError, DegenerateInputError
from zgff.fs import FSModel, fs_quantile
from zgff.stats import (batch_means_ci, correlation, effective_sample_size,
                        integrated_autocorr_time, paired_bootstrap_corr_ci)


def test_correlation_self_is_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    assert correlation(x, x) == pytest.approx(1.0)
    assert correlation(x, -x) == pytest.approx(-1.0)


def test_correlation_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        correlation([1.0], [2.0])
    with pytest.raises(DegenerateInputError):
        correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_integrated_autocorr_ar1():
    rng = np.random.default_rng(1)
    rho = 0.5
    n = 200_000
    x = np.empty(n)
    x[0] = 0.0
    noise = rng.normal(size=n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    tau = integrated_autocorr_time(x)
    expect = 0.5 + rho / (1 - rho)   # 1.5 for rho = 0.5
    assert tau == pytest.approx(expect, rel=0.2)
    assert effective_sample_size(x) == pytest.approx(n / (2 * tau))


def test_bootstrap_corr_ci_calibration():
    # independent FS samples: the 95% CI covers 0 in at least 90 of 100 reps
    model = FSModel(sigma=1.0)
    rng = np.random.default_rng(4)
    cover = 0
    for rep in range(100):
        a = fs_quantile(rng.random(120), model)
        b = fs_quantile(rng.random(120), model)
        _, (lo, hi) = paired_bootstrap_corr_ci(a, b, n_boot=300, seed=rep)
        cover += int(lo <= 0.0 <= hi)
    assert cover >= 90


def test_batch_means_ci_sane():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4096)
    m, half = batch_means_ci(x)
    assert abs(m) < 4 * half


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig.default()
    cfg.set("model", "beta", 2.5)
    cfg.set("pipeline", "name", "scales")
    text = cfg.canonical_text()
    cfg2 = ExperimentConfig.parse(text)
    assert cfg2.hash() == cfg.hash()
    assert cfg2.get("model", "beta") == 2.5
    cfg3 = ExperimentConfig.parse(text.replace("beta = 2.5", "beta = 2.6"))
    assert cfg3.hash() != cfg.hash()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.parse("[pipeline]\nname = bogus\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.parse("key = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.parse("[model]\nbeta = not-a-number\n")
    cfg = ExperimentConfig.default()
    cfg.set("run", "burnin", 10**9)
    with pytest.raises(ConfigError):
        cfg.validate()
    for key, value in (("lattice.L", 0), ("lattice.L", -3), ("run.thinning", 0),
                       ("run.thinning", -1), ("run.seed", -1)):
        with pytest.raises(ConfigError):
            ExperimentConfig.default(**{key: value}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.default().get("model", "no-such-key")


def test_model_params_from_config():
    cfg = ExperimentConfig.default()
    cfg.set("model", "floor", "0")
    cfg.set("model", "boundary", "all:3")
    params = model_params_from(cfg)
    assert params.floor_spec == 0
    assert params.boundary_spec == ("all", 3)


def test_manifest_comparable_excludes_wall_clock(tmp_path):
    m1 = RunManifest("abc", "fs", "0.1.0", 1.23, ["a.csv"], {"x": 1})
    m2 = RunManifest("abc", "fs", "0.1.0", 9.87, ["a.csv"], {"x": 1})
    assert m1.comparable() == m2.comparable()
    (tmp_path / "a.csv").write_text("x\n")
    m1.save(tmp_path / "manifest.json")
    saved = json.loads((tmp_path / "manifest.json").read_text())
    assert saved["config_hash"] == "abc"
    assert m1.check_artifacts(tmp_path)
    m3 = RunManifest("abc", "fs", "0.1.0", 0.0, ["missing.csv"], {})
    with pytest.raises(ConfigError):
        m3.check_artifacts(tmp_path)
