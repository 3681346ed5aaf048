import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zgff import experiments
from zgff.cli import main
from zgff.config import ExperimentConfig, model_params_from
from zgff.errors import (BuildError, ConfigError, CoverageError,
                         DegenerateInputError, InfeasibleError,
                         InvalidConstraintError, ResourceLimitError,
                         StructureError, ZgffError)
from zgff.experiments import (height_fluctuation_exponent, run_end_to_end,
                              run_pipeline)
from zgff.mcmc import sample_equilibrium
from zgff.rw import laplace_increment_law
from zgff.scales import ScaleTable, estimate_height_prob
from zgff.surface import SurfaceConfig, read_snapshot
from zgff.tension import estimate_tension


def _plateau_snapshots(L, n, lo=2, hi=None):
    hi = hi if hi is not None else L - 2
    snaps = []
    for _ in range(n):
        c = SurfaceConfig.flat(L)
        c.heights[lo:hi, lo:hi] = 1
        snaps.append(c)
    return snaps


def _mock_table(L, N0=27.0):
    return ScaleTable(L=L, H=1, N=[N0], L_h={1: 50},
                      bad_intervals=[(38, 50)], L_in_bad_set=False,
                      threshold=0.1)


def test_endtoend_mocked_deterministic(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "endtoend")
    cfg.set("lattice", "L", 32)
    snaps = _plateau_snapshots(32, 25)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    arts1, s1 = run_end_to_end(cfg, out1, snapshots=snaps,
                               scale_table=_mock_table(32))
    arts2, s2 = run_end_to_end(cfg, out2, snapshots=snaps,
                               scale_table=_mock_table(32))
    assert s1 == s2
    assert (out1 / "profiles.csv").read_bytes() == (out2 / "profiles.csv").read_bytes()
    rec = json.loads((out1 / "endtoend.json").read_text())
    # Y identically constant: a KS value is still computed and reported
    assert rec["ks_by_level"]["0"] is not None
    assert "sup_gap_median" in rec
    # an injected scale table comes from no histogram, so no sample seed
    assert rec["sample_seed"] is None


def test_endtoend_refuses_exceptional_L(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "endtoend")
    cfg.set("lattice", "L", 40)
    table = ScaleTable(L=40, H=1, N=[27.0], L_h={1: 50},
                       bad_intervals=[(38, 50)], L_in_bad_set=True,
                       threshold=0.1)
    with pytest.raises(InfeasibleError, match=r"\[38, 50\]"):
        run_end_to_end(cfg, tmp_path, snapshots=_plateau_snapshots(40, 3),
                       scale_table=table)


def test_endtoend_reports_missing_levels(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "endtoend")
    cfg.set("lattice", "L", 32)
    snaps = _plateau_snapshots(32, 3) + [SurfaceConfig.flat(32)]
    arts, summary = run_end_to_end(cfg, tmp_path, snapshots=snaps,
                                   scale_table=_mock_table(32))
    rec = json.loads((tmp_path / "endtoend.json").read_text())
    assert rec["snapshots_missing_level"]["0"] == [3]


def _two_level_run(out_dir, skip_level_2=()):
    """40 mocked two-level snapshots; those indexed in skip_level_2 have no
    level-2 plateau, so level n = 0 is missing there."""
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "endtoend")
    cfg.set("lattice", "L", 32)
    cfg.set("run", "levels", 2)
    rng = np.random.default_rng(7)
    snaps = []
    for idx in range(40):
        c = SurfaceConfig.flat(32)
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(d1 + 1, 7))
        c.heights[1:31, d1:31] = 1    # both level lines fluctuate
        if idx not in skip_level_2:
            c.heights[8:24, d2:28] = 2
        snaps.append(c)
    table = ScaleTable(L=32, H=2, N=[27.0, 8.0], L_h={1: 50, 2: 500},
                       bad_intervals=[], L_in_bad_set=False, threshold=0.1)
    return run_end_to_end(cfg, out_dir, snapshots=snaps, scale_table=table)


def test_endtoend_cross_level_correlation(tmp_path):
    arts, summary = _two_level_run(tmp_path)
    assert summary["cross_level_corr_Y0"] is not None
    assert -1.0 <= summary["cross_level_corr_Y0"] <= 1.0


def test_endtoend_cross_level_correlation_pairs_by_snapshot(tmp_path):
    # level 0 is missing from every 5th snapshot: Y(0) of the two levels must
    # still be paired snapshot by snapshot, not position by position
    skipped = range(0, 40, 5)
    _, summary = _two_level_run(tmp_path, skip_level_2=skipped)
    rows = [line.split(",") for line in
            (tmp_path / "profiles.csv").read_text().splitlines()[2:]]
    by_level = {}
    for idx, _, n, t, _, _, y in rows:
        if float(t) == 0.0 and y:
            by_level.setdefault(int(n), {})[int(idx)] = float(y)
    assert not set(skipped) & set(by_level[0])
    both = sorted(set(by_level[0]) & set(by_level[1]))
    assert len(both) == 32
    expected = np.corrcoef([by_level[0][i] for i in both],
                           [by_level[1][i] for i in both])[0, 1]
    assert summary["cross_level_corr_Y0"] == pytest.approx(expected, abs=1e-12)
    assert summary["cross_level_corr_Y0"] == pytest.approx(0.435, abs=1e-3)


def test_csv_rows_carry_snapshot_and_seed(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "endtoend")
    cfg.set("lattice", "L", 32)
    run_end_to_end(cfg, tmp_path, snapshots=_plateau_snapshots(32, 2),
                   scale_table=_mock_table(32))
    lines = (tmp_path / "profiles.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].split(",")[:3] == ["snapshot_index", "seed", "level_n"]
    assert lines[2].split(",")[0] == "0"


def test_profiles_csv_bytes_with_uncovered_columns(tmp_path):
    # a plateau over cell columns 6-9 meets corner columns 6-10 of the
    # window 4-12 (N_0 = 8: four columns each side); the other four columns
    # are blank cells, and a snapshot without a top loop writes no rows
    cfg = ExperimentConfig.default(**{"pipeline.name": "endtoend",
                                      "lattice.L": 16})
    snap = SurfaceConfig.flat(16)
    snap.heights[6:10, 2:14] = 1
    table = ScaleTable(L=16, H=1, N=[8.0], L_h={1: 50}, bad_intervals=[],
                       L_in_bad_set=False, threshold=0.1)
    run_end_to_end(cfg, tmp_path, snapshots=[SurfaceConfig.flat(16), snap],
                   scale_table=table)
    # t = x / 8^(2/3), and 8^(2/3) rounds to 3.9999999999999996
    assert (tmp_path / "profiles.csv").read_bytes() == (
        f"# config_hash={cfg.hash()}\n"
        "snapshot_index,seed,level_n,t,rho,rhoBar,Y\n"
        "1,1,0,-1.0000000000000002,,,\n"
        "1,1,0,-0.7500000000000001,,,\n"
        "1,1,0,-0.5000000000000001,2.0,8.0,1.0\n"
        "1,1,0,-0.25000000000000006,2.0,2.0,1.0\n"
        "1,1,0,0.0,2.0,2.0,1.0\n"
        "1,1,0,0.25000000000000006,2.0,2.0,1.0\n"
        "1,1,0,0.5000000000000001,2.0,8.0,1.0\n"
        "1,1,0,0.7500000000000001,,,\n"
        "1,1,0,1.0000000000000002,,,\n").encode()


def test_replay_byte_identical_fs_pipeline(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "fs")
    cfg.set("fs", "steps", 20000)
    cfg.set("fs", "paths", 10)
    for sub in ("r1", "r2"):
        cfg.set("out", "dir", str(tmp_path / sub))
        run_pipeline(cfg)
    a = (tmp_path / "r1" / "fs_table.csv").read_bytes()
    b = (tmp_path / "r2" / "fs_table.csv").read_bytes()
    assert a == b
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    m1.pop("wall_clock_s"), m2.pop("wall_clock_s")
    assert m1 == m2
    # the default rw-oracle through the CLI: exit 0, its three artifacts, and
    # a byte-identical replay into another directory
    for sub in ("w1", "w2"):
        assert main(["rw-oracle", "--out", str(tmp_path / sub)]) == 0
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == [
            "manifest.json", "rw_ks.json", "rw_marginals.csv"]
    for name in ("rw_marginals.csv", "rw_ks.json"):
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w2" / name).read_bytes()


def test_surface_pipeline_artifacts(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "surface")
    cfg.set("lattice", "L", 8)
    cfg.set("run", "sweeps", 120)
    cfg.set("run", "burnin", 20)
    cfg.set("run", "thinning", 50)
    cfg.set("out", "dir", str(tmp_path))
    manifest = run_pipeline(cfg)
    assert manifest.summary["n_snapshots"] == 2
    assert (tmp_path / "snapshot_00000.snap").exists()
    assert (tmp_path / "manifest.json").exists()


def test_surface_pipeline_runs_checkerboard_chain_at_small_L(tmp_path):
    cfg = ExperimentConfig.default(**{
        "pipeline.name": "surface", "model.beta": 0.5, "lattice.L": 8,
        "run.sweeps": 60, "run.burnin": 20, "run.thinning": 10,
        "out.dir": str(tmp_path)})
    run_pipeline(cfg)
    snaps, _ = sample_equilibrium(model_params_from(cfg), 8, 60, 20, 10,
                                  seed=cfg.get("run", "seed"),
                                  scan_order="checkerboard")
    assert len(snaps) == 4
    for i, snap in enumerate(snaps):
        written, _ = read_snapshot(tmp_path / f"snapshot_{i:05d}.snap",
                                   boundary=snap.boundary)
        assert np.array_equal(written.heights, snap.heights), i


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[pipeline]\nname = bogus\n")
    assert main(["scales", "--config", str(bad)]) == 2

    rc = main(["fs", "--out", str(tmp_path / "fsout"), "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "fsout" / "fs_table.csv").exists()

    # sweeps <= burnin -> config error
    assert main(["simulate", "--out", str(tmp_path / "x"), "--sweeps", "5",
                 "--burnin", "9"]) == 2

    # run parameters out of range, an unknown increment law, or a section or
    # key outside the defaults -> config error, before any run starts
    typos = [tmp_path / f"typo{i}.cfg" for i in range(6)]
    for path, text in zip(typos, ("[rw]\nlaw = enumrated\n", "[rw]\nkmax = 6\n",
                                  "[rw]\nkmx = 3\n", "[bogus]\nx = 1\n",
                                  "[fs]\npaths = 0\n", "[run]\nlevels = -1\n")):
        path.write_text(text)
    # a --config path that cannot be read as text -> config error naming it
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00[run]")
    for argv in (["simulate", "--thin", "0", "--sweeps", "5", "--burnin", "1"],
                 ["simulate", "--thin", "-1", "--sweeps", "5", "--burnin", "1"],
                 ["scales", "--L", "0"], ["simulate", "--L", "-3"],
                 ["fs", "--seed", "-1"], ["rw-oracle", "--seed", "-2"],
                 ["simulate", "--floor", "abc"], ["simulate", "--boundary", "all:x"],
                 ["simulate", "--beta", "-1"],
                 ["simulate", "--boundary", "split-arc:left"],
                 ["levellines", "--boundary", "split-arc:left,top"],
                 ["scales", "--boundary", "split-arc:top"],
                 ["simulate", "--L", "abc"],
                 *(["endtoend", "--config", str(t)] for t in typos),
                 *(["scales", "--config", str(t)] for t in
                   (tmp_path / "nonexistent.cfg", tmp_path, tmp_path / "binary.cfg"))):
        assert main(argv + ["--out", str(tmp_path / "y")]) == 2, argv
    assert not (tmp_path / "y").exists()
    err = capsys.readouterr().err
    assert all(name in err for name in ("[rw] kmax", "[rw] kmx", "[bogus]",
                                        "[model] floor", "[model] boundary",
                                        "'split-arc:top'", "[lattice] L",
                                        "[fs] paths", "[run] levels",
                                        "nonexistent.cfg", f"{str(tmp_path)!r}",
                                        "binary.cfg"))

    # a floor above the ceiling -> infeasible, also before the out dir is made
    crossed = tmp_path / "crossed.cfg"
    crossed.write_text("[model]\nfloor = 3\nceiling = 1\n")
    assert main(["simulate", "--config", str(crossed), "--out", str(tmp_path / "z")]) == 3
    assert not (tmp_path / "z").exists()
    assert "[model] floor 3 above ceiling 1" in capsys.readouterr().err

    # a runner that fails removes the out dir it made, not one that existed
    assert main(["scales", "--beta", "0.9", "--L", "100000",
                 "--out", str(tmp_path / "fo")]) == 3
    assert not (tmp_path / "fo").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["tension", "--beta", "0.5", "--out", str(kept)]) == 3
    assert kept.is_dir()
    # ... and every parent directory it made for it
    assert main(["tension", "--beta", "0.5",
                 "--out", str(tmp_path / "np" / "fo")]) == 3
    assert not (tmp_path / "np").exists()

    # an out path through a regular file -> config error naming it, and
    # nothing is created
    afile = tmp_path / "afile"
    afile.write_text("")
    capsys.readouterr()
    for out in (afile, afile / "sub"):
        assert main(["tension", "--beta", "1.3", "--out", str(out)]) == 2
        assert f"out dir {str(out)!r}" in capsys.readouterr().err
    assert afile.is_file() and afile.read_text() == ""


def test_cli_validates_once_after_every_override(tmp_path, monkeypatch):
    # a file whose burn-in only the --burnin override makes valid runs, and
    # the run validates its config once, after the override is applied
    calls = []
    validate = ExperimentConfig.validate
    monkeypatch.setattr(ExperimentConfig, "validate",
                        lambda cfg: calls.append(cfg) or validate(cfg))
    cfgf = tmp_path / "long_burnin.cfg"
    cfgf.write_text("[lattice]\nL = 8\n[run]\nsweeps = 100\nburnin = 200\n"
                    "thinning = 30\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfgf), "--burnin", "10",
                 "--out", str(out)]) == 0
    assert len(calls) == 1 and calls[0].get("run", "burnin") == 10
    assert sorted(p.name for p in out.glob("*.snap")) == [
        "snapshot_00000.snap", "snapshot_00001.snap", "snapshot_00002.snap"]


def test_cli_exits_with_the_code_of_each_error_class(tmp_path, monkeypatch,
                                                     capsys):
    # the map documented in zgff.errors, for every error class there is; a
    # runner that raises one exits with its code and removes its out dir
    documented = {ConfigError: (2, "config error"),
                  StructureError: (2, "config error"),
                  InvalidConstraintError: (3, "infeasible"),
                  InfeasibleError: (3, "infeasible"),
                  DegenerateInputError: (3, "infeasible"),
                  CoverageError: (3, "infeasible"),
                  ResourceLimitError: (4, "resource limit"),
                  BuildError: (5, "build error")}
    assert set(ZgffError.__subclasses__()) == set(documented)
    for cls, (code, prefix) in documented.items():
        def runner(cfg, out_dir, cls=cls):
            raise cls("stopped")
        monkeypatch.setattr(experiments, "run_fs", runner)
        out = tmp_path / cls.__name__
        assert main(["fs", "--out", str(out)]) == code, cls
        assert capsys.readouterr().err == f"{prefix}: stopped\n"
        assert not out.exists()


def test_cli_rw_oracle_laplace_law(tmp_path):
    out = tmp_path / "rwout"
    cfgf = tmp_path / "rw.cfg"
    cfgf.write_text("[pipeline]\nname = rw\n[model]\nbeta = 1.3\n"
                    "[rw]\nlaw = laplace\ntilt_n = 27.0\nsamples = 400\n"
                    f"[out]\ndir = {out}\n")
    assert main(["rw-oracle", "--config", str(cfgf)]) == 0
    rec = json.loads((out / "rw_ks.json").read_text())
    t = np.exp(-1.3)
    assert abs(rec["sigma2"] - 2 * t / (1 - t) ** 2) < 1e-12
    assert rec["law"] == "laplace(beta=1.3)"
    assert rec["n_paths"] == 400


def test_cli_rw_oracle_rejects_enumerated_law(tmp_path, capsys):
    cfgf = tmp_path / "rw.cfg"
    cfgf.write_text("[pipeline]\nname = rw\n[rw]\nlaw = enumerated\n"
                    f"[out]\ndir = {tmp_path / 'rwout'}\n")
    assert main(["rw-oracle", "--config", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert "'basic'" in err and "'laplace'" in err
    assert not (tmp_path / "rwout").exists()


def test_height_fluctuation_exponent_fit():
    scales = {128: 3.0, 256: 3.0 * 2 ** (1 / 3), 512: 3.0 * 4 ** (1 / 3)}
    assert height_fluctuation_exponent(scales) == pytest.approx(1 / 3, abs=1e-9)
    with pytest.raises(InfeasibleError):
        height_fluctuation_exponent({128: 3.0})


README_ENDTOEND_CONFIG = """\
[pipeline]
name = endtoend
[model]
p = 2.0
beta = 0.8
boundary = all:0
floor = 0
ceiling = none
[lattice]
L = 128
[run]
sweeps = 2000
burnin = 400
thinning = 10
seed = 7
levels = 1
[out]
dir = out/e2e
"""


def test_cli_readme_endtoend_config_exits_zero(tmp_path, monkeypatch):
    # the worked config of the README, unmodified and unmocked; it writes to
    # its relative out/e2e, here under tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e2e.cfg").write_text(README_ENDTOEND_CONFIG)
    assert main(["endtoend", "--config", "e2e.cfg"]) == 0
    rec = json.loads((tmp_path / "out" / "e2e" / "endtoend.json").read_text())
    assert rec["H"] == 1
    assert rec["sample_seed"] == 7 + 101
    assert rec["ks_by_level"]["0"] is not None


def test_cli_scales_certifies_an_unseen_height(tmp_path):
    # at beta = 1.3, L = 1024 the 2000-sweep histogram never shows height 2
    # while P(1) is above 5 beta / L; the zero-hit bound 3/2000 certifies H = 1
    out = tmp_path / "sc"
    assert main(["scales", "--beta", "1.3", "--L", "1024", "--seed", "1",
                 "--out", str(out)]) == 0
    rec = json.loads((out / "scales.json").read_text())
    assert (rec["H"], rec["unseen_bound"], rec["n_samples"]) == (1, 0.0015, 2000)
    assert "2" not in rec["hits"]
    assert rec["hits"]["1"] / (2000 * 32 * 32) >= rec["threshold"] > 0.0015


def test_scales_pipeline_records_bulk_window(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "scales")
    cfg.set("run", "sweeps", 200)
    cfg.set("run", "burnin", 50)
    cfg.set("out", "dir", str(tmp_path))
    run_pipeline(cfg)
    rec = json.loads((tmp_path / "scales.json").read_text())
    # L = 64 gives the 48-box proxy and its 32 x 32 bulk window; the table
    # takes max(2000, sweeps) samples, as endtoend's does
    assert (rec["box_size"], rec["bulk_margin"], rec["n_samples"]) == (48, 8, 2000)
    assert sum(rec["hits"].values()) == 2000 * 32 * 32
    rows = (tmp_path / "scale_table.csv").read_text().splitlines()[2:]
    for row in rows:
        h, prob = row.split(",")[:2]
        assert float(prob) == rec["hits"][h] / (2000 * 32 * 32)


def test_scales_record_reproduces_its_hits(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.set("pipeline", "name", "scales")
    cfg.set("run", "sweeps", 200)
    cfg.set("run", "burnin", 50)
    cfg.set("run", "seed", 5)
    cfg.set("out", "dir", str(tmp_path))
    run_pipeline(cfg)
    rec = json.loads((tmp_path / "scales.json").read_text())
    assert (rec["seed"], rec["sample_seed"]) == (5, 5 + 101)
    hist = estimate_height_prob(model_params_from(cfg), rec["box_size"],
                                rec["n_samples"], rec["sample_seed"])
    assert {str(h): n for h, n in sorted(hist.hits.items())} == rec["hits"]


def test_cli_tension_runs_at_the_model_beta(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["tension", "--beta", "3.0", "--out", str(out)]) == 0
    assert not (out / "wulff.json").exists()
    # the axis row is the transfer estimate at beta = 3, not at another beta
    theta, tau = (out / "tension.csv").read_text().splitlines()[2].split(",")[:2]
    assert float(theta) == 0.0
    assert float(tau) == estimate_tension(3.0, (1, 0)).tau
    # at beta = 1.3 every row's estimate lies within its CI of the closed
    # form, and the summary carries the Laplace walk's sigma^2
    mid = tmp_path / "mid"
    capsys.readouterr()
    assert main(["tension", "--beta", "1.3", "--out", str(mid)]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["sigma2"] == laplace_increment_law(1.3).y_variance
    lines = (mid / "tension.csv").read_text().splitlines()
    assert lines[1] == "theta,tau,tau_exact,ci,N_used"
    for row in lines[2:]:
        _, tau, tau_exact, ci, _ = map(float, row.split(","))
        assert abs(tau - tau_exact) <= ci
    # below ln(1 + sqrt 2) the ensemble has no positive tension: exit 3
    low = tmp_path / "low"
    assert main(["tension", "--beta", "0.8", "--out", str(low)]) == 3
    assert "0.8814" in capsys.readouterr().err
    assert not (low / "tension.csv").exists()


def test_scaling_study_script_runs():
    # the README's scaling-study script at two small sides: exit 0, one JSON
    # line per side and one for the fitted exponent
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(root / "scripts" / "run_scaling_study.py"),
                          "--sides", "16", "24", "--snapshots", "4"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [json.loads(line) for line in run.stdout.splitlines()]
    assert [r.get("L") for r in rows] == [16, 24, None]
    assert all(r["n_used"] + r["n_missing"] == 4 for r in rows[:2])
    assert "exponent" in rows[2]
