"""Runner contract: configs, exit codes, deterministic serialization."""

import json

import pytest

from paircorr.cli import (EXPERIMENTS, ConfigError, ExperimentConfig,
                          main, subsequence)


def test_subsequence_values():
    assert subsequence(3, 2, 4) == [8, 27, 64]
    assert subsequence(1, 5, 9) == [5, 6, 7, 8, 9]
    assert subsequence(3, 100, 101)[1] / subsequence(3, 100, 101)[0] <= 1.04
    with pytest.raises(ValueError):
        subsequence(0, 1, 4)
    with pytest.raises(OverflowError):
        subsequence(21, 1, 2**3 * 125)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="gaps", theta=1.5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="gaps", eps=0.5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="gaps", C=1, ell_range=(2, 4)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="gaps", N_list=[1]).validate()
    cfg = ExperimentConfig(experiment="gaps", C=3, ell_range=(2, 4))
    cfg.validate()
    assert cfg.resolve_N([10]) == [8, 27, 64]
    assert ExperimentConfig(experiment="gaps").resolve_N([10]) == [10]


def test_malformed_theta_exits_2_without_files(tmp_path):
    rc = main(["gaps", "--theta", "1.5", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_unknown_experiment_exits_2(tmp_path):
    assert main(["frobnicate", "--out", str(tmp_path)]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["gaps", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["gaps", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)]) == 2


def test_resource_guard_exits_3(tmp_path):
    assert main(["dio", "--N", "600", "--out", str(tmp_path)]) == 3


def test_bs_check_report(tmp_path):
    rc = main(["bs-check", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert len(report["rows"]) == 4
    ops = {r["op"] for r in report["rows"]}
    assert ops == {"beurling.phi_nonneg", "beurling.phi_hat_nonneg",
                   "beurling.phi_hat_core", "beurling.phi_support"}
    for r in report["rows"]:
        assert r["pass"] is True
        assert {"op", "seed", "inputs", "x", "value", "reference",
                "ratio", "pass"} <= set(r)
    csv = (tmp_path / "bs-check.csv").read_text().splitlines()
    assert csv[0] == "x,value,reference,ratio"
    assert len(csv) == 5


def test_gaps_run_and_roundtrip(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta": 0.5, "N_list": [4096], "seed": 7}))
    rc = main(["gaps", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["experiment"] == "gaps"
    assert report["config"]["theta"] == 0.5
    assert report["config"]["N_list"] == [4096]
    assert report["config"]["seed"] == 7
    mass_rows = [r for r in report["rows"]
                 if r["op"] == "stats.gap_distribution.mass"]
    assert len(mass_rows) == len(report["config"]["N_list"])
    assert all(r["pass"] for r in mass_rows)
    assert "versions" in report and "numpy" in report["versions"]


def test_determinism_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["moments", "--theta", "0.5", "--N", "512",
                     "--seed", "3", "--out", str(out)]) in (0, 1)
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timestamp"), r2.pop("timestamp")
    r1["config"].pop("output_dir"), r2["config"].pop("output_dir")
    assert r1 == r2
    assert (out1 / "moments.csv").read_text() == (out2 / "moments.csv").read_text()


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"theta": 0.4, "seed": 1, "N_list": [2048]}))
    rc = main(["gaps", "--config", str(cfg), "--theta", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["theta"] == 0.5
    assert report["config"]["seed"] == 1


def test_experiments_registry_complete():
    assert EXPERIMENTS == ("paircorr", "gaps", "bprocess", "moments",
                           "roff-variance", "dio", "bs-check")


def test_negative_seed_exits_2(tmp_path):
    assert main(["moments", "--seed", "-1", "--N", "256",
                 "--out", str(tmp_path)]) == 2


def test_roff_variance_too_few_samples_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"samples": 50}))
    assert main(["roff-variance", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


def test_zero_rows_exits_2(tmp_path):
    # theta 0.5, eps 0.05, N 256: no integer u in [0.95, 1.05] * log N
    assert main(["dio", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()
