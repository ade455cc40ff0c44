"""Runner contract: configs, exit codes, deterministic serialization."""

import argparse
import dataclasses
import json
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paircorr
from paircorr import _pool, _precision, cli, stats
from paircorr.cli import (EXPERIMENTS, ConfigError, ExperimentConfig,
                          _load_config, main, subsequence)
from paircorr._precision import _pow_ld
from paircorr.measure import MuMeasure, second_moment_tilde_e


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
    ExperimentConfig(experiment="gaps", bins=cli._MAX_BINS,
                     alpha_mode="sample",
                     alpha_count=cli._MAX_ALPHAS).validate()
    assert cfg.resolve_N() == [8, 27, 64]
    assert (ExperimentConfig(experiment="gaps").resolve_N()
            == list(cli._EXPERIMENTS["gaps"].sizes))


def test_unknown_tolerance_key_exits_2(tmp_path):
    # a misspelt key, and a key another experiment reads
    for key in ("pair_corr_rell", "bs_slack"):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(experiment="paircorr",
                             tolerances={key: 0.5}).validate()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tolerances": {"pair_corr_rell": 0.5}}))
    assert main(["paircorr", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    ExperimentConfig(experiment="paircorr",
                     tolerances={"pair_corr_rel": 0.5}).validate()


def test_package_exports():
    names = paircorr.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(paircorr, name)
    space: dict = {}
    exec("from paircorr import *", space)
    assert set(names) <= set(space)
    for gone in ("beurling_B", "stationary_point", "stationary_window",
                 "dirichlet_D", "dirichlet_P", "count_log_close_pairs",
                 "twisted_second_moment"):
        assert not hasattr(paircorr, gone)


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


def test_undecodable_config_file_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"theta": "\xff"}')
    assert main(["gaps", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["gaps", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)]) == 2


def test_resource_guard_exits_3(tmp_path):
    assert main(["dio", "--N", "600", "--out", str(tmp_path)]) == 3


def test_dio_past_the_memory_budget_exits_3(tmp_path, monkeypatch, capsys):
    # the default grid, against a fixed budget of 1 MB
    monkeypatch.setattr(_pool, "_memory_budget", lambda: 10 ** 6)
    assert main(["dio", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource guard:") and "budget 1000000" in err


@pytest.mark.parametrize("experiment", ["gaps", "paircorr"])
def test_point_set_past_the_memory_budget_exits_3(tmp_path, monkeypatch,
                                                  capsys, experiment):
    calls = []

    def spy(values, expo):
        calls.append(np.size(values))
        return _pow_ld(values, expo)

    monkeypatch.setattr(stats, "_pow_ld", spy)
    # 1000 points: [1, N] for gaps, (N, 2N] for paircorr; one byte short
    # of their index, table, points and sorted copy
    need = 1000 * stats._BYTES_PER_POINT
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need - 1)
    argv = [experiment, "--N", "1000", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert calls == [] and stats._table is None
    err = capsys.readouterr().err
    assert err.startswith("resource guard:") and str(need) in err
    # at exactly its need the set is built
    monkeypatch.setattr(_pool, "_memory_budget", lambda: need)
    assert main(argv) in (0, 1)
    assert sum(calls) == 1000 and stats._table[1].size == 1000


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


def test_rerun_writes_new_files_with_the_same_bytes(tmp_path):
    # a rerun into the same directory replaces both files with new ones: a
    # hard link to the first report keeps its bytes, where a truncated and
    # rewritten file would show the second run's timestamp through it
    out = tmp_path / "out"
    argv = ["paircorr", "--N", "1000", "--out", str(out)]
    report, csv = out / "report.json", out / "paircorr.csv"
    assert main(argv) == 0
    first_report, first_csv = report.read_bytes(), csv.read_bytes()
    kept = tmp_path / "kept.json"
    os.link(report, kept)
    assert main(argv) == 0
    assert csv.read_bytes() == first_csv
    assert (json.loads(report.read_text())["rows"]
            == json.loads(first_report)["rows"])
    assert kept.read_bytes() == first_report
    assert not kept.samefile(report)


def test_refused_rerun_leaves_the_earlier_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["paircorr", "--N", "1000", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 1e20}))
    assert main(["paircorr", "--config", str(cfg), "--N", "1000",
                 "--out", str(out)]) == 2
    assert "alpha=1e+20" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_csv_write_exits_2_without_a_report(tmp_path, capsys):
    # the CSV's name is taken by a directory: the run fails on it before
    # report.json is written, so exit 2 leaves no report beside it
    out = tmp_path / "out"
    (out / "paircorr.csv").mkdir(parents=True)
    assert main(["paircorr", "--N", "1000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (out / "report.json").exists()


def test_moments_run_replays_the_draws_once(monkeypatch):
    # every j and N of a moments run takes the same samples: one replay of
    # the Philox streams serves them all, and each row keeps the bytes of
    # the estimate from a measure of its own, which replays them afresh
    cfg = ExperimentConfig(experiment="moments", theta=0.5, seed=3,
                           N_list=[512, 700], samples=300)
    cfg.validate()
    made = []
    philox = np.random.Philox

    def spy(*args, **kwargs):
        made.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", spy)
    rows = cli._run_moments(cfg)
    monkeypatch.undo()
    assert made == [{"key": 3}] and len(rows) == 6
    for row in rows:
        inp = row["inputs"]
        est = second_moment_tilde_e(inp["N"], inp["j"], MuMeasure(0.5, seed=3),
                                    samples=300)
        assert (np.array([row["value"], inp["stderr"]]).tobytes()
                == np.array([est.value, est.stderr]).tobytes())


@pytest.mark.parametrize("experiment", ["gaps", "paircorr"])
def test_only_sampled_alphas_build_a_measure(monkeypatch, experiment):
    # a fixed alpha reads no measure; sampled alphas build one per run,
    # drawn once for every N, with the draws of a measure of their own
    made = []
    monkeypatch.setattr(cli, "MuMeasure", lambda *args, **kwargs: (
        made.append(kwargs), MuMeasure(*args, **kwargs))[1])
    run = cli._EXPERIMENTS[experiment].runner
    for mode in ("fixed", "sample"):
        cfg = ExperimentConfig(experiment=experiment, theta=0.5, seed=4,
                               N_list=[500, 700], alpha_mode=mode,
                               alpha_count=2)
        cfg.validate()
        alphas = {(r["inputs"]["N"], r["inputs"]["alpha"]) for r in run(cfg)}
        if mode == "fixed":
            assert made == [] and alphas == {(500, 1.0), (700, 1.0)}
    assert made == [{"seed": 4}]
    draws = MuMeasure(0.5, seed=4).sample_alphas(2, substream=0).tolist()
    assert alphas == {(N, a) for N in (500, 700) for a in draws}


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


@pytest.mark.parametrize("sizes, slope", [("300,300", False),
                                          ("300,200,300", True)])
def test_roff_variance_fits_its_slope_over_distinct_sizes(tmp_path, sizes,
                                                          slope):
    # warnings as errors: a fit over one repeated size warns (RankWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["roff-variance", "--N", sizes,
                     "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / "report.json").read_text())
    ops = [r["op"] for r in report["rows"]]
    assert ops.count("measure.second_moment_roff") == len(sizes.split(","))
    assert ("measure.second_moment_roff.slope" in ops) is slope


@pytest.mark.parametrize("N", [2, 3])
def test_dio_below_its_smallest_size_exits_2(tmp_path, N):
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="dio", N_list=[N]).validate()
    assert main(["dio", "--N", str(N), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def _patch_runner(monkeypatch, experiment, runner):
    record = dataclasses.replace(cli._EXPERIMENTS[experiment], runner=runner)
    monkeypatch.setitem(cli._EXPERIMENTS, experiment, record)


def test_value_error_inside_run_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(cfg):
        raise ValueError("no such regime")

    _patch_runner(monkeypatch, "gaps", refuse)
    assert main(["gaps", "--N", "64", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: no such regime\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, sizes", [
    ("bprocess", "10"), ("moments", "10"), ("roff-variance", "64,128")])
def test_theta_near_one_exits_2_without_a_report(tmp_path, capsys,
                                                  experiment, sizes):
    # (alpha j)**Theta overflows float64 at Theta = 1000: a named refusal,
    # not a traceback, NaN in the report or a complaint about the sums
    out = tmp_path / "out"
    assert main([experiment, "--theta", "0.999", "--N", sizes,
                 "--out", str(out)]) == 2
    assert "theta = 0.999" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_unreducible_dilate_exits_2_without_a_report(tmp_path, capsys):
    # alpha = 1e20 puts every phase past 2**63, where no point can be
    # reduced exactly: a named refusal, not pair counts of zeros
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 1e20}))
    out = tmp_path / "out"
    assert main(["paircorr", "--config", str(cfg), "--N", "1000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "alpha=1e+20" in err and "n_hi=2000" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("experiment", ["paircorr", "gaps"])
def test_dilate_with_too_few_digits_exits_2_without_a_report(
        tmp_path, capsys, monkeypatch, experiment):
    # alpha = 1e15 leaves the points up to 3.5e-3 from alpha * n**theta
    # mod 1 at N = 1000: the long-double spacing of the largest phase,
    # about 5e-3 of the mean gap, passes 1e-6 of it; refused before any
    # point set is built
    def never(*args, **kwargs):
        raise AssertionError("no point set for a refused dilate")

    monkeypatch.setattr(cli, "fractional_parts", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"alpha": 1e15}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--N", "1000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "alpha=1000000000000000.0" in err and "theta=0.5" in err
    assert "N=1000" in err and "too few digits" in err
    assert not (out / "report.json").exists()


def test_bprocess_at_theta_0_99_runs(tmp_path):
    # j reaches about 2000 at N = 1000, so (alpha j)**Theta overflows
    # float64 but (alpha j)**(Theta/2), all the short form takes, does not
    out = tmp_path / "out"
    assert main(["bprocess", "--theta", "0.99", "--N", "1000",
                 "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert len(rows) == 10
    assert all(np.isfinite(r["value"]) for r in rows)


def test_zero_rows_exits_2(tmp_path):
    # theta 0.5, eps 0.05, N 256: no integer u in [0.95, 1.05] * log N
    assert main(["dio", "--eps", "0.05", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()


def test_zero_rows_error_names_the_sizes_that_ran(tmp_path, capsys):
    # (C, ell_range) = (2, [2, 2]) runs N = 4 alone: log 4 = 1.39 holds no
    # integer u within 10%
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"C": 2, "ell_range": [2, 2]}))
    assert main(["dio", "--config", str(cfg), "--eps", "0.1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: dio has no rows: its range is empty at theta=0.5, "
        "eps=0.1, N=[4]\n")
    assert not (tmp_path / "out").exists()


def test_dio_runs_at_its_defaults(tmp_path):
    assert main(["dio", "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rows"] and report["config"]["eps"] == 0.1


@pytest.mark.parametrize("experiment, fields, flags", [
    ("bs-check", {}, ["--theta", "0.3"]),
    ("paircorr", {}, ["--eps", "0.1"]),
    ("gaps", {"samples": 10}, []),
    ("bprocess", {"samples": 7, "bins": 3}, []),
])
def test_field_the_experiment_does_not_read_exits_2(tmp_path, monkeypatch,
                                                     experiment, fields,
                                                     flags):
    def never(cfg):
        raise AssertionError("the experiment must not run")

    _patch_runner(monkeypatch, experiment, never)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(fields))
    assert main([experiment, "--config", str(cfg), *flags,
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    # the same request through the API
    given = dict(fields)
    if flags:
        given[flags[0].lstrip("-")] = float(flags[1])
    with pytest.raises(ConfigError, match="does not read"):
        cli.run(ExperimentConfig(experiment, output_dir=str(tmp_path / "out"),
                                 **given))
    assert not (tmp_path / "out").exists()


def test_api_field_at_its_default_counts_as_not_given():
    # the unread check walks the checked fields: every field but experiment
    assert ({"experiment", *cli._FIELDS}
            == {f.name for f in dataclasses.fields(ExperimentConfig)})
    ExperimentConfig("bs-check", theta=0.5, bins=80, tolerances={},
                     samples=None).validate()
    # validate fills eps and samples only where the experiment reads
    # them, so a second call passes too
    for name in ("roff-variance", "bprocess"):
        cfg = ExperimentConfig(name, N_list=[1024])
        cfg.validate()
        cfg.validate()


@pytest.mark.parametrize("experiment, fields", [
    ("moments", {"seed": "a"}),
    ("paircorr", {"theta": "0.5"}),
    ("moments", {"samples": 2.5}),
    ("paircorr", {"N_list": 300}),
    ("moments", {"seed": 2 ** 128}),
])
def test_config_field_of_wrong_type_exits_2(tmp_path, experiment, fields):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(fields))
    assert main([experiment, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("C, ell_range", [
    (2, [2, 10**9]),          # 10^9 sizes
    (2, [1, 3]),              # N = 1 has no gaps
    (2, [2**40, 2**40]),      # one size past 2^63
    (10**9, [2, 3]),          # past 2^63 without forming 2**(10**9)
])
def test_subsequence_out_of_range_exits_2(tmp_path, monkeypatch, C,
                                          ell_range):
    def never(*args):
        raise AssertionError("the size list must not be built")

    monkeypatch.setattr(cli, "subsequence", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"C": C, "ell_range": ell_range}))
    assert main(["gaps", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, fields", [
    ("gaps", {"bins": 10**9}),                  # one report row per bin
    ("gaps", {"alpha_mode": "sample", "alpha_count": 10**9}),
    ("paircorr", {"alpha_mode": "sample", "alpha_count": 10**9}),
])
def test_rows_past_their_cap_exit_2(tmp_path, monkeypatch, experiment,
                                    fields):
    def never(cfg):
        raise AssertionError("the experiment must not run")

    _patch_runner(monkeypatch, experiment, never)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(fields))
    assert main([experiment, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_short_long_double_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(_precision, "LD_NMANT", 52)
    assert main(["gaps", "--N", "64", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_report_records_long_double_bits(tmp_path):
    assert main(["bprocess", "--N", "100", "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["versions"]["longdouble_nmant"]
            == np.finfo(np.longdouble).nmant)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is read in KiB on Linux")
def test_report_records_peak_rss(tmp_path, monkeypatch):
    assert main(["gaps", "--N", "64", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    # an interpreter with numpy loaded holds tens of MB: a value read in
    # the wrong unit falls far outside this range
    assert 10.0 < report["timestamp"]["peak_rss_mb"] < 1e5
    monkeypatch.setitem(sys.modules, "resource", None)
    assert cli._peak_rss_mb() is None


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 300) | st.integers()
    | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)
_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)
           if f.name != "experiment"]


@settings(max_examples=300, deadline=None, database=None)
@given(experiment=st.sampled_from(EXPERIMENTS),
       fields=st.fixed_dictionaries({}, optional=dict.fromkeys(_FIELDS,
                                                             _JSON)))
def test_config_fuzz_raises_only_config_error(tmp_path_factory, experiment,
                                              fields):
    # any JSON value in any field: loading and validating either succeed or
    # raise ConfigError; no experiment is run
    cfg = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfg.write_text(json.dumps(fields))
    args = argparse.Namespace(experiment=experiment, config=str(cfg),
                              theta=None, N=None, seed=None, eps=None,
                              out=None)
    try:
        _load_config(args).validate()
    except ConfigError:
        pass


# small, out-of-range and wrong-type values for the fields that shape a run
_ANY = (st.integers(-2, 120) | st.floats(-1.0, 2.0) | st.just(float("nan"))
        | st.sampled_from([None, True, "0.5", [2, 3], {}]))
_RUN_FIELDS = {
    "theta": st.sampled_from([0.01, 0.3, 0.5, 0.7, 0.99, 0.999]) | _ANY,
    "eps": st.sampled_from([1e-3, 0.05, 0.1, 0.19, 0.2]) | _ANY,
    "samples": st.sampled_from([2, 100, 101]) | _ANY,
    "bins": st.sampled_from([1, 80, 10_000, 10_001]) | _ANY,
    "alpha_mode": st.sampled_from(["fixed", "sample", "Sample"]) | _ANY,
    "alpha_count": st.sampled_from([1, 3, 1001]) | _ANY,
    "C": st.sampled_from([1, 2, 3, 64]) | _ANY,
    "ell_range": st.sampled_from([[2, 3], [3, 2], [2, 1001], [2]]) | _ANY,
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=200, deadline=None, database=None)
@given(experiment=st.sampled_from(EXPERIMENTS),
       sizes=st.lists(st.integers(-1, 300), min_size=1, max_size=2),
       fields=st.fixed_dictionaries({}, optional=_RUN_FIELDS),
       unread=st.booleans())
# (alpha j)**Theta overflows float64 at theta = 0.999
@example(experiment="moments", sizes=[10], fields={"theta": 0.999},
         unread=False)
def test_whole_run_fuzz_keeps_the_exit_code_contract(tmp_path_factory,
                                                     experiment, sizes,
                                                     fields, unread):
    # every run is given its sizes, so no default ladder runs; half the
    # configs keep only the fields the experiment reads, so that they run
    if not unread:
        reads = cli._EXPERIMENTS[experiment].reads
        fields = {k: v for k, v in fields.items() if k in reads}
    out = tmp_path_factory.mktemp("run")
    cfg = out / "c.json"
    cfg.write_text(json.dumps(fields))
    rc = main([experiment, "--config", str(cfg),
               "--N=" + ",".join(map(str, sizes)), "--out", str(out / "o")])
    assert rc in (0, 1, 2, 3)
    report = out / "o" / "report.json"
    if rc == 2:
        assert not report.exists()
    if report.exists():
        json.loads(report.read_text(), parse_constant=_refuse_constant)
