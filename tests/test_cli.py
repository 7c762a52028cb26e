import json

import numpy as np
import pytest

from marketgen import backtest as bt
from marketgen.cli import main
from marketgen.frames import read_csv, write_csv
from marketgen.datagen import RngStream, ar1_ewma_process


def run(args):
    return main(list(args))


def _write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def copula_csv(tmp_path):
    out = tmp_path / "data.csv"
    assert run(["simulate-data", "--preset", "copula-paper", "--n", "400",
                "--seed", "1", "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# simulate-data
# ---------------------------------------------------------------------------

def test_simulate_copula_shape(copula_csv):
    frame = read_csv(copula_csv)
    assert frame.n_rows == 400 and frame.n_cols == 4


def test_simulate_empty_dataset(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["simulate-data", "--preset", "copula-paper", "--n", "0",
                "--seed", "1", "--out", str(out)]) == 0
    assert read_csv(out).n_rows == 0


def test_simulate_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["simulate-data", "--preset", "copula-paper", "--n", "100",
             "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_ar1_from_config(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {
        "master_seed": 3,
        "data": {"source": "ar1", "d": 2, "phi": 0.4,
                 "corr": [[1.0, 0.2], [0.2, 1.0]], "T": 300, "ewma_span": 3},
    })
    out = tmp_path / "ar1.csv"
    assert run(["simulate-data", "--config", cfg, "--out", str(out)]) == 0
    assert read_csv(out).n_rows == 300


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", {"data": {"sourc": "copula"}})
    assert run(["simulate-data", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    # sections that no command reads are rejected, not silently ignored
    for section in ("generate", "evaluate"):
        cfg = _write_config(tmp_path / "c.json", {"data": {"preset": "copula-paper"},
                                                  section: {}})
        capsys.readouterr()
        assert run(["simulate-data", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert section in capsys.readouterr().err


def test_unknown_preset_rejected(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"data": {"preset": "nope"}})
    assert run(["simulate-data", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


# ---------------------------------------------------------------------------
# train / generate
# ---------------------------------------------------------------------------

def _train(tmp_path, copula_csv, model_cfg, preprocess=None, seed=5):
    cfg = {"master_seed": seed, "model": model_cfg}
    if preprocess:
        cfg["preprocess"] = preprocess
    cfg_path = _write_config(tmp_path / "train.json", cfg)
    model_path = tmp_path / "model.json"
    code = run(["train", "--config", cfg_path, "--data", str(copula_csv),
                "--out", str(model_path)])
    return code, model_path


def test_train_generate_gaussian_rbm(tmp_path, copula_csv):
    code, model_path = _train(tmp_path, copula_csv,
                              {"kind": "gaussian_rbm", "hidden": 8, "epochs": 2})
    assert code == 0 and model_path.exists()
    out = tmp_path / "synth.csv"
    assert run(["generate", "--model", str(model_path), "--n", "50",
                "--gibbs-steps", "20", "--seed", "2", "--out", str(out)]) == 0
    frame = read_csv(out)
    assert frame.n_rows == 50 and frame.n_cols == 4


def test_generate_single_row(tmp_path, copula_csv):
    _, model_path = _train(tmp_path, copula_csv,
                           {"kind": "gaussian_rbm", "hidden": 4, "epochs": 1})
    out = tmp_path / "one.csv"
    assert run(["generate", "--model", str(model_path), "--n", "1",
                "--gibbs-steps", "5", "--seed", "2", "--out", str(out)]) == 0
    assert read_csv(out).n_rows == 1


def test_generate_determinism(tmp_path, copula_csv):
    _, model_path = _train(tmp_path, copula_csv,
                           {"kind": "gaussian_rbm", "hidden": 4, "epochs": 1})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["generate", "--model", str(model_path), "--n", "20",
             "--gibbs-steps", "10", "--seed", "9", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_train_bernoulli_rbm_roundtrip(tmp_path, copula_csv):
    code, model_path = _train(tmp_path, copula_csv,
                              {"kind": "bernoulli_rbm", "hidden": 12, "epochs": 1})
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "bernoulli"
    assert doc["m"] == 64  # 16 bits x 4 columns
    out = tmp_path / "synth.csv"
    assert run(["generate", "--model", str(model_path), "--n", "10",
                "--gibbs-steps", "5", "--seed", "3", "--out", str(out)]) == 0
    assert read_csv(out).n_cols == 4


def test_train_conditional_rbm_needs_seed_window(tmp_path, copula_csv):
    code, model_path = _train(
        tmp_path, copula_csv,
        {"kind": "conditional_rbm", "hidden": 6, "lags": 3, "epochs": 1})
    assert code == 0
    out = tmp_path / "series.csv"
    assert run(["generate", "--model", str(model_path), "--horizon", "10",
                "--seed", "1", "--out", str(out)]) == 2  # missing --seed-window
    seed_window = tmp_path / "window.csv"
    frame = read_csv(copula_csv)
    write_csv(frame.with_data(frame.data[:5]), seed_window)
    assert run(["generate", "--model", str(model_path), "--horizon", "10",
                "--seed-window", str(seed_window), "--gibbs-steps", "5",
                "--seed", "1", "--out", str(out)]) == 0
    assert read_csv(out).n_rows == 10


def test_train_wgan_and_generate(tmp_path, copula_csv):
    code, model_path = _train(
        tmp_path, copula_csv,
        {"kind": "wgan", "noise_dim": 8, "gen_hidden": [10], "critic_hidden": [8],
         "epochs": 1, "batch_size": 100, "n_critic": 2})
    assert code == 0
    out = tmp_path / "synth.csv"
    assert run(["generate", "--model", str(model_path), "--n", "15",
                "--seed", "4", "--out", str(out)]) == 0
    assert read_csv(out).data.shape == (15, 4)


def test_train_with_model_preset(tmp_path, copula_csv):
    code, model_path = _train(tmp_path, copula_csv,
                              {"preset": "gaussian-rbm-paper", "epochs": 1,
                               "hidden": 6})
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "gaussian"
    assert doc["n"] == 6  # override wins over the preset's 128
    out = tmp_path / "synth.csv"
    assert run(["generate", "--model", str(model_path), "--n", "5",
                "--gibbs-steps", "5", "--seed", "1", "--out", str(out)]) == 0


def test_train_model_file_is_loadable_and_versioned(tmp_path, copula_csv):
    _, model_path = _train(tmp_path, copula_csv,
                           {"kind": "gaussian_rbm", "hidden": 4, "epochs": 0})
    doc = json.loads(model_path.read_text())
    assert doc["format_version"] == 1
    assert doc["transforms"][0]["kind"] == "zscore"


# ---------------------------------------------------------------------------
# mc-backtest
# ---------------------------------------------------------------------------

def _ar1_csv(tmp_path, T=400):
    frame = ar1_ewma_process(3, 0.4, np.eye(3) * 0.4 + 0.6 * np.ones((3, 3)),
                             T, ewma_span=3, rng=RngStream(11, 0))
    path = tmp_path / "returns.csv"
    write_csv(frame, path)
    return path


def test_mc_backtest_bootstrap(tmp_path):
    data = _ar1_csv(tmp_path)
    cfg = _write_config(tmp_path / "bt.json", {
        "master_seed": 2,
        "backtest": {"vol_window": 30, "target_vol": 0.03, "n_reps": 5},
    })
    out_prefix = str(tmp_path / "mc")
    assert run(["mc-backtest", "--bootstrap", str(data), "--config", cfg,
                "--reps", "5", "--out", out_prefix,
                "--real-value", "0.05", "--statistic", "mdd"]) == 0
    dist = (tmp_path / "mc_distribution.csv").read_text().splitlines()
    assert dist[0] == "mu,sigma,sharpe,mdd,xi"
    assert len(dist) == 6
    report = (tmp_path / "mc_report.md").read_text()
    assert "quantile of real backtest mdd" in report
    assert "bootstrap serial dependence check: destroyed" in report


def test_mc_backtest_requires_one_source(tmp_path):
    data = _ar1_csv(tmp_path)
    assert run(["mc-backtest", "--out", str(tmp_path / "x")]) == 2
    assert run(["mc-backtest", "--bootstrap", str(data), "--model", "m.json",
                "--out", str(tmp_path / "x")]) == 2


def test_mc_backtest_deterministic(tmp_path):
    data = _ar1_csv(tmp_path)
    for prefix in ("r1", "r2"):
        assert run(["mc-backtest", "--bootstrap", str(data), "--reps", "4",
                    "--seed", "3", "--out", str(tmp_path / prefix)]) == 0
    assert ((tmp_path / "r1_distribution.csv").read_bytes()
            == (tmp_path / "r2_distribution.csv").read_bytes())


def test_mc_backtest_single_rep(tmp_path):
    data = _ar1_csv(tmp_path)
    assert run(["mc-backtest", "--bootstrap", str(data), "--reps", "1",
                "--seed", "1", "--out", str(tmp_path / "one")]) == 0
    lines = (tmp_path / "one_distribution.csv").read_text().splitlines()
    assert len(lines) == 2


def test_mc_backtest_bootstrap_matches_library(tmp_path):
    data = _ar1_csv(tmp_path)
    cfg = _write_config(tmp_path / "bt.json", {"backtest": {"vol_window": 30}})
    assert run(["mc-backtest", "--bootstrap", str(data), "--config", cfg,
                "--reps", "6", "--seed", "4", "--out", str(tmp_path / "mc")]) == 0
    lines = (tmp_path / "mc_distribution.csv").read_text().splitlines()
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    dists = bt.mc_distribution(bt.bootstrap_source(read_csv(data), 400, 4), 6,
                               bt.RiskParityConfig(vol_window=30))
    for j, name in enumerate(lines[0].split(",")):
        np.testing.assert_array_equal(np.sort(table[:, j]), dists[name].values)


def test_mc_backtest_conditional_model_needs_seed_window(tmp_path, copula_csv, capsys):
    code, model_path = _train(
        tmp_path, copula_csv,
        {"kind": "conditional_rbm", "hidden": 6, "lags": 3, "epochs": 1})
    assert code == 0
    capsys.readouterr()
    assert run(["mc-backtest", "--model", str(model_path), "--horizon", "80",
                "--reps", "2", "--gibbs-steps", "2", "--out", str(tmp_path / "mc")]) == 2
    err = capsys.readouterr().err
    assert "replication 0 failed" in err and "--seed-window" in err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_self_comparison(tmp_path, copula_csv):
    prefix = str(tmp_path / "eval")
    assert run(["evaluate", "--real", str(copula_csv), "--synth", str(copula_csv),
                "--qq-points", "10", "--out", prefix]) == 0
    metrics = (tmp_path / "eval_metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,column,training,synthetic"
    w1_rows = [l for l in metrics if l.startswith("wasserstein1")]
    assert all(float(l.split(",")[3]) == 0.0 for l in w1_rows)
    assert (tmp_path / "eval_report.md").exists()
    assert (tmp_path / "eval_qq_x1.csv").exists()
    assert (tmp_path / "eval_acf_x1.csv").exists()


def test_evaluate_shuffled_rows_keep_marginals(tmp_path, copula_csv):
    frame = read_csv(copula_csv)
    rng = np.random.default_rng(0)
    shuffled = frame.with_data(frame.data[rng.permutation(frame.n_rows)])
    synth = tmp_path / "shuffled.csv"
    write_csv(shuffled, synth)
    prefix = str(tmp_path / "eval2")
    assert run(["evaluate", "--real", str(copula_csv), "--synth", str(synth),
                "--out", prefix]) == 0
    lines = (tmp_path / "eval2_metrics.csv").read_text().splitlines()[1:]
    for line in lines:
        metric, col, real, synth_v = line.split(",")
        if metric in ("mean", "std", "p1", "p99"):
            assert float(real) == pytest.approx(float(synth_v), abs=1e-9)


def test_evaluate_column_mismatch(tmp_path, copula_csv):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n2.0,1.0\n3.0,1.5\n")
    assert run(["evaluate", "--real", str(copula_csv), "--synth", str(bad),
                "--out", str(tmp_path / "x")]) == 3


def test_evaluate_output_schema_stable(tmp_path, copula_csv):
    for prefix in ("s1", "s2"):
        run(["evaluate", "--real", str(copula_csv), "--synth", str(copula_csv),
             "--out", str(tmp_path / prefix)])
    assert ((tmp_path / "s1_metrics.csv").read_bytes()
            == (tmp_path / "s2_metrics.csv").read_bytes())


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_missing_config_is_usage_error(tmp_path):
    assert run(["train", "--config", str(tmp_path / "none.json"),
                "--data", "x.csv", "--out", "m.json"]) == 2


def test_missing_data_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"model": {"kind": "gaussian_rbm"}})
    assert run(["train", "--config", cfg, "--data", str(tmp_path / "none.csv"),
                "--out", "m.json"]) == 2


def test_bad_csv_is_data_error(tmp_path):
    cfg = _write_config(tmp_path / "c.json", {"model": {"kind": "gaussian_rbm"}})
    bad = tmp_path / "bad.csv"
    bad.write_text("a\nNaN\n")
    assert run(["train", "--config", cfg, "--data", str(bad),
                "--out", str(tmp_path / "m.json")]) == 3
