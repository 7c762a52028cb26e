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


def test_integral_float_counts_accepted(tmp_path, copula_csv):
    for name, epochs in (("int.json", 2), ("float.json", 2.0)):
        cfg = _write_config(tmp_path / "c.json", {"model": {"kind": "gaussian_rbm",
                                                            "hidden": 4, "epochs": epochs}})
        assert run(["train", "--config", cfg, "--data", str(copula_csv),
                    "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()


def test_horizon_flag_overrides_config(tmp_path):
    data = _ar1_csv(tmp_path)
    cfg = _write_config(tmp_path / "bt.json", {"backtest": {"vol_window": 30, "horizon": 90}})
    assert run(["mc-backtest", "--bootstrap", str(data), "--config", cfg, "--horizon", "80",
                "--reps", "2", "--out", str(tmp_path / "mc")]) == 0
    assert "horizon: 80," in (tmp_path / "mc_report.md").read_text()


# Every bad input exits 2 (usage or config), 3 (data) or 4 (divergence) and
# never with a traceback.  A case runs argv, whose {data}, {cfg}, {model} and
# {out} stand for the copula CSV, the case's config, an edited copy of a
# freshly trained Gaussian-RBM document and an output path; it expects the
# exit code and, for config and flag cases, stderr naming the offending key.

_COMMANDS = {
    "simulate-data": ["simulate-data", "--config", "{cfg}", "--out", "{out}"],
    "train": ["train", "--config", "{cfg}", "--data", "{data}", "--out", "{out}"],
    "mc-backtest": ["mc-backtest", "--bootstrap", "{data}", "--config", "{cfg}",
                    "--reps", "2", "--out", "{out}"],
}


def _config_case(name, command, config, key):
    return pytest.param(_COMMANDS[command], config, None, 2, key, id=f"config-{name}")


def _flag_case(name, argv, key):
    return pytest.param(argv, None, None, 2, key, id=f"flag-{name}")


def _model_case(name, edit, code):
    argv = ["generate", "--model", "{model}", "--n", "3", "--gibbs-steps", "3", "--out", "{out}"]
    # numpy warns about the overflow on the way to the expected divergence
    return pytest.param(argv, None, edit, code, None, id=f"model-{name}",
                        marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))


def _without_m(doc):
    return {k: v for k, v in doc.items() if k != "m"}


def _overflowing(doc):
    m, n = doc["m"], doc["n"]
    return {**doc, "W": [[1e300] * n] * m, "a": [1e308] * m}


AR1 = {"source": "ar1", "T": 50}
RBM = {"kind": "gaussian_rbm"}
WGAN = {"kind": "wgan", "epochs": 0}
MIXTURE = {"kind": "gaussian_mixture", "mus": [0.0, 1.0], "sigmas": [1.0, 1.0]}
EVALUATE = ["evaluate", "--real", "{data}", "--synth", "{data}", "--out", "{out}"]

BAD_INPUTS = [
    _config_case("epochs-abc", "train", {"model": {**RBM, "epochs": "abc"}}, "epochs"),
    _config_case("master-seed-x", "simulate-data", {"master_seed": "x", "data": AR1},
                 "master_seed"),
    _config_case("batch-size-null", "train", {"model": {**RBM, "batch_size": None}},
                 "batch_size"),
    _config_case("gen-hidden-ab", "train", {"model": {**WGAN, "gen_hidden": "ab"}},
                 "gen_hidden"),
    _config_case("vol-window-a", "mc-backtest", {"backtest": {"vol_window": "a"}},
                 "vol_window"),
    _config_case("ar1-d-x", "simulate-data", {"data": {**AR1, "d": "x"}}, "data.d"),
    _config_case("copula-n-negative", "simulate-data", {"data": {"source": "copula", "n": -5}},
                 "data.n"),
    _config_case("mixture-without-weights", "simulate-data",
                 {"data": {"source": "copula", "n": 5, "correlation": [[1.0]],
                           "marginals": [MIXTURE]}}, "weights"),
    _config_case("marginal-sigma-zero", "simulate-data",
                 {"data": {"source": "copula", "n": 5, "correlation": [[1.0]],
                           "marginals": [{"kind": "normal", "sigma": 0}]}}, "sigma"),
    _config_case("marginal-without-kind", "simulate-data",
                 {"data": {"source": "copula", "n": 5, "correlation": [[1.0]],
                           "marginals": [{"mu": 0.0}]}}, "kind"),
    _config_case("ar1-phi-one", "simulate-data", {"data": {**AR1, "phi": 1}}, "phi"),
    _config_case("marginals-without-correlation", "simulate-data",
                 {"data": {"source": "copula", "n": 5, "marginals": [{"kind": "normal"}]}},
                 "correlation"),
    _config_case("learning-rate-negative", "train", {"model": {**RBM, "learning_rate": -1}},
                 "learning_rate"),
    _config_case("mode-bogus", "train", {"model": {**WGAN, "mode": "bogus"}}, "mode"),
    _config_case("transform-nope", "train",
                 {"model": RBM, "preprocess": {"transforms": ["nope"]}}, "transforms"),
    _config_case("n-t-zero", "train", {"model": {"kind": "cdcwgan", "epochs": 0, "n_t": 0}},
                 "n_t"),
    _config_case("vol-window-one", "mc-backtest", {"backtest": {"vol_window": 1}},
                 "vol_window"),
    _config_case("hidden-zero", "train", {"model": {**RBM, "hidden": 0}}, "hidden"),
    _config_case("epochs-fraction", "train", {"model": {**RBM, "epochs": 1.7}}, "epochs"),
    _config_case("non-saturating-string", "train",
                 {"model": {"kind": "gan", "epochs": 0, "non_saturating": "false"}},
                 "non_saturating"),
    _flag_case("reps-zero", ["mc-backtest", "--bootstrap", "{data}", "--reps", "0",
                             "--out", "{out}"], "n_reps"),
    _flag_case("horizon-zero", ["mc-backtest", "--bootstrap", "{data}", "--horizon", "0",
                                "--out", "{out}"], "horizon"),
    _flag_case("n-negative", ["simulate-data", "--preset", "copula-paper", "--n", "-1",
                              "--out", "{out}"], "data.n"),
    _flag_case("seed-fraction", ["simulate-data", "--preset", "copula-paper", "--seed", "1.5",
                                 "--out", "{out}"], "master_seed"),
    _flag_case("gibbs-steps-negative", ["generate", "--model", "{model}", "--gibbs-steps", "-1",
                                        "--out", "{out}"], "--gibbs-steps"),
    _flag_case("qq-points-one", EVALUATE + ["--qq-points", "1"], "--qq-points"),
    _flag_case("max-lag-negative", EVALUATE + ["--max-lag", "-1"], "--max-lag"),
    _model_case("not-json", lambda doc: "{not json", 3),
    _model_case("json-list", lambda doc: [1, 2], 3),
    _model_case("without-m", _without_m, 3),
    _model_case("format-version-2", lambda doc: {**doc, "format_version": 2}, 2),
    _model_case("overflowing", _overflowing, 4),
]


@pytest.mark.parametrize("argv, config, edit, code, key", BAD_INPUTS)
def test_bad_input_exit_code(tmp_path, copula_csv, capsys, argv, config, edit, code, key):
    paths = {"data": copula_csv, "cfg": tmp_path / "c.json", "model": tmp_path / "bad.json",
             "out": tmp_path / "out"}
    if config is not None:
        _write_config(paths["cfg"], config)
    if edit is not None:
        _, model_path = _train(tmp_path, copula_csv,
                               {"kind": "gaussian_rbm", "hidden": 4, "epochs": 0})
        doc = edit(json.loads(model_path.read_text()))
        paths["model"].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    try:
        got = run([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse rejected a flag
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    if key is not None:
        assert key in err
