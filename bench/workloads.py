"""The benchmark's workloads: marketgen CLI command sequences and their checks.

Each workload is a list of steps run in order by one closed-loop client: a
step starts only after the previous one returned.  A step either runs one
``marketgen`` command (a timed *stage*) or prepares an input between stages
(untimed).  The workload seed reaches the program only as ``--seed`` or
``master_seed``; every other input is fixed here.

Why these three:

* ``copula-joint`` is the paper's joint-law study.  It is the only workload
  that runs the copula quantile maps, batched Gibbs sampling over 10,000
  chains and 10,000-row CSV I/O.  It runs no backtest, no conv1d layer and
  no single-row Gibbs step, so changes to those must leave it flat.
* ``crbm-mc`` is the paper's backtest-overfitting comparison of bootstrap
  against RBM Monte Carlo.  It samples the RBM one row at a time (the
  opposite of copula-joint) and runs the per-day backtest loop.  It runs no
  neural network and no copula code.
* ``cdcwgan-mc`` is the only workload that runs conv1d layers, the gradient
  penalty's double backprop and batch-1 generator forward passes.  It runs
  no RBM.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

STAT_COLUMNS = ("mu", "sigma", "sharpe", "mdd", "xi")
AR_COLUMNS = 4
AR_ROWS = 2000
SEED_WINDOW_ROWS = 20
MC_HORIZON = 500
COPULA_ROWS = 10000

# Largest accepted W1(synthetic, training) of a column, in units of that
# column's training interquartile range (robust for the Student-t column).
# These are sanity bounds at the benchmark's small training budgets, about
# 2.5 times the largest ratio seen over seeds 1-60 (bernoulli-rbm-paper,
# wgan-paper) or 1-10 (the others): they catch broken output, not model
# quality.
W1_TOLERANCE = {
    "gaussian-rbm-paper": 0.6,
    "bernoulli-rbm-paper": 12.0,
    "wgan-paper": 25.0,
    "conditional-rbm-paper": 0.6,
    "cdcwgan-paper": 4.0,
}


@dataclass
class Step:
    """One command (``argv`` set, ``stage`` names its stage metric) or one
    untimed input preparation (``action`` set)."""

    stage: str | None
    argv: list = field(default_factory=list)
    action: Callable | None = None
    checks: list = field(default_factory=list)  # callables returning an error or None
    reps: int = 0  # Monte-Carlo replications (mc stages)
    repeat: int = 1  # identical runs of the command per pass, timed and summed


@dataclass
class Workload:
    name: str
    write_inputs: Callable   # (input dir, seed) -> None
    steps: Callable          # (input dir, output dir, seed) -> list[Step]


# ---------------------------------------------------------------------------
# output checks (independent of marketgen: plain numpy on the written files)
# ---------------------------------------------------------------------------

def _load(path):
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def csv_check(path, rows: int, cols: int, header=None):
    def check():
        import numpy as np

        names, data = _load(path)
        if data.shape != (rows, cols) or len(names) != cols:
            return f"{os.path.basename(path)}: shape {data.shape}, expected {(rows, cols)}"
        if header is not None and tuple(names) != tuple(header):
            return f"{os.path.basename(path)}: header {names}"
        if not np.all(np.isfinite(data)):
            return f"{os.path.basename(path)}: non-finite values"
        return None
    return check


def w1_check(real_path, synth_path, eval_prefix, tolerance: float):
    """Each column's W1 between synthetic and training data is below
    ``tolerance`` training interquartile ranges, and the evaluate command's
    reported W1 matches an independent computation."""
    def check():
        import numpy as np

        names, real = _load(real_path)
        _, synth = _load(synth_path)
        if real.shape != synth.shape:
            return "W1 check needs equal-size samples"
        reported = {}
        with open(f"{eval_prefix}_metrics.csv") as fh:
            for line in fh.read().splitlines()[1:]:
                metric, col, _, value = line.split(",")
                if metric == "wasserstein1":
                    reported[col] = float(value)
        for j, col in enumerate(names):
            w1 = float(np.mean(np.abs(np.sort(real[:, j]) - np.sort(synth[:, j]))))
            if col not in reported or not math.isclose(w1, reported[col], rel_tol=1e-9,
                                                       abs_tol=1e-15):
                return f"{col}: evaluate reported W1 {reported.get(col)}, recomputed {w1}"
            q25, q75 = np.percentile(real[:, j], [25, 75])
            ratio = w1 / (q75 - q25)
            if not ratio < tolerance:
                return f"{col}: W1 / IQR = {ratio:.3f} exceeds {tolerance}"
        return None
    return check


def _write_seed_window(data_path, window_path):
    """The last SEED_WINDOW_ROWS rows of the training CSV."""
    with open(data_path) as fh:
        lines = fh.read().splitlines()
    with open(window_path, "w") as fh:
        fh.write("\n".join([lines[0]] + lines[-SEED_WINDOW_ROWS:]) + "\n")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


# ---------------------------------------------------------------------------
# copula-joint
# ---------------------------------------------------------------------------

COPULA_MODELS = (  # preset, epochs, extra generate arguments
    ("gaussian-rbm-paper", 100, ["--gibbs-steps", "100"]),
    ("bernoulli-rbm-paper", 10, ["--gibbs-steps", "100"]),
    ("wgan-paper", 10, []),
)


def _copula_inputs(inp, seed):
    for preset, epochs, _ in COPULA_MODELS:
        _write_json(os.path.join(inp, f"{preset}.json"),
                    {"master_seed": seed, "model": {"preset": preset, "epochs": epochs}})


def _copula_steps(inp, out, seed):
    data = os.path.join(out, "data.csv")
    steps = [Step("simulate", ["simulate-data", "--preset", "copula-paper",
                               "--n", str(COPULA_ROWS), "--seed", str(seed), "--out", data],
                  checks=[csv_check(data, COPULA_ROWS, 4)])]
    for preset, _, extra in COPULA_MODELS:
        model = os.path.join(out, f"{preset}.model.json")
        synth = os.path.join(out, f"{preset}.synth.csv")
        ev = os.path.join(out, f"{preset}.eval")
        steps += [
            Step("train", ["train", "--config", os.path.join(inp, f"{preset}.json"),
                           "--data", data, "--out", model]),
            Step("generate", ["generate", "--model", model, "--n", str(COPULA_ROWS),
                              *extra, "--seed", str(seed + 1), "--out", synth],
                 checks=[csv_check(synth, COPULA_ROWS, 4)]),
            Step("evaluate", ["evaluate", "--real", data, "--synth", synth, "--out", ev],
                 checks=[w1_check(data, synth, ev, W1_TOLERANCE[preset])]),
        ]
    return steps


# ---------------------------------------------------------------------------
# AR(1)+EWMA workloads: crbm-mc and cdcwgan-mc
# ---------------------------------------------------------------------------

def _ar_inputs(inp, seed, preset, epochs):
    corr = [[1.0 if i == j else 0.3 for j in range(AR_COLUMNS)] for i in range(AR_COLUMNS)]
    _write_json(os.path.join(inp, "data.json"),
                {"master_seed": seed,
                 "data": {"source": "ar1", "d": AR_COLUMNS, "phi": 0.3, "corr": corr,
                          "T": AR_ROWS, "ewma_span": 5}})
    _write_json(os.path.join(inp, "model.json"),
                {"master_seed": seed, "model": {"preset": preset, "epochs": epochs}})
    _write_json(os.path.join(inp, "backtest.json"),
                {"master_seed": seed + 2, "backtest": {"horizon": MC_HORIZON}})


def _ar_head(inp, out, seed, tolerance, gibbs, repeat):
    """simulate -> seed window -> train -> generate -> evaluate; ``repeat``
    maps a stage to its number of identical runs per pass (default 1)."""
    data = os.path.join(out, "data.csv")
    window = os.path.join(out, "window.csv")
    model = os.path.join(out, "model.json")
    synth = os.path.join(out, "synth.csv")
    ev = os.path.join(out, "eval")
    return [
        Step("simulate", ["simulate-data", "--config", os.path.join(inp, "data.json"),
                          "--seed", str(seed), "--out", data],
             checks=[csv_check(data, AR_ROWS, AR_COLUMNS)], repeat=repeat.get("simulate", 1)),
        Step(None, action=lambda: _write_seed_window(data, window)),
        Step("train", ["train", "--config", os.path.join(inp, "model.json"),
                       "--data", data, "--out", model], repeat=repeat.get("train", 1)),
        Step("generate", ["generate", "--model", model, "--horizon", str(AR_ROWS),
                          "--seed-window", window, *gibbs, "--seed", str(seed + 1),
                          "--out", synth],
             checks=[csv_check(synth, AR_ROWS, AR_COLUMNS)], repeat=repeat.get("generate", 1)),
        Step("evaluate", ["evaluate", "--real", data, "--synth", synth, "--out", ev],
             checks=[w1_check(data, synth, ev, tolerance)], repeat=repeat.get("evaluate", 1)),
    ]


def _mc_model_step(inp, out, reps, gibbs):
    prefix = os.path.join(out, "mc_model")
    return Step("mc_model", ["mc-backtest", "--model", os.path.join(out, "model.json"),
                             "--seed-window", os.path.join(out, "window.csv"),
                             "--config", os.path.join(inp, "backtest.json"),
                             "--reps", str(reps), *gibbs, "--out", prefix],
                checks=[csv_check(f"{prefix}_distribution.csv", reps, 5, STAT_COLUMNS)],
                reps=reps)


CRBM_GIBBS = ["--gibbs-steps", "20"]
# Identical runs per pass of the AR workloads' short commands, so that each
# stage metric sums enough work (about 0.1 s or more) to be steady between runs.
CRBM_REPEAT = {"simulate": 10, "train": 6, "evaluate": 10}
CDCWGAN_REPEAT = {"simulate": 10, "generate": 3, "evaluate": 10}
CRBM_BOOTSTRAP_REPS = 100
CRBM_MODEL_REPS = 8
CDCWGAN_MODEL_REPS = 50


def _crbm_steps(inp, out, seed):
    boot = os.path.join(out, "mc_boot")
    return _ar_head(inp, out, seed, W1_TOLERANCE["conditional-rbm-paper"], CRBM_GIBBS,
                    CRBM_REPEAT) + [
        Step("mc_bootstrap", ["mc-backtest", "--bootstrap", os.path.join(out, "data.csv"),
                              "--config", os.path.join(inp, "backtest.json"),
                              "--reps", str(CRBM_BOOTSTRAP_REPS), "--out", boot],
             checks=[csv_check(f"{boot}_distribution.csv", CRBM_BOOTSTRAP_REPS, 5,
                               STAT_COLUMNS)],
             reps=CRBM_BOOTSTRAP_REPS),
        _mc_model_step(inp, out, CRBM_MODEL_REPS, CRBM_GIBBS),
    ]


def _cdcwgan_steps(inp, out, seed):
    return _ar_head(inp, out, seed, W1_TOLERANCE["cdcwgan-paper"], [],
                    CDCWGAN_REPEAT) + [
        _mc_model_step(inp, out, CDCWGAN_MODEL_REPS, []),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("copula-joint", _copula_inputs, _copula_steps),
        Workload("crbm-mc",
                 lambda inp, seed: _ar_inputs(inp, seed, "conditional-rbm-paper", 20),
                 _crbm_steps),
        Workload("cdcwgan-mc",
                 lambda inp, seed: _ar_inputs(inp, seed, "cdcwgan-paper", 4),
                 _cdcwgan_steps),
    )
}
