"""Batch command-line front door.

Five subcommands cover the full workflow:

  simulate-data   draw a synthetic dataset (copula / AR(1)+EWMA) to CSV
  train           fit an RBM or GAN model from a config and a CSV dataset
  generate        sample or iteratively extend series from a saved model
  mc-backtest     Monte-Carlo distributions of risk-parity backtest statistics
  evaluate        fidelity metrics between a training and a synthetic CSV

Everything is driven by a JSON config document plus a master seed; any
command rerun with identical inputs and seed, at the same BLAS thread count,
produces byte-identical artifacts.  ``CONFIG`` lists every config key once,
with its type, its range unless the library checks it, and the CLI's
default; ``load_config`` checks a whole config against it, and argparse
checks count flags the same way, before any work starts.  Exit codes: 0 success; 2 usage or config error, including an
unknown key and a mistyped or out-of-range value or flag; 3 data error,
including an unreadable CSV or model file; 4 numeric divergence, in training
or as non-finite generated values.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import backtest as bt
from . import evaluate as ev
from . import gan as gan_mod
from . import preprocess as pp
from . import rbm as rbm_mod
from .datagen import (
    CopulaSpec,
    MarginalSpec,
    RngStream,
    ar1_ewma_process,
    benchmark_copula_spec,
    sample_copula,
)
from .errors import DivergedError, MarketGenError, NonFinite, UsageError, VersionError
from .frames import SeriesFrame, atomic_write, read_csv, write_csv
from .persist import FORMAT_VERSION, GAN_KINDS, GanModel, load_model, save_model

# ---------------------------------------------------------------------------
# presets: every number the reference configurations pin down
# ---------------------------------------------------------------------------

DATA_PRESETS = {"copula-paper": {"source": "copula", "n": 10000}}

_RBM_PAPER = {"learning_rate": 0.01, "batch_size": 500, "epochs": 100, "cd_k": 1}
_GAN_PAPER = {"noise_dim": 100, "learning_rate": 1e-4, "batch_size": 500, "epochs": 10,
              "n_critic": 5}
MODEL_PRESETS = {
    "bernoulli-rbm-paper": {"kind": "bernoulli_rbm", "hidden": 256, **_RBM_PAPER},
    "gaussian-rbm-paper": {"kind": "gaussian_rbm", "hidden": 128, **_RBM_PAPER},
    "conditional-rbm-paper": {"kind": "conditional_rbm", "hidden": 128, "lags": 20,
                              **_RBM_PAPER},
    "wgan-paper": {
        # tanh critic head + weight clipping + RMSProp, the original
        # Wasserstein recipe; far better tail fidelity here than the
        # gradient-penalty mode at equal budget
        "kind": "wgan", "mode": "wgan_clip", "gen_hidden": [200, 100, 50, 25],
        "critic_hidden": [100, 50, 10], "clip_c": 0.05, "gen_ema": 0.995, **_GAN_PAPER,
    },
    "cdcwgan-paper": {
        "kind": "cdcwgan", "mode": "wgan_gp", "n_t": 5, "n_h": 20,
        "critic_filters": [16, 32, 64, 128], "gen_channels": [256, 64], "kernel": 3,
        "lambda_gp": 10.0, **_GAN_PAPER,
    },
}

# ---------------------------------------------------------------------------
# data simulation: one function per data source
# ---------------------------------------------------------------------------

def _copula_frame(data: dict, seed: int) -> SeriesFrame:
    if "correlation" in data or "marginals" in data:
        if not {"correlation", "marginals"} <= set(data):
            raise UsageError("data.correlation and data.marginals must be set together")
        marginals = tuple(MarginalSpec(**m) for m in data["marginals"])
        spec = CopulaSpec(len(marginals), data["correlation"], marginals)
    else:
        spec = benchmark_copula_spec()
    return sample_copula(spec, _get(data, DATA, "n"), RngStream(seed, 0))


def _ar1_frame(data: dict, seed: int) -> SeriesFrame:
    return ar1_ewma_process(**_kwargs(data, DATA, ar1_ewma_process), rng=RngStream(seed, 0))


def _csv_frame(data: dict, seed: int) -> SeriesFrame:
    if not os.path.exists(data.get("path", "")):
        raise UsageError(f"data csv not found: {data.get('path')!r}")
    return read_csv(data["path"])


DATA_SOURCES = {"copula": _copula_frame, "ar1": _ar1_frame, "csv": _csv_frame}


def cmd_simulate_data(args) -> int:
    cfg = load_config(args.config, {"master_seed": args.seed, "data.preset": args.preset,
                                    "data.n": args.n})
    data = cfg.get("data", {})
    if "source" not in data:
        raise UsageError("simulate-data needs --preset, data.source or data.preset")
    frame = DATA_SOURCES[data["source"]](data, _get(cfg, CONFIG, "master_seed"))
    write_csv(frame, args.out)
    print(f"wrote {frame.n_rows}x{frame.n_cols} dataset to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# training: one builder per model family
# ---------------------------------------------------------------------------

def _train_rbm(m: dict, x, specs: list, seed: int):
    config = rbm_mod.TrainConfig(**_kwargs(m, MODEL, rbm_mod.TrainConfig), seed=seed)
    kind = m["kind"].removesuffix("_rbm")
    lags = {"d": _get(m, MODEL, "lags")} if kind == "conditional" else {}
    model = rbm_mod.init_rbm(kind, x.shape[1] if isinstance(x, np.ndarray) else x.n_cols,
                             _get(m, MODEL, "hidden"), rng=RngStream(seed, 1),
                             transform=specs[-1] if specs else None, **lags)
    return rbm_mod.train(model, x, config)[0]


def _train_gan(m: dict, x: SeriesFrame, specs: list, seed: int):
    config = gan_mod.GanConfig(**_kwargs(m, MODEL, gan_mod.GanConfig), seed=seed)
    gen, critic = gan_mod.build_wgan_nets(x.n_cols, config, RngStream(seed, 1).generator(),
                                          **_kwargs(m, MODEL, gan_mod.build_wgan_nets))
    condition = gan_mod.ConditionSpec("none")
    gen, critic, _ = gan_mod.train_gan(gen, critic, x, condition, config)
    return GanModel(m["kind"], config.mode, config.noise_dim, gen, critic, condition, x.columns)


def _train_cdcwgan(m: dict, x: SeriesFrame, specs: list, seed: int):
    config = gan_mod.GanConfig(**_kwargs(m, MODEL, gan_mod.GanConfig), seed=seed)
    shape = _kwargs(m, MODEL, gan_mod.train_cdcwgan)
    if "kernel" in m:
        shape["n_k"] = m["kernel"]
    gen, critic, condition, _ = gan_mod.train_cdcwgan(x, config, **shape)
    return GanModel("cdcwgan", config.mode, config.noise_dim, gen, critic, condition, x.columns)


# kind: (builder, default transform chain, whether the model's input space
# requires that transform as the chain's last step)
MODEL_KINDS = {
    "bernoulli_rbm": (_train_rbm, "binarize16", True),
    "gaussian_rbm": (_train_rbm, "zscore", False),
    "conditional_rbm": (_train_rbm, "normal_score", False),
    "gan": (_train_gan, "minmax", True),
    "wgan": (_train_gan, "minmax", True),
    "cdcwgan": (_train_cdcwgan, "minmax", True),
}


def train_from_config(cfg: dict, frame: SeriesFrame, seed: int):
    """Returns (model object, transform chain) ready to persist, from a
    config checked by ``load_config``."""
    model_cfg = cfg.get("model", {})
    if "kind" not in model_cfg:
        raise UsageError("model section needs a kind or preset")
    build, transform, required = MODEL_KINDS[model_cfg["kind"]]
    prep = cfg.get("preprocess", {})
    chain = list(prep.get("transforms", [transform]))
    if required and chain[-1:] != [transform]:
        chain.append(transform)
    post_scale = prep.get("post_scale")
    if "binarize16" in chain[:-1] or (post_scale is not None and chain[-1:] == ["binarize16"]):
        raise UsageError("binarize16 must be the last transform, with no post_scale")
    specs, x = [], frame
    for kind in chain:
        if kind == "binarize16":  # the model input becomes a float bit matrix
            specs.append(pp.fit_binarize16(x, prep.get("epsilon")))
            x = pp.binarize16(x, specs[-1]).astype(float)
        else:
            specs.append(pp.fit_transform_spec(kind, x))
            x = pp.transform(x, specs[-1])
    if post_scale is not None:
        specs.append(pp.scaling_spec(frame.columns, post_scale))
        x = pp.transform(x, specs[-1])
    return build(model_cfg, x, specs, seed), specs


def cmd_train(args) -> int:
    cfg = load_config(args.config, {"master_seed": args.seed})
    if not os.path.exists(args.data):
        raise UsageError(f"data file not found: {args.data}")
    frame = read_csv(args.data)
    model, specs = train_from_config(cfg, frame, _get(cfg, CONFIG, "master_seed"))
    save_model(args.out, model, specs)
    print(f"wrote model to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# the config table: each key once, with its type, range and CLI default
# ---------------------------------------------------------------------------

# One config key: its type; check, the (test, description) of its allowed
# values; default, the CLI's value for an unset key or a function of the key's
# section giving it (None leaves the library's default); item, the key of a
# list's entries; fields, the keys of an object.
Key = namedtuple("Key", "type check default item fields", defaults=(None,) * 4)


def _min(lo):
    return (lambda x: x >= lo), f">= {lo}"


def _one_of(*names):
    return (lambda x: x in names), f"one of {sorted(names)}"


_POSITIVE = (lambda x: x > 0), "> 0"
_SQUARE = (lambda rows: all(len(row) == len(rows) for row in rows)), "a square matrix"
INT, FLOAT, COUNT = Key(int), Key(float), Key(int, _min(1))
FLOATS, WIDTHS = Key(list, item=FLOAT), Key(list, item=COUNT)

# datagen.MarginalSpec checks the kinds and ranges
MARGINAL = {"kind": Key(str), "mu": FLOAT, "sigma": FLOAT, "nu": FLOAT, "weights": FLOATS,
            "mus": FLOATS, "sigmas": FLOATS}
DATA = {
    "source": Key(str, _one_of(*DATA_SOURCES)), "preset": Key(str, _one_of(*DATA_PRESETS)),
    "path": Key(str),  # csv
    # copula: the benchmark copula unless correlation and marginals are set
    "n": Key(int, _min(0), default=10000), "correlation": Key(list, _SQUARE, item=FLOATS),
    "marginals": Key(list, item=Key(dict, ((lambda m: "kind" in m), "an object with a kind"),
                                    fields=MARGINAL)),
    "d": Key(int, _min(1), default=2), "T": Key(int, _min(0), default=5000),  # ar1
    "phi": Key(float, default=0.5),  # ar1_ewma_process checks |phi| < 1
    "corr": Key(list, _SQUARE, default=lambda data: np.eye(_get(data, DATA, "d")), item=FLOATS),
    "ewma_span": COUNT, "scale": FLOAT,
}
PREPROCESS = {"transforms": Key(list, item=Key(str, _one_of(*pp.TRANSFORM_KINDS))),
              "epsilon": Key(float, _min(0)), "post_scale": Key(float, _POSITIVE)}
MODEL = {
    "kind": Key(str, _one_of(*MODEL_KINDS)), "preset": Key(str, _one_of(*MODEL_PRESETS)),
    # ranges checked by rbm.TrainConfig and gan.GanConfig
    "learning_rate": FLOAT, "batch_size": INT, "cd_k": INT, "lambda_gp": FLOAT,
    "clip_c": FLOAT, "gen_ema": FLOAT,
    "epochs": Key(int, default=lambda m: 10 if m["kind"] in GAN_KINDS else None),
    "mode": Key(str, _one_of(*gan_mod.GAN_MODES),
                default=lambda m: "minimax" if m["kind"] == "gan" else None),
    "n_critic": Key(int, default=lambda m: 1 if _get(m, MODEL, "mode") == "minimax" else None),
    "hidden": Key(int, _min(1), default=128), "lags": Key(int, _min(1), default=20),  # RBMs
    "noise_dim": COUNT, "non_saturating": Key(bool), "gen_hidden": WIDTHS,  # GANs
    "critic_hidden": WIDTHS, "n_t": COUNT, "n_h": COUNT, "critic_filters": WIDTHS,
    "gen_channels": WIDTHS, "kernel": COUNT,
}
BACKTEST = {  # RiskParityConfig checks the first three ranges
    "vol_window": INT, "target_vol": FLOAT, "rebalance_every": INT,
    "trading_days_per_year": COUNT, "n_reps": Key(int, _min(1), default=500),
    # for a model; a bootstrap resamples its series' length unless set
    "horizon": Key(int, _min(1), default=500),
}
CONFIG = {"format_version": Key(int, _one_of(FORMAT_VERSION)),
          "master_seed": Key(int, _min(0), default=0),
          "data": Key(dict, fields=DATA), "preprocess": Key(dict, fields=PREPROCESS),
          "model": Key(dict, fields=MODEL), "backtest": Key(dict, fields=BACKTEST)}

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def _coerce(value, key: Key, where: str):
    """The one place a config or flag value gets its type: checks ``value``
    against ``key`` and returns it typed (an integral float as an int, an int
    as a float, a list as a tuple, an object with each of its keys checked)."""
    t = key.type
    if t is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif t is float and type(value) is int:
        value = float(value)
    if (not isinstance(value, t) or (isinstance(value, bool) and t is not bool)
            or (t is float and not math.isfinite(value))):
        raise UsageError(f"{where} must be {_TYPE_NAMES[t]}, got {value!r}")
    if t is list:
        value = tuple(_coerce(v, key.item, f"{where}[{i}]") for i, v in enumerate(value))
    elif t is dict:
        unknown = sorted(set(value) - set(key.fields))
        if unknown:
            raise UsageError(f"unknown key(s) in {where or 'top'} section: {unknown}")
        value = {name: _coerce(v, key.fields[name], f"{where}.{name}".lstrip("."))
                 for name, v in value.items()}
    if key.check and not key.check[0](value):
        raise UsageError(f"{where} must be {key.check[1]}, got {value!r}")
    return value


def _get(section: dict, fields: dict, name: str):
    """A checked section's value for ``name``, else the CLI's default."""
    if name in section:
        return section[name]
    default = fields[name].default
    return default(section) if callable(default) else default


def _kwargs(section: dict, fields: dict, fn) -> dict:
    """Keyword arguments for the parameters of ``fn`` that are config keys:
    set or CLI-defaulted ones; the others keep ``fn``'s own defaults."""
    return {p: v for p in inspect.signature(fn).parameters
            if p in fields and (v := _get(section, fields, p)) is not None}


def load_config(path=None, flags=None) -> dict:
    """Read and check the config at ``path`` (none: empty), set the checked
    command-line ``flags`` ({"section.key" or "key": value or None}) over it
    and merge in presets.  Unset keys stay unset; ``_get`` gives defaults."""
    cfg = {}
    if path:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:  # invalid JSON or text encoding
                raise UsageError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise UsageError("config must be a JSON object")
    cfg = _coerce(cfg, Key(dict, fields=CONFIG), "")
    for where, value in (flags or {}).items():
        if value is not None:
            name, _, key = where.rpartition(".")
            (cfg.setdefault(name, {}) if name else cfg)[key] = value
    for name, presets in (("data", DATA_PRESETS), ("model", MODEL_PRESETS)):
        section = cfg.get(name, {})
        if "preset" in section:
            cfg[name] = _coerce({**presets[section["preset"]], **section}, CONFIG[name], name)
    return cfg


def _flag(key: Key, where: str = "value"):
    """An argparse type that reads the flag as JSON and checks it like the
    config key ``key``."""
    def parse(text: str):
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        try:
            return _coerce(value, key, where)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate_from_model(model, specs, args_n, horizon, gibbs_steps, seed_window,
                        rng) -> SeriesFrame:
    """Generate in model space and map the rows back to original units; a
    value that is not finite in either space means the sampler diverged."""
    rbm = isinstance(model, rbm_mod.RbmModel)
    history = model.kind == "conditional" if rbm else model.condition.kind == "history_window"
    if history:
        if seed_window is None:
            raise UsageError("history-conditioned models need --seed-window")
        for spec in specs:  # into model space
            forward = (pp.normal_score_from_reference if spec.kind == "normal_score"
                       else pp.transform)
            seed_window = forward(seed_window, spec)
        window = seed_window.data[-(model.d if rbm else model.condition.n_h):]
    try:
        if rbm and history:
            out = rbm_mod.generate_series(model, window, horizon, gibbs_steps, rng)
        elif rbm:
            out = rbm_mod.sample(model, args_n, gibbs_steps, rng)
        elif history:
            out = gan_mod.generate_series_gan(
                model.generator, model.condition, window, horizon, rng,
                noise_dim=model.noise_dim, columns=model.columns)
        else:
            out = gan_mod.generate(model.generator, args_n, rng,
                                   noise_dim=model.noise_dim, columns=model.columns)
        # back to original units; bernoulli sampling already decodes its bits
        for spec in reversed(specs[:-1] if rbm and model.kind == "bernoulli" else specs):
            out = pp.inverse_transform(out, spec)
    except NonFinite as exc:
        raise DivergedError(f"generated values are not finite: {exc}") from None
    if specs:  # restore the column names the chain was fitted on
        out = SeriesFrame(specs[0].columns, out.data, out.index)
    return out


def cmd_generate(args) -> int:
    model, specs = load_model(args.model)
    seed_window = read_csv(args.seed_window) if args.seed_window else None
    out = generate_from_model(model, specs, args.n, args.horizon,
                              args.gibbs_steps, seed_window, RngStream(args.seed, 0))
    write_csv(out, args.out)
    print(f"wrote {out.n_rows}x{out.n_cols} synthetic series to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Monte-Carlo backtests
# ---------------------------------------------------------------------------

def _write_lines(path, lines) -> None:
    atomic_write(path, "\n".join(lines) + "\n")


def _replication_source(args, cfg_backtest, master_seed):
    """Returns (source(rep) -> SeriesFrame, horizon)."""
    if args.bootstrap:
        base = read_csv(args.bootstrap)
        horizon = cfg_backtest.get("horizon", base.n_rows)
        return bt.bootstrap_source(base, horizon, master_seed), horizon
    model, specs = load_model(args.model)
    seed_window = read_csv(args.seed_window) if args.seed_window else None
    horizon = _get(cfg_backtest, BACKTEST, "horizon")

    def source(rep: int) -> SeriesFrame:
        return generate_from_model(model, specs, horizon, horizon, args.gibbs_steps,
                                   seed_window, RngStream(master_seed, rep))

    return source, horizon


def cmd_mc_backtest(args) -> int:
    if bool(args.bootstrap) == bool(args.model):
        raise UsageError("mc-backtest needs exactly one of --bootstrap or --model")
    cfg = load_config(args.config, {"master_seed": args.seed, "backtest.n_reps": args.reps,
                                    "backtest.horizon": args.horizon})
    bt_cfg = cfg.get("backtest", {})
    config = bt.RiskParityConfig(**_kwargs(bt_cfg, BACKTEST, bt.RiskParityConfig))
    reps = _get(bt_cfg, BACKTEST, "n_reps")
    source, horizon = _replication_source(args, bt_cfg, _get(cfg, CONFIG, "master_seed"))

    stats_rows, acf1 = [], []
    for strat, stats in bt.replications(source, reps, config):
        stats_rows.append(stats)
        if len(strat) > 5:
            acf1.append(ev.acf(strat, 1).estimate[0])
    dists = bt.stat_distributions(stats_rows)

    csv_path = f"{args.out}_distribution.csv"
    _write_lines(csv_path, [",".join(bt.STATISTIC_NAMES)] + [
        ",".join(repr(float(getattr(stats, name))) for name in bt.STATISTIC_NAMES)
        for stats in stats_rows])

    md = ["# Monte-Carlo backtest distributions", "",
          f"replications: {reps}, horizon: {horizon}, source: "
          f"{'bootstrap' if args.bootstrap else 'model'}", "",
          "| statistic | p1 | p25 | p50 | p75 | p99 |", "|---|---:|---:|---:|---:|---:|"]
    for name in bt.STATISTIC_NAMES:
        qs = [dists[name].quantile(p) for p in (0.01, 0.25, 0.50, 0.75, 0.99)]
        md.append(f"| {name} | " + " | ".join(f"{q:.6g}" for q in qs) + " |")
    if acf1:
        mean_abs_acf = float(np.mean(np.abs(acf1)))
        md += ["", f"mean |lag-1 ACF| of replication strategy returns: {mean_abs_acf:.4f}"]
        if args.bootstrap:
            verdict = "destroyed" if mean_abs_acf <= 0.05 else "RETAINED (unexpected)"
            md.append(f"bootstrap serial dependence check: {verdict}")
    if args.real_value is not None:
        name = args.statistic
        q = bt.quantile_of(dists[name], args.real_value)
        md += ["", f"quantile of real backtest {name} = {args.real_value}: {q:.4f}"]
    _write_lines(f"{args.out}_report.md", md)
    print(f"wrote {csv_path} and {args.out}_report.md")
    return 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    real, synth = read_csv(args.real), read_csv(args.synth)
    if real.n_cols != synth.n_cols:
        raise MarketGenError(
            f"column mismatch: real has {real.n_cols}, synthetic has {synth.n_cols}")
    rows = ev.comparison_rows(real, synth, max_lag=args.max_lag)
    _write_lines(f"{args.out}_metrics.csv", ["metric,column,training,synthetic"] + [
        f"{metric},{col},{float(rv)!r},{float(sv)!r}" for metric, col, rv, sv in rows])
    atomic_write(f"{args.out}_report.md", ev.comparison_markdown(real, synth, args.max_lag))
    for j, col in enumerate(real.columns):
        pts = ev.qq_points(real.data[:, j], synth.data[:, j], args.qq_points)
        _write_lines(f"{args.out}_qq_{col}.csv", ["training_quantile,synthetic_quantile"] + [
            f"{float(a)!r},{float(b)!r}" for a, b in pts])
        if real.n_rows > args.max_lag + 2:
            acf_r = ev.acf(real.data[:, j], args.max_lag)
            _write_lines(f"{args.out}_acf_{col}.csv", ["lag,acf"] + [
                f"{int(k)},{float(v)!r}" for k, v in zip(acf_r.lags, acf_r.estimate)])
    print(f"wrote evaluation artifacts with prefix {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketgen", description="Market generator and backtest-robustness toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _flag(CONFIG["master_seed"], "master_seed")
    gibbs_steps = _flag(COUNT)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
        return p

    p = command("simulate-data", cmd_simulate_data, "write a synthetic dataset CSV")
    p.add_argument("--config")
    p.add_argument("--preset", choices=sorted(DATA_PRESETS))
    p.add_argument("--n", type=_flag(DATA["n"], "data.n"))
    p.add_argument("--seed", type=seed)

    p = command("train", cmd_train, "train a model from config + data CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=seed)

    p = command("generate", cmd_generate, "generate synthetic data from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_flag(DATA["n"]), default=1000)
    p.add_argument("--horizon", type=_flag(BACKTEST["horizon"]), default=250)
    p.add_argument("--seed-window", dest="seed_window")
    p.add_argument("--gibbs-steps", dest="gibbs_steps", type=gibbs_steps, default=1000)
    p.add_argument("--seed", type=seed, default=0)

    p = command("mc-backtest", cmd_mc_backtest, "Monte-Carlo backtest distributions")
    p.add_argument("--model")
    p.add_argument("--bootstrap")
    p.add_argument("--seed-window", dest="seed_window")
    p.add_argument("--horizon", type=_flag(BACKTEST["horizon"], "backtest.horizon"))
    p.add_argument("--gibbs-steps", dest="gibbs_steps", type=gibbs_steps, default=100)
    p.add_argument("--reps", type=_flag(BACKTEST["n_reps"], "backtest.n_reps"))
    p.add_argument("--config")
    p.add_argument("--seed", type=seed)
    p.add_argument("--real-value", dest="real_value", type=float)
    p.add_argument("--statistic", default="mdd", choices=bt.STATISTIC_NAMES)

    p = command("evaluate", cmd_evaluate, "fidelity metrics real vs synthetic")
    p.add_argument("--real", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--max-lag", dest="max_lag", type=_flag(Key(int, _min(0))), default=10)
    p.add_argument("--qq-points", dest="qq_points", type=_flag(Key(int, _min(2))), default=50)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, VersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except (MarketGenError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
