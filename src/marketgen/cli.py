"""Batch command-line front door.

Five subcommands cover the full workflow:

  simulate-data   draw a synthetic dataset (copula / AR(1)+EWMA) to CSV
  train           fit an RBM or GAN model from a config and a CSV dataset
  generate        sample or iteratively extend series from a saved model
  mc-backtest     Monte-Carlo distributions of risk-parity backtest statistics
  evaluate        fidelity metrics between a training and a synthetic CSV

Everything is driven by a JSON config document plus a master seed; any
command rerun with identical inputs and seed, at the same BLAS thread count,
produces byte-identical artifacts.  Exit codes: 0 success, 2 usage or config error, 3 data error,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
from .errors import DivergedError, MarketGenError, UsageError, VersionError
from .frames import SeriesFrame, atomic_write, read_csv, write_csv
from .persist import FORMAT_VERSION, GanModel, load_model, save_model

# ---------------------------------------------------------------------------
# presets: every number the reference configurations pin down
# ---------------------------------------------------------------------------

DATA_PRESETS = {
    "copula-paper": {"source": "copula", "n": 10000},
}

MODEL_PRESETS = {
    "bernoulli-rbm-paper": {
        "kind": "bernoulli_rbm", "hidden": 256, "learning_rate": 0.01,
        "batch_size": 500, "epochs": 100, "cd_k": 1,
    },
    "gaussian-rbm-paper": {
        "kind": "gaussian_rbm", "hidden": 128, "learning_rate": 0.01,
        "batch_size": 500, "epochs": 100, "cd_k": 1,
    },
    "conditional-rbm-paper": {
        "kind": "conditional_rbm", "hidden": 128, "lags": 20,
        "learning_rate": 0.01, "batch_size": 500, "epochs": 100, "cd_k": 1,
    },
    "wgan-paper": {
        # tanh critic head + weight clipping + RMSProp, the original
        # Wasserstein recipe; far better tail fidelity here than the
        # gradient-penalty mode at equal budget
        "kind": "wgan", "mode": "wgan_clip", "noise_dim": 100,
        "gen_hidden": [200, 100, 50, 25], "critic_hidden": [100, 50, 10],
        "learning_rate": 1e-4, "batch_size": 500, "epochs": 10,
        "n_critic": 5, "clip_c": 0.05, "gen_ema": 0.995,
    },
    "cdcwgan-paper": {
        "kind": "cdcwgan", "mode": "wgan_gp", "noise_dim": 100,
        "n_t": 5, "n_h": 20, "critic_filters": [16, 32, 64, 128],
        "gen_channels": [256, 64], "kernel": 3,
        "learning_rate": 1e-4, "batch_size": 500, "epochs": 10,
        "n_critic": 5, "lambda_gp": 10.0,
    },
}

_SECTION_KEYS = {
    "top": {"format_version", "master_seed", "data", "preprocess", "model",
            "backtest"},
    "data": {"source", "preset", "n", "correlation", "marginals", "d", "phi",
             "corr", "T", "ewma_span", "scale", "path"},
    "preprocess": {"transforms", "epsilon", "post_scale"},
    "model": {"kind", "preset", "hidden", "lags", "learning_rate", "batch_size",
              "epochs", "cd_k", "mode", "noise_dim", "lambda_gp", "clip_c",
              "n_critic", "gen_hidden", "critic_hidden", "n_t", "n_h",
              "critic_filters", "gen_channels", "kernel", "non_saturating",
              "gen_ema"},
    "backtest": {"vol_window", "target_vol", "rebalance_every", "n_reps",
                 "horizon", "trading_days_per_year"},
}


def _check_keys(section: dict, name: str) -> None:
    allowed = _SECTION_KEYS[name]
    unknown = set(section) - allowed
    if unknown:
        raise UsageError(f"unknown key(s) in {name} section: {sorted(unknown)}")


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    version = cfg.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported config format_version {version!r}")
    _check_keys(cfg, "top")
    for name in ("data", "preprocess", "model", "backtest"):
        if name in cfg:
            if not isinstance(cfg[name], dict):
                raise UsageError(f"{name} section must be an object")
            _check_keys(cfg[name], name)
    return cfg


def _merge_preset(section: dict, presets: dict, label: str) -> dict:
    section = dict(section)
    preset_name = section.pop("preset", None)
    if preset_name is None:
        return section
    if preset_name not in presets:
        raise UsageError(f"unknown {label} preset {preset_name!r}; "
                         f"available: {sorted(presets)}")
    merged = dict(presets[preset_name])
    merged.update(section)
    return merged


# ---------------------------------------------------------------------------
# data simulation
# ---------------------------------------------------------------------------

def _marginal_from_doc(doc: dict) -> MarginalSpec:
    kind = doc.get("kind")
    if kind == "normal":
        return MarginalSpec("normal", mu=float(doc.get("mu", 0.0)),
                            sigma=float(doc.get("sigma", 1.0)))
    if kind == "student_t":
        return MarginalSpec("student_t", nu=float(doc.get("nu", 4.0)))
    if kind == "gaussian_mixture":
        return MarginalSpec("gaussian_mixture", weights=tuple(doc["weights"]),
                            mus=tuple(doc["mus"]), sigmas=tuple(doc["sigmas"]))
    raise UsageError(f"unknown marginal kind {kind!r}")


def simulate_frame(data_cfg: dict, master_seed: int) -> SeriesFrame:
    cfg = _merge_preset(data_cfg, DATA_PRESETS, "data")
    source = cfg.get("source")
    if source == "copula":
        n = int(cfg.get("n", 10000))
        if "correlation" in cfg or "marginals" in cfg:
            R = np.asarray(cfg["correlation"], dtype=float)
            marginals = tuple(_marginal_from_doc(m) for m in cfg["marginals"])
            spec = CopulaSpec(len(marginals), R, marginals)
        else:
            spec = benchmark_copula_spec()
        return sample_copula(spec, n, RngStream(master_seed, 0))
    if source == "ar1":
        return ar1_ewma_process(
            int(cfg.get("d", 2)), float(cfg.get("phi", 0.5)),
            np.asarray(cfg.get("corr", np.eye(int(cfg.get("d", 2)))), dtype=float),
            int(cfg.get("T", 5000)), int(cfg.get("ewma_span", 1)),
            RngStream(master_seed, 0), scale=float(cfg.get("scale", 0.01)),
        )
    if source == "csv":
        path = cfg.get("path")
        if not path or not os.path.exists(path):
            raise UsageError(f"data csv not found: {path!r}")
        return read_csv(path)
    raise UsageError(f"unknown data source {source!r}")


def cmd_simulate_data(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    data_cfg = dict(cfg.get("data", {}))
    if args.preset:
        data_cfg["preset"] = args.preset
    if args.n is not None:
        data_cfg["n"] = args.n
    if not data_cfg:
        raise UsageError("simulate-data needs --config with a data section or --preset")
    seed = args.seed if args.seed is not None else int(cfg.get("master_seed", 0))
    frame = simulate_frame(data_cfg, seed)
    write_csv(frame, args.out)
    print(f"wrote {frame.n_rows}x{frame.n_cols} dataset to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

_DEFAULT_CHAINS = {
    "bernoulli_rbm": ["binarize16"],
    "gaussian_rbm": ["zscore"],
    "conditional_rbm": ["normal_score"],
    "wgan": ["minmax"],
    "gan": ["minmax"],
    "cdcwgan": ["minmax"],
}

_MODEL_DOMAIN = {  # transform the model's input space requires as final step
    "bernoulli_rbm": "binarize16",
    "wgan": "minmax",
    "gan": "minmax",
    "cdcwgan": "minmax",
}


def _fit_chain(frame: SeriesFrame, kinds, epsilon=None):
    """Fit transforms in order; returns (specs, transformed frame, bits)."""
    specs = []
    bits = None
    current = frame
    for i, kind in enumerate(kinds):
        if kind == "binarize16":
            if i != len(kinds) - 1:
                raise UsageError("binarize16 must be the last transform")
            spec = pp.fit_binarize16(current, epsilon)
            bits = pp.binarize16(current, spec)
            specs.append(spec)
        else:
            spec = pp.fit_transform_spec(kind, current)
            current = pp.transform(current, spec)
            specs.append(spec)
    return specs, current, bits


def train_from_config(cfg: dict, frame: SeriesFrame, seed: int):
    """Returns (model object, transform chain) ready to persist."""
    model_cfg = _merge_preset(cfg.get("model", {}), MODEL_PRESETS, "model")
    kind = model_cfg.get("kind")
    if kind is None:
        raise UsageError("model section needs a kind or preset")
    chain = list(cfg.get("preprocess", {}).get("transforms", _DEFAULT_CHAINS.get(kind, [])))
    needed = _MODEL_DOMAIN.get(kind)
    if needed and (not chain or chain[-1] != needed):
        chain.append(needed)
    epsilon = cfg.get("preprocess", {}).get("epsilon")
    post_scale = cfg.get("preprocess", {}).get("post_scale")
    if post_scale is not None and chain and chain[-1] == "binarize16":
        raise UsageError("post_scale cannot follow binarize16")
    specs, transformed, bits = _fit_chain(frame, chain, epsilon)
    if post_scale is not None:
        spec = pp.scaling_spec(frame.columns, float(post_scale))
        transformed = pp.transform(transformed, spec)
        specs.append(spec)

    if kind in ("bernoulli_rbm", "gaussian_rbm", "conditional_rbm"):
        train_cfg = rbm_mod.TrainConfig(
            learning_rate=float(model_cfg.get("learning_rate", 0.01)),
            batch_size=int(model_cfg.get("batch_size", 500)),
            epochs=int(model_cfg.get("epochs", 100)),
            cd_k=int(model_cfg.get("cd_k", 1)),
            seed=seed,
        )
        hidden = int(model_cfg.get("hidden", 128))
        last_spec = specs[-1] if specs else None
        if kind == "bernoulli_rbm":
            model = rbm_mod.init_rbm("bernoulli", bits.shape[1], hidden,
                                     rng=RngStream(seed, 1), transform=last_spec)
            model, _ = rbm_mod.train(model, bits.astype(float), train_cfg)
        elif kind == "gaussian_rbm":
            model = rbm_mod.init_rbm("gaussian", frame.n_cols, hidden,
                                     rng=RngStream(seed, 1), transform=last_spec)
            model, _ = rbm_mod.train(model, transformed, train_cfg)
        else:
            lags = int(model_cfg.get("lags", 20))
            model = rbm_mod.init_rbm("conditional", frame.n_cols, hidden, d=lags,
                                     rng=RngStream(seed, 1), transform=last_spec)
            model, _ = rbm_mod.train(model, transformed, train_cfg)
        return model, specs

    if kind in ("wgan", "gan", "cdcwgan"):
        mode = model_cfg.get("mode", "minimax" if kind == "gan" else "wgan_gp")
        gan_cfg = gan_mod.GanConfig(
            mode=mode,
            noise_dim=int(model_cfg.get("noise_dim", 100)),
            lambda_gp=float(model_cfg.get("lambda_gp", 10.0)),
            clip_c=float(model_cfg.get("clip_c", 0.01)),
            n_critic=int(model_cfg.get("n_critic", 1 if mode == "minimax" else 5)),
            learning_rate=float(model_cfg.get("learning_rate", 1e-4)),
            batch_size=int(model_cfg.get("batch_size", 500)),
            epochs=int(model_cfg.get("epochs", 10)),
            seed=seed,
            non_saturating=bool(model_cfg.get("non_saturating", True)),
            gen_ema=float(model_cfg.get("gen_ema", 0.0)),
        )
        if kind == "cdcwgan":
            gen, critic, condition, _ = gan_mod.train_cdcwgan(
                transformed, gan_cfg,
                n_t=int(model_cfg.get("n_t", 5)), n_h=int(model_cfg.get("n_h", 20)),
                critic_filters=tuple(model_cfg.get("critic_filters", (16, 32, 64, 128))),
                gen_channels=tuple(model_cfg.get("gen_channels", (256, 64))),
                n_k=int(model_cfg.get("kernel", 3)),
            )
        else:
            rng = RngStream(seed, 1).generator()
            gen, critic = gan_mod.build_wgan_nets(
                frame.n_cols, gan_cfg, rng,
                gen_hidden=tuple(model_cfg.get("gen_hidden", (200, 100, 50, 25))),
                critic_hidden=tuple(model_cfg.get("critic_hidden", (100, 50, 10))),
            )
            condition = gan_mod.ConditionSpec("none")
            gen, critic, _ = gan_mod.train_gan(gen, critic, transformed, condition, gan_cfg)
        model = GanModel(kind, gan_cfg.mode, gan_cfg.noise_dim, gen, critic,
                         condition, frame.columns)
        return model, specs

    raise UsageError(f"unknown model kind {kind!r}")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if not os.path.exists(args.data):
        raise UsageError(f"data file not found: {args.data}")
    frame = read_csv(args.data)
    seed = args.seed if args.seed is not None else int(cfg.get("master_seed", 0))
    model, specs = train_from_config(cfg, frame, seed)
    save_model(args.out, model, specs)
    print(f"wrote model to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _invert_chain(frame: SeriesFrame, specs, skip_last: bool) -> SeriesFrame:
    chain = specs[:-1] if skip_last else specs
    for spec in reversed(chain):
        frame = pp.inverse_transform(frame, spec)
    if specs:  # restore the column names the chain was fitted on
        frame = SeriesFrame(specs[0].columns, frame.data, frame.index)
    return frame


def _forward_chain(frame: SeriesFrame, specs, skip_last: bool) -> SeriesFrame:
    """Map original-unit rows into model space through fitted specs."""
    chain = specs[:-1] if skip_last else specs
    for spec in chain:
        if spec.kind == "normal_score":
            frame = pp.normal_score_from_reference(frame, spec)
        else:
            frame = pp.transform(frame, spec)
    return frame


def generate_from_model(model, specs, args_n, horizon, gibbs_steps, seed_window,
                        rng) -> SeriesFrame:
    if isinstance(model, rbm_mod.RbmModel):
        if model.kind == "conditional":
            if seed_window is None:
                raise UsageError("conditional models need --seed-window")
            window = _forward_chain(seed_window, specs, skip_last=False)
            out = rbm_mod.generate_series(model, window.data[-model.d:], horizon,
                                          gibbs_steps, rng)
            return _invert_chain(out, specs, skip_last=False)
        out = rbm_mod.sample(model, args_n, gibbs_steps, rng)
        # bernoulli sampling already decodes its bit-level transform
        return _invert_chain(out, specs, skip_last=model.kind == "bernoulli")
    # GAN bundle
    if model.condition.kind == "history_window":
        if seed_window is None:
            raise UsageError("history-conditioned models need --seed-window")
        window = _forward_chain(seed_window, specs, skip_last=False)
        out = gan_mod.generate_series_gan(
            model.generator, model.condition, window.data[-model.condition.n_h:],
            horizon, rng, noise_dim=model.noise_dim, columns=model.columns)
    else:
        out = gan_mod.generate(model.generator, args_n, rng,
                               noise_dim=model.noise_dim, columns=model.columns)
    return _invert_chain(out, specs, skip_last=False)


def cmd_generate(args) -> int:
    model, specs = load_model(args.model)
    seed_window = read_csv(args.seed_window) if args.seed_window else None
    rng = RngStream(args.seed, 0)
    out = generate_from_model(model, specs, args.n, args.horizon,
                              args.gibbs_steps, seed_window, rng)
    write_csv(out, args.out)
    print(f"wrote {out.n_rows}x{out.n_cols} synthetic series to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Monte-Carlo backtests
# ---------------------------------------------------------------------------

def _replication_source(args, cfg_backtest, master_seed):
    """Returns (source(rep) -> SeriesFrame, horizon)."""
    if args.bootstrap:
        base = read_csv(args.bootstrap)
        horizon = int(cfg_backtest.get("horizon", base.n_rows))
        return bt.bootstrap_source(base, horizon, master_seed), horizon
    model, specs = load_model(args.model)
    seed_window = read_csv(args.seed_window) if args.seed_window else None
    horizon = int(cfg_backtest.get("horizon", args.horizon or 500))

    def source(rep: int) -> SeriesFrame:
        rng = RngStream(master_seed, rep)
        return generate_from_model(model, specs, horizon, horizon,
                                   args.gibbs_steps, seed_window, rng)

    return source, horizon


def cmd_mc_backtest(args) -> int:
    if bool(args.bootstrap) == bool(args.model):
        raise UsageError("mc-backtest needs exactly one of --bootstrap or --model")
    cfg = load_config(args.config) if args.config else {}
    bt_cfg = dict(cfg.get("backtest", {}))
    config = bt.RiskParityConfig(
        vol_window=int(bt_cfg.get("vol_window", 60)),
        target_vol=float(bt_cfg.get("target_vol", 0.03)),
        rebalance_every=int(bt_cfg.get("rebalance_every", 1)),
        trading_days_per_year=int(bt_cfg.get("trading_days_per_year", 252)),
    )
    seed = args.seed if args.seed is not None else int(cfg.get("master_seed", 0))
    reps = args.reps if args.reps is not None else int(bt_cfg.get("n_reps", 500))
    source, horizon = _replication_source(args, bt_cfg, seed)

    stats_rows = []
    acf1 = []
    for strat, stats in bt.replications(source, reps, config):
        stats_rows.append(stats)
        if len(strat) > 5:
            acf1.append(ev.acf(strat, 1).estimate[0])
    dists = bt.stat_distributions(stats_rows)

    csv_path = f"{args.out}_distribution.csv"
    lines = [",".join(bt.STATISTIC_NAMES)]
    for stats in stats_rows:
        lines.append(",".join(repr(float(getattr(stats, name))) for name in bt.STATISTIC_NAMES))
    atomic_write(csv_path, "\n".join(lines) + "\n")

    md = ["# Monte-Carlo backtest distributions", "",
          f"replications: {reps}, horizon: {horizon}, source: "
          f"{'bootstrap' if args.bootstrap else 'model'}", "",
          "| statistic | p1 | p25 | p50 | p75 | p99 |", "|---|---:|---:|---:|---:|---:|"]
    for name in bt.STATISTIC_NAMES:
        d = dists[name]
        qs = [d.quantile(p) for p in (0.01, 0.25, 0.50, 0.75, 0.99)]
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
    atomic_write(f"{args.out}_report.md", "\n".join(md) + "\n")
    print(f"wrote {csv_path} and {args.out}_report.md")
    return 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    real = read_csv(args.real)
    synth = read_csv(args.synth)
    if real.n_cols != synth.n_cols:
        raise MarketGenError(
            f"column mismatch: real has {real.n_cols}, synthetic has {synth.n_cols}")
    rows = ev.comparison_rows(real, synth, max_lag=args.max_lag)
    lines = ["metric,column,training,synthetic"]
    for metric, col, rv, sv in rows:
        lines.append(f"{metric},{col},{float(rv)!r},{float(sv)!r}")
    atomic_write(f"{args.out}_metrics.csv", "\n".join(lines) + "\n")
    atomic_write(f"{args.out}_report.md", ev.comparison_markdown(real, synth, args.max_lag))
    for j, col in enumerate(real.columns):
        pts = ev.qq_points(real.data[:, j], synth.data[:, j], args.qq_points)
        qq_lines = ["training_quantile,synthetic_quantile"]
        qq_lines += [f"{float(a)!r},{float(b)!r}" for a, b in pts]
        atomic_write(f"{args.out}_qq_{col}.csv", "\n".join(qq_lines) + "\n")
        if real.n_rows > args.max_lag + 2:
            acf_r = ev.acf(real.data[:, j], args.max_lag)
            acf_lines = ["lag,acf"]
            acf_lines += [f"{int(k)},{float(v)!r}" for k, v in zip(acf_r.lags, acf_r.estimate)]
            atomic_write(f"{args.out}_acf_{col}.csv", "\n".join(acf_lines) + "\n")
    print(f"wrote evaluation artifacts with prefix {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketgen",
        description="Market generator and backtest-robustness toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-data", help="write a synthetic dataset CSV")
    p.add_argument("--config")
    p.add_argument("--preset", choices=sorted(DATA_PRESETS))
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_data)

    p = sub.add_parser("train", help="train a model from config + data CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate synthetic data from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=250)
    p.add_argument("--seed-window", dest="seed_window")
    p.add_argument("--gibbs-steps", dest="gibbs_steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mc-backtest", help="Monte-Carlo backtest distributions")
    p.add_argument("--model")
    p.add_argument("--bootstrap")
    p.add_argument("--seed-window", dest="seed_window")
    p.add_argument("--horizon", type=int)
    p.add_argument("--gibbs-steps", dest="gibbs_steps", type=int, default=100)
    p.add_argument("--reps", type=int)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--real-value", dest="real_value", type=float)
    p.add_argument("--statistic", default="mdd", choices=bt.STATISTIC_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mc_backtest)

    p = sub.add_parser("evaluate", help="fidelity metrics real vs synthetic")
    p.add_argument("--real", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=10)
    p.add_argument("--qq-points", dest="qq_points", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
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
