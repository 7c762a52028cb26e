"""Risk-parity backtest engine and Monte-Carlo distributions of its statistics.

The strategy is an unfunded overlay: inverse-volatility weights levered to an
annualized volatility target, equity accumulated arithmetically.  That makes
the whole statistic set invariant to rescaling all asset returns and exactly
positively homogeneous in the strategy returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import RngStream, rng_from
from .errors import ConstantColumn, EmptyInput, MarketGenError, TooFewRows, UsageError
from .frames import SeriesFrame

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class RiskParityConfig:
    vol_window: int = 60
    target_vol: float = 0.03
    rebalance_every: int = 1
    trading_days_per_year: int = TRADING_DAYS_PER_YEAR

    def __post_init__(self):
        if self.vol_window < 2:
            raise UsageError("vol_window must be >= 2")
        if self.target_vol <= 0:
            raise UsageError("target_vol must be > 0")
        if self.rebalance_every < 1:
            raise UsageError("rebalance_every must be >= 1")


@dataclass(frozen=True)
class BacktestStats:
    """Annualized return, volatility, Sharpe ratio, maximum drawdown (as a
    positive loss) and the skew measure mdd / sigma."""

    mu: float
    sigma: float
    sharpe: float
    mdd: float
    xi: float

    def as_dict(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma, "sharpe": self.sharpe,
                "mdd": self.mdd, "xi": self.xi}


STATISTIC_NAMES = ("mu", "sigma", "sharpe", "mdd", "xi")


def risk_parity_weights(returns_window: np.ndarray, config: RiskParityConfig):
    """Inverse-volatility weights and volatility-target leverage.

    w_i is proportional to 1 / sigma_i (weights sum to one, all positive) and
    the leverage is target_vol / ex-ante annualized portfolio volatility, so
    the levered portfolio has ex-ante volatility equal to the target.
    """
    window = np.asarray(returns_window, dtype=float)
    if window.shape[0] < config.vol_window:
        raise TooFewRows(
            f"window has {window.shape[0]} rows, need {config.vol_window}"
        )
    cov = np.cov(window, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    vols = np.sqrt(np.diag(cov))
    if np.any(vols <= 0):
        raise ConstantColumn("an asset has zero variance in the window")
    inv = 1.0 / vols
    w = inv / inv.sum()
    port_vol = np.sqrt(w @ cov @ w) * np.sqrt(config.trading_days_per_year)
    leverage = config.target_vol / port_vol
    return w, leverage


def run_backtest(returns: SeriesFrame, config: RiskParityConfig):
    """Run the strategy over a return series.

    Weights are refitted every ``rebalance_every`` days from the trailing
    ``vol_window`` rows ending the day before (no look-ahead).  The strategy
    return on day t is leverage * w . r_t; equity is the running sum.

    Returns (strategy return array, BacktestStats).
    """
    data = returns.data
    T = data.shape[0]
    w0 = config.vol_window
    if T <= w0:
        raise TooFewRows(f"need more than vol_window={w0} rows, got {T}")
    strat = np.empty(T - w0)
    w, lev = None, None
    for i, t in enumerate(range(w0, T)):
        if i % config.rebalance_every == 0:
            w, lev = risk_parity_weights(data[t - w0:t], config)
        strat[i] = lev * float(w @ data[t])
    return strat, stats_from_returns(strat, config.trading_days_per_year)


def stats_from_returns(strategy_returns: np.ndarray, days_per_year: int = TRADING_DAYS_PER_YEAR) -> BacktestStats:
    r = np.asarray(strategy_returns, dtype=float)
    if len(r) < 2:
        raise TooFewRows("need at least 2 strategy returns")
    mu = float(r.mean()) * days_per_year
    sigma = float(r.std(ddof=1)) * np.sqrt(days_per_year)
    equity = np.cumsum(r)
    mdd = max_drawdown(equity)
    return BacktestStats(mu, sigma, mu / sigma, mdd, mdd / sigma)


def max_drawdown(equity: np.ndarray) -> float:
    """Largest peak-to-trough decline of an (arithmetic) equity curve."""
    equity = np.asarray(equity, dtype=float)
    peaks = np.maximum.accumulate(equity)
    return float(np.max(peaks - equity))


def bootstrap_resample(returns: SeriesFrame, T_out: int, rng) -> SeriesFrame:
    """T_out rows drawn i.i.d. with replacement (whole rows, so the
    cross-sectional law is preserved while serial dependence is destroyed)."""
    if returns.n_rows == 0:
        raise EmptyInput("cannot resample an empty frame")
    rng = rng_from(rng)
    idx = rng.integers(0, returns.n_rows, size=T_out)
    return SeriesFrame(returns.columns, returns.data[idx])


@dataclass(frozen=True)
class StatDistribution:
    """Monte-Carlo sample of one backtest statistic, sorted ascending."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=float))
        if len(values) == 0:
            raise EmptyInput("StatDistribution needs at least one value")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def quantile(self, p: float) -> float:
        from .evaluate import empirical_quantile

        return float(empirical_quantile(self.values, p))


def quantile_of(dist: StatDistribution, value: float) -> float:
    """Fraction of replication values <= value (midpoint convention at ties)."""
    v = dist.values
    less = int(np.count_nonzero(v < value))
    equal = int(np.count_nonzero(v == value))
    return (less + 0.5 * equal) / len(v)


def replications(series_source, n_reps: int, config: RiskParityConfig):
    """Backtest ``n_reps`` synthetic series, yielding (strategy returns,
    BacktestStats) in replication order.

    ``series_source`` maps a replication index to a SeriesFrame of asset
    returns; by convention it should consume RNG stream index = replication
    index so replications are independent and reproducible.  A failing
    replication's error keeps its class and gains the replication index.
    """
    if n_reps < 1:
        raise MarketGenError("n_reps must be >= 1")
    for rep in range(n_reps):
        try:
            result = run_backtest(series_source(rep), config)
        except MarketGenError as exc:
            exc.args = (f"replication {rep} failed: {exc}",)
            raise
        yield result


def stat_distributions(stats) -> dict:
    """One StatDistribution per statistic name from a sequence of BacktestStats."""
    return {name: StatDistribution(name, [getattr(s, name) for s in stats])
            for name in STATISTIC_NAMES}


def mc_distribution(series_source, n_reps: int, config: RiskParityConfig) -> dict:
    """Backtest ``n_reps`` synthetic series (see ``replications``) and collect
    statistic distributions."""
    return stat_distributions(
        [stats for _, stats in replications(series_source, n_reps, config)])


def bootstrap_source(returns: SeriesFrame, T_out: int, master_seed: int):
    """A ``series_source`` drawing i.i.d. row resamples, one stream per rep."""

    def source(rep: int) -> SeriesFrame:
        return bootstrap_resample(returns, T_out, RngStream(master_seed, rep))

    return source
