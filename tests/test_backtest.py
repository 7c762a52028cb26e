import numpy as np
import pytest

from marketgen import backtest as bt
from marketgen.datagen import RngStream, ar1_ewma_process
from marketgen.errors import ConstantColumn, EmptyInput, TooFewRows
from marketgen.evaluate import acf
from marketgen.frames import SeriesFrame, frame_from_columns


def _returns(T=400, d=3, seed=0, scale=0.01):
    rng = np.random.default_rng(seed)
    return SeriesFrame(tuple(f"a{i}" for i in range(d)),
                       scale * rng.standard_normal((T, d)))


CFG = bt.RiskParityConfig(vol_window=60, target_vol=0.03)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_equal_vols_give_equal_weights():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 2)) * 0.01
    x[:, 1] = x[:, 1] - x[:, 1].mean() + x[:, 0].mean()  # same scale
    w, _ = bt.risk_parity_weights(x * [1.0, 1.0], CFG)
    assert abs(w[0] - 0.5) < 0.05


def test_inverse_vol_ratio():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(2000)
    x = np.column_stack([base, 2.0 * rng.standard_normal(2000)])
    x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1) * [1.0, 2.0]
    w, _ = bt.risk_parity_weights(x, CFG)
    np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-12)


def test_leverage_hits_target_vol():
    rng = np.random.default_rng(3)
    window = rng.standard_normal((60, 3)) * 0.01
    w, lev = bt.risk_parity_weights(window, CFG)
    cov = np.cov(window, rowvar=False, ddof=1)
    ex_ante = lev * np.sqrt(w @ cov @ w) * np.sqrt(252)
    assert abs(ex_ante - CFG.target_vol) < 1e-12


def test_zero_variance_asset():
    window = np.column_stack([np.zeros(60), np.random.default_rng(4).standard_normal(60)])
    with pytest.raises(ConstantColumn):
        bt.risk_parity_weights(window, CFG)


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

def test_reported_table_identities():
    # published rows: mu 5.30%, sigma 3.54%, SR 1.50; MDD 9.40% -> xi 2.65
    assert abs(0.0530 / 0.0354 - 1.50) <= 0.01
    assert abs(0.0940 / 0.0354 - 2.65) <= 0.01


def test_stats_identities_exact():
    strat = np.random.default_rng(5).normal(1e-4, 0.002, size=500)
    stats = bt.stats_from_returns(strat)
    assert abs(stats.sharpe - stats.mu / stats.sigma) < 1e-12
    assert abs(stats.xi - stats.mdd / stats.sigma) < 1e-12
    assert stats.mdd >= 0


def test_monotone_equity_zero_mdd():
    stats = bt.stats_from_returns(np.full(100, 1e-3))
    assert stats.mdd == 0.0


def test_mdd_arithmetic():
    # equity path {0.10, 0.00, 0.05} has max drawdown 0.10
    assert bt.max_drawdown(np.array([0.10, 0.00, 0.05])) == pytest.approx(0.10)


def test_mdd_shift_invariance_and_homogeneity():
    rng = np.random.default_rng(6)
    r = rng.normal(0, 0.01, size=300)
    equity = np.cumsum(r)
    assert bt.max_drawdown(equity + 5.0) == pytest.approx(bt.max_drawdown(equity))
    assert bt.max_drawdown(3.0 * equity) == pytest.approx(3.0 * bt.max_drawdown(equity))


def test_backtest_scale_invariance():
    frame = _returns(seed=7)
    _, stats1 = bt.run_backtest(frame, CFG)
    scaled = SeriesFrame(frame.columns, frame.data * 7.5)
    _, stats2 = bt.run_backtest(scaled, CFG)
    for name in bt.STATISTIC_NAMES:
        assert abs(getattr(stats1, name) - getattr(stats2, name)) < 1e-10


def test_backtest_no_lookahead():
    frame = _returns(T=300, seed=8)
    full, _ = bt.run_backtest(frame, CFG)
    truncated, _ = bt.run_backtest(SeriesFrame(frame.columns, frame.data[:200]), CFG)
    np.testing.assert_allclose(full[: len(truncated)], truncated, atol=1e-15)


def test_backtest_too_few_rows():
    with pytest.raises(TooFewRows):
        bt.run_backtest(_returns(T=60), CFG)


def test_rebalance_every_five_changes_weights_less():
    frame = _returns(T=300, seed=9)
    daily, _ = bt.run_backtest(frame, CFG)
    weekly, _ = bt.run_backtest(
        frame, bt.RiskParityConfig(vol_window=60, target_vol=0.03, rebalance_every=5))
    assert len(daily) == len(weekly)
    assert not np.allclose(daily, weekly)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_single_row_source():
    src = frame_from_columns({"a": [0.01], "b": [-0.02]})
    out = bt.bootstrap_resample(src, 50, RngStream(0, 0))
    assert np.all(out.data == src.data[0])


def test_bootstrap_preserves_cross_correlation():
    frame = ar1_ewma_process(2, 0.0, np.array([[1.0, 0.6], [0.6, 1.0]]), 4000,
                             rng=RngStream(1, 0))
    out = bt.bootstrap_resample(frame, 5000, RngStream(1, 1))
    c_src = np.corrcoef(frame.data, rowvar=False)[0, 1]
    c_out = np.corrcoef(out.data, rowvar=False)[0, 1]
    assert abs(c_src - c_out) < 0.05


def test_bootstrap_destroys_serial_dependence():
    frame = ar1_ewma_process(1, 0.45, np.eye(1), 4000, ewma_span=3, rng=RngStream(2, 0))
    assert acf(frame.data[:, 0], 1).estimate[0] > 0.2
    out = bt.bootstrap_resample(frame, 5000, RngStream(2, 1))
    assert abs(acf(out.data[:, 0], 1).estimate[0]) <= 0.05


def test_bootstrap_empty_source():
    with pytest.raises(EmptyInput):
        bt.bootstrap_resample(SeriesFrame(("a",), np.empty((0, 1))), 10, RngStream(0, 0))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_mc_distribution_single_rep():
    frame = _returns(T=200, seed=10)
    dists = bt.mc_distribution(lambda rep: frame, 1, CFG)
    _, stats = bt.run_backtest(frame, CFG)
    for name in bt.STATISTIC_NAMES:
        assert dists[name].values[0] == pytest.approx(getattr(stats, name))


def test_mc_distribution_identical_sources_zero_width():
    frame = _returns(T=200, seed=11)
    dists = bt.mc_distribution(lambda rep: frame, 5, CFG)
    for name in bt.STATISTIC_NAMES:
        assert np.ptp(dists[name].values) == 0.0


def test_mc_distribution_deterministic():
    source = bt.bootstrap_source(_returns(T=300, seed=12), 200, master_seed=99)
    a = bt.mc_distribution(source, 10, CFG)
    b = bt.mc_distribution(source, 10, CFG)
    np.testing.assert_array_equal(a["mdd"].values, b["mdd"].values)


def test_mc_distribution_failure_names_replication():
    def source(rep):
        if rep == 3:
            return _returns(T=10)  # too short
        return _returns(T=200, seed=rep)

    with pytest.raises(TooFewRows, match="replication 3 failed"):  # class kept
        bt.mc_distribution(source, 5, CFG)


def test_quantile_of_extremes_and_median():
    dist = bt.StatDistribution("mdd", [1.0, 2.0, 3.0, 4.0, 5.0])
    assert bt.quantile_of(dist, 0.0) == 0.0
    assert bt.quantile_of(dist, 10.0) == 1.0
    assert abs(bt.quantile_of(dist, 3.0) - 0.5) <= 1 / 10
