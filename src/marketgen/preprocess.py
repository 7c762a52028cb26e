"""Reversible dataset transforms between raw series and model input domains.

Four transform kinds are supported, each carried by an immutable
:class:`TransformSpec` so that the exact inverse is always available:

* ``minmax``        affine map of each column onto [0, 1]
* ``zscore``        per-column standardization (population std, divisor T)
* ``normal_score``  rank-based map of each marginal to a standard normal,
  inverted by empirical-quantile interpolation
* ``binarize16``    16-bit fixed-point encoding of each column, big-endian

All transforms are pure functions of (frame, spec); specs are freely
shareable across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (ConstantColumn, DomainError, InvalidValue, OutOfBounds, ShapeError,
                     UsageError)
from .frames import SeriesFrame

TRANSFORM_KINDS = ("minmax", "zscore", "normal_score", "binarize16")


@dataclass(frozen=True)
class TransformSpec:
    """Fitted state of one preprocessing transform.

    Field usage by kind:
      minmax      lo, hi          per-column min / max of the fit data
      zscore      mean, std       population moments of the fit data
      normal_score reference      (T, d) ascending order statistics
      binarize16  lo, hi, epsilon bounds min - eps / max + eps
    """

    kind: str
    columns: tuple
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    reference: np.ndarray | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise InvalidValue(f"unknown transform kind {self.kind!r}")
        object.__setattr__(self, "columns", tuple(self.columns))
        for name in ("lo", "hi", "mean", "std", "reference"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


def _check_columns(frame: SeriesFrame, spec: TransformSpec) -> None:
    if frame.n_cols != len(spec.columns):
        raise ShapeError(
            f"frame has {frame.n_cols} columns, spec was fitted on {len(spec.columns)}"
        )


# ---------------------------------------------------------------------------
# minmax
# ---------------------------------------------------------------------------

def fit_minmax(frame: SeriesFrame) -> TransformSpec:
    """Fit the affine map of each column onto [0, 1]."""
    lo = frame.data.min(axis=0)
    hi = frame.data.max(axis=0)
    for j, (a, b) in enumerate(zip(lo, hi)):
        if not b > a:
            raise ConstantColumn(f"column {frame.columns[j]!r} is constant")
    return TransformSpec("minmax", frame.columns, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# zscore
# ---------------------------------------------------------------------------

def fit_zscore(frame: SeriesFrame) -> TransformSpec:
    """Fit per-column standardization.

    The population convention (divide by T) is used so that a two-point
    column {0, 2} maps exactly to {-1, 1}.
    """
    mean = frame.data.mean(axis=0)
    std = frame.data.std(axis=0)
    for j, s in enumerate(std):
        if not s > 0:
            raise ConstantColumn(f"column {frame.columns[j]!r} has zero variance")
    return TransformSpec("zscore", frame.columns, mean=mean, std=std)


# ---------------------------------------------------------------------------
# normal score
# ---------------------------------------------------------------------------

def fit_normal_score(frame: SeriesFrame) -> TransformSpec:
    """Store the ascending order statistics used to invert the normal score."""
    ref = np.sort(frame.data, axis=0)
    for j in range(frame.n_cols):
        if ref[0, j] == ref[-1, j]:
            raise ConstantColumn(
                f"column {frame.columns[j]!r} needs at least 2 distinct values"
            )
    return TransformSpec("normal_score", frame.columns, reference=ref)


def normal_score(frame: SeriesFrame, spec: TransformSpec) -> SeriesFrame:
    """Map each column to approximate standard normal marginals.

    Values are ranked within ``frame`` (ties broken by first occurrence),
    ranks mapped to uniforms at (rank - 0.5) / T, then through the inverse
    normal CDF.  Rank ordering of the input is preserved exactly.
    """
    _check_columns(frame, spec)
    if not np.all(np.isfinite(frame.data)):
        raise InvalidValue("non-finite input to normal_score")
    T = frame.n_rows
    out = np.empty_like(frame.data)
    for j in range(frame.n_cols):
        order = np.argsort(frame.data[:, j], kind="stable")
        ranks = np.empty(T, dtype=float)
        ranks[order] = np.arange(1, T + 1)
        out[:, j] = ndtri((ranks - 0.5) / T)
    return frame.with_data(out)


def normal_score_from_reference(frame: SeriesFrame, spec: TransformSpec) -> SeriesFrame:
    """Map out-of-sample values to normal scores through the fitted reference.

    The plain forward transform ranks within its own input, which is the
    right thing for training data but not for a handful of new rows (e.g. a
    seed window at generation time).  Here u is read off the reference
    empirical CDF by interpolation instead, so a value close to a training
    value gets a close z-score.
    """
    _check_columns(frame, spec)
    ref = spec.reference
    T = ref.shape[0]
    grid = (np.arange(1, T + 1) - 0.5) / T
    out = np.empty_like(frame.data)
    for j in range(frame.n_cols):
        u = np.interp(frame.data[:, j], ref[:, j], grid)
        out[:, j] = ndtri(np.clip(u, grid[0], grid[-1]))
    return frame.with_data(out)


def inverse_normal_score(frame: SeriesFrame, spec: TransformSpec) -> SeriesFrame:
    """Map z-values back to the fitted empirical quantiles.

    u = Phi(z) is interpolated linearly on the reference order statistics at
    plotting positions (i - 0.5) / T and clamped to the reference range.
    """
    _check_columns(frame, spec)
    ref = spec.reference
    T = ref.shape[0]
    grid = (np.arange(1, T + 1) - 0.5) / T
    u = ndtr(frame.data)
    out = np.empty_like(frame.data)
    for j in range(frame.n_cols):
        out[:, j] = np.interp(u[:, j], grid, ref[:, j])
    return frame.with_data(out)


def inv_norm_cdf(u):
    """Inverse standard normal CDF, accurate to |Phi(x) - u| <= 1e-9."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("inv_norm_cdf requires 0 < u < 1")
    x = ndtri(u_arr)
    return float(x) if np.isscalar(u) or u_arr.ndim == 0 else x


# ---------------------------------------------------------------------------
# 16-bit binarization
# ---------------------------------------------------------------------------

_POW2 = (2 ** np.arange(15, -1, -1)).astype(float)  # big-endian bit weights


def fit_binarize16(frame: SeriesFrame, epsilon: float | None = None) -> TransformSpec:
    """Fit 16-bit encoding bounds.

    Bounds are min - epsilon / max + epsilon.  When ``epsilon`` is omitted it
    defaults to 1e-6 * (max - min) so later values near the fitted bounds
    stay in range; pass 0.0 to pin the bounds to the data exactly.
    """
    lo = frame.data.min(axis=0)
    hi = frame.data.max(axis=0)
    for j, (a, b) in enumerate(zip(lo, hi)):
        if not b > a:
            raise ConstantColumn(f"column {frame.columns[j]!r} is constant")
    if epsilon is None:
        eps = float(np.max(hi - lo)) * 1e-6
    else:
        eps = float(epsilon)
        if eps < 0:
            raise DomainError("epsilon must be >= 0")
    return TransformSpec("binarize16", frame.columns, lo=lo - eps, hi=hi + eps, epsilon=eps)


def binarize16(frame: SeriesFrame, spec: TransformSpec) -> np.ndarray:
    """Encode each value as 16 big-endian bits; columns are concatenated.

    x maps to int(65535 * (x - x_min) / (x_max - x_min)), then to its 16-bit
    binary expansion with the most significant bit first.  Output shape is
    (T, 16 * d), dtype uint8.
    """
    _check_columns(frame, spec)
    x = frame.data
    if np.any(x < spec.lo) or np.any(x > spec.hi):
        raise OutOfBounds("value outside the fitted binarization bounds")
    scaled = 65535.0 * (x - spec.lo) / (spec.hi - spec.lo)
    ints = scaled.astype(np.uint32)  # truncation toward zero, values >= 0
    T, d = x.shape
    bits = np.empty((T, d, 16), dtype=np.uint8)
    for k in range(16):
        bits[:, :, k] = (ints >> (15 - k)) & 1
    return bits.reshape(T, 16 * d)


def debinarize16(bits: np.ndarray, spec: TransformSpec) -> SeriesFrame:
    """Decode a (T, 16 * d) bit matrix back to real values."""
    bits = np.asarray(bits)
    d = len(spec.columns)
    if bits.ndim != 2 or bits.shape[1] != 16 * d:
        raise ShapeError(f"expected bit matrix of width {16 * d}, got {bits.shape}")
    ints = bits.reshape(bits.shape[0], d, 16).astype(float) @ _POW2
    data = spec.lo + ints * (spec.hi - spec.lo) / 65535.0
    return SeriesFrame(spec.columns, data)


# ---------------------------------------------------------------------------
# generic dispatch
# ---------------------------------------------------------------------------

def scaling_spec(columns, factor: float) -> TransformSpec:
    """A fixed affine transform multiplying each column by ``factor``.

    Expressed as a zscore spec with zero mean and std 1 / factor so it chains
    and inverts like any fitted transform.  Useful after normal scoring when
    a model with a unit conditional-variance floor would otherwise drown the
    signal (scaling the scores up makes that floor relatively small).
    """
    if factor <= 0:
        raise UsageError("post_scale (scaling factor) must be > 0")
    d = len(columns)
    return TransformSpec("zscore", tuple(columns), mean=np.zeros(d),
                         std=np.full(d, 1.0 / factor))


def fit_transform_spec(kind: str, frame: SeriesFrame) -> TransformSpec:
    if kind == "minmax":
        return fit_minmax(frame)
    if kind == "zscore":
        return fit_zscore(frame)
    if kind == "normal_score":
        return fit_normal_score(frame)
    if kind == "binarize16":
        return fit_binarize16(frame)
    raise InvalidValue(f"unknown transform kind {kind!r}")


def transform(frame: SeriesFrame, spec: TransformSpec) -> SeriesFrame:
    """Apply a fitted transform (binarize16 excluded: it yields a bit matrix)."""
    _check_columns(frame, spec)
    if spec.kind == "minmax":
        return frame.with_data((frame.data - spec.lo) / (spec.hi - spec.lo))
    if spec.kind == "zscore":
        return frame.with_data((frame.data - spec.mean) / spec.std)
    if spec.kind == "normal_score":
        return normal_score(frame, spec)
    raise InvalidValue(f"transform() does not apply to kind {spec.kind!r}")


def inverse_transform(frame: SeriesFrame, spec: TransformSpec) -> SeriesFrame:
    _check_columns(frame, spec)
    if spec.kind == "minmax":
        return frame.with_data(spec.lo + frame.data * (spec.hi - spec.lo))
    if spec.kind == "zscore":
        return frame.with_data(spec.mean + frame.data * spec.std)
    if spec.kind == "normal_score":
        return inverse_normal_score(frame, spec)
    raise InvalidValue(f"inverse_transform() does not apply to kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# price series helpers
# ---------------------------------------------------------------------------

def ewma_prices(prices: SeriesFrame, span_days: int) -> SeriesFrame:
    """Exponential weighted moving average with lambda = 2 / (span + 1).

    s_1 = p_1 and s_t = lambda * p_t + (1 - lambda) * s_{t-1}; span 1 is the
    identity.
    """
    if span_days < 1:
        raise DomainError("span_days must be >= 1")
    if prices.n_rows < 1:
        raise InvalidValue("need at least one row")
    lam = 2.0 / (span_days + 1.0)
    out = np.empty_like(prices.data)
    out[0] = prices.data[0]
    for t in range(1, prices.n_rows):
        out[t] = lam * prices.data[t] + (1.0 - lam) * out[t - 1]
    return prices.with_data(out)


def returns_from_prices(prices: SeriesFrame) -> SeriesFrame:
    """Simple returns r_t = p_t / p_{t-1} - 1 (output has T - 1 rows)."""
    p = prices.data
    if np.any(p <= 0):
        raise InvalidValue("prices must be strictly positive")
    r = p[1:] / p[:-1] - 1.0
    index = prices.index[1:] if prices.index is not None else None
    return SeriesFrame(prices.columns, r, index)


def prices_from_returns(returns: SeriesFrame, p0) -> SeriesFrame:
    """Rebuild price levels from simple returns and initial prices ``p0``."""
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), (returns.n_cols,))
    if np.any(p0 <= 0):
        raise InvalidValue("initial prices must be strictly positive")
    levels = p0 * np.cumprod(1.0 + returns.data, axis=0)
    return SeriesFrame(returns.columns, np.vstack([p0, levels]))
