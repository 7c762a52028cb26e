"""Synthetic dataset generators and seeded RNG streams.

The copula sampler reproduces a 4-dimensional benchmark with mixed marginals
(Gaussian mixture, Student t, two Gaussians) joined by a Gaussian copula.
``ar1_ewma_process`` produces cross-correlated autocorrelated return series
for temporal-fidelity experiments.

Marginal location/scale arguments follow the mean / standard deviation
convention (normal(0, 2) has std 2, not variance 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, ndtr, ndtri

from .errors import DomainError, NotPositiveDefinite, ShapeError, UsageError
from .frames import SeriesFrame
from .preprocess import ewma_prices, prices_from_returns, returns_from_prices


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """Deterministic substream (master_seed, index) of a splittable RNG.

    Seed-sequence spawning keys each index to an independent generator state;
    replication r conventionally uses stream index r.
    """

    master_seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.index,))
        return np.random.Generator(np.random.PCG64(seq))


def rng_from(seed_or_rng) -> np.random.Generator:
    """Accept an RngStream, an int master seed, or a ready Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, RngStream):
        return seed_or_rng.generator()
    return RngStream(int(seed_or_rng)).generator()


# ---------------------------------------------------------------------------
# marginal distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalSpec:
    """One marginal: ``normal(mu, sigma)``, ``student_t(nu)`` or a Gaussian
    mixture with component means/stds and weights summing to one."""

    kind: str
    mu: float = 0.0
    sigma: float = 1.0
    nu: float = 4.0
    weights: tuple = ()
    mus: tuple = ()
    sigmas: tuple = ()

    def __post_init__(self):
        if self.kind == "normal":
            if self.sigma <= 0:
                raise UsageError("normal marginal needs sigma > 0")
        elif self.kind == "student_t":
            if self.nu <= 2:
                raise UsageError("student_t marginal needs nu > 2")
        elif self.kind == "gaussian_mixture":
            w = np.asarray(self.weights, dtype=float)
            if len(w) == 0 or len(w) != len(self.mus) or len(w) != len(self.sigmas):
                raise UsageError("mixture weights/mus/sigmas must have equal length")
            if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
                raise UsageError("mixture weights must be nonnegative and sum to 1")
            if any(s <= 0 for s in self.sigmas):
                raise UsageError("mixture component sigmas must be > 0")
        else:
            raise UsageError(f"unknown marginal kind {self.kind!r}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "normal":
            return ndtr((x - self.mu) / self.sigma)
        if self.kind == "student_t":
            return _student_t_cdf(x, self.nu)
        w = np.asarray(self.weights)
        parts = [wk * ndtr((x - mk) / sk) for wk, mk, sk in zip(w, self.mus, self.sigmas)]
        return sum(parts)


def _student_t_cdf(x, nu: float):
    """Student t CDF through the regularized incomplete beta function."""
    x = np.asarray(x, dtype=float)
    tail = 0.5 * betainc(nu / 2.0, 0.5, nu / (nu + x * x))
    return np.where(x >= 0, 1.0 - tail, tail)


def marginal_quantile(spec: MarginalSpec, u: float) -> float:
    """Quantile F^{-1}(u) of one marginal.

    Normal marginals use the closed form.  Student t and mixture quantiles
    are found by bisection on the closed-form CDF, tightened until
    |F(x) - u| <= 1e-10; one code path serves every nu > 2.
    """
    if not 0.0 < u < 1.0:
        raise DomainError("marginal_quantile requires 0 < u < 1")
    if spec.kind == "normal":
        return spec.mu + spec.sigma * float(ndtri(u))
    lo, hi = -1.0, 1.0
    while spec.cdf(lo) > u:
        lo *= 2.0
    while spec.cdf(hi) < u:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = float(spec.cdf(mid))
        if abs(f - u) <= 1e-10:
            return mid
        if f < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def _marginal_ppf(spec: MarginalSpec, u: np.ndarray) -> np.ndarray:
    if spec.kind == "normal":
        return spec.mu + spec.sigma * ndtri(u)
    return np.array([marginal_quantile(spec, ui) for ui in u])


# ---------------------------------------------------------------------------
# Gaussian copula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CopulaSpec:
    d: int
    R: np.ndarray
    marginals: tuple

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (self.d, self.d):
            raise ShapeError(f"R must be {self.d}x{self.d}, got {R.shape}")
        if not np.allclose(R, R.T, atol=1e-12):
            raise NotPositiveDefinite("R must be symmetric")
        if not np.allclose(np.diag(R), 1.0, atol=1e-12):
            raise NotPositiveDefinite("R must have unit diagonal")
        if len(self.marginals) != self.d:
            raise ShapeError("need one marginal per dimension")
        R = R.copy()
        R.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "marginals", tuple(self.marginals))

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("copula correlation matrix is not positive definite") from None


def benchmark_copula_spec() -> CopulaSpec:
    """The 4-D benchmark: mixture, Student t(4), and two normal(0, 2)
    marginals with copula correlations (1,2) = -0.60, (3,4) = 0.50,
    (1,4) = 0.30 and (2,4) = -0.20."""
    R = np.array([
        [1.0, -0.6, 0.0, 0.3],
        [-0.6, 1.0, 0.0, -0.2],
        [0.0, 0.0, 1.0, 0.5],
        [0.3, -0.2, 0.5, 1.0],
    ])
    marginals = (
        MarginalSpec("gaussian_mixture", weights=(0.5, 0.5), mus=(-1.5, 2.0), sigmas=(2.0, 1.0)),
        MarginalSpec("student_t", nu=4.0),
        MarginalSpec("normal", mu=0.0, sigma=2.0),
        MarginalSpec("normal", mu=0.0, sigma=2.0),
    )
    return CopulaSpec(4, R, marginals)


def sample_copula(spec: CopulaSpec, n: int, rng) -> SeriesFrame:
    """Draw n rows: Z ~ N(0, R) by Cholesky, U = Phi(Z), X_i = F_i^{-1}(U_i)."""
    rng = rng_from(rng)
    L = spec.cholesky()
    z = rng.standard_normal((n, spec.d)) @ L.T
    u = ndtr(z)
    # keep u strictly inside (0, 1) for the quantile maps
    tiny = np.finfo(float).tiny
    u = np.clip(u, tiny, 1.0 - 1e-16)
    cols = np.empty((n, spec.d))
    for j, marginal in enumerate(spec.marginals):
        cols[:, j] = _marginal_ppf(marginal, u[:, j])
    names = tuple(f"x{j + 1}" for j in range(spec.d))
    return SeriesFrame(names, cols)


# ---------------------------------------------------------------------------
# autocorrelated test process
# ---------------------------------------------------------------------------

def ar1_ewma_process(
    d: int,
    phi: float,
    corr,
    T: int,
    ewma_span: int = 1,
    rng=0,
    scale: float = 0.01,
    burn_in: int = 100,
) -> SeriesFrame:
    """Cross-correlated AR(1) returns, optionally EWMA-smoothed.

    Gaussian innovations with correlation ``corr`` and std ``scale`` drive an
    AR(1) recursion x_t = phi * x_{t-1} + eps_t.  The implied price path is
    smoothed by an EWMA of span ``ewma_span`` and returns are recomputed, the
    same smoothing used to reinforce autocorrelation in real daily returns.
    ``ewma_span`` 1 returns the raw AR(1) series.
    """
    if not abs(phi) < 1:
        raise UsageError("ar1_ewma_process requires |phi| < 1")
    corr = np.asarray(corr, dtype=float)
    if corr.shape != (d, d):
        raise ShapeError(f"corr must be {d}x{d}")
    try:
        L = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("innovation correlation matrix is not positive definite") from None
    rng = rng_from(rng)
    eps = scale * (rng.standard_normal((T + burn_in, d)) @ L.T)
    x = np.empty_like(eps)
    x[0] = eps[0]
    for t in range(1, len(x)):
        x[t] = phi * x[t - 1] + eps[t]
    names = tuple(f"x{j + 1}" for j in range(d))
    raw = SeriesFrame(names, x[burn_in:])
    if ewma_span == 1:
        return raw
    prices = prices_from_returns(raw, np.ones(d))
    smoothed = ewma_prices(prices, ewma_span)
    return returns_from_prices(smoothed)
