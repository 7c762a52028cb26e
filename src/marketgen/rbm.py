"""Restricted Boltzmann machines: Bernoulli, Gaussian-Bernoulli, conditional.

The three kinds share one parameter container.  ``bernoulli`` models binary
vectors with energy -a.v - b.h - v.W.h; ``gaussian`` replaces the visible
term by sum (v_i - a_i)^2 / (2 sigma_i^2) and couples through v_i / sigma_i^2;
``conditional`` is the gaussian kind with biases shifted linearly by a lagged
history window c (a~ = a + Q^T c, b~ = b + P^T c), which captures temporal
dependence.

Training uses k-step contrastive divergence.  ``cd_k_gradient`` returns the
estimate in descent orientation (reconstruction term minus data term); the
update theta <- theta - lr * grad therefore walks uphill in likelihood.  Its
expectation for k -> infinity is the negative of ``exact_loglik_gradient``,
which exposes the exact ascent gradient for small models by enumeration.

One block Gibbs kernel runs every chain in ``GibbsWorkspace`` buffers:
training reuses one workspace across ``cd_k_gradient`` batches, while
``gibbs_chain`` (under ``sample`` and ``generate_series``) makes one per call.

Trained models are immutable and shareable; every stochastic function takes
an explicit RNG so independent runs can own independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from scipy.special import logsumexp

from .datagen import rng_from
from .errors import (
    DivergedError,
    EmptyBatch,
    InvalidValue,
    MarketGenError,
    ShapeError,
    TooLarge,
    UsageError,
)
from .frames import SeriesFrame
from .mathutil import sigmoid
from .preprocess import TransformSpec, binarize16, debinarize16

RBM_KINDS = ("bernoulli", "gaussian", "conditional")


@dataclass(frozen=True)
class RbmModel:
    kind: str
    m: int
    n: int
    a: np.ndarray
    b: np.ndarray
    W: np.ndarray
    sigma: np.ndarray | None = None
    d: int = 0
    Q: np.ndarray | None = None  # (d*m, m) history -> visible-bias weights
    P: np.ndarray | None = None  # (d*m, n) history -> hidden-bias weights
    transform: TransformSpec | None = None

    def __post_init__(self):
        if self.kind not in RBM_KINDS:
            raise InvalidValue(f"unknown RBM kind {self.kind!r}")
        arrays = {"a": (self.m,), "b": (self.n,), "W": (self.m, self.n)}
        if self.kind != "bernoulli":
            arrays["sigma"] = (self.m,)
        if self.kind == "conditional":
            if self.d < 1:
                raise ShapeError("conditional RBM needs lag count d >= 1")
            arrays["Q"] = (self.d * self.m, self.m)
            arrays["P"] = (self.d * self.m, self.n)
        for name, shape in arrays.items():
            arr = getattr(self, name)
            if arr is None:
                raise ShapeError(f"{name} is required for kind {self.kind!r}")
            arr = np.ascontiguousarray(arr, dtype=float)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidValue(f"{name} contains non-finite values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.sigma is not None and np.any(self.sigma <= 0):
            raise InvalidValue("sigma must be positive")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 500
    epochs: int = 100
    cd_k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.cd_k < 1:
            raise UsageError("cd_k must be >= 1")
        if self.epochs < 0:
            raise UsageError("epochs must be >= 0")


@dataclass(frozen=True)
class CdGradient:
    da: np.ndarray
    db: np.ndarray
    dW: np.ndarray
    dQ: np.ndarray | None = None
    dP: np.ndarray | None = None

    def norm(self) -> float:
        parts = [self.da, self.db, self.dW]
        parts += [p for p in (self.dQ, self.dP) if p is not None]
        return float(np.sqrt(sum(float(np.sum(p * p)) for p in parts)))


def init_rbm(kind: str, m: int, n: int, d: int = 0, rng=0,
             transform: TransformSpec | None = None) -> RbmModel:
    """Fresh model: W ~ N(0, 0.01^2), zero biases, unit sigma.

    Small weights keep early Gibbs chains mixing.
    """
    rng = rng_from(rng)
    W = 0.01 * rng.standard_normal((m, n))
    sigma = None if kind == "bernoulli" else np.ones(m)
    Q = P = None
    if kind == "conditional":
        Q = np.zeros((d * m, m))
        P = np.zeros((d * m, n))
    return RbmModel(kind, m, n, np.zeros(m), np.zeros(n), W,
                    sigma=sigma, d=d, Q=Q, P=P, transform=transform)


def _as_batch(x, width: int, name: str):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeError(f"{name} must have width {width}, got shape {arr.shape}")
    return arr, single


# ---------------------------------------------------------------------------
# energies and conditionals
# ---------------------------------------------------------------------------

def energy_bernoulli(model: RbmModel, v, h):
    """E(v, h) = -a.v - b.h - v.W.h for binary configurations."""
    if model.kind != "bernoulli":
        raise InvalidValue("energy_bernoulli requires a bernoulli model")
    v, v_single = _as_batch(v, model.m, "v")
    h, h_single = _as_batch(h, model.n, "h")
    if len(v) != len(h):
        raise ShapeError("v and h batches differ in length")
    e = -(v @ model.a) - (h @ model.b) - np.einsum("si,ij,sj->s", v, model.W, h)
    return float(e[0]) if (v_single and h_single) else e


def energy_gaussian(model: RbmModel, v, h, c=None):
    """Gaussian-Bernoulli energy; for the conditional kind pass the history c."""
    if model.kind == "bernoulli":
        raise InvalidValue("energy_gaussian requires a gaussian or conditional model")
    v, v_single = _as_batch(v, model.m, "v")
    h, h_single = _as_batch(h, model.n, "h")
    a, b = _effective_biases(model, c, len(v))
    s2 = model.sigma ** 2
    e = np.sum((v - a) ** 2 / (2.0 * s2), axis=1)
    e -= np.sum(b * h, axis=1)
    e -= np.einsum("si,ij,sj->s", v / s2, model.W, h)
    return float(e[0]) if (v_single and h_single) else e


def dynamic_biases(model: RbmModel, c):
    """Shifted biases (a + Q^T c, b + P^T c) for a history vector c."""
    if model.kind != "conditional":
        raise InvalidValue("dynamic_biases requires a conditional model")
    c, single = _as_batch(c, model.d * model.m, "c")
    a, b = _effective_biases(model, c, len(c))
    return (a[0], b[0]) if single else (a, b)


def _effective_biases(model: RbmModel, c, batch_len: int):
    if model.kind == "conditional":
        if c is None:
            raise ShapeError("conditional model needs a history vector c")
        c, _ = _as_batch(c, model.d * model.m, "c")
        if len(c) == 1 and batch_len > 1:
            c = np.broadcast_to(c, (batch_len, c.shape[1]))
        if len(c) != batch_len:
            raise ShapeError("history batch length does not match v batch length")
        return model.a + c @ model.Q, model.b + c @ model.P
    return model.a, model.b


def prob_h_given_v(model: RbmModel, v, c=None):
    """P(h_j = 1 | v): sigmoid of b_j + sum_i w_ij v_i (over sigma_i^2 for
    real-valued visibles)."""
    v, single = _as_batch(v, model.m, "v")
    _, b = _effective_biases(model, c, len(v))
    scaled = v if model.kind == "bernoulli" else v / model.sigma ** 2
    p = sigmoid(b + scaled @ model.W)
    return p[0] if single else p


def prob_v_given_h(model: RbmModel, h, c=None):
    """P(v_i = 1 | h) = sigmoid(a_i + sum_j w_ij h_j) (bernoulli kind)."""
    if model.kind != "bernoulli":
        raise InvalidValue("prob_v_given_h applies to the bernoulli kind; "
                           "use sample_v_given_h for real-valued visibles")
    h, single = _as_batch(h, model.n, "h")
    p = sigmoid(model.a + h @ model.W.T)
    return p[0] if single else p


def visible_mean(model: RbmModel, h, c=None):
    """Conditional mean of real-valued visibles given h (and history c)."""
    h, single = _as_batch(h, model.n, "h")
    a, _ = _effective_biases(model, c, len(h))
    mean = a + h @ model.W.T
    return mean[0] if single else mean


def sample_v_given_h(model: RbmModel, h, rng, c=None):
    """Draw V | h ~ N(a_i + sum_j w_ij h_j, sigma_i^2)."""
    if model.kind == "bernoulli":
        raise InvalidValue("sample_v_given_h applies to real-valued visibles")
    rng = rng_from(rng)
    h, single = _as_batch(h, model.n, "h")
    mean = visible_mean(model, h, c)
    v = mean + model.sigma * rng.standard_normal(mean.shape)
    return v[0] if single else v


# ---------------------------------------------------------------------------
# block Gibbs sampling and contrastive divergence
# ---------------------------------------------------------------------------

class GibbsWorkspace:
    """Preallocated buffers for the block Gibbs loop.

    Mini-batch training runs hundreds of thousands of CD steps on arrays big
    enough that fresh temporaries would be served by mmap each call; reusing
    one workspace across batches removes that cost.  One workspace belongs to
    one loop (not thread-safe).
    """

    def __init__(self, max_batch: int, m: int, n: int):
        self.max_batch = max_batch
        self.p0 = np.empty((max_batch, n))
        self.p = np.empty((max_batch, n))
        self.u = np.empty((max_batch, n))
        self.h = np.empty((max_batch, n))
        self.v = np.empty((max_batch, m))
        self.vm = np.empty((max_batch, m))
        self.scaled = np.empty((max_batch, m))


def _hidden_probs_into(model, v, b_eff, s2, out, ws):
    """out <- sigmoid(b_eff + (v / sigma^2) W), allocation-free."""
    if s2 is None:
        np.dot(v, model.W, out=out)
    else:
        np.divide(v, s2, out=ws.scaled[: len(v)])
        np.dot(ws.scaled[: len(v)], model.W, out=out)
    np.add(out, b_eff, out=out)
    sigmoid(out, out=out)


def _gibbs_into(model, v0, k: int, rng, a_eff, b_eff, ws: GibbsWorkspace):
    """The block Gibbs kernel: k alternations from the (N, m) batch v0.

    Leaves P(h | v0) in ``ws.p0`` and returns (v_k, h_k, P(h | v_k)) as
    views of the workspace; for k = 0 that is (v0, unset h, P(h | v0)).
    """
    N = len(v0)
    s2 = None if model.kind == "bernoulli" else model.sigma ** 2
    p0, p, u, h = ws.p0[:N], ws.p[:N], ws.u[:N], ws.h[:N]
    vk, vis = ws.v[:N], ws.vm[:N]
    _hidden_probs_into(model, v0, b_eff, s2, p0, ws)
    v, p_cur = v0, p0
    for _ in range(k):
        rng.random(out=u)
        np.less(u, p_cur, out=h)
        np.dot(h, model.W.T, out=vis)
        np.add(vis, a_eff, out=vis)
        if s2 is None:
            sigmoid(vis, out=vis)
            rng.random(out=vk)
            np.less(vk, vis, out=vk)
        else:
            rng.standard_normal(out=vk)
            np.multiply(vk, model.sigma, out=vk)
            np.add(vk, vis, out=vk)
        _hidden_probs_into(model, vk, b_eff, s2, p, ws)
        v, p_cur = vk, p
    return v, h, p_cur


def gibbs_chain(model: RbmModel, v0, k: int, rng, c=None):
    """Run k alternations h ~ P(h|v), v ~ P(v|h) of block Gibbs sampling.

    Accepts a single visible vector or a batch of chains.  Returns the final
    visible state, the final hidden state and P(h | final visible state),
    which is what the contrastive-divergence estimate conditions on; all
    three are 1-D for a single vector.  Each call runs in its own workspace,
    so the returned arrays are never reused.
    """
    if k < 1:
        raise MarketGenError("gibbs_chain needs k >= 1")
    rng = rng_from(rng)
    v0, single = _as_batch(v0, model.m, "v0")
    N = len(v0)
    a_eff, b_eff = _effective_biases(model, c, N)
    v, h, p = _gibbs_into(model, v0, k, rng, a_eff, b_eff,
                          GibbsWorkspace(N, model.m, model.n))
    return (v[0], h[0], p[0]) if single else (v, h, p)


def cd_k_gradient(model: RbmModel, batch, k: int, rng, conditions=None,
                  workspace: GibbsWorkspace | None = None) -> CdGradient:
    """k-step contrastive-divergence gradient estimate, averaged over a batch.

    Descent orientation: each entry is the reconstruction statistic minus the
    data statistic, e.g. dW_ij = mean[P(h_j|v^(k)) v_i^(k) - P(h_j|v^(0)) v_i^(0)].
    Hidden units enter through their conditional probabilities given the
    chain's final visible state rather than through sampled values.

    ``conditions`` carries the per-sample history vectors for the conditional
    kind.  Sigma is not trained: z-scored data lets it stay fixed at 1.
    ``workspace`` lets a training loop reuse buffers across batches.
    """
    batch = np.asarray(batch, dtype=float)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[0] == 0:
        raise EmptyBatch("cd_k_gradient needs a nonempty batch")
    if batch.shape[1] != model.m:
        raise ShapeError(f"batch width {batch.shape[1]}, model has m={model.m}")
    N = batch.shape[0]
    c = None
    if model.kind == "conditional":
        if conditions is None:
            raise ShapeError("conditional kind needs per-sample conditions")
        c, _ = _as_batch(conditions, model.d * model.m, "conditions")
        if len(c) != N:
            raise ShapeError("conditions batch length does not match")
    rng = rng_from(rng)
    if workspace is None or workspace.max_batch < N:
        workspace = GibbsWorkspace(N, model.m, model.n)
    a_eff, b_eff = _effective_biases(model, c, N)
    # P(h | v) at the start of the chain, left in p0, doubles as the data term
    v_cur, _, pk = _gibbs_into(model, batch, k, rng, a_eff, b_eff, workspace)
    p0, u, vis_tmp = workspace.p0[:N], workspace.u[:N], workspace.vm[:N]

    np.subtract(pk, p0, out=u)  # u = reconstruction minus data hidden probs
    db = u.mean(axis=0)
    np.subtract(v_cur, batch, out=vis_tmp)
    if model.kind == "bernoulli":
        da = vis_tmp.mean(axis=0)
        dW = (v_cur.T @ pk - batch.T @ p0) / N
        return CdGradient(da, db, dW)

    s2 = model.sigma ** 2
    np.divide(vis_tmp, s2, out=vis_tmp)  # (v^k - v^0) / sigma^2
    da = vis_tmp.mean(axis=0)
    dQ = dP = None
    if model.kind == "conditional":
        dQ = c.T @ vis_tmp / N
        dP = c.T @ u / N
    scaled = workspace.scaled[:N]
    np.divide(v_cur, s2, out=scaled)
    dW = scaled.T @ pk
    np.divide(batch, s2, out=scaled)
    dW -= scaled.T @ p0
    dW /= N
    return CdGradient(da, db, dW, dQ=dQ, dP=dP)


# ---------------------------------------------------------------------------
# exact oracles for small bernoulli models
# ---------------------------------------------------------------------------

_ENUM_CAP = 20


def _check_enumerable(model: RbmModel):
    if model.kind != "bernoulli":
        raise InvalidValue("exact enumeration applies to the bernoulli kind")
    if model.m + model.n > _ENUM_CAP:
        raise TooLarge(f"m + n = {model.m + model.n} exceeds enumeration cap {_ENUM_CAP}")


def all_binary_states(width: int) -> np.ndarray:
    ints = np.arange(2 ** width, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(width)) & 1).astype(float)


def _free_energies(model: RbmModel, v: np.ndarray) -> np.ndarray:
    """log sum_h exp(-E(v, h)) = a.v + sum_j softplus(b_j + (v W)_j)."""
    gamma = model.b + v @ model.W
    return v @ model.a + np.sum(np.logaddexp(0.0, gamma), axis=1)


def log_partition(model: RbmModel) -> float:
    _check_enumerable(model)
    return float(logsumexp(_free_energies(model, all_binary_states(model.m))))


def exact_visible_distribution(model: RbmModel):
    """All 2^m visible states and their exact probabilities P(v)."""
    _check_enumerable(model)
    states = all_binary_states(model.m)
    f = _free_energies(model, states)
    probs = np.exp(f - logsumexp(f))
    return states, probs


def exact_loglik(model: RbmModel, data) -> float:
    """Mean log-likelihood of binary observations by full enumeration."""
    _check_enumerable(model)
    v = np.asarray(data, dtype=float)
    if v.ndim == 1:
        v = v[None, :]
    if v.shape[1] != model.m:
        raise ShapeError(f"data width {v.shape[1]}, model has m={model.m}")
    return float(_free_energies(model, v).mean() - log_partition(model))


def exact_loglik_gradient(model: RbmModel, data) -> CdGradient:
    """Exact gradient of the mean log-likelihood (ascent orientation).

    Each entry is the data statistic minus the exact model expectation, e.g.
    dW_ij = mean_data[P(h_j|v) v_i] - sum_v' P(v') P(h_j|v') v'_i.
    """
    _check_enumerable(model)
    v = np.asarray(data, dtype=float)
    if v.ndim == 1:
        v = v[None, :]
    N = v.shape[0]
    p_data = prob_h_given_v(model, v)
    states, probs = exact_visible_distribution(model)
    p_model = prob_h_given_v(model, states)

    da = v.mean(axis=0) - probs @ states
    db = p_data.mean(axis=0) - probs @ p_model
    dW = v.T @ p_data / N - states.T @ (probs[:, None] * p_model)
    return CdGradient(da, db, dW)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def lagged_pairs(data: np.ndarray, d: int):
    """Split rows into (current observation, flattened d-row history) pairs.

    The history stacks the most recent lag first: c_t = (v_{t-1}, ..., v_{t-d}).
    """
    data = np.asarray(data, dtype=float)
    T = data.shape[0]
    if T <= d:
        raise ShapeError(f"need more than d={d} rows, got {T}")
    V = data[d:]
    C = np.stack([data[d - 1 - lag:T - 1 - lag] for lag in range(d)], axis=1)
    return V, C.reshape(T - d, -1)


def history_vector(window: np.ndarray) -> np.ndarray:
    """Flatten a (d, m) window (rows oldest to newest) into c with the most
    recent row first."""
    window = np.asarray(window, dtype=float)
    return window[::-1].reshape(-1)


def train(model: RbmModel, data, config: TrainConfig):
    """Mini-batch CD-k training.

    ``data`` must already live in the model's input domain: a bit matrix for
    the bernoulli kind, standardized reals for the gaussian kind, and the
    plain (T, m) series for the conditional kind, from which lagged
    (observation, history) pairs are built internally.

    Deterministic given ``config.seed``.  Returns (trained model, trace) where
    the trace holds one mean-field single-step reconstruction error per epoch.
    """
    rng = rng_from(config.seed)
    if isinstance(data, SeriesFrame):
        data = data.data
    data = np.asarray(data, dtype=float)
    conditions = None
    if model.kind == "conditional":
        data, conditions = lagged_pairs(data, model.d)
    if data.shape[1] != model.m:
        raise ShapeError(f"data width {data.shape[1]}, model has m={model.m}")
    if data.shape[0] == 0:
        raise EmptyBatch("training data is empty")

    # mutable working copy; the frozen model is rebuilt once at the end
    work = SimpleNamespace(kind=model.kind, m=model.m, n=model.n, d=model.d,
                           a=model.a.copy(), b=model.b.copy(), W=model.W.copy(),
                           sigma=model.sigma,  # fixed: CD-k does not train it
                           Q=None if model.Q is None else model.Q.copy(),
                           P=None if model.P is None else model.P.copy())
    param_names = ["a", "b", "W"]
    if model.kind == "conditional":
        param_names += ["Q", "P"]

    trace = []
    N = data.shape[0]
    lr = config.learning_rate
    ws = GibbsWorkspace(min(config.batch_size, N), model.m, model.n)
    for epoch in range(config.epochs):
        order = rng.permutation(N)
        recon_err = None
        for start in range(0, N, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = data[idx]
            cond = conditions[idx] if conditions is not None else None
            grad = cd_k_gradient(work, batch, config.cd_k, rng,
                                 conditions=cond, workspace=ws)
            work.a -= lr * grad.da
            work.b -= lr * grad.db
            work.W -= lr * grad.dW
            if grad.dQ is not None:
                work.Q -= lr * grad.dQ
            if grad.dP is not None:
                work.P -= lr * grad.dP
            if recon_err is None:  # estimate once per epoch, first batch
                recon_err = _reconstruction_error(work, batch, cond)
        for name in param_names:
            if not np.all(np.isfinite(getattr(work, name))):
                raise DivergedError(f"parameter {name} became non-finite", epoch)
        trace.append(recon_err)
    return replace(model, **{name: getattr(work, name) for name in param_names}), trace


def _reconstruction_error(model: RbmModel, batch: np.ndarray, cond) -> float:
    p_h = prob_h_given_v(model, batch, cond)
    if model.kind == "bernoulli":
        recon = sigmoid(model.a + p_h @ model.W.T)
    else:
        a_eff = _effective_biases(model, cond, len(batch))[0]
        recon = a_eff + p_h @ model.W.T
    return float(np.mean((batch - recon) ** 2))


# ---------------------------------------------------------------------------
# sampling and series generation
# ---------------------------------------------------------------------------

def sample(model: RbmModel, n_samples: int, gibbs_steps: int, rng) -> SeriesFrame:
    """Draw independent samples by running Gibbs chains from N(0, 1) noise.

    Bernoulli models binarize the (bound-clipped) noise through their embedded
    transform first and return debinarized real values; gaussian models return
    visible states in model space.
    """
    rng = rng_from(rng)
    if model.kind == "conditional":
        raise InvalidValue("use generate_series for the conditional kind")
    if model.kind == "bernoulli":
        spec = model.transform
        if spec is None or spec.kind != "binarize16":
            raise InvalidValue("bernoulli sampling needs an embedded binarize16 transform")
        d = len(spec.columns)
        noise = rng.standard_normal((n_samples, d))
        noise = np.clip(noise, spec.lo, spec.hi)
        v0 = binarize16(SeriesFrame(spec.columns, noise), spec).astype(float)
        vk, _, _ = gibbs_chain(model, v0, gibbs_steps, rng)
        return debinarize16(vk, spec)
    v0 = rng.standard_normal((n_samples, model.m))
    vk, _, _ = gibbs_chain(model, v0, gibbs_steps, rng)
    columns = (model.transform.columns if model.transform is not None
               else tuple(f"x{j + 1}" for j in range(model.m)))
    return SeriesFrame(columns, vk)


def generate_series(model: RbmModel, seed_window, horizon: int,
                    gibbs_steps: int, rng) -> SeriesFrame:
    """Iteratively extend a series with a conditional model.

    Each step conditions on the last d rows (seed_window rows are ordered
    oldest to newest), Gibbs-samples one new observation from noise, appends
    it and slides the window.  Output stays in model space; the caller
    inverts any preprocessing.
    """
    if model.kind != "conditional":
        raise InvalidValue("generate_series requires a conditional model")
    rng = rng_from(rng)
    window = np.array(seed_window, dtype=float)
    if window.shape != (model.d, model.m):
        raise ShapeError(f"seed_window must be {(model.d, model.m)}, got {window.shape}")
    columns = (model.transform.columns if model.transform is not None
               else tuple(f"x{j + 1}" for j in range(model.m)))
    out = np.empty((horizon, model.m))
    for t in range(horizon):
        c = history_vector(window)
        v0 = rng.standard_normal(model.m)
        v, _, _ = gibbs_chain(model, v0, gibbs_steps, rng, c)
        out[t] = v
        window = np.vstack([window[1:], v])
    return SeriesFrame(columns, out)
