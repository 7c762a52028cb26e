"""Adversarial training loops: minimax GAN, WGAN (gradient penalty or weight
clipping) and the conditional deep convolutional WGAN (CDCWGAN).

Generator and critic are plain :class:`~marketgen.neuralnet.LayerStack`
networks.  Conditioning is always realized by input concatenation: labels or
flattened history windows are appended to the noise vector for the generator
and to the sample for the critic; the CDCWGAN critic instead sees history and
generated window concatenated along the time axis.

Training data must already be scaled to the critic's input range (MinMax to
[0, 1] when the generator head is a sigmoid).  Everything is deterministic
given the config seed; the monitored quantity in Wasserstein modes is the
distance estimate -loss_d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neuralnet as nn
from .datagen import rng_from
from .errors import (
    DivergedError,
    DomainError,
    InvalidValue,
    ShapeError,
    TooFewRows,
    UsageError,
)
from .frames import SeriesFrame

GAN_MODES = ("minimax", "wgan_gp", "wgan_clip")


@dataclass(frozen=True)
class GanConfig:
    mode: str = "wgan_gp"
    noise_dim: int = 100
    lambda_gp: float = 10.0
    clip_c: float = 0.01
    n_critic: int = 5
    learning_rate: float = 1e-4
    batch_size: int = 500
    epochs: int = 1
    seed: int = 0
    rmsprop_rho: float = 0.9
    non_saturating: bool = True  # minimax generator loss variant
    # exponential moving average of generator weights; adversarial training
    # orbits its equilibrium, and the time-averaged generator sits near the
    # center of the orbit.  0 disables averaging.
    gen_ema: float = 0.0

    def __post_init__(self):
        if self.mode not in GAN_MODES:
            raise UsageError(f"unknown GAN mode {self.mode!r}")
        if self.mode == "wgan_gp" and self.lambda_gp <= 0:
            raise UsageError("lambda_gp must be > 0 in wgan_gp mode")
        if self.mode == "wgan_clip" and self.clip_c <= 0:
            raise UsageError("clip_c must be > 0 in wgan_clip mode")
        if self.n_critic < 1:
            raise UsageError("n_critic must be >= 1")
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.epochs < 0:
            raise UsageError("epochs must be >= 0")
        if not 0.0 <= self.gen_ema < 1.0:
            raise UsageError("gen_ema must be in [0, 1)")


@dataclass(frozen=True)
class ConditionSpec:
    """What each sample is conditioned on.

    ``none``            unconditional
    ``label_vector``    a label of ``label_dim`` entries per sample
    ``history_window``  the previous n_h rows; the generated block spans n_t
                        rows.  ``layout`` "flat" concatenates everything into
                        vectors (dense networks); "time" stacks history and
                        window along the time axis for convolutional critics.

    History windows are flattened in time-major order (oldest row first) when
    forming generator inputs.
    """

    kind: str = "none"
    n_h: int = 0
    n_x: int = 0
    n_t: int = 1
    label_dim: int = 0
    layout: str = "flat"

    def __post_init__(self):
        if self.kind not in ("none", "label_vector", "history_window"):
            raise InvalidValue(f"unknown condition kind {self.kind!r}")
        if self.kind == "history_window" and (self.n_h < 1 or self.n_x < 1 or self.n_t < 1):
            raise InvalidValue("history_window needs n_h, n_x, n_t >= 1")
        if self.layout not in ("flat", "time"):
            raise InvalidValue(f"unknown layout {self.layout!r}")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def minimax_losses(critic_out_real, critic_out_fake, non_saturating: bool = False):
    """Cross-entropy losses of the original two-player game.

    loss_d = -mean log D(x1) - mean log(1 - D(x0)) is minimized by the
    discriminator; the returned generator loss is mean log(1 - D(x0)), or
    -mean log D(x0) with ``non_saturating`` (the two-stage heuristic that
    keeps gradients alive early in training).
    """
    p1 = np.asarray(critic_out_real, dtype=float).ravel()
    p0 = np.asarray(critic_out_fake, dtype=float).ravel()
    if np.any(p1 <= 0) or np.any(p1 >= 1) or np.any(p0 <= 0) or np.any(p0 >= 1):
        raise DomainError("minimax losses need discriminator outputs in (0, 1)")
    loss_d = -float(np.mean(np.log(p1))) - float(np.mean(np.log1p(-p0)))
    if non_saturating:
        loss_g = -float(np.mean(np.log(p0)))
    else:
        loss_g = float(np.mean(np.log1p(-p0)))
    return loss_d, loss_g


def wgan_losses(critic_out_real, critic_out_fake):
    """Kantorovich-Rubinstein losses: loss_d = mean D(x0) - mean D(x1)
    (minimized), loss_g = -mean D(x0).  -loss_d estimates the Wasserstein
    distance."""
    s1 = float(np.mean(critic_out_real))
    s0 = float(np.mean(critic_out_fake))
    return s0 - s1, -s0


def gp_term(critic: nn.LayerStack, x_real_batch, x_fake_batch, rng,
            lambda_gp: float = 10.0):
    """Gradient penalty lambda * mean (||grad_x D(x2)|| - 1)^2 on per-pair
    uniform interpolates x2 = alpha x1 + (1 - alpha) x0.

    Returns (penalty value, parameter gradients of the penalty).
    """
    rng = rng_from(rng)
    x1 = np.asarray(x_real_batch, dtype=float)
    x0 = np.asarray(x_fake_batch, dtype=float)
    if x1.shape != x0.shape:
        raise ShapeError("real and fake batches must have the same shape")
    alpha = rng.random((x1.shape[0],) + (1,) * (x1.ndim - 1))
    x2 = alpha * x1 + (1.0 - alpha) * x0
    res = nn.grad_norm_penalty(critic, x2)
    return lambda_gp * res.penalty, [lambda_gp * g for g in res.grads]


# ---------------------------------------------------------------------------
# conditioning plumbing
# ---------------------------------------------------------------------------

def sliding_pairs(data: np.ndarray, n_h: int, n_t: int):
    """All (history, window) pairs: history rows [t - n_h, t), window rows
    [t, t + n_t).  Shapes (P, n_h, n_x) and (P, n_t, n_x)."""
    data = np.asarray(data, dtype=float)
    T = data.shape[0]
    if T < n_h + n_t:
        raise TooFewRows(f"need at least n_h + n_t = {n_h + n_t} rows, got {T}")
    starts = np.arange(n_h, T - n_t + 1)
    history = np.stack([data[t - n_h:t] for t in starts])
    window = np.stack([data[t:t + n_t] for t in starts])
    return history, window


class _Assembler:
    """Builds critic inputs from samples and conditions and routes critic
    input-gradients back to the generator output."""

    def __init__(self, condition: ConditionSpec, data, labels):
        self.condition = condition
        kind = condition.kind
        if kind == "none":
            self.x = np.asarray(data, dtype=float)
            self.cond = None
        elif kind == "label_vector":
            self.x = np.asarray(data, dtype=float)
            if labels is None:
                raise InvalidValue("label_vector conditioning needs labels")
            self.cond = np.asarray(labels, dtype=float)
            if self.cond.ndim == 1:
                self.cond = self.cond[:, None]
            if len(self.cond) != len(self.x):
                raise ShapeError("labels and data must align")
        else:
            history, window = sliding_pairs(data, condition.n_h, condition.n_t)
            self.cond = history.reshape(len(history), -1)  # time-major
            if condition.layout == "time":
                self.x = window
                self.history3d = history
            else:
                self.x = window.reshape(len(window), -1)
        self.n = len(self.x)

    def gen_input(self, noise, idx):
        if self.cond is None:
            return noise
        return np.concatenate([noise, self.cond[idx]], axis=1)

    def critic_input_real(self, idx):
        if self.condition.layout == "time":
            return np.concatenate([self.history3d[idx], self.x[idx]], axis=1)
        if self.cond is None:
            return self.x[idx]
        return np.concatenate([self.x[idx], self.cond[idx]], axis=1)

    def critic_input_fake(self, gen_out, idx):
        if self.condition.layout == "time":
            return np.concatenate([self.history3d[idx], gen_out], axis=1)
        if self.cond is None:
            return gen_out
        flat = gen_out.reshape(len(gen_out), -1)
        return np.concatenate([flat, self.cond[idx]], axis=1)

    def route_grad(self, d_critic_input, gen_out_shape):
        if self.condition.layout == "time":
            return d_critic_input[:, self.condition.n_h:]
        d = d_critic_input[:, : int(np.prod(gen_out_shape[1:]))]
        return d.reshape(gen_out_shape)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_gan(generator: nn.LayerStack, critic: nn.LayerStack, data,
              condition: ConditionSpec, config: GanConfig, labels=None):
    """Alternate n_critic critic updates with one generator update.

    Minimax mode applies plain stochastic-gradient steps; Wasserstein modes
    use RMSProp, with weight clipping into [-c, c] after every critic step in
    ``wgan_clip`` mode and the interpolated gradient penalty in ``wgan_gp``
    mode.  With ``config.gen_ema`` > 0 the generator returned at the end
    carries the exponential moving average of its weights over training,
    which damps the orbit adversarial updates trace around equilibrium.
    Returns (generator, critic, traces) where traces hold per-step
    critic/generator losses and the Wasserstein estimate.
    """
    rng = rng_from(config.seed)
    if isinstance(data, SeriesFrame):
        data = data.data
    asm = _Assembler(condition, data, labels)

    gen_params = generator.parameters()
    critic_params = critic.parameters()
    if config.mode == "minimax":
        gen_opt = critic_opt = None
    else:
        gen_opt = nn.RmsPropState.for_params(gen_params, config.learning_rate,
                                             config.rmsprop_rho)
        critic_opt = nn.RmsPropState.for_params(critic_params, config.learning_rate,
                                                config.rmsprop_rho)

    traces = {"critic": [], "generator": [], "wasserstein": []}
    ema = [p.copy() for p in gen_params] if config.gen_ema > 0 else None
    step = 0
    critic_since_gen = 0
    last_idx = None
    for _ in range(config.epochs):
        order = rng.permutation(asm.n)
        for start in range(0, asm.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _critic_step(generator, critic, asm, idx, config, rng,
                         critic_params, critic_opt, traces, step)
            step += 1
            critic_since_gen += 1
            last_idx = idx
            if critic_since_gen >= config.n_critic:
                _generator_step(generator, critic, asm, last_idx, config, rng,
                                gen_params, gen_opt, traces, step)
                critic_since_gen = 0
                if ema is not None:
                    for avg, p in zip(ema, gen_params):
                        avg *= config.gen_ema
                        avg += (1.0 - config.gen_ema) * p
    if ema is not None:
        for p, avg in zip(gen_params, ema):
            p[:] = avg
    return generator, critic, traces


def _sample_fake(generator, asm, idx, config, rng):
    noise = rng.standard_normal((len(idx), config.noise_dim))
    gin = asm.gen_input(noise, idx)
    gen_out, cache = nn.forward(generator, gin)
    return gen_out, cache


def _critic_step(generator, critic, asm, idx, config, rng,
                 critic_params, critic_opt, traces, step):
    x1 = asm.critic_input_real(idx)
    gen_out, _ = _sample_fake(generator, asm, idx, config, rng)
    x0 = asm.critic_input_fake(gen_out, idx)
    N = len(idx)

    out_r, cache_r = nn.forward(critic, x1)
    out_f, cache_f = nn.forward(critic, x0)

    if config.mode == "minimax":
        loss_d, _ = minimax_losses(out_r, out_f)
        d_r = -1.0 / (N * out_r)
        d_f = 1.0 / (N * (1.0 - out_f))
        wasserstein = None
    else:
        loss_d, _ = wgan_losses(out_r, out_f)
        d_r = np.full_like(out_r, -1.0 / N)
        d_f = np.full_like(out_f, 1.0 / N)
        wasserstein = -loss_d

    if not np.isfinite(loss_d):
        raise DivergedError("critic loss became non-finite", step)

    grads_r, _ = nn.backward(critic, cache_r, d_r)
    grads_f, _ = nn.backward(critic, cache_f, d_f)
    grads = [gr + gf for gr, gf in zip(grads_r, grads_f)]

    penalty = 0.0
    if config.mode == "wgan_gp":
        penalty, gp_grads = gp_term(critic, x1, x0, rng, config.lambda_gp)
        grads = [g + gp for g, gp in zip(grads, gp_grads)]

    if config.mode == "minimax":
        nn.sgd_step(critic_params, grads, config.learning_rate)
    else:
        nn.rmsprop_step(critic_opt, critic_params, grads)
        if config.mode == "wgan_clip":
            nn.clip_params(critic_params, config.clip_c)

    traces["critic"].append(loss_d + penalty)
    if wasserstein is not None:
        traces["wasserstein"].append(wasserstein)


def _generator_step(generator, critic, asm, idx, config, rng,
                    gen_params, gen_opt, traces, step):
    gen_out, cache_g = _sample_fake(generator, asm, idx, config, rng)
    x0 = asm.critic_input_fake(gen_out, idx)
    N = len(idx)
    out_f, cache_f = nn.forward(critic, x0)

    if config.mode == "minimax":
        if np.any(out_f <= 0) or np.any(out_f >= 1):
            raise DivergedError("discriminator output left (0, 1)", step)
        if config.non_saturating:
            loss_g = -float(np.mean(np.log(out_f)))
            d_f = -1.0 / (N * out_f)
        else:
            loss_g = float(np.mean(np.log1p(-out_f)))
            d_f = -1.0 / (N * (1.0 - out_f))
    else:
        loss_g = -float(np.mean(out_f))
        d_f = np.full_like(out_f, -1.0 / N)

    if not np.isfinite(loss_g):
        raise DivergedError("generator loss became non-finite", step)

    _, d_x0 = nn.backward(critic, cache_f, d_f)
    d_gen_out = asm.route_grad(d_x0, gen_out.shape)
    gen_grads, _ = nn.backward(generator, cache_g, d_gen_out)

    if config.mode == "minimax":
        nn.sgd_step(gen_params, gen_grads, config.learning_rate)
    else:
        nn.rmsprop_step(gen_opt, gen_params, gen_grads)
    traces["generator"].append(loss_g)


# ---------------------------------------------------------------------------
# architectures
# ---------------------------------------------------------------------------

def build_mlp(dims, hidden_activation: nn.Activation, head_activation: nn.Activation,
              rng) -> nn.LayerStack:
    layers = []
    for i in range(len(dims) - 1):
        act = head_activation if i == len(dims) - 2 else hidden_activation
        layers.append(nn.dense_layer(dims[i], dims[i + 1], act, rng))
    return nn.LayerStack(layers)


def build_wgan_nets(n_x: int, config: GanConfig, rng,
                    gen_hidden=(200, 100, 50, 25), critic_hidden=(100, 50, 10),
                    cond_dim: int = 0):
    """Dense generator/critic pair: generator noise -> ... -> n_x with a
    sigmoid head for [0, 1] data; critic ends in a single unit (identity head
    under the gradient penalty, tanh under weight clipping)."""
    leaky = nn.leaky_relu(0.5)
    gen = build_mlp((config.noise_dim + cond_dim,) + tuple(gen_hidden) + (n_x,),
                    leaky, nn.SIGMOID, rng)
    head = nn.TANH if config.mode == "wgan_clip" else nn.IDENTITY
    critic = build_mlp((n_x + cond_dim,) + tuple(critic_hidden) + (1,),
                       leaky, head, rng)
    return gen, critic


def build_cdcwgan_nets(n_x: int, n_t: int, n_h: int, config: GanConfig, rng,
                       critic_filters=(16, 32, 64, 128), gen_channels=(256, 64),
                       n_k: int = 3):
    """Convolutional generator/critic pair.

    The generator maps noise + flattened history through a dense layer to an
    (n_t, 256) block, then stride-1 same-padded convolutions down to n_x
    channels with a sigmoid head (stride 1 keeps the generated window length
    at n_t).  The critic down-samples the time-concatenated
    (n_h + n_t, n_x) input with stride-2 convolutions and ends in a dense
    scalar unit.
    """
    leaky = nn.leaky_relu(0.5)
    same_pad = (n_k - 1) // 2
    gen_layers = [nn.dense_layer(config.noise_dim + n_h * n_x, n_t * 256, leaky, rng,
                                 reshape_to=(n_t, 256))]
    channels = (256,) + tuple(gen_channels) + (n_x,)
    for i in range(len(channels) - 1):
        act = nn.SIGMOID if i == len(channels) - 2 else leaky
        gen_layers.append(nn.conv1d_layer(channels[i], channels[i + 1], n_k, 1,
                                          same_pad, act, rng))
    gen = nn.LayerStack(gen_layers)

    critic_layers = []
    length = n_h + n_t
    c_in = n_x
    for n_f in critic_filters:
        critic_layers.append(nn.conv1d_layer(c_in, n_f, n_k, 2, 1, leaky, rng))
        length = nn.conv1d_out_len(length, n_k, 1, 2)
        c_in = n_f
    head = nn.TANH if config.mode == "wgan_clip" else nn.IDENTITY
    critic_layers.append(nn.dense_layer(length * c_in, 1, head, rng))
    critic = nn.LayerStack(critic_layers)
    return gen, critic


def train_cdcwgan(data, config: GanConfig, n_t: int = 5, n_h: int = 20,
                  critic_filters=(16, 32, 64, 128), gen_channels=(256, 64),
                  n_k: int = 3):
    """Train the conditional deep convolutional WGAN on a (T, n_x) series.

    Data must be scaled to [0, 1] beforehand.  Returns (generator, critic,
    condition spec, traces).
    """
    if isinstance(data, SeriesFrame):
        data = data.data
    data = np.asarray(data, dtype=float)
    n_x = data.shape[1]
    condition = ConditionSpec("history_window", n_h=n_h, n_x=n_x, n_t=n_t,
                              layout="time")
    rng = rng_from(config.seed)
    gen, critic = build_cdcwgan_nets(n_x, n_t, n_h, config, rng,
                                     critic_filters, gen_channels, n_k)
    gen, critic, traces = train_gan(gen, critic, data, condition, config)
    return gen, critic, condition, traces


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate(generator: nn.LayerStack, n: int, rng, noise_dim: int = 100,
             condition: ConditionSpec | None = None, condition_values=None,
             columns=None) -> SeriesFrame:
    """Draw n unconditional (or label-conditioned) samples in scaled space."""
    rng = rng_from(rng)
    noise = rng.standard_normal((n, noise_dim))
    gin = noise
    if condition is not None and condition.kind == "label_vector":
        cond = np.asarray(condition_values, dtype=float)
        if cond.ndim == 1:
            cond = np.broadcast_to(cond[None, :], (n, len(cond)))
        gin = np.concatenate([noise, cond], axis=1)
    out, _ = nn.forward(generator, gin)
    out = out.reshape(n, -1)
    if columns is None:
        columns = tuple(f"x{j + 1}" for j in range(out.shape[1]))
    return SeriesFrame(columns, out)


def generate_series_gan(generator: nn.LayerStack, condition: ConditionSpec,
                        seed_window, horizon: int, rng, noise_dim: int = 100,
                        columns=None) -> SeriesFrame:
    """Iteratively extend a series with a history-conditioned generator.

    Each step feeds noise plus the flattened last n_h rows, emits n_t new
    rows, appends them and slides the window; the loop stops once at least
    ``horizon`` rows exist and the output is truncated to exactly that
    length.  Output stays in scaled space.
    """
    if condition.kind != "history_window":
        raise InvalidValue("generate_series_gan needs history_window conditioning")
    rng = rng_from(rng)
    window = np.array(seed_window, dtype=float)
    if window.shape != (condition.n_h, condition.n_x):
        raise ShapeError(
            f"seed_window must be {(condition.n_h, condition.n_x)}, got {window.shape}"
        )
    rows = []
    made = 0
    while made < horizon:
        noise = rng.standard_normal((1, noise_dim))
        gin = np.concatenate([noise, window.reshape(1, -1)], axis=1)
        out, _ = nn.forward(generator, gin)
        block = out.reshape(-1, condition.n_x)[: condition.n_t]
        rows.append(block)
        made += len(block)
        window = np.vstack([window, block])[-condition.n_h:]
    data = np.vstack(rows)[:horizon]
    if columns is None:
        columns = tuple(f"x{j + 1}" for j in range(condition.n_x))
    return SeriesFrame(columns, data)
