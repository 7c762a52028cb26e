"""Minimal feed-forward stack with exact reverse-mode gradients.

Dense, 1-D convolution and 1-D transpose convolution layers with leaky-relu,
sigmoid, tanh or identity activations, all in 64-bit floats.  ``backward``
returns both parameter gradients and the gradient with respect to the input,
which lets losses flow from a critic into a generator.

``grad_norm_penalty`` differentiates the input-gradient norm with respect to
the parameters (double backprop).  It is exact for stacks whose activations
are leaky-relu or identity: their derivative is piecewise constant, so the
second derivative of the activation vanishes almost everywhere and the
penalty gradient flows only through the weights.

Inputs are batch-major: (N, features) for dense stacks, (N, length, channels)
for convolutional ones.  forward is pure; stacks are mutated only by the
optimizer (single writer during training).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CacheError, InvalidValue, MarketGenError, ShapeError
from .mathutil import sigmoid


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Activation:
    kind: str
    alpha: float = 0.01

    def __post_init__(self):
        if self.kind == "leaky_relu" and not 0.0 < self.alpha <= 1.0:
            raise InvalidValue(f"leaky_relu needs alpha in (0, 1], got {self.alpha!r}")

    def apply(self, z):
        if self.kind == "identity":
            return z
        if self.kind == "leaky_relu":
            return np.maximum(z, self.alpha * z)  # as alpha <= 1
        if self.kind == "sigmoid":
            return sigmoid(z)
        if self.kind == "tanh":
            return np.tanh(z)
        raise InvalidValue(f"unknown activation {self.kind!r}")

    def deriv(self, z):
        if self.kind == "identity":
            return np.ones_like(z)
        if self.kind == "leaky_relu":
            return np.maximum(z >= 0, self.alpha)  # 1 where z >= 0, as alpha > 0
        if self.kind == "sigmoid":
            s = sigmoid(z)
            return s * (1.0 - s)
        if self.kind == "tanh":
            t = np.tanh(z)
            return 1.0 - t * t
        raise InvalidValue(f"unknown activation {self.kind!r}")


def leaky_relu(alpha: float = 0.01) -> Activation:
    return Activation("leaky_relu", alpha)


IDENTITY = Activation("identity")
SIGMOID = Activation("sigmoid")
TANH = Activation("tanh")


# ---------------------------------------------------------------------------
# output-length algebra
# ---------------------------------------------------------------------------

def conv1d_out_len(n_t: int, n_k: int, n_p: int, n_s: int) -> int:
    """floor((n_t - n_k + 2 n_p) / n_s) + 1 output positions."""
    if n_s < 1:
        raise ShapeError("stride must be >= 1")
    if n_k > n_t + 2 * n_p:
        raise ShapeError(f"kernel {n_k} longer than padded input {n_t + 2 * n_p}")
    out = (n_t - n_k + 2 * n_p) // n_s + 1
    if out <= 0:
        raise ShapeError("convolution output length would be nonpositive")
    return out


def tconv1d_out_len(n_t: int, n_k: int, n_p: int, n_s: int) -> int:
    """n_s (n_t - 1) + n_k - 2 n_p output positions (inverts conv1d_out_len
    whenever the convolution divides evenly)."""
    if n_s < 1:
        raise ShapeError("stride must be >= 1")
    out = n_s * (n_t - 1) + n_k - 2 * n_p
    if out <= 0:
        raise ShapeError("transpose convolution output length would be nonpositive")
    return out


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

@dataclass
class Dense:
    """y = f(x W + b).  3-D inputs are flattened per sample; ``reshape_to``
    optionally reshapes the output to (length, channels) for a following
    convolution."""

    W: np.ndarray  # (m_in, m_out)
    b: np.ndarray  # (m_out,)
    activation: Activation
    reshape_to: tuple | None = None

    def lin(self, x, use_bias=True):
        x = self._flat(x)
        z = x @ self.W
        return (z + self.b) if use_bias else z

    def _flat(self, x):
        if x.ndim == 3:
            x = x.reshape(x.shape[0], -1)
        if x.shape[1] != self.W.shape[0]:
            raise ShapeError(f"dense input width {x.shape[1]}, expected {self.W.shape[0]}")
        return x

    def shape_out(self, z):
        return z.reshape(z.shape[0], *self.reshape_to) if self.reshape_to else z

    def unshape_grad(self, d):
        return d.reshape(d.shape[0], -1) if self.reshape_to else d

    def weight_grads(self, x_in, dz):
        return self._flat(x_in).T @ dz, dz.sum(axis=0)

    def input_grad(self, dz, x_in):
        dx = dz @ self.W.T
        return dx.reshape(x_in.shape) if x_in.ndim == 3 else dx

    def params(self):
        return [self.W, self.b]


def _pad_time(x, p):
    """Zero-pad the time axis of (N, length, channels) input by p at each end
    (what np.pad does, without its per-call overhead)."""
    x_pad = np.zeros((x.shape[0], x.shape[1] + 2 * p, x.shape[2]), dtype=x.dtype)
    x_pad[:, p:p + x.shape[1]] = x
    return x_pad


def _conv_windows(x_pad, n_k, stride, out_len):
    wins = sliding_window_view(x_pad, n_k, axis=1)  # (N, Lp-n_k+1, C, n_k)
    wins = wins[:, :: stride][:, :out_len]
    return wins.transpose(0, 1, 3, 2)  # (N, out_len, n_k, C)


@dataclass
class Conv1d:
    """1-D convolution over the time axis of (N, length, channels) input."""

    W: np.ndarray  # (n_k, c_in, c_out)
    b: np.ndarray  # (c_out,)
    stride: int
    padding: int
    activation: Activation

    def lin(self, x, use_bias=True):
        if x.ndim != 3 or x.shape[2] != self.W.shape[1]:
            raise ShapeError(f"conv1d expects (N, L, {self.W.shape[1]}), got {x.shape}")
        n_k = self.W.shape[0]
        out_len = conv1d_out_len(x.shape[1], n_k, self.padding, self.stride)
        x_pad = _pad_time(x, self.padding)
        wins = _conv_windows(x_pad, n_k, self.stride, out_len)
        N = x.shape[0]
        z = wins.reshape(N * out_len, -1) @ self.W.reshape(-1, self.W.shape[2])
        z = z.reshape(N, out_len, -1)
        return (z + self.b) if use_bias else z

    def weight_grads(self, x_in, dz):
        n_k = self.W.shape[0]
        out_len = dz.shape[1]
        x_pad = _pad_time(x_in, self.padding)
        wins = _conv_windows(x_pad, n_k, self.stride, out_len)
        dW = wins.reshape(-1, n_k * self.W.shape[1]).T @ dz.reshape(-1, dz.shape[2])
        return dW.reshape(self.W.shape), dz.sum(axis=(0, 1))

    def input_grad(self, dz, x_in):
        n_k, _, _ = self.W.shape
        out_len = dz.shape[1]
        L_pad = x_in.shape[1] + 2 * self.padding
        dx_pad = np.zeros((x_in.shape[0], L_pad, self.W.shape[1]))
        for k in range(n_k):
            # positions k, k + stride, ... are distinct for fixed k
            sl = slice(k, k + (out_len - 1) * self.stride + 1, self.stride)
            dx_pad[:, sl] += dz @ self.W[k].T
        p = self.padding
        return dx_pad[:, p:L_pad - p] if p else dx_pad

    def params(self):
        return [self.W, self.b]


@dataclass
class TConv1d:
    """1-D transpose convolution (fractionally strided up-sampling)."""

    W: np.ndarray  # (n_k, c_in, c_out)
    b: np.ndarray  # (c_out,)
    stride: int
    padding: int
    activation: Activation

    def lin(self, x, use_bias=True):
        if x.ndim != 3 or x.shape[2] != self.W.shape[1]:
            raise ShapeError(f"tconv1d expects (N, L, {self.W.shape[1]}), got {x.shape}")
        n_k = self.W.shape[0]
        L = x.shape[1]
        out_len = tconv1d_out_len(L, n_k, self.padding, self.stride)
        L_full = self.stride * (L - 1) + n_k
        y = np.zeros((x.shape[0], L_full, self.W.shape[2]))
        for k in range(n_k):
            sl = slice(k, k + (L - 1) * self.stride + 1, self.stride)
            y[:, sl] += x @ self.W[k]
        p = self.padding
        z = y[:, p:L_full - p] if p else y
        if z.shape[1] != out_len:
            raise ShapeError("inconsistent transpose-convolution geometry")
        return (z + self.b) if use_bias else z

    def weight_grads(self, x_in, dz):
        n_k = self.W.shape[0]
        L = x_in.shape[1]
        L_full = self.stride * (L - 1) + n_k
        dy = np.zeros((x_in.shape[0], L_full, self.W.shape[2]))
        p = self.padding
        dy[:, p:L_full - p] = dz
        dW = np.empty_like(self.W)
        for k in range(n_k):
            sl = slice(k, k + (L - 1) * self.stride + 1, self.stride)
            dW[k] = np.einsum("nlc,nlo->co", x_in, dy[:, sl])
        return dW, dz.sum(axis=(0, 1))

    def input_grad(self, dz, x_in):
        n_k = self.W.shape[0]
        L = x_in.shape[1]
        L_full = self.stride * (L - 1) + n_k
        dy = np.zeros((x_in.shape[0], L_full, self.W.shape[2]))
        p = self.padding
        dy[:, p:L_full - p] = dz
        dx = np.zeros_like(x_in)
        for k in range(n_k):
            sl = slice(k, k + (L - 1) * self.stride + 1, self.stride)
            dx += dy[:, sl] @ self.W[k].T
        return dx

    def params(self):
        return [self.W, self.b]


# ---------------------------------------------------------------------------
# layer constructors (Glorot-normal weights, zero biases)
# ---------------------------------------------------------------------------

def _glorot(rng, shape, fan_in, fan_out):
    return rng.standard_normal(shape) * np.sqrt(2.0 / (fan_in + fan_out))


def dense_layer(m_in: int, m_out: int, activation: Activation, rng,
                reshape_to: tuple | None = None) -> Dense:
    W = _glorot(rng, (m_in, m_out), m_in, m_out)
    return Dense(W, np.zeros(m_out), activation, reshape_to)


def conv1d_layer(c_in: int, n_f: int, n_k: int, n_s: int, n_p: int,
                 activation: Activation, rng) -> Conv1d:
    W = _glorot(rng, (n_k, c_in, n_f), c_in * n_k, n_f * n_k)
    return Conv1d(W, np.zeros(n_f), n_s, n_p, activation)


def tconv1d_layer(c_in: int, n_f: int, n_k: int, n_s: int, n_p: int,
                  activation: Activation, rng) -> TConv1d:
    W = _glorot(rng, (n_k, c_in, n_f), c_in * n_k, n_f * n_k)
    return TConv1d(W, np.zeros(n_f), n_s, n_p, activation)


# ---------------------------------------------------------------------------
# stack
# ---------------------------------------------------------------------------

@dataclass
class LayerStack:
    layers: list = field(default_factory=list)

    def parameters(self) -> list:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


@dataclass
class ForwardCache:
    stack_id: int
    inputs: list   # input to each layer
    preacts: list  # pre-activation of each layer


def forward(stack: LayerStack, x):
    """Deterministic forward pass; the cache feeds ``backward``."""
    x = np.asarray(x, dtype=float)
    inputs, preacts = [], []
    for layer in stack.layers:
        inputs.append(x)
        z = layer.lin(x)
        preacts.append(z)
        x = layer.activation.apply(z)
        if isinstance(layer, Dense):
            x = layer.shape_out(x)
    return x, ForwardCache(id(stack), inputs, preacts)


def backward(stack: LayerStack, cache: ForwardCache, grad_output):
    """Exact gradients of a scalar loss for every parameter and the input.

    ``grad_output`` is the loss gradient with respect to the stack output.
    Returns (flat list of parameter gradients matching ``stack.parameters()``,
    gradient with respect to the stack input).
    """
    if cache.stack_id != id(stack) or len(cache.inputs) != len(stack.layers):
        raise CacheError("cache does not belong to this stack")
    grad = np.asarray(grad_output, dtype=float)
    grads = [None] * len(stack.layers)
    for i in reversed(range(len(stack.layers))):
        layer = stack.layers[i]
        z = cache.preacts[i]
        if isinstance(layer, Dense):
            grad = layer.unshape_grad(grad)
        dz = grad * layer.activation.deriv(z)
        grads[i] = layer.weight_grads(cache.inputs[i], dz)
        grad = layer.input_grad(dz, cache.inputs[i])
    flat = []
    for dW, db in grads:
        flat.extend([dW, db])
    return flat, grad


# ---------------------------------------------------------------------------
# gradient-norm penalty (double backprop)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradPenaltyResult:
    penalty: float
    grads: list
    zero_gradient: bool  # some sample had an exactly zero input gradient


def grad_norm_penalty(stack: LayerStack, x2) -> GradPenaltyResult:
    """Mean (||grad_x D(x2)|| - 1)^2 over the batch and its parameter gradients.

    Requires a scalar-output stack whose activations are all leaky-relu or
    identity; with piecewise-constant activation derivatives the masks are
    locally constant and the returned gradients are exact almost everywhere.
    A sample with an exactly zero input gradient contributes penalty 1 and a
    zero gradient (the smooth branch is undefined there); the result is
    flagged when that happens.
    """
    for layer in stack.layers:
        if layer.activation.kind not in ("leaky_relu", "identity"):
            raise InvalidValue(
                "grad_norm_penalty needs leaky_relu/identity activations, "
                f"got {layer.activation.kind!r}"
            )
    x2 = np.asarray(x2, dtype=float)
    out, cache = forward(stack, x2)
    if out.ndim != 2 or out.shape[1] != 1:
        raise ShapeError("gradient penalty needs a scalar-output critic")
    N = out.shape[0]

    _, g = backward(stack, cache, np.ones_like(out))
    g_flat = g.reshape(N, -1)
    norms = np.sqrt(np.sum(g_flat * g_flat, axis=1))
    zero = norms == 0.0
    penalties = np.where(zero, 1.0, (norms - 1.0) ** 2)
    penalty = float(penalties.mean())

    # d penalty / d theta = mean_i 2 (r_i - 1) / r_i * d(g_i . u_i) / d theta
    # with u_i = g_i held fixed; fold the prefactor into the probe vector.
    scale = np.zeros(N)
    np.divide(2.0 * (norms - 1.0), N * norms, out=scale, where=~zero)
    u = g * scale.reshape((N,) + (1,) * (g.ndim - 1))

    masks = [layer.activation.deriv(z) for layer, z in zip(stack.layers, cache.preacts)]

    # linearized (masked, bias-free) forward of the probe vector
    t = u
    t_inputs = []
    for layer, mask in zip(stack.layers, masks):
        t_inputs.append(t)
        t = layer.lin(t, use_bias=False) * mask
        if isinstance(layer, Dense):
            t = layer.shape_out(t)

    # backward through the linearized chain; biases do not appear in it
    grads = [None] * len(stack.layers)
    s = np.ones((N, 1))
    for i in reversed(range(len(stack.layers))):
        layer = stack.layers[i]
        if isinstance(layer, Dense):
            s = layer.unshape_grad(s)
        dz = s * masks[i]
        dW, _ = layer.weight_grads(t_inputs[i], dz)
        grads[i] = (dW, np.zeros_like(layer.b))
        s = layer.input_grad(dz, t_inputs[i])
    flat = []
    for dW, db in grads:
        flat.extend([dW, db])
    return GradPenaltyResult(penalty, flat, bool(zero.any()))


# ---------------------------------------------------------------------------
# RMSProp
# ---------------------------------------------------------------------------

@dataclass
class RmsPropState:
    """Per-parameter mean-square accumulators for the RMSProp update
    acc <- rho acc + (1 - rho) g^2; theta <- theta - lr g / (sqrt(acc) + eps)."""

    acc: list
    rho: float = 0.9
    eps: float = 1e-8
    lr: float = 1e-4

    @classmethod
    def for_params(cls, params, lr: float = 1e-4, rho: float = 0.9, eps: float = 1e-8):
        return cls([np.zeros_like(p) for p in params], rho, eps, lr)


def rmsprop_step(state: RmsPropState, params: list, grads: list) -> list:
    """One in-place RMSProp update of every parameter array."""
    if len(params) != len(grads) or len(params) != len(state.acc):
        raise ShapeError("params, grads and accumulators must align")
    for p, g, a in zip(params, grads, state.acc):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        a *= state.rho
        a += (1.0 - state.rho) * g * g
        p -= state.lr * g / (np.sqrt(a) + state.eps)
    return params


def sgd_step(params: list, grads: list, lr: float) -> list:
    for p, g in zip(params, grads):
        p -= lr * g
    return params


def clip_params(params: list, c: float) -> None:
    """Project every parameter into [-c, c] (weight-clipped critics)."""
    if c <= 0:
        raise MarketGenError("clip constant must be > 0")
    for p in params:
        np.clip(p, -c, c, out=p)
