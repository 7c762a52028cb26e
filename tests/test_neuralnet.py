import numpy as np
import pytest

from marketgen import neuralnet as nn
from marketgen.errors import CacheError, InvalidValue, ShapeError


def _fd_param_check(stack, x, loss_and_grads, tol, h=1e-6):
    """Compare analytic parameter gradients with central finite differences."""
    loss, grads = loss_and_grads()
    for p, g in zip(stack.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = p[i]
            p[i] = old + h
            f1 = loss_and_grads()[0]
            p[i] = old - h
            f2 = loss_and_grads()[0]
            p[i] = old
            fd = (f1 - f2) / (2 * h)
            assert abs(fd - g[i]) <= tol * max(1.0, abs(fd)), (p.shape, i)


def _sq_loss(stack, x, target):
    def run():
        out, cache = nn.forward(stack, x)
        loss = 0.5 * float(np.sum((out - target) ** 2))
        grads, _ = nn.backward(stack, cache, out - target)
        return loss, grads

    return run


# ---------------------------------------------------------------------------
# output-length formulas
# ---------------------------------------------------------------------------

def _naive_conv_positions(n_t, n_k, n_p, n_s):
    """Count kernel placements by explicit sliding (independent oracle)."""
    padded = n_t + 2 * n_p
    count = 0
    pos = 0
    while pos + n_k <= padded:
        count += 1
        pos += n_s
    return count


def test_conv_out_len_exhaustive_grid():
    for n_t in range(1, 51):
        for n_k in range(1, 8):
            for n_p in range(0, 4):
                for n_s in range(1, 5):
                    if n_k > n_t + 2 * n_p:
                        continue
                    expected = _naive_conv_positions(n_t, n_k, n_p, n_s)
                    assert nn.conv1d_out_len(n_t, n_k, n_p, n_s) == expected


def test_tconv_inverts_conv_lengths():
    for n_t in range(2, 51):
        for n_k in range(1, 8):
            for n_p in range(0, 4):
                for n_s in range(1, 5):
                    if n_k > n_t + 2 * n_p or (n_t - n_k + 2 * n_p) % n_s != 0:
                        continue
                    out = nn.conv1d_out_len(n_t, n_k, n_p, n_s)
                    if n_s * (out - 1) + n_k - 2 * n_p <= 0:
                        continue
                    assert nn.tconv1d_out_len(out, n_k, n_p, n_s) == n_t


def test_conv_out_len_examples():
    assert nn.conv1d_out_len(7, 1, 0, 1) == 7
    assert nn.conv1d_out_len(25, 3, 1, 2) == 13
    assert nn.conv1d_out_len(5, 3, 1, 2) == 3


def test_tconv_out_len_examples():
    assert nn.tconv1d_out_len(13, 3, 1, 2) == 25
    assert nn.tconv1d_out_len(7, 1, 0, 1) == 7
    assert nn.tconv1d_out_len(1, 4, 0, 3) == 4


def test_critic_length_chain():
    lengths = [25]
    for _ in range(4):
        lengths.append(nn.conv1d_out_len(lengths[-1], 3, 1, 2))
    assert lengths == [25, 13, 7, 4, 2]


def test_out_len_errors():
    with pytest.raises(ShapeError):
        nn.conv1d_out_len(3, 10, 0, 1)
    with pytest.raises(ShapeError):
        nn.conv1d_out_len(5, 3, 1, 0)
    with pytest.raises(ShapeError):
        nn.tconv1d_out_len(1, 1, 2, 1)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_identity_dense_forward():
    stack = nn.LayerStack([nn.Dense(np.eye(4), np.zeros(4), nn.IDENTITY)])
    x = np.random.default_rng(0).standard_normal((3, 4))
    out, _ = nn.forward(stack, x)
    np.testing.assert_array_equal(out, x)


def test_leaky_relu_definition():
    act = nn.leaky_relu(0.5)
    assert act.apply(np.array([-2.0]))[0] == -1.0
    assert act.apply(np.array([3.0]))[0] == 3.0
    # the same bytes as the np.where definition, signed zeros, infinities,
    # NaN and subnormals included, for alpha in (0, 1]; other alphas rejected
    z = np.concatenate([np.random.default_rng(2).standard_normal(50) * 10,
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]])
    for alpha in (0.5, 0.2, 0.01, 1.0):
        act = nn.leaky_relu(alpha)
        with np.errstate(invalid="ignore"):  # 0 * inf
            assert act.apply(z).tobytes() == np.where(z >= 0, z, alpha * z).tobytes()
        assert act.deriv(z).tobytes() == np.where(z >= 0, 1.0, alpha).tobytes()
    for alpha in (0.0, 1.5, -0.1):
        with pytest.raises(InvalidValue):
            nn.leaky_relu(alpha)


def test_conv_matches_naive_sliding_window():
    rng = np.random.default_rng(1)
    layer = nn.conv1d_layer(3, 5, 3, 2, 1, nn.IDENTITY, rng)
    x = rng.standard_normal((2, 9, 3))
    out, _ = nn.forward(nn.LayerStack([layer]), x)
    x_pad = np.pad(x, ((0, 0), (1, 1), (0, 0)))
    out_len = nn.conv1d_out_len(9, 3, 1, 2)
    expected = np.empty((2, out_len, 5))
    for b in range(2):
        for i in range(out_len):
            window = x_pad[b, 2 * i: 2 * i + 3]  # (n_k, c_in)
            for o in range(5):
                expected[b, i, o] = np.sum(window * layer.W[:, :, o]) + layer.b[o]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_tconv_matches_naive_scatter():
    rng = np.random.default_rng(2)
    layer = nn.tconv1d_layer(2, 4, 3, 2, 1, nn.IDENTITY, rng)
    x = rng.standard_normal((2, 5, 2))
    out, _ = nn.forward(nn.LayerStack([layer]), x)
    L_full = 2 * 4 + 3
    expected_full = np.zeros((2, L_full, 4))
    for b in range(2):
        for i in range(5):
            for k in range(3):
                expected_full[b, 2 * i + k] += x[b, i] @ layer.W[k]
    expected = expected_full[:, 1:-1] + layer.b
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(3)
    stack = nn.LayerStack([nn.dense_layer(3, 2, nn.SIGMOID, rng)])
    x = rng.standard_normal((4, 3))
    a, _ = nn.forward(stack, x)
    b, _ = nn.forward(stack, x)
    np.testing.assert_array_equal(a, b)


def test_forward_shape_mismatch():
    stack = nn.LayerStack([nn.Dense(np.eye(4), np.zeros(4), nn.IDENTITY)])
    with pytest.raises(ShapeError):
        nn.forward(stack, np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    stack = nn.LayerStack([
        nn.dense_layer(4, 6, nn.leaky_relu(0.5), rng),
        nn.dense_layer(6, 3, nn.TANH, rng),
        nn.dense_layer(3, 1, nn.SIGMOID, rng),
    ])
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 1))
    _fd_param_check(stack, x, _sq_loss(stack, x, target), tol=1e-5)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    out_len = nn.conv1d_out_len(nn.conv1d_out_len(8, 3, 1, 2), 3, 1, 2)
    stack = nn.LayerStack([
        nn.conv1d_layer(2, 3, 3, 2, 1, nn.leaky_relu(0.5), rng),
        nn.conv1d_layer(3, 2, 3, 2, 1, nn.leaky_relu(0.2), rng),
        nn.dense_layer(2 * out_len, 1, nn.IDENTITY, rng),
    ])
    x = rng.standard_normal((4, 8, 2))
    target = rng.standard_normal((4, 1))
    _fd_param_check(stack, x, _sq_loss(stack, x, target), tol=1e-5)


def test_tconv_and_reshape_gradients():
    rng = np.random.default_rng(6)
    stack = nn.LayerStack([
        nn.dense_layer(3, 8, nn.leaky_relu(0.5), rng, reshape_to=(4, 2)),
        nn.tconv1d_layer(2, 3, 3, 2, 1, nn.leaky_relu(0.3), rng),
        nn.dense_layer(3 * nn.tconv1d_out_len(4, 3, 1, 2), 1, nn.IDENTITY, rng),
    ])
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 1))
    _fd_param_check(stack, x, _sq_loss(stack, x, target), tol=1e-5)


def test_grad_input_identity_network():
    stack = nn.LayerStack([nn.Dense(np.eye(3), np.zeros(3), nn.IDENTITY)])
    x = np.random.default_rng(7).standard_normal((4, 3))
    out, cache = nn.forward(stack, x)
    g = np.random.default_rng(8).standard_normal((4, 3))
    _, gx = nn.backward(stack, cache, g)
    np.testing.assert_array_equal(gx, g)


def test_grad_input_matches_finite_differences():
    rng = np.random.default_rng(9)
    stack = nn.LayerStack([
        nn.dense_layer(3, 5, nn.leaky_relu(0.5), rng),
        nn.dense_layer(5, 1, nn.IDENTITY, rng),
    ])
    x = rng.standard_normal((2, 3))
    out, cache = nn.forward(stack, x)
    _, gx = nn.backward(stack, cache, np.ones_like(out))
    h = 1e-6
    for b in range(2):
        for j in range(3):
            old = x[b, j]
            x[b, j] = old + h
            f1 = float(nn.forward(stack, x)[0].sum())
            x[b, j] = old - h
            f2 = float(nn.forward(stack, x)[0].sum())
            x[b, j] = old
            fd = (f1 - f2) / (2 * h)
            assert abs(fd - gx[b, j]) <= 1e-6 * max(1.0, abs(fd))


def test_zero_grad_output_gives_zero_gradients():
    rng = np.random.default_rng(10)
    stack = nn.LayerStack([nn.dense_layer(3, 2, nn.SIGMOID, rng)])
    x = rng.standard_normal((4, 3))
    out, cache = nn.forward(stack, x)
    grads, gx = nn.backward(stack, cache, np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(gx == 0)


def test_stale_cache_rejected():
    rng = np.random.default_rng(11)
    s1 = nn.LayerStack([nn.dense_layer(3, 2, nn.SIGMOID, rng)])
    s2 = nn.LayerStack([nn.dense_layer(3, 2, nn.SIGMOID, rng)])
    out, cache = nn.forward(s1, rng.standard_normal((2, 3)))
    with pytest.raises(CacheError):
        nn.backward(s2, cache, out)


# ---------------------------------------------------------------------------
# gradient-norm penalty
# ---------------------------------------------------------------------------

def test_penalty_unit_norm_linear_critic():
    w = np.array([[0.6], [0.8]])
    stack = nn.LayerStack([nn.Dense(w, np.zeros(1), nn.IDENTITY)])
    res = nn.grad_norm_penalty(stack, np.random.default_rng(12).standard_normal((6, 2)))
    assert res.penalty < 1e-24
    assert max(np.abs(g).max() for g in res.grads) < 1e-12


def test_penalty_norm_two_linear_critic():
    w = 2.0 * np.array([[0.6], [0.8]])
    stack = nn.LayerStack([nn.Dense(w.copy(), np.zeros(1), nn.IDENTITY)])
    x = np.random.default_rng(13).standard_normal((5, 2))
    res = nn.grad_norm_penalty(stack, x)
    assert abs(res.penalty - 1.0) < 1e-12
    # closed form: 2 (||w|| - 1) w / ||w|| = w
    np.testing.assert_allclose(res.grads[0], w, atol=1e-12)


def test_penalty_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    stack = nn.LayerStack([
        nn.dense_layer(3, 7, nn.leaky_relu(0.5), rng),
        nn.dense_layer(7, 1, nn.IDENTITY, rng),
    ])
    x = rng.standard_normal((6, 3))

    def run():
        res = nn.grad_norm_penalty(stack, x)
        return res.penalty, res.grads

    _fd_param_check(stack, x, run, tol=1e-4)


def test_penalty_gradients_conv_critic():
    rng = np.random.default_rng(15)
    stack = nn.LayerStack([
        nn.conv1d_layer(2, 4, 3, 2, 1, nn.leaky_relu(0.5), rng),
        nn.dense_layer(4 * nn.conv1d_out_len(6, 3, 1, 2), 1, nn.IDENTITY, rng),
    ])
    x = rng.standard_normal((4, 6, 2))

    def run():
        res = nn.grad_norm_penalty(stack, x)
        return res.penalty, res.grads

    _fd_param_check(stack, x, run, tol=1e-4)


def test_penalty_zero_gradient_flagged():
    stack = nn.LayerStack([nn.Dense(np.zeros((2, 1)), np.zeros(1), nn.IDENTITY)])
    res = nn.grad_norm_penalty(stack, np.ones((3, 2)))
    assert res.zero_gradient
    assert res.penalty == 1.0
    assert all(np.all(g == 0) for g in res.grads)


def test_penalty_rejects_smooth_activations():
    rng = np.random.default_rng(16)
    stack = nn.LayerStack([nn.dense_layer(2, 1, nn.TANH, rng)])
    with pytest.raises(InvalidValue):
        nn.grad_norm_penalty(stack, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_rmsprop_zero_gradient_no_change():
    params = [np.array([1.0, 2.0])]
    state = nn.RmsPropState.for_params(params, lr=0.1)
    nn.rmsprop_step(state, params, [np.zeros(2)])
    np.testing.assert_array_equal(params[0], [1.0, 2.0])


def test_rmsprop_single_step_arithmetic():
    params = [np.array([0.0])]
    state = nn.RmsPropState.for_params(params, lr=1e-4, rho=0.9, eps=1e-8)
    nn.rmsprop_step(state, params, [np.array([1.0])])
    expected = -1e-4 / (np.sqrt(0.1) + 1e-8)
    assert abs(params[0][0] - expected) < 1e-18


def test_rmsprop_constant_gradient_asymptote():
    params = [np.array([0.0])]
    state = nn.RmsPropState.for_params(params, lr=1e-3, rho=0.9)
    g = [np.array([2.0])]
    prev = 0.0
    for _ in range(400):
        before = params[0][0]
        nn.rmsprop_step(state, params, g)
        prev = params[0][0] - before
    # update magnitude approaches lr * sign(g)
    assert abs(abs(prev) - 1e-3) < 1e-5


def test_clip_params():
    params = [np.array([-5.0, 0.2, 7.0])]
    nn.clip_params(params, 0.5)
    np.testing.assert_array_equal(params[0], [-0.5, 0.2, 0.5])
