import dataclasses

import numpy as np
import pytest

from marketgen import preprocess as pp
from marketgen import rbm
from marketgen.datagen import RngStream, ar1_ewma_process
from marketgen.errors import EmptyBatch, InvalidValue, ShapeError, TooLarge
from marketgen.evaluate import acf
from marketgen.frames import SeriesFrame


def _random_bernoulli(m, n, seed, scale=0.7):
    rng = np.random.default_rng(seed)
    return rbm.RbmModel("bernoulli", m, n,
                        scale * rng.standard_normal(m),
                        scale * rng.standard_normal(n),
                        scale * rng.standard_normal((m, n)))


def _brute_joint(model):
    """Exact joint P(v, h) via direct energy enumeration (test-local oracle)."""
    vs = rbm.all_binary_states(model.m)
    hs = rbm.all_binary_states(model.n)
    table = np.empty((len(vs), len(hs)))
    for i, v in enumerate(vs):
        for j, h in enumerate(hs):
            table[i, j] = np.exp(-rbm.energy_bernoulli(model, v, h))
    return vs, hs, table / table.sum()


# ---------------------------------------------------------------------------
# energies and exact oracles
# ---------------------------------------------------------------------------

def test_energy_zero_configuration():
    model = _random_bernoulli(3, 2, 0)
    assert rbm.energy_bernoulli(model, np.zeros(3), np.zeros(2)) == 0.0


def test_energy_hand_example():
    model = rbm.RbmModel("bernoulli", 2, 1, np.array([1.0, 0.0]), np.array([0.0]),
                         np.array([[2.0], [0.0]]))
    e = rbm.energy_bernoulli(model, np.array([1.0, 0.0]), np.array([1.0]))
    assert e == -3.0


def test_partition_normalizes():
    for seed in range(5):
        model = _random_bernoulli(4, 4, seed)
        _, _, joint = _brute_joint(model)
        assert abs(joint.sum() - 1.0) < 1e-12
        # library log-partition agrees with the brute-force sum
        vs, hs, _ = _brute_joint(model)
        brute_z = sum(np.exp(-rbm.energy_bernoulli(model, v, h)) for v in vs for h in hs)
        assert abs(np.exp(rbm.log_partition(model)) / brute_z - 1.0) < 1e-12


def test_conditionals_match_brute_force():
    model = _random_bernoulli(3, 3, 1)
    vs, hs, joint = _brute_joint(model)
    for i, v in enumerate(vs):
        cond = joint[i] / joint[i].sum()
        expect_h = cond @ hs  # sum_h P(h|v) h_j
        np.testing.assert_allclose(rbm.prob_h_given_v(model, v), expect_h, atol=1e-12)
    for j, h in enumerate(hs):
        cond = joint[:, j] / joint[:, j].sum()
        expect_v = cond @ vs
        np.testing.assert_allclose(rbm.prob_v_given_h(model, h), expect_v, atol=1e-12)


def test_sigmoid_saturation():
    model = rbm.RbmModel("bernoulli", 1, 1, np.zeros(1), np.array([50.0]),
                         np.zeros((1, 1)))
    assert abs(rbm.prob_h_given_v(model, np.zeros(1))[0] - 1.0) < 1e-12


def test_zero_parameters_give_half():
    model = rbm.RbmModel("bernoulli", 2, 3, np.zeros(2), np.zeros(3), np.zeros((2, 3)))
    np.testing.assert_allclose(rbm.prob_h_given_v(model, np.ones(2)), 0.5)
    np.testing.assert_allclose(rbm.prob_v_given_h(model, np.ones(3)), 0.5)


def test_exact_loglik_uniform_model():
    model = rbm.RbmModel("bernoulli", 3, 2, np.zeros(3), np.zeros(2), np.zeros((3, 2)))
    data = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert abs(rbm.exact_loglik(model, data) + 3 * np.log(2)) < 1e-12


def test_exact_loglik_gradient_matches_finite_differences():
    model = _random_bernoulli(3, 3, 2)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2, size=(25, 3)).astype(float)
    grad = rbm.exact_loglik_gradient(model, data)
    h = 1e-5
    for name, g in (("a", grad.da), ("b", grad.db), ("W", grad.dW)):
        arr = getattr(model, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            plus, minus = arr.copy(), arr.copy()
            plus[i] += h
            minus[i] -= h
            fd = (rbm.exact_loglik(dataclasses.replace(model, **{name: plus}), data)
                  - rbm.exact_loglik(dataclasses.replace(model, **{name: minus}), data)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(fd))


def test_kl_gradient_identity():
    # d KL(P_data || P_model) / d theta = -d mean loglik / d theta,
    # with the KL side computed through the log-partition route.
    model = _random_bernoulli(3, 2, 4)
    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, size=(40, 3)).astype(float)
    grad = rbm.exact_loglik_gradient(model, data)

    states, probs = rbm.exact_visible_distribution(model)
    # empirical weight of each enumerated state
    powers = 2 ** np.arange(model.m)
    state_codes = (states @ powers).astype(int)
    assert np.array_equal(np.sort(state_codes), np.arange(len(states)))
    weights = np.zeros(len(states))
    for c in (data @ powers).astype(int):
        weights[c] += 1.0 / len(data)
    data_weight = weights[state_codes]

    # grad of -sum_v P_data(v) log P_model(v) via free energies:
    # d/dtheta log P_model(v) = dF(v)/dtheta - E_model[dF/dtheta]
    p_h_states = rbm.prob_h_given_v(model, states)
    dF_a = states
    dF_b = p_h_states
    kl_da = -(data_weight @ dF_a - probs @ dF_a)
    kl_db = -(data_weight @ dF_b - probs @ dF_b)
    dF_W = states[:, :, None] * p_h_states[:, None, :]
    kl_dW = -(np.tensordot(data_weight, dF_W, axes=1)
              - np.tensordot(probs, dF_W, axes=1))
    np.testing.assert_allclose(kl_da, -grad.da, atol=1e-10)
    np.testing.assert_allclose(kl_db, -grad.db, atol=1e-10)
    np.testing.assert_allclose(kl_dW, -grad.dW, atol=1e-10)


def test_enumeration_cap():
    model = rbm.RbmModel("bernoulli", 15, 15, np.zeros(15), np.zeros(15),
                         np.zeros((15, 15)))
    with pytest.raises(TooLarge):
        rbm.exact_loglik(model, np.zeros((1, 15)))


# ---------------------------------------------------------------------------
# gaussian conditionals
# ---------------------------------------------------------------------------

def test_gaussian_sample_moments():
    rng = np.random.default_rng(6)
    a = np.array([1.5, -2.0])
    sigma = np.array([1.0, 0.5])
    model = rbm.RbmModel("gaussian", 2, 2, a, np.zeros(2), np.zeros((2, 2)), sigma=sigma)
    draws = rbm.sample_v_given_h(model, np.zeros((100000, 2)), rng)
    np.testing.assert_allclose(draws.mean(axis=0), a, atol=0.02)
    np.testing.assert_allclose(draws.var(axis=0, ddof=1), sigma ** 2, rtol=0.03)


def test_gaussian_hidden_conditional_scaling():
    sigma = np.array([2.0])
    W = np.array([[1.0]])
    model = rbm.RbmModel("gaussian", 1, 1, np.zeros(1), np.zeros(1), W, sigma=sigma)
    v = np.array([3.0])
    from scipy.special import expit

    expected = expit(3.0 / 4.0)  # w v / sigma^2
    assert abs(rbm.prob_h_given_v(model, v)[0] - expected) < 1e-12


def test_dynamic_biases():
    model = rbm.RbmModel("conditional", 1, 1, np.array([1.0]), np.array([0.5]),
                         np.zeros((1, 1)), sigma=np.ones(1), d=1,
                         Q=np.array([[2.0]]), P=np.array([[3.0]]))
    a, b = rbm.dynamic_biases(model, np.array([3.0]))
    assert a[0] == 7.0 and b[0] == 9.5
    a0, b0 = rbm.dynamic_biases(model, np.zeros(1))
    assert a0[0] == 1.0 and b0[0] == 0.5


def test_conditional_with_zero_history_matches_gaussian():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((2, 3))
    a = rng.standard_normal(2)
    b = rng.standard_normal(3)
    gauss = rbm.RbmModel("gaussian", 2, 3, a, b, W, sigma=np.ones(2))
    cond = rbm.RbmModel("conditional", 2, 3, a, b, W, sigma=np.ones(2), d=2,
                        Q=rng.standard_normal((4, 2)), P=rng.standard_normal((4, 3)))
    v = rng.standard_normal(2)
    c = np.zeros(4)
    np.testing.assert_allclose(rbm.prob_h_given_v(gauss, v),
                               rbm.prob_h_given_v(cond, v, c), atol=1e-15)
    np.testing.assert_allclose(rbm.visible_mean(gauss, np.ones(3)),
                               rbm.visible_mean(cond, np.ones(3), c), atol=1e-15)


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------

def test_gibbs_deterministic_saturated_model():
    # +50 biases force all-ones regardless of the start
    model = rbm.RbmModel("bernoulli", 2, 2, np.full(2, 50.0), np.full(2, 50.0),
                         np.zeros((2, 2)))
    v, h, p = rbm.gibbs_chain(model, np.zeros(2), 1, RngStream(0, 0))
    # a single vector in, single vectors out
    assert v.shape == (2,) and h.shape == (2,) and p.shape == (2,)
    assert np.all(v == 1.0) and np.all(h == 1.0)
    np.testing.assert_allclose(p, 1.0, atol=1e-12)


def test_gibbs_same_seed_identical():
    model = _random_bernoulli(3, 3, 8)
    for v0 in (np.zeros(3), np.zeros((6, 3))):
        v1, h1, p1 = rbm.gibbs_chain(model, v0, 25, RngStream(1, 0))
        kept = v1.copy()
        v2, h2, p2 = rbm.gibbs_chain(model, v0, 25, RngStream(1, 0))
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(p1, p2)
        # a later call must not write into the arrays an earlier call returned
        later = rbm.gibbs_chain(model, v0, 25, RngStream(2, 0))
        np.testing.assert_array_equal(v1, kept)
        assert not any(np.shares_memory(a, b) for a, b in zip((v1, h1, p1), later))


def test_gibbs_equilibrium_total_variation():
    model = _random_bernoulli(3, 3, 9, scale=0.5)
    states, probs = rbm.exact_visible_distribution(model)
    rng = RngStream(2, 0).generator()
    chains = 1000
    v0 = (rng.random((chains, model.m)) < 0.5).astype(float)
    v, _, _ = rbm.gibbs_chain(model, v0, 500, rng)  # burn-in
    counts = np.zeros(len(states))
    powers = 2 ** np.arange(model.m)
    draws = 0
    for _ in range(1000):
        v, _, _ = rbm.gibbs_chain(model, v, 1, rng)
        codes = (v @ powers).astype(int)
        counts += np.bincount(codes, minlength=len(states))
        draws += chains
    empirical = counts / draws
    state_codes = (states @ powers).astype(int)
    exact = np.zeros_like(empirical)
    exact[state_codes] = probs
    tv = 0.5 * np.abs(empirical - exact).sum()
    assert tv < 0.02


def test_gibbs_permutation_symmetry():
    # exchangeable parameters: marginals of all visible units must agree
    model = rbm.RbmModel("bernoulli", 3, 2, np.full(3, 0.3), np.full(2, -0.2),
                         np.full((3, 2), 0.4))
    rng = RngStream(3, 0).generator()
    v0 = (rng.random((2000, 3)) < 0.5).astype(float)
    v, _, _ = rbm.gibbs_chain(model, v0, 300, rng)
    total = np.zeros(3)
    draws = 0
    for _ in range(500):
        v, _, _ = rbm.gibbs_chain(model, v, 1, rng)
        total += v.sum(axis=0)
        draws += len(v)
    marginals = total / draws
    assert np.ptp(marginals) < 0.02


# ---------------------------------------------------------------------------
# contrastive divergence
# ---------------------------------------------------------------------------

def test_cd_empty_batch():
    model = _random_bernoulli(2, 2, 10)
    with pytest.raises(EmptyBatch):
        rbm.cd_k_gradient(model, np.empty((0, 2)), 1, RngStream(0, 0))


def test_cd_saturated_hand_example():
    # forced configuration: chain reproduces v0 = ones exactly, so every
    # difference in the estimate vanishes
    model = rbm.RbmModel("bernoulli", 2, 2, np.full(2, 50.0), np.full(2, 50.0),
                         np.zeros((2, 2)))
    g = rbm.cd_k_gradient(model, np.ones((1, 2)), 1, RngStream(4, 0))
    np.testing.assert_allclose(g.da, 0.0, atol=1e-12)
    np.testing.assert_allclose(g.db, 0.0, atol=1e-12)
    np.testing.assert_allclose(g.dW, 0.0, atol=1e-12)


def test_cd_gradient_vanishes_at_equilibrium():
    # batch drawn from the model's own distribution -> expected estimate 0
    model = _random_bernoulli(3, 3, 11, scale=0.5)
    states, probs = rbm.exact_visible_distribution(model)
    rng = RngStream(5, 0).generator()
    idx = rng.choice(len(states), size=200000, p=probs)
    batch = states[idx]
    g = rbm.cd_k_gradient(model, batch, 1, rng)
    assert g.norm() <= 0.02


def test_cd_infinity_matches_negative_loglik_gradient():
    # long chains: E[CD gradient] -> -(exact mean-loglik gradient)
    model = _random_bernoulli(3, 2, 12, scale=0.6)
    rng = np.random.default_rng(13)
    data = rng.integers(0, 2, size=(5, 3)).astype(float)
    exact = rbm.exact_loglik_gradient(model, data)
    batch = np.repeat(data, 8000, axis=0)
    g = rbm.cd_k_gradient(model, batch, 40, RngStream(6, 0))
    np.testing.assert_allclose(g.da, -exact.da, atol=0.02)
    np.testing.assert_allclose(g.db, -exact.db, atol=0.02)
    np.testing.assert_allclose(g.dW, -exact.dW, atol=0.02)


def test_gaussian_cd_gradient_matches_tiny_exact_model():
    # for W = 0 the gaussian RBM is a product of normals; CD-k with long
    # chains estimates model mean a against the data mean
    a = np.array([0.5])
    model = rbm.RbmModel("gaussian", 1, 1, a, np.zeros(1), np.zeros((1, 1)),
                         sigma=np.ones(1))
    batch = np.full((50000, 1), 2.0)
    g = rbm.cd_k_gradient(model, batch, 5, RngStream(7, 0))
    # descent estimate: (E_model[v] - E_data[v]) / sigma^2 = 0.5 - 2.0
    assert abs(g.da[0] - (0.5 - 2.0)) < 0.02


def _gaussian_exact_loglik(a, b, W, sigma, data):
    """Mean log-likelihood of a tiny gaussian-bernoulli model.

    The partition function is a sum of 2^n closed-form Gaussian integrals:
    integral over v of exp(-(v-a)^2/(2 s2) + v.Wh/s2) is
    sqrt(2 pi s2) exp(((a+Wh)^2 - a^2)/(2 s2)).
    """
    from scipy.special import logsumexp

    s2 = sigma ** 2
    hs = rbm.all_binary_states(len(b))
    u = hs @ W.T
    log_z_terms = (hs @ b + 0.5 * np.sum(np.log(2 * np.pi * s2))
                   + (((a + u) ** 2 - a ** 2) / (2 * s2)).sum(axis=1))
    log_z = logsumexp(log_z_terms)
    quad = -((data - a) ** 2 / (2 * s2)).sum(axis=1)
    soft = np.logaddexp(0.0, b + (data / s2) @ W).sum(axis=1)
    return float((quad + soft).mean() - log_z)


def test_gaussian_cd_matches_exact_likelihood_gradient():
    # long-chain CD estimate against finite differences of the exact
    # gaussian-bernoulli log-likelihood (closed-form partition function)
    rng = np.random.default_rng(30)
    m, n = 2, 3
    a = 0.5 * rng.standard_normal(m)
    b = 0.5 * rng.standard_normal(n)
    W = 0.5 * rng.standard_normal((m, n))
    sigma = np.ones(m)
    data = rng.standard_normal((6, m)) + np.array([0.5, -1.0])

    step = 1e-6
    exact = {}
    for name, arr in (("a", a), ("b", b), ("W", W)):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = arr[i]
            arr[i] = old + step
            f1 = _gaussian_exact_loglik(a, b, W, sigma, data)
            arr[i] = old - step
            f2 = _gaussian_exact_loglik(a, b, W, sigma, data)
            arr[i] = old
            g[i] = (f1 - f2) / (2 * step)
        exact[name] = g

    model = rbm.RbmModel("gaussian", m, n, a, b, W, sigma=sigma)
    batch = np.repeat(data, 20000, axis=0)
    cd = rbm.cd_k_gradient(model, batch, 50, RngStream(31, 0))
    np.testing.assert_allclose(cd.da, -exact["a"], atol=0.02)
    np.testing.assert_allclose(cd.db, -exact["b"], atol=0.02)
    np.testing.assert_allclose(cd.dW, -exact["W"], atol=0.02)


def test_energy_gaussian_conditional_consistency():
    rng = np.random.default_rng(32)
    W = rng.standard_normal((2, 2))
    a, b = rng.standard_normal(2), rng.standard_normal(2)
    gauss = rbm.RbmModel("gaussian", 2, 2, a, b, W, sigma=np.full(2, 1.5))
    cond = rbm.RbmModel("conditional", 2, 2, a, b, W, sigma=np.full(2, 1.5),
                        d=1, Q=rng.standard_normal((2, 2)),
                        P=rng.standard_normal((2, 2)))
    v = rng.standard_normal(2)
    h = np.array([1.0, 0.0])
    e_gauss = rbm.energy_gaussian(gauss, v, h)
    e_cond = rbm.energy_gaussian(cond, v, h, c=np.zeros(2))
    assert abs(e_gauss - e_cond) < 1e-12


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_zero_epochs_is_identity():
    model = _random_bernoulli(3, 2, 14)
    cfg = rbm.TrainConfig(epochs=0, batch_size=4, seed=1)
    out, trace = rbm.train(model, np.zeros((8, 3)), cfg)
    np.testing.assert_array_equal(out.W, model.W)
    assert trace == []


def test_train_determinism():
    rng = np.random.default_rng(15)
    data = rng.integers(0, 2, size=(64, 3)).astype(float)
    cfg = rbm.TrainConfig(learning_rate=0.05, batch_size=16, epochs=20, cd_k=1, seed=7)
    m1, t1 = rbm.train(_random_bernoulli(3, 3, 16, 0.1), data, cfg)
    m2, t2 = rbm.train(_random_bernoulli(3, 3, 16, 0.1), data, cfg)
    np.testing.assert_array_equal(m1.W, m2.W)
    np.testing.assert_array_equal(m1.a, m2.a)
    assert t1 == t2


def test_train_improves_exact_loglik():
    rng = np.random.default_rng(17)
    # skewed target distribution over 3 bits
    probs = np.array([0.3, 0.05, 0.05, 0.2, 0.05, 0.05, 0.05, 0.25])
    states = rbm.all_binary_states(3)
    data = states[rng.choice(8, size=512, p=probs)]
    model = rbm.init_rbm("bernoulli", 3, 4, rng=RngStream(8, 0))
    before = rbm.exact_loglik(model, data)
    cfg = rbm.TrainConfig(learning_rate=0.05, batch_size=64, epochs=100, cd_k=1, seed=3)
    trained, trace = rbm.train(model, data, cfg)
    after = rbm.exact_loglik(trained, data)
    assert after > before
    assert len(trace) == 100


# ---------------------------------------------------------------------------
# sampling / generation
# ---------------------------------------------------------------------------

def test_sample_gaussian_free_model_moments():
    a = np.array([1.0, -1.0])
    model = rbm.RbmModel("gaussian", 2, 3, a, np.zeros(3), np.zeros((2, 3)),
                         sigma=np.ones(2))
    frame = rbm.sample(model, 20000, 3, RngStream(9, 0))
    np.testing.assert_allclose(frame.data.mean(axis=0), a, atol=0.05)
    np.testing.assert_allclose(frame.data.std(axis=0, ddof=1), 1.0, atol=0.05)


def test_sample_saturated_bernoulli_forces_configuration():
    f = SeriesFrame(("x",), np.linspace(0.0, 1.0, 32)[:, None])
    spec = pp.fit_binarize16(f, epsilon=0.0)
    model = rbm.RbmModel("bernoulli", 16, 4, np.full(16, 50.0), np.zeros(4),
                         np.zeros((16, 4)), transform=spec)
    frame = rbm.sample(model, 10, 2, RngStream(10, 0))
    # all-ones visible state decodes to the upper bound
    np.testing.assert_allclose(frame.data, spec.hi[0], atol=1e-12)


def test_sample_determinism():
    model = rbm.init_rbm("gaussian", 2, 4, rng=RngStream(11, 0))
    a = rbm.sample(model, 50, 10, RngStream(12, 0))
    b = rbm.sample(model, 50, 10, RngStream(12, 0))
    np.testing.assert_array_equal(a.data, b.data)


def test_generate_series_uncoupled_is_iid_normal():
    model = rbm.RbmModel("conditional", 2, 2, np.array([0.5, -0.5]), np.zeros(2),
                         np.zeros((2, 2)), sigma=np.ones(2), d=3,
                         Q=np.zeros((6, 2)), P=np.zeros((6, 2)))
    frame = rbm.generate_series(model, np.zeros((3, 2)), 4000, 2, RngStream(13, 0))
    np.testing.assert_allclose(frame.data.mean(axis=0), [0.5, -0.5], atol=0.06)
    assert abs(acf(frame.data[:, 0], 1).estimate[0]) < 0.05


def test_generate_series_determinism_and_empty():
    model = rbm.init_rbm("conditional", 2, 3, d=2, rng=RngStream(14, 0))
    seed_window = np.zeros((2, 2))
    a = rbm.generate_series(model, seed_window, 20, 5, RngStream(15, 0))
    b = rbm.generate_series(model, seed_window, 20, 5, RngStream(15, 0))
    np.testing.assert_array_equal(a.data, b.data)
    empty = rbm.generate_series(model, seed_window, 0, 5, RngStream(15, 0))
    assert empty.n_rows == 0


def test_lagged_pairs_layout():
    data = np.arange(10.0).reshape(5, 2)
    V, C = rbm.lagged_pairs(data, 2)
    assert V.shape == (3, 2) and C.shape == (3, 4)
    # first condition: most recent lag first: rows 1 then 0
    np.testing.assert_array_equal(V[0], data[2])
    np.testing.assert_array_equal(C[0], np.concatenate([data[1], data[0]]))
    np.testing.assert_array_equal(rbm.history_vector(data[:2]), C[0])


def test_conditional_learns_ar1_structure():
    # linear history coupling can represent an AR(d) conditional mean
    frame = ar1_ewma_process(1, 0.6, np.eye(1), 3000, rng=RngStream(16, 0), scale=1.0)
    train_acf = acf(frame.data[:, 0], 1).estimate[0]
    spec = pp.fit_zscore(frame)
    z = pp.transform(frame, spec)
    model = rbm.init_rbm("conditional", 1, 8, d=3, rng=RngStream(17, 0), transform=spec)
    cfg = rbm.TrainConfig(learning_rate=0.01, batch_size=250, epochs=60, cd_k=1, seed=5)
    trained, _ = rbm.train(model, z, cfg)
    out = rbm.generate_series(trained, z.data[:3], 3000, 15, RngStream(18, 0))
    gen_acf = acf(out.data[:, 0], 1).estimate[0]
    assert gen_acf > 0.2
    assert abs(gen_acf - train_acf) < 0.2


def test_shape_validation():
    with pytest.raises(ShapeError):
        rbm.RbmModel("bernoulli", 2, 2, np.zeros(3), np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(InvalidValue):
        rbm.RbmModel("bernoulli", 2, 2, np.zeros(2), np.zeros(2),
                     np.full((2, 2), np.nan))
