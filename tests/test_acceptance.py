"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 3-5 reproduce the benchmark studies at desk scale and take tens of
minutes of CPU time; the three longest run side by side in two worker
processes (the ``studies`` fixture).  Everything else is fast.  Run
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines as
they complete.
"""

import dataclasses
import itertools
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from marketgen import backtest as bt
from marketgen import datagen as dg
from marketgen import evaluate as ev
from marketgen import gan
from marketgen import neuralnet as nn
from marketgen import preprocess as pp
from marketgen import rbm
from marketgen.cli import main as cli_main
from marketgen.datagen import RngStream
from marketgen.frames import SeriesFrame


def _report(number: int, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} {detail}")
    assert passed, f"criterion {number} failed: {detail}"


# a study not finished this many seconds after the studies started fails its
# test, and the worker processes are stopped
STUDY_TIMEOUT_S = 3600


def _stop_workers(pool):
    """Cancel what has not started and end the running studies, so a hung one
    cannot hold up the session (ProcessPoolExecutor offers no public way to
    end its workers before Python 3.14)."""
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        process.terminate()


@pytest.fixture(scope="module")
def studies(request):
    """``result(study)`` for the desk-scale studies behind criteria 3, 4 and 5
    (CDCWGAN).

    Each study trains a model for minutes and depends only on its own seeds.
    The selected ones start together, longest first, in two worker processes
    with BLAS pinned to one thread, so their numbers do not depend on the
    machine's core count; the tests then check what their studies return.
    ``result`` waits at most until ``STUDY_TIMEOUT_S`` after the studies
    started, in whatever order the tests ask.
    """
    selected = {item.name for item in request.session.items}
    one_thread = {var: "1" for var in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))
    with mock.patch.dict(os.environ, one_thread):  # read as workers start
        futures = {study: pool.submit(study) for name, study in (
            ("test_criterion_3_gaussian_rbm_benchmark", _gaussian_rbm_study),
            ("test_criterion_5_cdcwgan_acf", _cdcwgan_study),
            ("test_criterion_4_wgan_benchmark", _wgan_study),
        ) if name in selected}
    deadline = time.monotonic() + STUDY_TIMEOUT_S

    def result(study):
        try:
            return futures[study].result(max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            _stop_workers(pool)
            raise

    try:
        yield result
    finally:
        if all(future.done() for future in futures.values()):
            pool.shutdown()
        else:
            _stop_workers(pool)


# ---------------------------------------------------------------------------
# 1. exact RBM oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_exact_rbm_oracles():
    rng = np.random.default_rng(11)
    worst_partition = 0.0
    worst_conditional = 0.0
    worst_fd = 0.0
    worst_kl = 0.0
    for trial in range(5):
        m = int(rng.integers(3, 6))
        n = int(rng.integers(3, 13 - m))
        model = rbm.RbmModel(
            "bernoulli", m, n,
            rng.standard_normal(m) * 0.8,
            rng.standard_normal(n) * 0.8,
            rng.standard_normal((m, n)) * 0.8,
        )
        # (a) brute-force partition sum equals 1 after normalization
        vs = rbm.all_binary_states(m)
        hs = rbm.all_binary_states(n)
        energies = np.array([[rbm.energy_bernoulli(model, v, h) for h in hs] for v in vs])
        z_brute = np.exp(-energies).sum()
        worst_partition = max(worst_partition,
                              abs(np.exp(-energies).sum() / z_brute - 1.0))
        worst_partition = max(worst_partition,
                              abs(np.exp(rbm.log_partition(model)) / z_brute - 1.0))
        # (b) conditionals against the brute-force joint
        joint = np.exp(-energies) / z_brute
        for i, v in enumerate(vs):
            cond = joint[i] / joint[i].sum()
            worst_conditional = max(worst_conditional, float(np.max(np.abs(
                rbm.prob_h_given_v(model, v) - cond @ hs))))
        for j, h in enumerate(hs):
            cond = joint[:, j] / joint[:, j].sum()
            worst_conditional = max(worst_conditional, float(np.max(np.abs(
                rbm.prob_v_given_h(model, h) - cond @ vs))))
        # (c) exact log-likelihood gradient against central finite differences
        data = rng.integers(0, 2, size=(12, m)).astype(float)
        grad = rbm.exact_loglik_gradient(model, data)
        step = 1e-5
        for name, g in (("a", grad.da), ("b", grad.db), ("W", grad.dW)):
            arr = getattr(model, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                plus, minus = arr.copy(), arr.copy()
                plus[i] += step
                minus[i] -= step
                fd = (rbm.exact_loglik(dataclasses.replace(model, **{name: plus}), data)
                      - rbm.exact_loglik(dataclasses.replace(model, **{name: minus}), data)
                      ) / (2 * step)
                worst_fd = max(worst_fd, abs(fd - g[i]) / max(1.0, abs(fd)))
        # (d) gradient of KL(P_data || P_model) equals the negative mean
        # log-likelihood gradient; KL side via the free-energy route
        states, probs = rbm.exact_visible_distribution(model)
        powers = 2 ** np.arange(m)
        weights = np.zeros(len(states))
        for code in (data @ powers).astype(int):
            weights[code] += 1.0 / len(data)
        w = weights[(states @ powers).astype(int)]
        p_h = rbm.prob_h_given_v(model, states)
        kl_da = -(w @ states - probs @ states)
        kl_db = -(w @ p_h - probs @ p_h)
        dF_W = states[:, :, None] * p_h[:, None, :]
        kl_dW = -(np.tensordot(w, dF_W, axes=1) - np.tensordot(probs, dF_W, axes=1))
        worst_kl = max(worst_kl,
                       float(np.max(np.abs(kl_da + grad.da))),
                       float(np.max(np.abs(kl_db + grad.db))),
                       float(np.max(np.abs(kl_dW + grad.dW))))
    ok = (worst_partition < 1e-12 and worst_conditional < 1e-12
          and worst_fd <= 1e-6 and worst_kl <= 1e-10)
    _report(1, ok, f"(partition {worst_partition:.1e}, conditionals "
                   f"{worst_conditional:.1e}, grad-vs-FD {worst_fd:.1e}, "
                   f"KL identity {worst_kl:.1e})")


# ---------------------------------------------------------------------------
# 2. Gibbs equilibrium
# ---------------------------------------------------------------------------

def test_criterion_2_gibbs_total_variation():
    rng0 = np.random.default_rng(21)
    model = rbm.RbmModel("bernoulli", 3, 3,
                         rng0.standard_normal(3) * 0.5,
                         rng0.standard_normal(3) * 0.5,
                         rng0.standard_normal((3, 3)) * 0.5)
    states, probs = rbm.exact_visible_distribution(model)
    rng = RngStream(22, 0).generator()
    chains = 1000
    v = (rng.random((chains, 3)) < 0.5).astype(float)
    v, _, _ = rbm.gibbs_chain(model, v, 500, rng)  # burn-in
    powers = 2 ** np.arange(3)
    counts = np.zeros(len(states))
    draws = 0
    for _ in range(1000):  # 10^6 post-burn-in draws
        v, _, _ = rbm.gibbs_chain(model, v, 1, rng)
        counts += np.bincount((v @ powers).astype(int), minlength=len(states))
        draws += chains
    empirical = counts / draws
    exact = np.zeros_like(empirical)
    exact[(states @ powers).astype(int)] = probs
    tv = 0.5 * float(np.abs(empirical - exact).sum())
    _report(2, tv < 0.02, f"(total variation {tv:.4f} over {draws} draws)")


# ---------------------------------------------------------------------------
# 3. Gaussian RBM benchmark reproduction
# ---------------------------------------------------------------------------

def _gaussian_rbm_study():
    frame = dg.sample_copula(dg.benchmark_copula_spec(), 10000, RngStream(1, 0))
    train_mean = frame.data.mean(axis=0)
    train_std = frame.data.std(axis=0, ddof=1)

    model = rbm.init_rbm("gaussian", 4, 128, rng=RngStream(31, 0))
    config = rbm.TrainConfig(learning_rate=0.01, batch_size=500,
                             epochs=20000, cd_k=1, seed=32)
    trained, _ = rbm.train(model, frame.data, config)

    means, stds, corrs = [], [], []
    for rep in range(5):
        out = rbm.sample(trained, 10000, 1000, RngStream(33, rep))
        means.append(out.data.mean(axis=0))
        stds.append(out.data.std(axis=0, ddof=1))
        corrs.append(np.corrcoef(out.data, rowvar=False))
    mean_sim = np.mean(means, axis=0)
    std_sim = np.mean(stds, axis=0)
    corr_sim = np.mean(corrs, axis=0)

    mean_err = np.max(np.abs(mean_sim - train_mean))
    std_rel = np.max(np.abs(std_sim / train_std - 1.0))
    return mean_err, std_rel, corr_sim


def test_criterion_3_gaussian_rbm_benchmark(studies):
    mean_err, std_rel, corr_sim = studies(_gaussian_rbm_study)
    sign_ok = (corr_sim[0, 1] < 0 and corr_sim[2, 3] > 0
               and corr_sim[0, 3] > 0 and corr_sim[1, 3] < 0)
    ok = mean_err <= 0.15 and std_rel <= 0.12 and corr_sim[0, 1] <= -0.35 and sign_ok
    _report(3, ok, f"(max |mean diff| {mean_err:.3f}, max std rel err "
                   f"{std_rel:.3f}, corr12 {corr_sim[0, 1]:+.3f}, signs "
                   f"{'ok' if sign_ok else 'wrong'})")


# ---------------------------------------------------------------------------
# 4. WGAN benchmark reproduction
# ---------------------------------------------------------------------------

def _wgan_study():
    frame = dg.sample_copula(dg.benchmark_copula_spec(), 10000, RngStream(1, 0))
    scale = pp.fit_minmax(frame)
    scaled = pp.transform(frame, scale)
    train_std = frame.data.std(axis=0, ddof=1)
    train_corr12 = np.corrcoef(frame.data, rowvar=False)[0, 1]
    s_train = ev.summary(frame)

    # the wgan-paper preset: tanh critic head, weight clipping, RMSProp;
    # 500 epochs x 20 batches = the 10000-critic-iteration budget
    config = gan.GanConfig(mode="wgan_clip", noise_dim=100, clip_c=0.05,
                           n_critic=5, learning_rate=1e-4, batch_size=500,
                           epochs=500, seed=41, gen_ema=0.995)
    rng = RngStream(41, 1).generator()
    generator, critic = gan.build_wgan_nets(4, config, rng)
    generator, critic, _ = gan.train_gan(generator, critic, scaled,
                                         gan.ConditionSpec("none"), config)

    stds, corrs, p1s, p99s = [], [], [], []
    for rep in range(5):
        out = gan.generate(generator, 10000, RngStream(42, rep), noise_dim=100,
                           columns=frame.columns)
        back = pp.inverse_transform(out, scale)
        stds.append(back.data.std(axis=0, ddof=1))
        corrs.append(np.corrcoef(back.data, rowvar=False)[0, 1])
        s = ev.summary(back)
        p1s.append(s.p1)
        p99s.append(s.p99)
    std_err = np.max(np.abs(np.mean(stds, axis=0) - train_std))
    corr12 = float(np.mean(corrs))
    p1_err = np.max(np.abs(np.mean(p1s, axis=0) - s_train.p1))
    p99_err = np.max(np.abs(np.mean(p99s, axis=0) - s_train.p99))
    return std_err, p1_err, p99_err, corr12, train_corr12


def test_criterion_4_wgan_benchmark(studies):
    std_err, p1_err, p99_err, corr12, train_corr12 = studies(_wgan_study)
    ok = (std_err <= 0.15 and p1_err <= 0.6 and p99_err <= 0.6
          and abs(corr12 - train_corr12) <= 0.10)
    _report(4, ok, f"(max std err {std_err:.3f}, p1 err {p1_err:.2f}, p99 err "
                   f"{p99_err:.2f}, corr12 {corr12:+.3f} vs training "
                   f"{train_corr12:+.3f})")


# ---------------------------------------------------------------------------
# 5. conditional-model temporal fidelity
# ---------------------------------------------------------------------------

def _temporal_dataset():
    returns = dg.ar1_ewma_process(2, 0.3, np.array([[1.0, 0.5], [0.5, 1.0]]),
                                  5000, ewma_span=3, rng=RngStream(1, 0))
    train_acf = np.array([ev.acf(returns.data[:, j], 1).estimate[0]
                          for j in range(2)])
    assert np.all(train_acf >= 0.2)
    return returns, train_acf


def test_criterion_5_conditional_rbm_acf():
    returns, train_acf = _temporal_dataset()
    norm = pp.fit_normal_score(returns)
    boost = pp.scaling_spec(returns.columns, 3.0)
    z = pp.transform(pp.normal_score(returns, norm), boost)

    model = rbm.init_rbm("conditional", 2, 128, d=20, rng=RngStream(51, 0))
    config = rbm.TrainConfig(learning_rate=0.01, batch_size=500, epochs=600,
                             cd_k=1, seed=52)
    trained, _ = rbm.train(model, z, config)
    series = rbm.generate_series(trained, z.data[:20], 5000, 30, RngStream(53, 0))
    out = pp.inverse_normal_score(pp.inverse_transform(series, boost), norm)
    gen_acf = np.array([ev.acf(out.data[:, j], 1).estimate[0] for j in range(2)])

    boot = bt.bootstrap_resample(returns, 5000, RngStream(54, 0))
    boot_acf = np.array([ev.acf(boot.data[:, j], 1).estimate[0] for j in range(2)])

    ok = (np.all(gen_acf > 0) and np.max(np.abs(gen_acf - train_acf)) <= 0.15
          and np.max(np.abs(boot_acf)) <= 0.05)
    _report(5, ok, f"(conditional RBM ACF {np.round(gen_acf, 3)} vs training "
                   f"{np.round(train_acf, 3)}; bootstrap ACF "
                   f"{np.round(boot_acf, 3)})")


def _cdcwgan_study():
    returns, train_acf = _temporal_dataset()
    scale = pp.fit_minmax(returns)
    scaled = pp.transform(returns, scale)

    config = gan.GanConfig(mode="wgan_gp", noise_dim=100, lambda_gp=10.0,
                           n_critic=5, learning_rate=1e-4, batch_size=500,
                           epochs=300, seed=55, gen_ema=0.995)
    generator, critic, condition, _ = gan.train_cdcwgan(scaled, config,
                                                        n_t=5, n_h=20)
    series = gan.generate_series_gan(generator, condition, scaled.data[:20],
                                     5000, RngStream(56, 0), noise_dim=100)
    out = pp.inverse_transform(series.with_data(series.data, returns.columns),
                               scale)
    gen_acf = np.array([ev.acf(out.data[:, j], 1).estimate[0] for j in range(2)])
    return gen_acf, train_acf


def test_criterion_5_cdcwgan_acf(studies):
    gen_acf, train_acf = studies(_cdcwgan_study)
    ok = np.all(gen_acf > 0) and np.max(np.abs(gen_acf - train_acf)) <= 0.15
    _report(5, ok, f"(CDCWGAN ACF {np.round(gen_acf, 3)} vs training "
                   f"{np.round(train_acf, 3)})")


# ---------------------------------------------------------------------------
# 6. gradient checks across layer types, losses and the penalty path
# ---------------------------------------------------------------------------

def _check_params_fd(stack, objective, grads, tol):
    worst = 0.0
    h = 1e-6
    for p, g in zip(stack.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = p[i]
            p[i] = old + h
            f1 = objective()
            p[i] = old - h
            f2 = objective()
            p[i] = old
            fd = (f1 - f2) / (2 * h)
            worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    assert worst <= tol, worst
    return worst


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(61)
    activations = [nn.leaky_relu(0.5), nn.leaky_relu(0.1), nn.TANH, nn.SIGMOID]
    worst_plain = 0.0
    worst_double = 0.0
    configs = 0

    for _ in range(40):  # dense stacks, squared loss
        dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)))]
        layers = []
        for i in range(len(dims) - 1):
            act = activations[int(rng.integers(len(activations)))]
            layers.append(nn.dense_layer(dims[i], dims[i + 1], act, rng))
        stack = nn.LayerStack(layers)
        x = rng.standard_normal((3, dims[0]))
        target = rng.standard_normal((3, dims[-1]))

        def objective():
            out, _ = nn.forward(stack, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = nn.forward(stack, x)
        grads, _ = nn.backward(stack, cache, out - target)
        worst_plain = max(worst_plain, _check_params_fd(stack, objective, grads, 1e-5))
        configs += 1

    for _ in range(20):  # conv stacks
        c_in = int(rng.integers(1, 3))
        n_f = int(rng.integers(1, 4))
        n_k = int(rng.integers(1, 4))
        n_s = int(rng.integers(1, 3))
        n_p = int(rng.integers(0, 2))
        L = int(rng.integers(n_k + 2, 9))
        act = activations[int(rng.integers(len(activations)))]
        out_len = nn.conv1d_out_len(L, n_k, n_p, n_s)
        stack = nn.LayerStack([
            nn.conv1d_layer(c_in, n_f, n_k, n_s, n_p, act, rng),
            nn.dense_layer(n_f * out_len, 1, nn.IDENTITY, rng),
        ])
        x = rng.standard_normal((2, L, c_in))
        target = rng.standard_normal((2, 1))

        def objective():
            out, _ = nn.forward(stack, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = nn.forward(stack, x)
        grads, _ = nn.backward(stack, cache, out - target)
        worst_plain = max(worst_plain, _check_params_fd(stack, objective, grads, 1e-5))
        configs += 1

    for _ in range(15):  # transpose-conv stacks
        c_in = int(rng.integers(1, 3))
        n_f = int(rng.integers(1, 3))
        n_k = int(rng.integers(1, 4))
        n_s = int(rng.integers(1, 3))
        n_p = int(rng.integers(0, min(2, (n_k + 1) // 2 + 1)))
        L = int(rng.integers(2, 5))
        if n_s * (L - 1) + n_k - 2 * n_p <= 0:
            continue
        act = activations[int(rng.integers(len(activations)))]
        out_len = nn.tconv1d_out_len(L, n_k, n_p, n_s)
        stack = nn.LayerStack([
            nn.tconv1d_layer(c_in, n_f, n_k, n_s, n_p, act, rng),
            nn.dense_layer(n_f * out_len, 1, nn.IDENTITY, rng),
        ])
        x = rng.standard_normal((2, L, c_in))
        target = rng.standard_normal((2, 1))

        def objective():
            out, _ = nn.forward(stack, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = nn.forward(stack, x)
        grads, _ = nn.backward(stack, cache, out - target)
        worst_plain = max(worst_plain, _check_params_fd(stack, objective, grads, 1e-5))
        configs += 1

    for _ in range(10):  # both adversarial losses through a small critic
        minimax = bool(rng.integers(2))
        head = nn.SIGMOID if minimax else nn.IDENTITY
        critic = nn.LayerStack([
            nn.dense_layer(2, 4, nn.leaky_relu(0.5), rng),
            nn.dense_layer(4, 1, head, rng),
        ])
        x1 = rng.standard_normal((3, 2))
        x0 = rng.standard_normal((3, 2))

        def objective():
            r, _ = nn.forward(critic, x1)
            f, _ = nn.forward(critic, x0)
            if minimax:
                return gan.minimax_losses(r, f)[0]
            return gan.wgan_losses(r, f)[0]

        out_r, cache_r = nn.forward(critic, x1)
        out_f, cache_f = nn.forward(critic, x0)
        if minimax:
            d_r = -1.0 / (3 * out_r)
            d_f = 1.0 / (3 * (1.0 - out_f))
        else:
            d_r = np.full_like(out_r, -1.0 / 3)
            d_f = np.full_like(out_f, 1.0 / 3)
        g_r, _ = nn.backward(critic, cache_r, d_r)
        g_f, _ = nn.backward(critic, cache_f, d_f)
        grads = [a + b for a, b in zip(g_r, g_f)]
        worst_plain = max(worst_plain, _check_params_fd(critic, objective, grads, 1e-5))
        configs += 1

    for _ in range(15):  # gradient-penalty double backprop
        use_conv = bool(rng.integers(2))
        if use_conv:
            L = int(rng.integers(4, 7))
            out_len = nn.conv1d_out_len(L, 3, 1, 2)
            stack = nn.LayerStack([
                nn.conv1d_layer(2, 3, 3, 2, 1, nn.leaky_relu(0.5), rng),
                nn.dense_layer(3 * out_len, 1, nn.IDENTITY, rng),
            ])
            x = rng.standard_normal((3, L, 2))
        else:
            hidden = int(rng.integers(3, 7))
            stack = nn.LayerStack([
                nn.dense_layer(3, hidden, nn.leaky_relu(0.5), rng),
                nn.dense_layer(hidden, 1, nn.IDENTITY, rng),
            ])
            x = rng.standard_normal((3, 3))

        def objective():
            return nn.grad_norm_penalty(stack, x).penalty

        res = nn.grad_norm_penalty(stack, x)
        worst_double = max(worst_double,
                           _check_params_fd(stack, objective, res.grads, 1e-4))
        configs += 1

    ok = worst_plain <= 1e-5 and worst_double <= 1e-4 and configs >= 100
    _report(6, ok, f"({configs} configurations; worst plain {worst_plain:.1e}, "
                   f"worst double-backprop {worst_double:.1e})")


# ---------------------------------------------------------------------------
# 7. shape formulas
# ---------------------------------------------------------------------------

def test_criterion_7_shape_formulas():
    checked = 0
    for n_t, n_k, n_p, n_s in itertools.product(
            range(1, 51), range(1, 8), range(0, 4), range(1, 5)):
        if n_k > n_t + 2 * n_p:
            continue
        padded = n_t + 2 * n_p
        positions = 0
        pos = 0
        while pos + n_k <= padded:
            positions += 1
            pos += n_s
        assert nn.conv1d_out_len(n_t, n_k, n_p, n_s) == positions
        if (n_t - n_k + 2 * n_p) % n_s == 0 and n_s * (positions - 1) + n_k - 2 * n_p > 0:
            assert nn.tconv1d_out_len(positions, n_k, n_p, n_s) == n_t
        checked += 1
    lengths = [25]
    for _ in range(4):
        lengths.append(nn.conv1d_out_len(lengths[-1], 3, 1, 2))
    assert lengths == [25, 13, 7, 4, 2]
    _report(7, True, f"({checked} grid points; critic chain 25->13->7->4->2)")


# ---------------------------------------------------------------------------
# 8. binarization
# ---------------------------------------------------------------------------

def test_criterion_8_binarization():
    rng = np.random.default_rng(81)
    values = rng.uniform(-4.0, 9.0, size=10000)
    frame = SeriesFrame(("x",), values[:, None])
    spec = pp.fit_binarize16(frame, epsilon=0.0)
    back = pp.debinarize16(pp.binarize16(frame, spec), spec)
    step = (spec.hi[0] - spec.lo[0]) / 65535
    max_err = float(np.max(np.abs(back.data[:, 0] - values)))
    # boundary cases exact
    bounds = SeriesFrame(("x",), np.array([[spec.lo[0]], [spec.hi[0]]]))
    bits = pp.binarize16(bounds, spec)
    boundary_ok = bool(np.all(bits[0] == 0) and np.all(bits[1] == 1))
    decoded = pp.debinarize16(bits, spec)
    boundary_ok &= decoded.data[0, 0] == spec.lo[0] and decoded.data[1, 0] == spec.hi[0]
    ok = max_err <= step and boundary_ok
    _report(8, ok, f"(round-trip max err {max_err:.2e} <= step {step:.2e}; "
                   f"boundaries exact: {boundary_ok})")


# ---------------------------------------------------------------------------
# 9. backtest arithmetic
# ---------------------------------------------------------------------------

def test_criterion_9_backtest_arithmetic():
    sr_ok = abs(0.0530 / 0.0354 - 1.50) <= 0.01
    xi_ok = abs(0.0940 / 0.0354 - 2.65) <= 0.01

    config = bt.RiskParityConfig(vol_window=60, target_vol=0.03)
    rng = np.random.default_rng(91)
    frame = SeriesFrame(("a", "b", "c"), 0.01 * rng.standard_normal((400, 3)))
    _, stats1 = bt.run_backtest(frame, config)
    _, stats2 = bt.run_backtest(SeriesFrame(frame.columns, frame.data * 4.2), config)
    scale_err = max(abs(getattr(stats1, k) - getattr(stats2, k))
                    for k in bt.STATISTIC_NAMES)
    full, _ = bt.run_backtest(frame, config)
    trunc, _ = bt.run_backtest(SeriesFrame(frame.columns, frame.data[:250]), config)
    lookahead_err = float(np.max(np.abs(full[: len(trunc)] - trunc)))
    ok = sr_ok and xi_ok and scale_err < 1e-10 and lookahead_err == 0.0
    _report(9, ok, f"(SR/xi identities {'ok' if sr_ok and xi_ok else 'bad'}; "
                   f"scale invariance {scale_err:.1e}; look-ahead {lookahead_err:.1e})")


# ---------------------------------------------------------------------------
# 10. Wasserstein metric
# ---------------------------------------------------------------------------

def test_criterion_10_wasserstein_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        best = min(np.mean(np.abs(x - np.asarray(p)))
                   for p in itertools.permutations(y))
        worst = max(worst, abs(ev.wasserstein1_1d(x, y) - best))
    axioms = True
    for _ in range(50):
        a, b, c = rng.normal(size=(3, 7))
        axioms &= ev.wasserstein1_1d(a, a) == 0.0
        axioms &= abs(ev.wasserstein1_1d(a, b) - ev.wasserstein1_1d(b, a)) < 1e-15
        axioms &= (ev.wasserstein1_1d(a, b)
                   <= ev.wasserstein1_1d(a, c) + ev.wasserstein1_1d(c, b) + 1e-12)
    ok = worst < 1e-12 and axioms
    _report(10, ok, f"(assignment-oracle max diff {worst:.1e}; metric axioms "
                    f"{'hold' if axioms else 'violated'})")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism of every command
# ---------------------------------------------------------------------------

def test_criterion_11_command_determinism(tmp_path):
    def run(args):
        assert cli_main(list(args)) == 0

    results = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        data = base / "data.csv"
        run(["simulate-data", "--preset", "copula-paper", "--n", "300",
             "--seed", "5", "--out", str(data)])

        cfg = base / "cfg.json"
        cfg.write_text(json.dumps({
            "master_seed": 5,
            "preprocess": {"transforms": []},
            "model": {"kind": "gaussian_rbm", "hidden": 8, "epochs": 3},
        }))
        model = base / "model.json"
        run(["train", "--config", str(cfg), "--data", str(data), "--out", str(model)])

        synth = base / "synth.csv"
        run(["generate", "--model", str(model), "--n", "100",
             "--gibbs-steps", "30", "--seed", "6", "--out", str(synth)])

        run(["evaluate", "--real", str(data), "--synth", str(synth),
             "--qq-points", "20", "--out", str(base / "eval")])

        run(["mc-backtest", "--bootstrap", str(data), "--reps", "6",
             "--seed", "7", "--out", str(base / "mc")])

        results[tag] = {
            p.name: p.read_bytes()
            for p in sorted(base.iterdir()) if p.suffix in (".csv", ".md", ".json")
        }
    identical = results["one"] == results["two"]
    _report(11, identical,
            f"({len(results['one'])} artifacts byte-identical: {identical})")
