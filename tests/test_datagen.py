import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr

from marketgen import datagen as dg
from marketgen.errors import DomainError, NotPositiveDefinite


def test_identity_copula_marginals_and_corr():
    spec = dg.CopulaSpec(3, np.eye(3), tuple(dg.MarginalSpec("normal") for _ in range(3)))
    frame = dg.sample_copula(spec, 10000, dg.RngStream(0, 0))
    corr = np.corrcoef(frame.data, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.03
    assert np.max(np.abs(frame.data.mean(axis=0))) < 0.05


def test_benchmark_copula_correlation_and_stds():
    frame = dg.sample_copula(dg.benchmark_copula_spec(), 10000, dg.RngStream(1, 0))
    corr = np.corrcoef(frame.data, rowvar=False)
    # empirical correlation is attenuated vs the copula parameter -0.60
    assert abs(corr[0, 1] - (-0.57)) < 0.04
    stds = frame.data.std(axis=0, ddof=1)
    assert abs(stds[0] - 2.36) < 0.1   # mixture
    assert abs(stds[1] - 1.41) < 0.1   # t with 4 dof
    assert abs(stds[2] - 2.0) < 0.1 and abs(stds[3] - 2.0) < 0.1


def test_copula_marginals_pass_ks():
    spec = dg.benchmark_copula_spec()
    frame = dg.sample_copula(spec, 10000, dg.RngStream(2, 0))
    for j, marginal in enumerate(spec.marginals):
        u = np.asarray(marginal.cdf(frame.data[:, j]))
        d = sps.kstest(u, "uniform").statistic
        assert d <= 1.63 / np.sqrt(10000)


def test_copula_depends_only_on_cholesky():
    R1 = np.array([[1.0, 0.5], [0.5, 1.0]])
    # perturbation below half an ulp rounds to the same stored matrix
    R2 = R1 + np.array([[0.0, 1e-18], [1e-18, 0.0]])
    marginals = (dg.MarginalSpec("normal"), dg.MarginalSpec("normal"))
    f1 = dg.sample_copula(dg.CopulaSpec(2, R1, marginals), 100, dg.RngStream(3, 0))
    f2 = dg.sample_copula(dg.CopulaSpec(2, R2, marginals), 100, dg.RngStream(3, 0))
    np.testing.assert_array_equal(f1.data, f2.data)
    # a representable 1e-16 perturbation stays within 1e-12 of the original
    R3 = R1 + np.array([[0.0, 2e-16], [2e-16, 0.0]])
    f3 = dg.sample_copula(dg.CopulaSpec(2, R3, marginals), 100, dg.RngStream(3, 0))
    np.testing.assert_allclose(f1.data, f3.data, atol=1e-12)


def test_copula_not_positive_definite():
    R = np.array([[1.0, 1.2], [1.2, 1.0]])
    spec = dg.CopulaSpec(2, R, (dg.MarginalSpec("normal"), dg.MarginalSpec("normal")))
    with pytest.raises(NotPositiveDefinite):
        dg.sample_copula(spec, 10, dg.RngStream(0, 0))


def test_marginal_quantile_normal_median():
    assert dg.marginal_quantile(dg.MarginalSpec("normal", mu=0.0, sigma=2.0), 0.5) == 0.0


def test_marginal_quantile_student_t_critical_value():
    q = dg.marginal_quantile(dg.MarginalSpec("student_t", nu=4.0), 0.975)
    assert abs(q - 2.7764) < 1e-3
    # independent oracle
    assert abs(q - sps.t.ppf(0.975, 4)) < 1e-8


def test_marginal_quantile_mixture_cdf_roundtrip():
    spec = dg.MarginalSpec("gaussian_mixture", weights=(0.5, 0.5),
                           mus=(-1.5, 2.0), sigmas=(2.0, 1.0))
    for u in np.linspace(0.01, 0.99, 25):
        x = dg.marginal_quantile(spec, u)
        assert abs(float(spec.cdf(x)) - u) <= 1e-9


def test_marginal_quantile_domain():
    with pytest.raises(DomainError):
        dg.marginal_quantile(dg.MarginalSpec("normal"), 1.0)


def test_mixture_and_t_moments():
    # mean/std reading of the location-scale arguments
    spec = dg.benchmark_copula_spec()
    mix = spec.marginals[0]
    var = 0.5 * (4 + 1.5 ** 2) + 0.5 * (1 + 2 ** 2) - 0.25 ** 2
    assert abs(np.sqrt(var) - 2.3585) < 1e-3


def test_ar1_white_noise_case():
    frame = dg.ar1_ewma_process(2, 0.0, np.eye(2), 5000, ewma_span=1, rng=dg.RngStream(4, 0))
    from marketgen.evaluate import acf

    for j in range(2):
        assert abs(acf(frame.data[:, j], 1).estimate[0]) <= 0.05


def test_ar1_phi_half_acf():
    frame = dg.ar1_ewma_process(2, 0.5, np.eye(2), 5000, ewma_span=1, rng=dg.RngStream(5, 0))
    from marketgen.evaluate import acf

    for j in range(2):
        assert abs(acf(frame.data[:, j], 1).estimate[0] - 0.5) <= 0.05


def test_ar1_determinism():
    a = dg.ar1_ewma_process(2, 0.3, np.eye(2), 100, ewma_span=3, rng=dg.RngStream(6, 0))
    b = dg.ar1_ewma_process(2, 0.3, np.eye(2), 100, ewma_span=3, rng=dg.RngStream(6, 0))
    np.testing.assert_array_equal(a.data, b.data)


def test_streams_are_distinct():
    g0 = dg.RngStream(7, 0).generator().standard_normal(100)
    g1 = dg.RngStream(7, 1).generator().standard_normal(100)
    assert not np.array_equal(g0, g1)


def test_stream_reproducible():
    a = dg.RngStream(8, 3).generator().standard_normal(10)
    b = dg.RngStream(8, 3).generator().standard_normal(10)
    np.testing.assert_array_equal(a, b)


def _scalar_quantile(spec, u):
    """The per-element bisection marginal_quantile replaced, as the oracle."""
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


@pytest.mark.parametrize("j", [0, 1], ids=["mixture", "student_t"])
def test_marginal_quantile_array_equals_scalar_bisection(j):
    # 2,000 copula draws of column j as sample_copula clips them, then the
    # edge values of that clip and of the tolerance
    spec = dg.benchmark_copula_spec()
    z = dg.RngStream(5, 0).generator().standard_normal((2000, spec.d)) @ spec.cholesky().T
    tiny = np.finfo(float).tiny
    u = np.concatenate([np.clip(ndtr(z[:, j]), tiny, 1.0 - 1e-16),
                        [tiny, 1e-300, 1e-17, 1e-10, 0.5, 1.0 - 2e-16, 1.0 - 1e-16]])
    marginal = spec.marginals[j]
    got = dg.marginal_quantile(marginal, u)
    want = np.array([_scalar_quantile(marginal, ui) for ui in u])
    assert np.array_equal(got, want)
    # batch independence: a slice alone gives that slice of the whole
    np.testing.assert_array_equal(dg.marginal_quantile(marginal, u[123:456]), got[123:456])
    np.testing.assert_array_equal(dg.marginal_quantile(marginal, u[::-1]), got[::-1])


@pytest.mark.parametrize("bad", [0.0, 1.0])
def test_marginal_quantile_array_domain(bad):
    for marginal in dg.benchmark_copula_spec().marginals[:3]:
        with pytest.raises(DomainError):
            dg.marginal_quantile(marginal, np.array([0.2, bad, 0.7]))
