import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from evtboost import losses
from evtboost.errors import DataError, NumericalError

import oracles
from helpers import fd_grad, fd_hess, rel_err


class TestLossSpec:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
    @pytest.mark.parametrize("field", ["alpha", "xi", "k_shape", "u_trunc"])
    def test_positive_parameters_must_be_finite(self, field, value):
        with pytest.raises(DataError, match=field):
            losses.LossSpec(kind="dgpd", **{field: value})

    @pytest.mark.parametrize("field, value", [("kappa", float("nan"))])
    def test_nan_fails_the_range_checks(self, field, value):
        with pytest.raises(DataError, match=field):
            losses.LossSpec(kind="cross_entropy", **{field: value})


class TestPoisson:
    def test_zero_count(self):
        value, _, _ = losses.poisson_eval(0, 0.0)
        assert value == pytest.approx(1.0)

    def test_vanishes_at_fit(self):
        value, _, _ = losses.poisson_eval(1, 0.0)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # 2*log(2) - 2 + 1
        value, _, _ = losses.poisson_eval(2, 0.0)
        assert value == pytest.approx(2 * math.log(2) - 1)

    def test_grad_hess_forms(self):
        _, grad, hess = losses.poisson_eval(3, 0.7)
        assert grad == pytest.approx(math.exp(0.7) - 3)
        assert hess == pytest.approx(math.exp(0.7))

    def test_rejects_negative_counts(self):
        with pytest.raises(DataError):
            losses.poisson_eval(-1, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(y=st.lists(st.one_of(st.just(0.0), st.integers(0, 10 ** 6).map(float),
                                st.floats(0.0, 1e300)), min_size=1, max_size=50),
           theta=st.floats(-20.0, 20.0))
    def test_value_matches_xlogy_bit_for_bit(self, y, theta):
        """y log y is computed with numpy as 0 at y = 0, as scipy's xlogy does."""
        y = np.array(y)
        value, _, _ = losses.poisson_eval(y, theta)
        expect = special.xlogy(y, y) - y * theta - y + np.exp(theta)
        assert value.tobytes() == expect.tobytes()


class TestDgpd:
    def test_zero_count_alpha_one(self):
        # pmf(0) = 1 - 1/2
        value, _, _ = losses.dgpd_eval(0, 0.0, 1.0)
        assert value == pytest.approx(math.log(2))

    def test_exact_arithmetic_value(self):
        # pmf(1) = 1/4 - 1/9 = 5/36
        value, _, _ = losses.dgpd_eval(1, 0.0, 2.0)
        assert value == pytest.approx(math.log(36 / 5))

    def test_hand_gradient(self):
        _, grad, _ = losses.dgpd_eval(1, 0.0, 1.0)
        assert grad == pytest.approx(1 / 6, rel=1e-12)

    def test_pmf_telescopes(self):
        theta, alpha = 0.3, 2.5
        ks = np.arange(0, 200)
        total = math.fsum(oracles.dgpd_pmf(ks, theta, alpha))
        expect = 1.0 - float(losses.dgpd_survival(200, theta, alpha))
        assert total == pytest.approx(expect, abs=1e-13)

    def test_underflow_raises(self):
        # the survival difference rounds to zero far down the left tail
        with pytest.raises(NumericalError):
            losses.dgpd_eval(5, -800.0, 1.0)


class TestDgpdMean:
    def test_basel_series(self):
        # sum_{k>=1} (1+k)^-2 = pi^2/6 - 1
        assert losses.dgpd_mean(0.0, 2.0) == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-10)

    def test_no_mean_below_one(self):
        with pytest.raises(DataError, match="does not exist"):
            losses.dgpd_mean(0.0, 1.0)

    def test_decreasing_in_theta(self):
        thetas = np.linspace(-1, 6, 15)
        means = losses.dgpd_mean(thetas, 2.0)
        assert np.all(np.diff(means) < 0)
        assert means[-1] < 0.01

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            theta = rng.uniform(-0.5, 2.0)
            alpha = rng.uniform(1.5, 6.0)
            ks = np.arange(1, 2_000_001, dtype=float)
            brute = float(np.exp(-alpha * np.log1p(np.exp(theta) * ks)).sum())
            got = losses.dgpd_mean(theta, alpha)
            # brute truncation error is below 1e-6 in this parameter range
            assert got == pytest.approx(brute, abs=1e-5)

    def test_nan_score_raises(self):
        with pytest.raises(NumericalError, match="not finite"):
            losses.dgpd_mean(float("nan"), 5.0)

    def test_overflow_raises(self):
        # c^-alpha = e^800 overflows
        with pytest.raises(NumericalError, match="not finite"):
            losses.dgpd_mean(-40.0, 20.0)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(-3.0, 6.0), alpha=st.floats(1.2, 20.0),
           step=st.floats(0.01, 1.0))
    def test_within_bracketed_partial_sum(self, theta, alpha, step):
        # after summing K terms the tail lies between I(K+1) and I(K),
        # with I(a) = (1 + c a)^(1 - alpha) / (c (alpha - 1))
        c, K = math.exp(theta), 2000
        ks = np.arange(1, K + 1, dtype=float)
        partial = float(np.exp(-alpha * np.log1p(c * ks)).sum())
        tail = lambda a: math.exp((1.0 - alpha) * math.log1p(c * a)) / (c * (alpha - 1.0))
        got = losses.dgpd_mean(theta, alpha)
        slack = 1e-9 * got
        assert partial + tail(K + 1) - slack <= got <= partial + tail(K) + slack
        assert losses.dgpd_mean(theta + step, alpha) < got


class TestTrGamma:
    def test_closed_form_exponential_case(self):
        # k=1: gamma(1, s) = 1 - e^-s
        expect = 0.5 + math.log(1 - math.exp(-1))
        value, _, _ = losses.trgamma_eval(0.5, 0.0, 1.0, 1.0)
        assert value == pytest.approx(expect)

    def test_huge_truncation_is_exponential_nll(self):
        value, _, _ = losses.trgamma_eval(2.0, 0.0, 1.0, 1e9)
        assert value == pytest.approx(2.0)

    def test_domain_errors(self):
        with pytest.raises(DataError):
            losses.trgamma_eval(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DataError):
            losses.trgamma_eval(1.5, 0.0, 1.0, 1.0)

    def test_density_integrates_to_one(self, rng):
        # exp(-loss) * k^k * y^(k-1) is the truncated density
        for _ in range(20):
            k = rng.uniform(0.7, 5.0)
            u = rng.uniform(0.5, 30.0)
            theta = rng.uniform(-1.0, 2.0)

            def density(y):
                v, _, _ = losses.trgamma_eval(y, theta, k, u)
                return math.exp(-float(v)) * k ** k * y ** (k - 1.0)

            total, err = integrate.quad(density, 0.0, u, limit=200,
                                        epsabs=1e-10, epsrel=1e-10)
            assert err < 1e-7
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_cdf_endpoints(self):
        assert losses.trgamma_cdf(0.0, 0.3, 2.0, 5.0) == pytest.approx(0.0)
        assert losses.trgamma_cdf(5.0, 0.3, 2.0, 5.0) == pytest.approx(1.0)
        mid = losses.trgamma_cdf(2.0, 0.3, 2.0, 5.0)
        assert 0.0 < mid < 1.0


class TestGpd:
    def test_unit_scale_value(self):
        # kappa=0.5, xi=1 makes A=1: NLL of standard GPD(1, 1) at y=1
        value, _, _ = losses.gpd_eval(1.0, 0.0, 1.0, 0.5)
        assert value == pytest.approx(2 * math.log(2))

    def test_matches_standard_parameterization(self, rng):
        for _ in range(50):
            sigma = rng.uniform(0.2, 10.0)
            xi = rng.uniform(0.05, 2.0)
            kappa = rng.uniform(0.05, 0.95)
            y = rng.uniform(0.01, 50.0)
            c = losses.gpd_scale_factor(xi, kappa)
            theta = math.log(sigma * c / xi)  # log kappa-quantile
            standard_nll = math.log(sigma) + (1 / xi + 1) * math.log1p(xi * y / sigma)
            value, _, _ = losses.gpd_eval(y, theta, xi, kappa)
            assert value == pytest.approx(standard_nll, abs=1e-10)

    def test_quantile_identity(self, rng):
        # the kappa-quantile of GPD(sigma, xi) equals e^theta
        for _ in range(20):
            sigma = rng.uniform(0.2, 5.0)
            xi = rng.uniform(0.1, 1.5)
            kappa = rng.uniform(0.1, 0.9)
            theta = math.log(sigma * losses.gpd_scale_factor(xi, kappa) / xi)
            q = math.exp(theta)
            assert losses.gpd_cdf_excess(q, sigma, xi) == pytest.approx(kappa, abs=1e-12)

    def test_requires_positive_excess(self):
        with pytest.raises(DataError):
            losses.gpd_eval(0.0, 0.0, 1.0, 0.5)

    def test_hessian_positive(self, rng):
        for _ in range(50):
            _, _, hess = losses.gpd_eval(rng.uniform(0.01, 100), rng.uniform(-3, 3),
                                         rng.uniform(0.05, 2.0), rng.uniform(0.05, 0.95))
            assert hess > 0


class TestCrossEntropy:
    def test_uniform_softmax(self):
        value, _, _ = losses.cross_entropy_eval([1, 0, 0], [0.0, 0.0, 0.0])
        assert value == pytest.approx(math.log(3))

    def test_weight_linearity(self):
        value, _, _ = losses.cross_entropy_eval([1, 0, 0], [0.0, 0.0, 0.0], 2.0)
        assert value == pytest.approx(2 * math.log(3))

    def test_confident_correct(self):
        # -log softmax(10)_1 with scores (0, 10, 0)
        expect = math.log(1 + 2 * math.exp(-10))
        value, _, _ = losses.cross_entropy_eval([0, 1, 0], [0.0, 10.0, 0.0])
        assert value == pytest.approx(expect, rel=1e-9)
        assert value == pytest.approx(9.080e-5, rel=1e-3)

    def test_shift_invariance(self, rng):
        theta = rng.normal(size=4)
        y = np.eye(4)[2]
        v1, _, _ = losses.cross_entropy_eval(y, theta)
        v2, _, _ = losses.cross_entropy_eval(y, theta + 13.7)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_grad_hess_forms(self, rng):
        theta = rng.normal(size=3)
        y = np.eye(3)[0]
        _, grad, hess = losses.cross_entropy_eval(y, theta, 1.7)
        p = losses.softmax(theta)
        np.testing.assert_allclose(grad, 1.7 * (p - y), rtol=1e-12)
        np.testing.assert_allclose(hess, 1.7 * p * (1 - p), rtol=1e-12)

    def test_rejects_non_one_hot(self):
        with pytest.raises(DataError):
            losses.cross_entropy_eval([1, 1, 0], [0.0, 0.0, 0.0])


class TestSquaredLog:
    def test_exact_fit(self):
        value, _, _ = losses.squared_log_eval(0.0, 0.0)
        assert value == pytest.approx(0.0)

    def test_unit_residual(self):
        value, _, _ = losses.squared_log_eval(math.e - 1, 0.0)
        assert value == pytest.approx(0.5)

    def test_quadratic_identities(self):
        value, grad, hess = losses.squared_log_eval(0.0, 2.0)
        assert value == pytest.approx(2.0)
        assert grad == pytest.approx(2.0)
        assert hess == pytest.approx(1.0)


def _random_case(kind, rng):
    theta = float(rng.uniform(-2.0, 2.0))
    if kind == "poisson":
        y = int(rng.integers(0, 30))
        return theta, lambda t: losses.poisson_eval(y, t), ()
    if kind == "dgpd":
        y = int(rng.integers(0, 40))
        alpha = float(rng.uniform(0.4, 10.0))
        return theta, lambda t: losses.dgpd_eval(y, t, alpha), ()
    if kind == "trgamma":
        k = float(rng.uniform(0.6, 5.0))
        u = float(rng.uniform(0.5, 30.0))
        y = float(rng.uniform(1e-3, u))
        return theta, lambda t: losses.trgamma_eval(y, t, k, u), ()
    if kind == "gpd":
        xi = float(rng.uniform(0.05, 2.0))
        kappa = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(1e-3, 80.0))
        return theta, lambda t: losses.gpd_eval(y, t, xi, kappa), ()
    y = float(rng.uniform(0.0, 200.0))
    return theta, lambda t: losses.squared_log_eval(y, t), ()


@pytest.mark.parametrize("kind", ["poisson", "dgpd", "trgamma", "gpd", "squared_log"])
def test_derivatives_match_finite_differences(kind, rng):
    for _ in range(100):
        theta, make, _ = _random_case(kind, rng)
        _, grad, hess = make(theta)
        g_fd = fd_grad(lambda t: make(t)[0], theta)
        h_fd = fd_hess(lambda t: make(t)[0], theta)
        assert rel_err(grad, g_fd) < 1e-6
        assert rel_err(hess, h_fd) < 1e-4


def test_cross_entropy_derivatives_match_finite_differences(rng):
    for _ in range(100):
        C = int(rng.integers(2, 5))
        theta = rng.normal(scale=1.5, size=C)
        y = np.eye(C)[int(rng.integers(0, C))]
        w = float(rng.uniform(0.2, 3.0))
        _, grad, hess = losses.cross_entropy_eval(y, theta, w)
        for c in range(C):
            def value_at(t, c=c):
                th = theta.copy()
                th[c] = t
                return losses.cross_entropy_eval(y, th, w)[0]

            assert rel_err(grad[c], fd_grad(value_at, theta[c])) < 1e-6
            assert rel_err(hess[c], fd_hess(value_at, theta[c])) < 1e-4
