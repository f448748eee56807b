import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from climbdetect.errors import (DegenerateSample, InvalidParams, TooFewSamples)
from climbdetect.gamma_model import (MIN_FIT_SAMPLES, GammaParams, HypothesisModel,
                                     fit_mle, log_pdf, shape_from_log_gap)
from gamma_oracles import chi_square_3, chi_square_gof, exponential, fit_mle_exact


class TestLogPdf:
    def test_exponential_at_origin_is_floored(self):
        # x = 0 floors to 1e-6; Exp(1) log density there is -1e-6
        assert log_pdf(0.0, GammaParams(1.0, 1.0)) == pytest.approx(-1e-6)

    def test_hand_value(self):
        # Exp with scale 2 at x = 4: log(0.5 * exp(-2))
        assert log_pdf(4.0, GammaParams(1.0, 2.0)) == pytest.approx(
            math.log(0.5) - 2.0, abs=1e-12)

    def test_density_integrates_to_one(self):
        p = GammaParams(2.5, 0.7)
        total, _ = quad(lambda x: math.exp(log_pdf(x, p)), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k, theta", [(0.3, 0.02), (1.0, 1.0), (1.5, 2.0), (2.0, 0.05),
                                          (2.5, 0.8), (47.5, 0.9)])
    def test_matches_scipy_logpdf(self, k, theta):
        xs = np.array([1e-6, 1e-3, 0.05, 0.7, 3.0, 40.0])
        np.testing.assert_allclose(log_pdf(xs, GammaParams(k, theta)),
                                   stats.gamma.logpdf(xs, k, scale=theta), rtol=1e-12, atol=0)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParams):
            GammaParams(-1.0, 1.0)
        with pytest.raises(InvalidParams):
            GammaParams(1.0, 0.0)
        with pytest.raises(InvalidParams):
            GammaParams(math.nan, 1.0)

    def test_strictly_decreasing_beyond_mode(self):
        p = GammaParams(3.0, 0.5)
        mode = (p.k - 1) * p.theta
        xs = np.linspace(mode + 1e-6, mode + 20, 500)
        vals = log_pdf(xs, p)
        assert np.all(np.diff(vals) < 0)

    def test_vectorized_matches_scalar(self):
        p = GammaParams(1.7, 2.2)
        xs = np.array([0.0, 0.3, 1.0, 7.5])
        np.testing.assert_allclose(log_pdf(xs, p),
                                   [log_pdf(float(x), p) for x in xs])


class TestFitMle:
    def test_shape_hand_value(self):
        # s = 1 gives (2 + sqrt(28)) / 12
        assert shape_from_log_gap(1.0) == pytest.approx(0.60763, abs=1e-5)

    def test_recovers_gamma_parameters(self):
        rng = np.random.default_rng(42)
        x = rng.gamma(2.0, 3.0, 100_000)
        fit = fit_mle(x)
        assert 1.9 <= fit.k <= 2.1
        assert 2.85 <= fit.theta <= 3.15

    def test_exponential_is_shape_one(self):
        rng = np.random.default_rng(7)
        fit = fit_mle(rng.exponential(1.0, 100_000))
        assert 0.97 <= fit.k <= 1.03

    def test_agrees_with_iterative_mle(self):
        rng = np.random.default_rng(11)
        x = rng.gamma(2.0, 3.0, 100_000)
        approx = fit_mle(x)
        exact = fit_mle_exact(x)
        assert approx.k == pytest.approx(exact.k, rel=0.015)

    def test_error_shrinks_with_sample_size(self):
        rng = np.random.default_rng(3)
        err = {}
        for n in (1_000, 100_000):
            fit = fit_mle(rng.gamma(2.0, 3.0, n))
            err[n] = abs(fit.k - 2.0) / 2.0 + abs(fit.theta - 3.0) / 3.0
        assert err[100_000] < err[1_000]

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(1.4, 0.8, 5_000)
        base = fit_mle(x)
        scaled = fit_mle(10.0 * x)
        assert scaled.k == pytest.approx(base.k, abs=1e-9)
        assert scaled.theta == pytest.approx(10.0 * base.theta, rel=1e-9)

    def test_too_few_samples(self):
        x = np.random.default_rng(7).gamma(2.0, 1.0, MIN_FIT_SAMPLES)
        for samples in (np.ones(10), x[:-1]):
            with pytest.raises(TooFewSamples):
                fit_mle(samples)
        fit_mle(x)  # exactly the minimum fits

    def test_constant_data_is_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_mle(np.full(100, 2.5))


class TestSpecialCases:
    def test_exponential_constructor(self):
        p = exponential(4.0)
        assert (p.k, p.theta) == (1.0, 0.25)

    def test_chi_square_3_constructor(self):
        p = chi_square_3()
        assert (p.k, p.theta) == (1.5, 2.0)
        assert p.k * p.theta == pytest.approx(3.0)


class TestChiSquareGof:
    def test_well_fitted_sample_accepted(self):
        rng = np.random.default_rng(19)
        x = rng.gamma(2.0, 1.5, 10_000)
        p_value = chi_square_gof(x, fit_mle(x))
        assert p_value > 0.01

    def test_bimodal_sample_rejected(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.gamma(20.0, 0.1, 5_000),
                            rng.gamma(200.0, 0.05, 5_000)])
        assert chi_square_gof(x, fit_mle(x)) < 1e-3

    def test_null_calibration(self):
        # p-values are roughly uniform when the data really is the fitted Gamma
        rng = np.random.default_rng(101)
        rejections = 0
        trials = 100
        for _ in range(trials):
            x = rng.gamma(2.0, 1.0, 2_000)
            if chi_square_gof(x, fit_mle(x)) < 0.05 :
                rejections += 1
        assert rejections / trials == pytest.approx(0.05, abs=0.05)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            chi_square_gof(np.ones(15), GammaParams(1.0, 1.0))


def test_hypothesis_model_holds_two_densities():
    m = HypothesisModel(h0=GammaParams(2.0, 0.05), h1=GammaParams(3.0, 1.0))
    assert m.h1.k * m.h1.theta > m.h0.k * m.h0.theta
