"""Gamma reference fits, special cases and a goodness-of-fit test for the tests.

``fit_mle_exact`` solves the maximum-likelihood equation
log(k) - digamma(k) = s by root finding; it is the oracle for the library's
closed-form ``climbdetect.gamma_model.fit_mle``. ``chi_square_gof`` judges
how well a fit describes its samples (acceptance criterion 10).
"""

import math

import numpy as np
from scipy import special, stats
from scipy.optimize import brentq

from climbdetect.errors import DegenerateSample, TooFewSamples
from climbdetect.gamma_model import MIN_FIT_SAMPLES, SAMPLE_FLOOR, GammaParams


def exponential(rate: float) -> GammaParams:
    """Exponential(rate) as the k = 1 special case."""
    return GammaParams(1.0, 1.0 / rate)


def chi_square_3() -> GammaParams:
    """Chi-square with 3 degrees of freedom (squared norm of a Gaussian triple)."""
    return GammaParams(1.5, 2.0)


def fit_mle_exact(samples) -> GammaParams:
    """Iterative MLE solving log(k) - digamma(k) = s."""
    x = np.maximum(np.asarray(samples, dtype=float), SAMPLE_FLOOR)
    if len(x) < MIN_FIT_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    mean = float(np.mean(x))
    s = math.log(mean) - float(np.mean(np.log(x)))
    if s <= 1e-12:
        raise DegenerateSample("samples have no spread (constant data)")
    k = brentq(lambda kk: math.log(kk) - special.digamma(kk) - s, 1e-6, 1e6)
    return GammaParams(k, mean / k)


def chi_square_gof(samples, p: GammaParams, bins: int = 20) -> float:
    """p-value of a Pearson chi-square goodness-of-fit test against ``p``.

    Bins are equal-probability under the fitted Gamma; the bin count is
    reduced so every bin expects at least 5 counts. Degrees of freedom are
    bins - 1 - 2, accounting for the two fitted parameters.
    """
    x = np.maximum(np.asarray(samples, dtype=float), SAMPLE_FLOOR)
    n = len(x)
    n_bins = min(int(bins), n // 5)
    if n_bins < 4:
        raise TooFewSamples(f"{n} samples support fewer than 4 bins of >=5 expected counts")
    # Interior edges; outer edges are 0 and +inf.
    edges = stats.gamma.ppf(np.linspace(0.0, 1.0, n_bins + 1)[1:-1], p.k, scale=p.theta)
    counts = np.bincount(np.searchsorted(edges, x, side="right"), minlength=n_bins)
    expected = n / n_bins
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    dof = n_bins - 1 - 2
    return float(stats.chi2.sf(statistic, dof))
