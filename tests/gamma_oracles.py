"""Gamma reference fits and special cases for the tests.

``fit_mle_exact`` solves the maximum-likelihood equation
log(k) - digamma(k) = s by root finding; it is the oracle for the library's
closed-form ``climbdetect.gamma_model.fit_mle``.
"""

import math

import numpy as np
from scipy import special
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
