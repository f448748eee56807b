"""Gamma observation models for the immobile (H0) and mobile (H1) hypotheses.

Signal norms are modelled as Gamma(k, theta); parameters come from a
closed-form approximate maximum-likelihood fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, InvalidParams, TooFewSamples

# Measured norms are never exactly zero; exact zeros are quantization
# artifacts, floored before any log.
SAMPLE_FLOOR = 1e-6

MIN_FIT_SAMPLES = 30


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameters of a Gamma density."""

    k: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.theta)):
            raise InvalidParams(f"non-finite parameters k={self.k}, theta={self.theta}")
        if self.k <= 0 or self.theta <= 0:
            raise InvalidParams(f"parameters must be positive, got k={self.k}, theta={self.theta}")


@dataclass(frozen=True)
class HypothesisModel:
    """One Gamma density per motion hypothesis for a single signal channel."""

    h0: GammaParams
    h1: GammaParams


def log_pdf(x, p: GammaParams):
    """Log Gamma density at each of ``x``, floored at SAMPLE_FLOOR."""
    xf = np.maximum(np.asarray(x, dtype=float), SAMPLE_FLOOR)
    return (p.k - 1.0) * np.log(xf) - xf / p.theta \
        - math.lgamma(p.k) - p.k * math.log(p.theta)


def shape_from_log_gap(s: float) -> float:
    """Closed-form shape estimate from s = log(mean) - mean(log).

    Second-order digamma approximation; accurate to about 1.5% over the
    useful range of k.
    """
    return (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)


def fit_mle(samples) -> GammaParams:
    """Approximate maximum-likelihood Gamma fit of nonnegative samples."""
    x = np.maximum(np.asarray(samples, dtype=float), SAMPLE_FLOOR)
    if x.ndim != 1 or len(x) < MIN_FIT_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    mean = float(np.mean(x))
    s = math.log(mean) - float(np.mean(np.log(x)))
    if s <= 1e-12:
        raise DegenerateSample("samples have no spread (constant data)")
    k = shape_from_log_gap(s)
    return GammaParams(k, mean / k)
