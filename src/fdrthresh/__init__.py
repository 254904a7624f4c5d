"""Adaptive threshold estimation for Gaussian mean vectors.

Estimates a sparse n-dimensional mean from one noisy observation per
coordinate by thresholding at a data-driven level chosen through
false-discovery-rate multiple testing, together with the exact risk
machinery and Monte Carlo harness needed to evaluate such estimators.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .estimators import EstimateReport, fdr_threshold_estimate
from .risk import EmpiricalPrior, optimal_levels
from .selector import FdrConfig, SelectorTrace, select_lambda
from .thresholds import ThresholdFamily

__all__ = [
    "__version__",
    "EmpiricalPrior",
    "EstimateReport",
    "FdrConfig",
    "SelectorTrace",
    "ThresholdFamily",
    "fdr_threshold_estimate",
    "optimal_levels",
    "select_lambda",
]
