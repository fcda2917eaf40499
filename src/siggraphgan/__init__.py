"""Synthetic financial time-series generation toolkit.

Pipeline: closing prices -> gaussianized return windows -> visibility-graph
encoded GAN training with truncated-signature losses -> generated windows
mapped back to log returns -> distribution metrics against the real data.
Classical GARCH(1,1) and geometric-Brownian-motion baselines are included
for comparison.
"""

__version__ = "0.1.0"

from .baselines import GarchParams, GbmParams, garch_fit, garch_simulate, gbm_fit, gbm_simulate
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .metrics import MetricsReport, build_report, emd_1d, k_day_aggregate, leverage_effect_score
from .preprocess import (
    PreprocessStats,
    PriceSeries,
    ReturnSeries,
    degaussianize,
    fit_delta,
    fit_stats,
    gaussianize,
    load_price_csv,
    log_returns,
)
from .siggan import SigGanConfig, SigGraphGan, generate, sig_kld_loss, sig_mse_loss, train
from .signature import leadlag_signature_batch, sig_length
from .visibility import VisibilityGraph, natural_visibility

__all__ = [
    "__version__",
    "Checkpoint",
    "GarchParams",
    "GbmParams",
    "MetricsReport",
    "PreprocessStats",
    "PriceSeries",
    "ReturnSeries",
    "SigGanConfig",
    "SigGraphGan",
    "VisibilityGraph",
    "build_report",
    "degaussianize",
    "emd_1d",
    "fit_delta",
    "fit_stats",
    "garch_fit",
    "garch_simulate",
    "gaussianize",
    "gbm_fit",
    "gbm_simulate",
    "generate",
    "k_day_aggregate",
    "leadlag_signature_batch",
    "leverage_effect_score",
    "load_checkpoint",
    "load_price_csv",
    "log_returns",
    "natural_visibility",
    "save_checkpoint",
    "sig_kld_loss",
    "sig_length",
    "sig_mse_loss",
    "train",
]
