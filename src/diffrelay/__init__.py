"""Differential decode-and-forward relay simulator and SER analysis toolkit.

Modules: specfun (asymptotic-series kernels), constellation
(PSK/QAM alphabets), diffmod (differential mapping), channel (fading links
and counter-based streams), relay (demodulate-and-forward and epsilon
calibration), decoders (destination ML and piecewise-linear decoders),
analysis (pairwise error probability and SER evaluators), simkit (Monte
Carlo sweeps), cli (config-driven batch front end).
"""

from .analysis import (
    PepResult,
    PepTermsConfig,
    SnrPoint,
    fit_diversity_slope,
    pep_asymptotic_conditional,
    pep_asymptotic_multirelay,
    pep_exact,
    pep_quadrature_approx,
    ser_nearest_neighbor,
)
from .channel import LinkParams, make_stream
from .constellation import ConstellationSpec, make_psk, make_qam
from .decoders import DecoderConfig, clip_threshold, count_ops
from .relay import EpsilonEstimate, analytic_epsilon_psk, calibrate_epsilon
from .simkit import (
    ExperimentPlan,
    SerCurve,
    SerPoint,
    TrialsPolicy,
    compare_curves,
    run_point,
    run_sweep,
    snr_at_level,
    wilson_interval,
)
from .specfun import SeriesTruncation

__version__ = "0.1.0"

__all__ = [
    "ConstellationSpec",
    "DecoderConfig",
    "EpsilonEstimate",
    "ExperimentPlan",
    "LinkParams",
    "PepResult",
    "PepTermsConfig",
    "SerCurve",
    "SerPoint",
    "SeriesTruncation",
    "SnrPoint",
    "TrialsPolicy",
    "analytic_epsilon_psk",
    "calibrate_epsilon",
    "clip_threshold",
    "compare_curves",
    "count_ops",
    "fit_diversity_slope",
    "make_psk",
    "make_qam",
    "make_stream",
    "pep_asymptotic_conditional",
    "pep_asymptotic_multirelay",
    "pep_exact",
    "pep_quadrature_approx",
    "run_point",
    "run_sweep",
    "ser_nearest_neighbor",
    "snr_at_level",
    "wilson_interval",
    "__version__",
]
