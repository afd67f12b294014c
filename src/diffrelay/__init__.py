"""Differential decode-and-forward relay simulator and SER analysis toolkit.

Modules: specfun (series kernels kept for the benchmark harness), constellation
(PSK/QAM alphabets), diffmod (differential mapping), channel (fading links
and counter-based streams), relay (demodulate-and-forward and epsilon
calibration), decoders (destination ML and piecewise-linear decoders),
analysis (pairwise error probability and SER evaluators), simkit (Monte
Carlo sweeps), cli (config-driven batch front end).
"""

from . import analysis, channel, constellation, decoders, diffmod, relay, simkit, specfun

__version__ = "0.1.0"
