"""Simulator for a noncoherent differential UWB impulse-radio transceiver.

The receive chain is an autocorrelation front end: de-spread the time-hopped
pulse train, correlate capture windows of nearby symbols, and detect the
differentially encoded data from those correlation samples alone -- no
channel estimation.  Detection runs as forward/backward smoothing on the
symbol Markov chain (sliding window) or as independent block enumeration,
optionally exchanging extrinsic messages with an LDPC decoder.

Layout: `params` (system constants), `waveform`/`channel` (pulse-level
simulation and dense multipath), `txchain` (coding-side plumbing), `acr`
(correlation sampling and the discrete statistical model), `beliefs`
(probability-pair arrays), `msdd` (detectors), `ldpc` (code + decoder),
`joint` (iterative receiver), `reference` (brute-force oracles), `harness`
(test-case experiments), `cli` (command line).
"""

from .acr import BlockCorrSamples, CorrSamples, NoiseModel
from .channel import ChannelRealization, generate_cm2
from .harness import ExperimentConfig, default_config
from .joint import run_joint
from .ldpc import LdpcCode, construct_regular, decode, encode
from .msdd import (bmsdd_detect, bmsdd_extrinsic, build_trellis, detect_dd,
                   detect_mmsdd, msdd_app)
from .params import SystemParams
from .txchain import InterleaverMap

__version__ = "0.1.0"

__all__ = [
    "BlockCorrSamples", "ChannelRealization", "CorrSamples",
    "ExperimentConfig", "InterleaverMap", "LdpcCode", "NoiseModel",
    "SystemParams", "bmsdd_detect", "bmsdd_extrinsic", "build_trellis",
    "construct_regular", "decode", "default_config", "detect_dd",
    "detect_mmsdd", "encode", "generate_cm2", "msdd_app", "run_joint",
]
