"""Saleh-Valenzuela dense multipath channel, 802.15.3a CM2 parameterization.

Clusters arrive Poisson at 0.4/ns and decay with a 5.5 ns time constant; rays
within a cluster arrive Poisson at 0.5/ns and decay with 6.7 ns.  Ray gains
are lognormal about the double-exponential power profile with a combined
4.8 dB standard deviation and random polarity.  Each realization is scaled to
unit total energy before truncation to [0, T_g]; the per-realization shadowing
factor is left out because of that normalization.
"""

from dataclasses import dataclass

import numpy as np

from . import waveform

CLUSTER_RATE = 0.4e9        # 1/s
RAY_RATE = 0.5e9
CLUSTER_DECAY = 5.5e-9      # s
RAY_DECAY = 6.7e-9
FADE_STD_DB = 3.3941        # per cluster and per ray, combined in quadrature

_CLUSTER_HORIZON = 10 * CLUSTER_DECAY
_RAY_HORIZON = 10 * RAY_DECAY
_MAX_REDRAWS = 100


@dataclass
class ChannelRealization:
    """Truncated tap list (delays in seconds, real gains)."""

    delays: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        self.delays = np.asarray(self.delays, dtype=float)
        self.gains = np.asarray(self.gains, dtype=float)
        if len(self.delays) != len(self.gains):
            raise ValueError("delays and gains must have equal length")
        if len(self.delays) and np.any(self.delays < 0):
            raise ValueError("tap delays must be nonnegative")


def _sv_tap_draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    sigma2_db = 2.0 * FADE_STD_DB ** 2
    ln10 = np.log(10.0)
    delays = []
    gains = []
    T = 0.0
    while T < _CLUSTER_HORIZON:
        tau = 0.0
        while tau < _RAY_HORIZON:
            # mean chosen so E[gain^2] follows exp(-T/Gamma) * exp(-tau/gamma)
            mu = (-10.0 * T / CLUSTER_DECAY - 10.0 * tau / RAY_DECAY) / ln10 \
                - sigma2_db * ln10 / 20.0
            x_db = mu + rng.normal(0.0, np.sqrt(sigma2_db))
            sign = 1 - 2 * int(rng.integers(0, 2))
            delays.append(T + tau)
            gains.append(sign * 10.0 ** (x_db / 20.0))
            tau += rng.exponential(1.0 / RAY_RATE)
        T += rng.exponential(1.0 / CLUSTER_RATE)
    return np.asarray(delays), np.asarray(gains)


def generate_cm2(params, rng: np.random.Generator) -> ChannelRealization:
    """Draw a CM2 realization: normalize to unit total energy, then truncate at T_g."""
    for _ in range(_MAX_REDRAWS):
        delays, gains = _sv_tap_draw(rng)
        total = np.sum(gains ** 2)
        if total <= 0:
            continue
        gains = gains / np.sqrt(total)
        keep = delays <= params.T_g
        if not np.any(keep):
            continue
        order = np.argsort(delays[keep])
        return ChannelRealization(delays[keep][order], gains[keep][order])
    raise RuntimeError("channel generation kept producing degenerate draws")


def received_pulse(channel: ChannelRealization, params, filtered: bool = False) -> np.ndarray:
    """Pulse-convolved tap response g(t) on the grid, starting at t = 0.

    With filtered=True the front-end brick-wall low-pass is applied (the
    returned array is aligned so index 0 still corresponds to t = 0; ringing
    ahead of t = 0 is discarded, as it falls outside any capture window).
    """
    g = waveform.apply_channel(waveform.monocycle(params), channel, params)
    if not filtered:
        return g
    pad = params.to_samples(40e-9)
    buf = np.zeros(len(g) + 2 * pad)
    buf[pad:pad + len(g)] = g
    buf = waveform.brickwall_lowpass(buf, params.f_sim, params.W)
    return buf[pad:]


def captured_energy(channel: ChannelRealization, params) -> float:
    """Energy of the received pulse inside the capture window [0, T_g]."""
    g = received_pulse(channel, params, filtered=False)
    n_g = params.to_samples(params.T_g)
    return float(np.sum(g[:n_g] ** 2) * params.dt)


def effective_captured_energy(channel: ChannelRealization, params) -> float:
    """Captured energy of the band-limited received pulse.

    This is the quantity the correlation-sample statistics actually see,
    because the front-end filter removes out-of-band pulse energy.
    """
    g = received_pulse(channel, params, filtered=True)
    n_g = params.to_samples(params.T_g)
    return float(np.sum(g[:n_g] ** 2) * params.dt)
