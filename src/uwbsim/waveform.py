"""Pulse shaping, time hopping, and waveform-level transmit/receive operations.

All waveforms live on a uniform grid at params.f_sim.  Integrals are Riemann
sums weighted by dt, so a unit-energy pulse satisfies sum(w**2) * dt == 1.
"""

from dataclasses import dataclass

import numpy as np

# ratio T_omega / sigma of the Gaussian doublet; 7 keeps 99.98% of the
# untruncated pulse energy inside the [0, T_omega] support
SHAPE_RATIO = 7.0


@dataclass
class SampledSignal:
    samples: np.ndarray
    f_sim: float


@dataclass
class ThCode:
    """Per-frame time-hopping chip indices c_0..c_{N_f-1}, each in [0, N_c)."""

    chips: np.ndarray

    def __post_init__(self):
        self.chips = np.asarray(self.chips, dtype=int)
        if self.chips.ndim != 1:
            raise ValueError("chips must be a 1-d integer array")

    def validate(self, params) -> None:
        if len(self.chips) != params.N_f:
            raise ValueError("need one chip per frame")
        if np.any(self.chips < 0) or np.any(self.chips >= params.N_c):
            raise ValueError("chip indices must lie in [0, N_c)")

    @classmethod
    def random(cls, params, rng: np.random.Generator) -> "ThCode":
        return cls(rng.integers(0, params.N_c, params.N_f))


def monocycle(params) -> np.ndarray:
    """Unit-energy Gaussian doublet sampled on [0, T_omega).

    Raises if the grid puts fewer than 8 samples across the pulse.
    """
    n = int(np.ceil(params.T_omega * params.f_sim))
    if n < 8:
        raise ValueError("grid too coarse: fewer than 8 samples across T_omega")
    t = np.arange(n) * params.dt
    u = (t - params.T_omega / 2.0) / (params.T_omega / SHAPE_RATIO)
    w = (1.0 - u * u) * np.exp(-0.5 * u * u)
    w /= np.sqrt(np.sum(w * w) * params.dt)
    return w


def symbol_waveform(params, th: ThCode) -> SampledSignal:
    """One symbol's pulse train: N_f hopped copies of the monocycle over [0, T_s)."""
    th.validate(params)
    pulse = monocycle(params)
    n = params.to_samples(params.T_s)
    out = np.zeros(n)
    for j, c in enumerate(th.chips):
        k = params.to_samples(j * params.T_f + c * params.T_c)
        if k + len(pulse) > n:
            raise ValueError("hopped pulse spills out of its frame")
        out[k:k + len(pulse)] += pulse
    return SampledSignal(out, params.f_sim)


def transmit(diff_symbols: np.ndarray, params, th: ThCode,
             channel) -> SampledSignal:
    """Noiseless received signal of d_0..d_N through `channel`.

    The channel-filtered symbol waveform is rendered once and superposed,
    d_i-weighted, at offsets i*T_s; the channel is linear and time-invariant,
    so this equals passing the whole pulse train through it, up to rounding.
    The buffer is zero-padded to a fast FFT length for the front-end filter.
    """
    import scipy.fft
    d = np.asarray(diff_symbols, dtype=float)
    if d.ndim != 1 or d.size == 0 or np.any(np.abs(d) != 1):
        raise ValueError("diff_symbols must be a non-empty 1-d array of +-1")
    template = apply_channel(symbol_waveform(params, th), channel,
                             params).samples
    step = params.to_samples(params.T_s)
    n = len(template)
    out = np.zeros(scipy.fft.next_fast_len(step * (len(d) - 1) + n))
    for i, di in enumerate(d):
        out[i * step:i * step + n] += di * template
    return SampledSignal(out, params.f_sim)


def apply_channel(sig: SampledSignal, channel, params) -> SampledSignal:
    """Delay-and-sum of the channel taps, delays snapped to the grid."""
    delays = np.asarray(channel.delays, dtype=float)
    gains = np.asarray(channel.gains, dtype=float)
    if np.any(delays > params.T_g):
        raise ValueError("channel tap beyond T_g; truncate the realization first")
    idx = np.round(delays * params.f_sim).astype(int)
    x = sig.samples
    out = np.zeros(len(x) + (int(idx.max()) if len(idx) else 0))
    for k, g in zip(idx, gains):
        out[k:k + len(x)] += g * x
    return SampledSignal(out, sig.f_sim)


def brickwall_lowpass(x: np.ndarray, f_sim: float, W: float) -> np.ndarray:
    """Ideal low-pass: zero all DFT bins above W (circular convolution)."""
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(len(x), 1.0 / f_sim)
    spec[freqs > W] = 0.0
    return np.fft.irfft(spec, n=len(x))


def add_awgn_and_filter(sig: SampledSignal, N0: float, params,
                        rng: np.random.Generator | None = None) -> SampledSignal:
    """Add white noise of two-sided PSD N0/2, then apply the front-end low-pass."""
    if N0 < 0:
        raise ValueError("N0 must be nonnegative")
    x = sig.samples
    if N0 > 0:
        if rng is None:
            raise ValueError("rng required when N0 > 0")
        x = x + rng.normal(0.0, np.sqrt(N0 * params.f_sim / 2.0), len(x))
    return SampledSignal(brickwall_lowpass(x, params.f_sim, params.W),
                         sig.f_sim)
