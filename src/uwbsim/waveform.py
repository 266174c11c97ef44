"""Pulse shaping, time hopping, and waveform-level transmit/receive operations.

All waveforms are plain arrays on the uniform grid at params.f_sim.  Integrals
are Riemann sums weighted by params.dt, so a unit-energy pulse satisfies
sum(w**2) * dt == 1.
"""

import bisect
from dataclasses import dataclass

import numpy as np

# ratio T_omega / sigma of the Gaussian doublet; 7 keeps 99.98% of the
# untruncated pulse energy inside the [0, T_omega] support
SHAPE_RATIO = 7.0


@dataclass
class ThCode:
    """Per-frame time-hopping chip indices c_0..c_{N_f-1}, each in [0, N_c)."""

    chips: np.ndarray

    def __post_init__(self):
        chips = np.asarray(self.chips)
        self.chips = chips.astype(int)
        if chips.ndim != 1 or np.any(self.chips != chips):
            raise ValueError("chips must be a 1-d integer array")

    def offsets(self, params) -> list[int]:
        """Checked hop offsets j*T_f + c_j*T_c of the frames, in samples."""
        if len(self.chips) != params.N_f:
            raise ValueError("need one chip per frame")
        if np.any(self.chips < 0) or np.any(self.chips >= params.N_c):
            raise ValueError("chip indices must lie in [0, N_c)")
        return [params.to_samples(j * params.T_f + c * params.T_c)
                for j, c in enumerate(self.chips)]

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


def transmit(diff_symbols: np.ndarray, params, th: ThCode,
             channel) -> np.ndarray:
    """Noiseless received signal of d_0..d_N through `channel`.

    The channel's pulse response g is rendered once and written, d_i-weighted,
    at every hop offset of every symbol.  While frame responses do not overlap
    (always at the default SystemParams), each sample is the same tap-ordered
    sum as passing the whole pulse train through the channel.  The buffer is
    zero-padded to a fast FFT length for the front-end filter.
    """
    import scipy.fft
    d = np.asarray(diff_symbols, dtype=float)
    if d.ndim != 1 or d.size == 0 or np.any(np.abs(d) != 1):
        raise ValueError("diff_symbols must be a non-empty 1-d array of +-1")
    offs = th.offsets(params)
    pulse = monocycle(params)
    step = params.to_samples(params.T_s)
    if max(offs) + len(pulse) > step:
        raise ValueError("hopped pulse spills out of its frame")
    g = apply_channel(pulse, channel, params)
    out = np.zeros(scipy.fft.next_fast_len(
        step * len(d) + len(g) - len(pulse)))
    for i, di in enumerate(d):
        for k in offs:
            out[i * step + k:i * step + k + len(g)] += di * g
    return out


def apply_channel(x: np.ndarray, channel, params) -> np.ndarray:
    """Delay-and-sum of the channel taps, delays snapped to the grid."""
    delays = np.asarray(channel.delays, dtype=float)
    gains = np.asarray(channel.gains, dtype=float)
    if np.any(delays > params.T_g):
        raise ValueError("channel tap beyond T_g; truncate the realization first")
    idx = np.round(delays * params.f_sim).astype(int)
    out = np.zeros(len(x) + (int(idx.max()) if len(idx) else 0))
    for k, g in zip(idx, gains):
        out[k:k + len(x)] += g * x
    return out


def brickwall_lowpass(x: np.ndarray, f_sim: float, W: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Ideal low-pass: zero all DFT bins above W (circular convolution)."""
    spec = np.fft.rfft(x)
    # first bin above W; bin k sits at k * df, computed as np.fft.rfftfreq does
    df = 1.0 / (len(x) * (1.0 / f_sim))
    k = bisect.bisect_right(range(len(spec)), W, key=lambda i: i * df)
    spec[k:] = 0.0
    return np.fft.irfft(spec, n=len(x), out=out)


def add_awgn_and_filter(x: np.ndarray, N0: float, params,
                        rng: np.random.Generator | None = None) -> np.ndarray:
    """Add white noise of two-sided PSD N0/2, then apply the front-end low-pass."""
    if N0 < 0:
        raise ValueError("N0 must be nonnegative")
    out = None
    if N0 > 0:
        if rng is None:
            raise ValueError("rng required when N0 > 0")
        noise = rng.normal(0.0, np.sqrt(N0 * params.f_sim / 2.0), len(x))
        # the filter output may overwrite the noise buffer, never the caller's x
        x = out = np.add(noise, x, out=noise)
    return brickwall_lowpass(x, params.f_sim, params.W, out=out)
