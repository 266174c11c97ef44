"""Full-length renderings of the transmit chain, kept as references for the
waveform tests: the hopped pulse train of one symbol over [0, T_s), and the
received signal built by passing that whole train through the channel and
superposing the filtered symbols.  `waveform.transmit` must equal the latter
bit for bit wherever frame responses do not overlap.  The receiver front end
is kept as it was before its inverse FFT wrote into the noise buffer;
`waveform.add_awgn_and_filter` must equal it bit for bit."""

import numpy as np
import scipy.fft

from uwbsim import waveform


def symbol_waveform(params, th: waveform.ThCode) -> np.ndarray:
    """One symbol's pulse train: N_f hopped copies of the monocycle over [0, T_s)."""
    th.offsets(params)
    pulse = waveform.monocycle(params)
    n = params.to_samples(params.T_s)
    out = np.zeros(n)
    for j, c in enumerate(th.chips):
        k = params.to_samples(j * params.T_f + c * params.T_c)
        if k + len(pulse) > n:
            raise ValueError("hopped pulse spills out of its frame")
        out[k:k + len(pulse)] += pulse
    return out


def transmit_full_train(diff_symbols, params, th: waveform.ThCode,
                        channel) -> np.ndarray:
    """Received signal of d_0..d_N: the channel-filtered symbol waveform,
    d_i-weighted and superposed at offsets i*T_s, in a buffer of the same
    fast FFT length as `waveform.transmit`."""
    d = np.asarray(diff_symbols, dtype=float)
    template = waveform.apply_channel(symbol_waveform(params, th), channel,
                                      params)
    step = params.to_samples(params.T_s)
    n = len(template)
    out = np.zeros(scipy.fft.next_fast_len(step * (len(d) - 1) + n))
    for i, di in enumerate(d):
        out[i * step:i * step + n] += di * template
    return out


def add_awgn_and_filter_fresh(x, N0, params, rng=None) -> np.ndarray:
    """Noise plus front-end low-pass, the filter output in a new array."""
    if N0 > 0:
        noise = rng.normal(0.0, np.sqrt(N0 * params.f_sim / 2.0), len(x))
        x = np.add(noise, x, out=noise)
    return waveform.brickwall_lowpass(x, params.f_sim, params.W)
