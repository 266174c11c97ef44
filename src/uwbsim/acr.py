"""Autocorrelation receiver: de-spreading, correlation sampling, and the
matching discrete statistical model.

De-spreading sums the received waveform at the N_f hopped frame positions,
y(t) = sum_j r(t + j*T_f + c_j*T_c), which coherently stacks the per-frame
multipath response.  A correlation sample integrates two de-spread capture
windows against each other and carries a fixed 1/N_f receiver gain:

    Y_{i,m} = (1/N_f) * int_0^Tg y(t + i*T_s) * y(t + (i-m)*T_s) dt

With that gain the noiseless sample equals prod(a_{i-m+1}..a_i) * N_f * E_g
and the additive noise variance is noise_variance() below; the gain is what
makes the closed-form variance hold at the waveform level (verified by the
moment-matching test case).

Overlapping sampling takes m = 1..M for every symbol i = 1..N and zero-pads
the M(M-1)/2 entries with i < m, which reference windows before the packet.
Block sampling partitions the N symbols into U = N/M blocks and correlates
every window pair inside a block (plus the reference window just before it),
M(M+1)/2 samples per block.
"""

from dataclasses import dataclass

import numpy as np

from .waveform import SampledSignal, ThCode


def signal_amplitude(N_f: int, E_g: float) -> float:
    """Noiseless magnitude of a correlation sample."""
    return N_f * E_g


def noise_variance(N_f: int, E_g: float, N0: float, W: float, T_g: float) -> float:
    """Variance of the additive noise on a correlation sample.

    First term: signal-times-noise beat; second: noise-times-noise over the
    WT_g degrees of freedom of the capture window.
    """
    if N_f < 1 or E_g < 0 or N0 < 0 or W <= 0 or T_g <= 0:
        raise ValueError("bad noise model parameters")
    return N_f * N0 * E_g + W * T_g * N0 ** 2 / 2.0


@dataclass(frozen=True)
class NoiseModel:
    """Bundle of the quantities fixing the sample statistics."""

    N_f: int
    E_g: float
    N0: float
    W: float
    T_g: float

    @property
    def amplitude(self) -> float:
        return signal_amplitude(self.N_f, self.E_g)

    @property
    def sigma_n_sq(self) -> float:
        return noise_variance(self.N_f, self.E_g, self.N0, self.W, self.T_g)


@dataclass
class CorrSamples:
    """Overlapping correlation samples: values[i-1, m-1] = Y_{i,m}.

    pad_mask is True where the sample was zero-padded (i < m).
    """

    values: np.ndarray
    pad_mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.pad_mask = np.asarray(self.pad_mask, dtype=bool)
        if self.values.shape != self.pad_mask.shape or self.values.ndim != 2:
            raise ValueError("values and pad_mask must be equal-shape 2-d arrays")
        if np.any(self.values[self.pad_mask] != 0.0):
            raise ValueError("padded entries must be zero")

    @property
    def n_symbols(self) -> int:
        return self.values.shape[0]

    @property
    def window(self) -> int:
        return self.values.shape[1]


def pad_mask_for(N: int, M: int) -> np.ndarray:
    """Mask of zero-padded entries: sample (i, m) exists only for m <= i."""
    i = np.arange(1, N + 1)[:, None]
    m = np.arange(1, M + 1)[None, :]
    return m > i


@dataclass
class BlockCorrSamples:
    """Block correlation samples.

    values[u, r, c] correlates windows i = u*M + r + 1 and j = u*M + c
    (0-based u, r, c); only c <= r is meaningful, giving M(M+1)/2 samples
    per block.  Entries with c > r are zero.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[1] != self.values.shape[2]:
            raise ValueError("values must be (U, M, M)")

    @property
    def n_blocks(self) -> int:
        return self.values.shape[0]

    @property
    def block_size(self) -> int:
        return self.values.shape[1]

    @property
    def n_symbols(self) -> int:
        return self.n_blocks * self.block_size

    @property
    def valid_mask(self) -> np.ndarray:
        M = self.block_size
        return np.tril(np.ones((M, M), dtype=bool))


def despread_windows(received: SampledSignal, th: ThCode, params,
                     n_windows: int) -> np.ndarray:
    """Capture windows of the de-spread signal: row i is y(t + i*T_s), t in [0, T_g)."""
    th.validate(params)
    x = received.samples
    G = params.to_samples(params.T_g)
    step = params.to_samples(params.T_s)
    offs = [params.to_samples(j * params.T_f + c * params.T_c)
            for j, c in enumerate(th.chips)]
    need = (n_windows - 1) * step + max(offs) + G
    if need > len(x):
        raise ValueError("capture window exceeds the received signal extent")
    out = np.zeros((n_windows, G))
    for i in range(n_windows):
        base = i * step
        for k in offs:
            out[i] += x[base + k:base + k + G]
    return out


def sample_overlapping(received: SampledSignal, th: ThCode, params,
                       N: int, M: int) -> CorrSamples:
    """Overlapping correlation samples Y_{i,m} for i = 1..N, m = 1..M."""
    if M < 1 or N < M:
        raise ValueError("need 1 <= M <= N")
    D = despread_windows(received, th, params, N + 1)
    dt = 1.0 / received.f_sim
    Y = np.zeros((N, M))
    mask = pad_mask_for(N, M)
    for i in range(1, N + 1):
        for m in range(1, min(M, i) + 1):
            Y[i - 1, m - 1] = dt * float(D[i] @ D[i - m]) / params.N_f
    return CorrSamples(Y, mask)


def sample_block(received: SampledSignal, th: ThCode, params,
                 N: int, M: int) -> BlockCorrSamples:
    """Block correlation samples for U = N/M blocks of M symbols."""
    if M < 1:
        raise ValueError("need M >= 1")
    if N % M != 0:
        raise ValueError("block sampling needs N divisible by M")
    D = despread_windows(received, th, params, N + 1)
    dt = 1.0 / received.f_sim
    U = N // M
    vals = np.zeros((U, M, M))
    for u in range(U):
        for r in range(M):
            for c in range(r + 1):
                vals[u, r, c] = dt * float(D[u * M + r + 1] @ D[u * M + c]) / params.N_f
    return BlockCorrSamples(vals)


def _running_products(symbols: np.ndarray) -> np.ndarray:
    """C[k] = a_1*...*a_k with C[0] = 1."""
    symbols = np.asarray(symbols, dtype=float)
    if symbols.ndim != 1 or np.any(np.abs(symbols) != 1):
        raise ValueError("symbols must be a 1-d array of +-1")
    return np.concatenate([[1.0], np.cumprod(symbols)])


def generate_discrete(symbols: np.ndarray, M: int, model: NoiseModel,
                      rng: np.random.Generator) -> CorrSamples:
    """Draw overlapping samples directly from the discrete model (fast path).

    Noise entries are i.i.d. Gaussian; the waveform path retains the true
    (weak) correlations between samples sharing a capture window.
    """
    C = _running_products(symbols)
    N = len(symbols)
    if M < 1 or N < M:
        raise ValueError("need 1 <= M <= N")
    i = np.arange(1, N + 1)[:, None]
    m = np.arange(1, M + 1)[None, :]
    mask = m > i
    prod = C[i] * C[np.maximum(i - m, 0)]
    Y = prod * model.amplitude
    if model.N0 > 0:
        Y = Y + rng.normal(0.0, np.sqrt(model.sigma_n_sq), Y.shape)
    Y[mask] = 0.0
    return CorrSamples(Y, mask)


def generate_discrete_blocks(symbols: np.ndarray, M: int, model: NoiseModel,
                             rng: np.random.Generator) -> BlockCorrSamples:
    """Block-sampling counterpart of generate_discrete."""
    C = _running_products(symbols)
    N = len(symbols)
    if M < 1 or N % M != 0:
        raise ValueError("need M >= 1 and N divisible by M")
    U = N // M
    u = np.arange(U)[:, None, None]
    r = np.arange(M)[None, :, None]
    c = np.arange(M)[None, None, :]
    tril = (r >= c).astype(float)
    vals = C[u * M + r + 1] * C[u * M + c] * model.amplitude * tril
    if model.N0 > 0:
        vals = vals + rng.normal(0.0, np.sqrt(model.sigma_n_sq), vals.shape) * tril
    return BlockCorrSamples(vals)


def estimate_Eg(samples, N_f: int) -> float:
    """Mean-magnitude energy estimate over the non-padded samples."""
    if isinstance(samples, CorrSamples):
        vals = samples.values[~samples.pad_mask]
    elif isinstance(samples, BlockCorrSamples):
        sel = np.broadcast_to(samples.valid_mask, samples.values.shape)
        vals = samples.values[sel]
    else:
        raise TypeError("samples must be CorrSamples or BlockCorrSamples")
    if vals.size == 0:
        raise ValueError("no samples to estimate from")
    return float(np.sum(np.abs(vals)) / (vals.size * N_f))
