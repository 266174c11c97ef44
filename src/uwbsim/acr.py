"""Autocorrelation receiver: de-spreading, correlation sampling, and the
matching discrete statistical model.

De-spreading sums the received waveform at the N_f hopped frame positions,
y(t) = sum_j r(t + j*T_f + c_j*T_c), which coherently stacks the per-frame
multipath response.  A correlation sample integrates two de-spread capture
windows against each other and carries a fixed 1/N_f receiver gain:

    Y_{i,m} = (1/N_f) * int_0^Tg y(t + i*T_s) * y(t + (i-m)*T_s) dt

With that gain the noiseless sample equals prod(a_{i-m+1}..a_i) * N_f * E_g
and the additive noise variance is NoiseModel.sigma_n_sq below; the gain is
what makes the closed-form variance hold at the waveform level (verified by
the moment-matching test case).

Overlapping sampling takes m = 1..M for every symbol i = 1..N and zero-pads
the M(M-1)/2 entries with i < m, which reference windows before the packet.
Block sampling partitions the N symbols into U = N/M blocks and correlates
every window pair inside a block (plus the reference window just before it),
M(M+1)/2 samples per block.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .txchain import differential_modulate
from .waveform import ThCode


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
        """Noiseless magnitude of a correlation sample."""
        return self.N_f * self.E_g

    @property
    def sigma_n_sq(self) -> float:
        """Variance of the additive noise on a correlation sample.

        First term: signal-times-noise beat; second: noise-times-noise over
        the WT_g degrees of freedom of the capture window.
        """
        N_f, E_g, N0, W, T_g = self.N_f, self.E_g, self.N0, self.W, self.T_g
        if N_f < 1 or E_g < 0 or N0 < 0 or W <= 0 or T_g <= 0:
            raise ValueError("bad noise model parameters")
        return N_f * N0 * E_g + W * T_g * N0 ** 2 / 2.0


@dataclass
class CorrSamples:
    """Overlapping correlation samples: values[i-1, m-1] = Y_{i,m}.

    The entries with i < m are zero padding (pad_mask).
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if np.any(self.values[self.pad_mask] != 0.0):
            raise ValueError("padded entries must be zero")

    @property
    def pad_mask(self) -> np.ndarray:
        """True where the sample was zero-padded; read-only, shared."""
        return pad_mask_for(*self.values.shape)

    @property
    def n_symbols(self) -> int:
        return self.values.shape[0]

    @property
    def window(self) -> int:
        return self.values.shape[1]


@functools.lru_cache(maxsize=64)
def pad_mask_for(N: int, M: int) -> np.ndarray:
    """Mask of zero-padded entries: sample (i, m) exists only for m <= i.
    Cached per shape, so the array is read-only."""
    i = np.arange(1, N + 1)[:, None]
    m = np.arange(1, M + 1)[None, :]
    mask = m > i
    mask.flags.writeable = False
    return mask


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


def despread_windows(x: np.ndarray, th: ThCode, params,
                     n_windows: int) -> np.ndarray:
    """Capture windows of the de-spread signal x: row i is y(t + i*T_s), t in [0, T_g)."""
    offs = th.offsets(params)
    G = params.to_samples(params.T_g)
    step = params.to_samples(params.T_s)
    need = (n_windows - 1) * step + max(offs) + G
    if need > len(x):
        raise ValueError("capture window exceeds the received signal extent")
    # row r of `starts` is x[r:r + G]; rows k, k + step, ... are the windows
    starts = np.lib.stride_tricks.sliding_window_view(x, G)
    out = np.zeros((n_windows, G))
    for k in offs:
        out += starts[k:k + (n_windows - 1) * step + 1:step]
    return out


def sample_overlapping(received: np.ndarray, th: ThCode, params,
                       N: int, M: int) -> CorrSamples:
    """Overlapping correlation samples Y_{i,m} for i = 1..N, m = 1..M."""
    if M < 1 or N < M:
        raise ValueError("need 1 <= M <= N")
    D = despread_windows(received, th, params, N + 1)
    dt = params.dt
    Y = np.zeros((N, M))
    for i in range(1, N + 1):
        for m in range(1, min(M, i) + 1):
            Y[i - 1, m - 1] = dt * float(D[i] @ D[i - m]) / params.N_f
    return CorrSamples(Y)


def sample_block(received: np.ndarray, th: ThCode, params,
                 N: int, M: int) -> BlockCorrSamples:
    """Block correlation samples for U = N/M blocks of M symbols."""
    if M < 1:
        raise ValueError("need M >= 1")
    if N % M != 0:
        raise ValueError("block sampling needs N divisible by M")
    # block sample (u, r, c) is overlapping sample Y_{uM+r+1, r+1-c}
    Y = sample_overlapping(received, th, params, N, M).values
    u = np.arange(N // M)[:, None, None]
    r = np.arange(M)[None, :, None]
    c = np.arange(M)[None, None, :]
    vals = np.where(c <= r, Y[u * M + r, np.maximum(r - c, 0)], 0.0)
    return BlockCorrSamples(vals)


def generate_discrete(symbols: np.ndarray, M: int, model: NoiseModel,
                      rng: np.random.Generator) -> CorrSamples:
    """Draw overlapping samples directly from the discrete model (fast path).

    Noise entries are i.i.d. Gaussian; the waveform path retains the true
    (weak) correlations between samples sharing a capture window.
    """
    C = differential_modulate(symbols)
    N = len(symbols)
    if M < 1 or N < M:
        raise ValueError("need 1 <= M <= N")
    i = np.arange(1, N + 1)[:, None]
    m = np.arange(1, M + 1)[None, :]
    prod = C[i] * C[np.maximum(i - m, 0)]
    Y = prod * model.amplitude
    if model.N0 > 0:
        Y = Y + rng.normal(0.0, np.sqrt(model.sigma_n_sq), Y.shape)
    Y[m > i] = 0.0
    return CorrSamples(Y)


def generate_discrete_blocks(symbols: np.ndarray, M: int, model: NoiseModel,
                             rng: np.random.Generator) -> BlockCorrSamples:
    """Block-sampling counterpart of generate_discrete."""
    C = differential_modulate(symbols)
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
