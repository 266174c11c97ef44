"""Differential detectors operating on correlation samples.

The data symbols form a Markov chain in the sliding state
S_i = (a_i, ..., a_{i-M+1}); sample Y_{i,m} observes the product of the m
newest entries of S_i times the signal amplitude.  Detection runs one
log-domain forward/backward sweep over the 2^M states for a stack of packets.
The merge output gamma deliberately excludes the symbol's own prior, so it is
the extrinsic message an outer decoder can consume; APP = prior * gamma.

The block detector treats U = N/M blocks independently, enumerating the 2^M
hypotheses of a block explicitly; its soft output lambda likewise excludes the
symbol's own prior.  The plain DD baseline just takes the sign of the
adjacent-symbol correlation.

The squared residual in the likelihood is divided by variance_factor * sigma^2
with variance_factor defaulting to 1 (not the conventional 2); a consistent
factor cancels from the detector's own posteriors but shifts the sharpness of
the soft outputs handed to a decoder, so it is exposed as a knob.
"""

import functools

import numpy as np

from . import beliefs
from .acr import BlockCorrSamples, CorrSamples

# hypothesis enumeration cost is 2^M; refuse absurd windows by default
MAX_WINDOW = 10

_TINY = np.finfo(float).tiny


def log_evidence_matrix(samples: CorrSamples, amplitude: float,
                        sigma_sq: float, variance_factor: int = 1
                        ) -> np.ndarray:
    """log p(Y_i | S_i) for every step and state, shape (N, 2^M).

    The squared residual is expanded so the state axis only enters through
    one (N,M)x(M,2^M) product; signs are +-1 so the quadratic term reduces to
    the per-row count of live samples.
    """
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    Y = samples.values
    keep = (~samples.pad_mask).astype(float)
    kY = Y * keep
    const = np.sum(kY * Y, axis=1) + amplitude ** 2 * keep.sum(axis=1)
    cross = kY @ _state_signs(samples.window).T
    se = const[:, None] - 2.0 * amplitude * cross
    return -se / (variance_factor * sigma_sq)


def _log_priors(priors, n: int) -> np.ndarray:
    if priors is None:
        return np.full((n, 2), np.log(0.5))
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (n, 2):
        raise ValueError("priors must have shape (N, 2)")
    return np.log(np.maximum(priors, _TINY))


# stacked sweep arrays hold at most this many (step, sequence, state)
# elements, about 4 MB each; callers size their batches by it
BATCH_ELEMENTS = 1 << 19


def _sweep(logE: np.ndarray, logp: np.ndarray):
    """Forward/backward sweep over B independent sequences at once.

    logE is (N, B, 2^M) log evidence and logp (N, B, 2) log priors, time
    major.  Returns max-normalized log alpha, (N+1, B, 2^M), whose row 0 is
    the all-+1 point mass, and log beta, (N+1, B, 2^(M-1)), whose row N is
    uniform.  State s is reached from s >> 1 and s >> 1 + 2^(M-1) by
    shifting in bit s & 1, so both recursions run on contiguous halves and
    even/odd slices of a row.  beta(S_i) depends only on the M-1 newest
    symbols, the ones later samples still see, so state s reads column
    s mod 2^(M-1).
    """
    N, B, S = logE.shape
    half = S >> 1
    la = np.empty((N + 1, B, S))
    lb = np.empty((N + 1, B, half))
    la[0] = -np.inf
    la[0, :, 0] = 0.0
    lb[N] = 0.0
    mx = np.empty((B, 1))
    mx0 = mx[:, 0]
    t = np.empty((B, half))
    t3 = t[:, :, None]
    for lo, hi, cur, cur3, e, lp in zip(
            la[:-1, :, :half], la[:-1, :, half:], la[1:],
            la[1:].reshape(N, B, half, 2), logE, logp[:, :, None, :]):
        np.logaddexp(lo, hi, out=t)
        np.add(t3, lp, out=cur3)
        np.add(cur, e, out=cur)
        np.maximum.reduce(cur, axis=1, out=mx0)
        np.subtract(cur, mx, out=cur)
    nxt = np.empty((B, 2, half))
    even, odd = nxt.reshape(B, S)[:, 0::2], nxt.reshape(B, S)[:, 1::2]
    u = np.empty((B, half))
    for nb, cur, e, lp0, lp1 in zip(
            lb[:0:-1, :, None, :], lb[-2::-1],
            logE.reshape(N, B, 2, half)[::-1], logp[::-1, :, :1],
            logp[::-1, :, 1:]):
        np.add(nb, e, out=nxt)
        np.add(even, lp0, out=u)
        np.add(odd, lp1, out=t)
        np.logaddexp(u, t, out=cur)
        np.maximum.reduce(cur, axis=1, out=mx0)
        np.subtract(cur, mx, out=cur)
    return la, lb


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis; overwrites x."""
    m = x.max(axis=-1)
    with np.errstate(invalid="ignore"):
        np.subtract(x, m[..., None], out=x)
        out = m + np.log(np.sum(np.exp(x, out=x), axis=-1))
    return np.where(np.isfinite(m), out, -np.inf)


def _merge_log(la: np.ndarray, lb: np.ndarray, logE: np.ndarray) -> np.ndarray:
    """Unnormalized log gamma (N, B, 2): prior of a_i intentionally left out.

    Shifting bit b into state s lands on 2*(s mod 2^(M-1)) + b, so the
    destination term for every source state is a broadcast of the even
    (b = 0) or odd (b = 1) half of the destination row.
    """
    N, B, S = logE.shape
    # indexed by destination state, rows i = 1..N
    post = (lb[1:, :, None, :] + logE.reshape(N, B, 2, S >> 1)).reshape(N, B, S)
    prev = la[:-1].reshape(N, B, 2, S >> 1)   # source states, rows i-1
    return np.stack([_row_logsumexp((prev + post[:, :, None, b::2])
                                    .reshape(N, B, S)) for b in (0, 1)],
                    axis=-1)


def msdd_app(samples: CorrSamples, M: int, amplitude: float, sigma_sq: float,
             priors=None, variance_factor: int = 1
             ) -> tuple[np.ndarray, np.ndarray]:
    """Full sliding-window detection pipeline; returns (app, gamma)."""
    if samples.window != M:
        raise ValueError("sample window does not match M")
    logE = log_evidence_matrix(samples, amplitude, sigma_sq,
                               variance_factor)[:, None, :]
    logp = _log_priors(priors, samples.n_symbols)[:, None, :]
    lg = _merge_log(*_sweep(logE, logp), logE)
    gamma = beliefs.from_log(lg[:, 0])
    app = beliefs.from_log((lg + logp)[:, 0])
    return app, gamma


def detect_mmsdd(samples, M: int, amplitude, sigma_sq,
                 variance_factor: int = 1) -> np.ndarray:
    """Hard sliding-window decisions under uniform priors, (B, N).

    samples is a sequence of B equal-length CorrSamples; amplitude and
    sigma_sq give each packet's detector statistics (scalars broadcast).
    One sweep serves the whole stack, so callers keep B * N * 2^M within
    BATCH_ELEMENTS.
    """
    if any(s.window != M for s in samples):
        raise ValueError("sample window does not match M")
    B = len(samples)
    amplitude = np.broadcast_to(amplitude, B)
    sigma_sq = np.broadcast_to(sigma_sq, B)
    logE = np.stack([log_evidence_matrix(s, a, v, variance_factor)
                     for s, a, v in zip(samples, amplitude, sigma_sq)], axis=1)
    logp = np.full(logE.shape[:2] + (2,), np.log(0.5))
    lg = _merge_log(*_sweep(logE, logp), logE)
    return beliefs.hard(beliefs.from_log(lg + logp)).T


def detect_dd(samples: CorrSamples) -> np.ndarray:
    """Conventional differential detection: sign of Y_{i,1}, ties to +1."""
    return np.where(samples.values[:, 0] >= 0.0, 1, -1).astype(int)


@functools.cache
def _state_signs(M: int) -> np.ndarray:
    """(2^M, M) table: row s, column m-1 is the product of the m newest
    symbols of sliding state s.

    Bit k of s set means a_{i-k} = -1, so state 0 is the all-+1 state and
    shifting symbol bit b into state s gives (2s + b) mod 2^M.
    """
    if not (1 <= M <= MAX_WINDOW):
        raise ValueError(f"window size must be in 1..{MAX_WINDOW}")
    bits = (np.arange(1 << M)[:, None] >> np.arange(M)[None, :]) & 1
    return np.cumprod(1 - 2 * bits, axis=1).astype(float)


@functools.cache
def _block_tables(M: int):
    """(bits, signs3, valid): per-hypothesis bit patterns and sample signs.

    bits[h, t] encodes local symbol x_{t+1} (0 means +1), the bit layout of
    sliding state h, so row h of _state_signs(M) holds the running products
    x_1..x_{t+1}.  signs3[h, r, c] is the noiseless sign of the block sample
    correlating windows r+1 and c under hypothesis h, i.e. the product
    x_{c+1}..x_{r+1}.
    """
    signs = _state_signs(M)
    bits = (np.arange(1 << M)[:, None] >> np.arange(M)[None, :]) & 1
    C = np.concatenate([np.ones((1 << M, 1)), signs], axis=1)
    valid = np.tril(np.ones((M, M), dtype=bool))
    signs3 = C[:, 1:, None] * C[:, None, :-1] * valid[None, :, :]
    return bits, signs3, valid


def _block_loglik(blocks: BlockCorrSamples, amplitude: float, sigma_sq: float,
                  variance_factor: int = 1) -> np.ndarray:
    """log p(block u | hypothesis h), shape (U, 2^M)."""
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    M = blocks.block_size
    _, signs3, valid = _block_tables(M)
    resid = blocks.values[:, None, :, :] - amplitude * signs3[None, :, :, :]
    se = np.einsum("uhrc,rc->uh", resid ** 2, valid.astype(float))
    return -se / (variance_factor * sigma_sq)


def bmsdd_extrinsic(blocks: BlockCorrSamples, priors, amplitude: float,
                    sigma_sq: float, variance_factor: int = 1) -> np.ndarray:
    """Per-symbol extrinsic lambda from independent block enumeration."""
    M = blocks.block_size
    U = blocks.n_blocks
    N = U * M
    bits, _, _ = _block_tables(M)
    ll = _block_loglik(blocks, amplitude, sigma_sq, variance_factor)
    logp = _log_priors(priors, N).reshape(U, M, 2)
    # per-hypothesis prior mass of the whole block, then remove own symbol
    lp_h = logp[:, np.arange(M)[None, :], bits[:, :]].sum(axis=2)
    lg = np.empty((U, M, 2))
    for t in range(M):
        term = ll + lp_h - logp[:, t, :][:, bits[:, t]]
        for b in (0, 1):
            cols = bits[:, t] == b
            sub = term[:, cols]
            mx = sub.max(axis=1)
            lg[:, t, b] = mx + np.log(np.sum(np.exp(sub - mx[:, None]), axis=1))
    return beliefs.from_log(lg.reshape(N, 2))


def bmsdd_detect(blocks: BlockCorrSamples) -> np.ndarray:
    """Hard block decisions: per-block max-likelihood hypothesis.

    The quadratic expands so the argmax only needs the sign-weighted sample
    sum; amplitude and noise level drop out.
    """
    bits, signs3, _ = _block_tables(blocks.block_size)
    score = np.einsum("urc,hrc->uh", blocks.values, signs3)
    best = np.argmax(score, axis=1)
    return (1 - 2 * bits[best]).reshape(-1).astype(int)
