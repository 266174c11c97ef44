"""References for the sliding-window detector.

Brute-force oracles for its building blocks, one step's evidence factor and
the forward filtering distributions, written the slow, obvious way like the
oracles in `uwbsim.reference`; and frozen copies of the detector's merge
path and of `beliefs.from_log` that pin their exact output bits."""

import itertools

import numpy as np

from uwbsim import beliefs, msdd
from uwbsim.acr import CorrSamples
from uwbsim.reference import _log_prior_table


def evidence(y_row, pad_row, state: int, amplitude: float,
             sigma_sq: float) -> float:
    """Likelihood factor p(Y_i | S_i = state) in (0, 1]; bit k of state set
    means a_{i-k} = -1, and padded samples contribute 1."""
    lw = 0.0
    prod = 1
    for m in range(1, len(y_row) + 1):
        prod *= -1 if (state >> (m - 1)) & 1 else 1
        if not pad_row[m - 1]:
            r = y_row[m - 1] - amplitude * prod
            lw -= r * r / sigma_sq
    return float(np.exp(lw))


def forward_state_marginals_bruteforce(samples: CorrSamples, M: int,
                                       amplitude: float, sigma_sq: float,
                                       priors=None) -> np.ndarray:
    """Filtering distributions p(S_i | Y_1..Y_i) by prefix enumeration."""
    N = samples.n_symbols
    S = 1 << M
    logp = _log_prior_table(priors, N)
    out = np.zeros((N + 1, S))
    out[0, 0] = 1.0
    for i in range(1, N + 1):
        weights = []
        states = []
        for prefix in itertools.product((1, -1), repeat=i):
            lw = 0.0
            for j in range(1, i + 1):
                lw += logp[j - 1, 0 if prefix[j - 1] == 1 else 1]
                for m in range(1, M + 1):
                    if samples.pad_mask[j - 1, m - 1]:
                        continue
                    prod = 1
                    for l in range(m):
                        prod *= prefix[j - 1 - l]
                    r = samples.values[j - 1, m - 1] - amplitude * prod
                    lw -= r * r / sigma_sq
            state = 0
            for k in range(M):
                sym = prefix[i - 1 - k] if i - 1 - k >= 0 else 1
                if sym == -1:
                    state |= 1 << k
            weights.append(lw)
            states.append(state)
        weights = np.array(weights)
        acc = np.zeros(S)
        shift = weights.max()
        for lw, state in zip(weights, states):
            acc[state] += np.exp(lw - shift)
        out[i] = acc / acc.sum()
    return out


# ---------------------------------------------------------------------------
# Frozen copies of the merge path as written before the merge ran in step
# blocks: the whole-packet evidence, a list of per-packet evidence matrices
# stacked into one array, and one merge over all N steps at once.  The
# package's msdd_app must keep returning exactly these bits.

def log_evidence_matrix(samples: CorrSamples, amplitude: float,
                        sigma_sq: float) -> np.ndarray:
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    Y = samples.values
    keep = (~samples.pad_mask).astype(float)
    kY = Y * keep
    const = np.sum(kY * Y, axis=1) + amplitude ** 2 * keep.sum(axis=1)
    cross = kY @ msdd._state_signs(samples.window).T
    se = const[:, None] - 2.0 * amplitude * cross
    return -se / sigma_sq


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1)
    with np.errstate(invalid="ignore"):
        np.subtract(x, m[..., None], out=x)
        out = m + np.log(np.sum(np.exp(x, out=x), axis=-1))
    return np.where(np.isfinite(m), out, -np.inf)


def merge_log(la: np.ndarray, lb: np.ndarray, logE: np.ndarray) -> np.ndarray:
    N, B, S = logE.shape
    post = logE.reshape(N, B, 2, S >> 1)
    np.add(post, lb[1:, :, None, :], out=post)
    post = post.reshape(N, B, S)
    prev = la[:-1].reshape(N, B, 2, S >> 1)
    term = np.empty((N, B, 2, S >> 1))
    lg = np.empty((N, B, 2))
    for b in (0, 1):
        np.add(prev, post[:, :, None, b::2], out=term)
        lg[..., b] = _row_logsumexp(term.reshape(N, B, S))
    return lg


def msdd_app(samples, M: int, amplitude, sigma_sq,
             priors=None) -> tuple[np.ndarray, np.ndarray]:
    if any(s.window != M for s in samples):
        raise ValueError("sample window does not match M")
    B = len(samples)
    amplitude = np.broadcast_to(amplitude, B)
    sigma_sq = np.broadcast_to(sigma_sq, B)
    logE = np.stack([log_evidence_matrix(s, a, v)
                     for s, a, v in zip(samples, amplitude, sigma_sq)], axis=1)
    N = logE.shape[0]
    if priors is None:
        priors = [None] * B
    elif len(priors) != B:
        raise ValueError("need one prior belief per packet")
    logp = np.stack([msdd._log_priors(p, N) for p in priors], axis=1)
    lg = merge_log(*msdd._sweep(logE, logp), logE)
    gamma = from_log(lg)
    app = from_log(np.add(lg, logp, out=lg))
    return app.transpose(1, 0, 2), gamma.transpose(1, 0, 2)


def from_log(logp: np.ndarray) -> np.ndarray:
    """beliefs.from_log as a reduction over the last axis."""
    logp = np.asarray(logp, dtype=float)
    shifted = logp - logp.max(axis=-1, keepdims=True)
    shifted = np.maximum(shifted, -beliefs.LLR_CLIP)
    p = np.exp(shifted)
    return p / p.sum(axis=-1, keepdims=True)
