"""Brute-force references for the sliding-window detector's building blocks:
one step's evidence factor and the forward filtering distributions.  Written
the slow, obvious way, like the oracles in `uwbsim.reference`."""

import itertools

import numpy as np

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
