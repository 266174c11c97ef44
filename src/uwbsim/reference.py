"""Brute-force reference implementations for validating the detectors.

Everything here is written the slow, obvious way: enumerate every symbol
sequence (or block hypothesis), evaluate the joint weight directly from the
likelihood definition, and sum.  No trellis, no shared sign tables.  The fast
detectors must reproduce these numbers; the randomized suite in
run_oracle_check is also wired to the command line so the equivalence can be
re-checked on any install.
"""

import itertools

import numpy as np

from . import beliefs
from .acr import (BlockCorrSamples, CorrSamples, NoiseModel,
                  generate_discrete, generate_discrete_blocks)
from .msdd import bmsdd_extrinsic, msdd_app

_TINY = np.finfo(float).tiny


def _log_prior_table(priors, n):
    if priors is None:
        return np.full((n, 2), np.log(0.5))
    return np.log(np.maximum(np.asarray(priors, dtype=float), _TINY))


def _sequence_logweight(a, samples, M, amplitude, sigma_sq, logp):
    """Joint log weight of one full symbol sequence, straight from the model."""
    lw = 0.0
    for i in range(1, len(a) + 1):
        lw += logp[i - 1, 0 if a[i - 1] == 1 else 1]
        for m in range(1, M + 1):
            if samples.pad_mask[i - 1, m - 1]:
                continue
            prod = 1
            for l in range(m):
                prod *= a[i - 1 - l]
            r = samples.values[i - 1, m - 1] - amplitude * prod
            lw -= r * r / sigma_sq
    return lw


def app_marginals_bruteforce(samples: CorrSamples, M: int, amplitude: float,
                             sigma_sq: float, priors=None) -> np.ndarray:
    """Posterior symbol marginals by summing over all 2^N sequences."""
    N = samples.n_symbols
    logp = _log_prior_table(priors, N)
    seqs = list(itertools.product((1, -1), repeat=N))
    lw = np.array([_sequence_logweight(a, samples, M, amplitude, sigma_sq,
                                       logp) for a in seqs])
    out = np.empty((N, 2))
    for i in range(N):
        for col, b in enumerate((1, -1)):
            sel = np.array([a[i] == b for a in seqs])
            sub = lw[sel]
            mx = sub.max()
            out[i, col] = mx + np.log(np.sum(np.exp(sub - mx)))
    return beliefs.from_log(out)


def block_extrinsic_bruteforce(blocks: BlockCorrSamples, priors, amplitude: float,
                               sigma_sq: float) -> np.ndarray:
    """Per-symbol block extrinsics by explicit hypothesis enumeration."""
    M = blocks.block_size
    U = blocks.n_blocks
    logp = _log_prior_table(priors, U * M)
    out = np.empty((U * M, 2))
    for u in range(U):
        hyps = list(itertools.product((1, -1), repeat=M))
        ll = []
        for x in hyps:
            lw = 0.0
            for r in range(M):
                for c in range(r + 1):
                    prod = 1
                    for t in range(c, r + 1):
                        prod *= x[t]
                    resid = blocks.values[u, r, c] - amplitude * prod
                    lw -= resid * resid / sigma_sq
            ll.append(lw)
        ll = np.array(ll)
        for t in range(M):
            for col, b in enumerate((1, -1)):
                terms = []
                for h, x in enumerate(hyps):
                    if x[t] != b:
                        continue
                    lw = ll[h]
                    for j in range(M):
                        if j == t:
                            continue
                        lw += logp[u * M + j, 0 if x[j] == 1 else 1]
                    terms.append(lw)
                terms = np.array(terms)
                mx = terms.max()
                out[u * M + t, col] = mx + np.log(np.sum(np.exp(terms - mx)))
    return beliefs.from_log(out)


def _random_model(rng) -> NoiseModel:
    E_g = float(rng.uniform(0.5, 1.5))
    N0 = float(10 ** rng.uniform(-1.3, -0.3))
    return NoiseModel(N_f=10, E_g=E_g, N0=N0, W=2e9, T_g=100e-9)


def run_oracle_check(n_instances: int = 200, seed: int = 0) -> dict:
    """Randomized detector-vs-enumeration comparison; returns a report dict."""
    if n_instances < 1 or seed < 0:
        raise ValueError("need n_instances >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    worst_app = 0.0
    for _ in range(n_instances):
        M = int(rng.integers(1, 4))
        model = _random_model(rng)
        samples = generate_discrete(rng.choice((1, -1), size=8), M, model, rng)
        priors = beliefs.normalize(rng.uniform(0.05, 1.0, size=(8, 2)))
        (app,), _ = msdd_app([samples], M, model.amplitude,
                             model.sigma_n_sq, [priors])
        ref = app_marginals_bruteforce(samples, M, model.amplitude,
                                       model.sigma_n_sq, priors)
        rel = np.abs(app - ref) / np.maximum(ref, _TINY)
        worst_app = max(worst_app, float(rel.max()))

    worst_block = 0.0
    for _ in range(n_instances):
        M = int(rng.integers(1, 4))
        U = int(rng.integers(1, 4))
        model = _random_model(rng)
        blocks = generate_discrete_blocks(rng.choice((1, -1), size=U * M), M,
                                          model, rng)
        priors = beliefs.normalize(rng.uniform(0.05, 1.0, size=(U * M, 2)))
        lam = bmsdd_extrinsic(blocks, priors, model.amplitude, model.sigma_n_sq)
        ref = block_extrinsic_bruteforce(blocks, priors, model.amplitude,
                                         model.sigma_n_sq)
        worst_block = max(worst_block, float(np.abs(lam - ref).max()))

    return {
        "n_instances": n_instances,
        "seed": seed,
        "app_max_rel_err": worst_app,
        "app_pass": worst_app <= 1e-9,
        "block_max_abs_err": worst_block,
        "block_pass": worst_block <= 1e-12,
    }
