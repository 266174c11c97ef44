"""Trellis detectors: structure, evidence, sweep, oracles, block variant."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uwbsim import acr, beliefs, msdd, reference
from uwbsim.params import SystemParams

import msdd_reference as frozen
from msdd_reference import evidence, forward_state_marginals_bruteforce

P = SystemParams()


def _instance(seed, n=8, m=3, E_g=1.0, N0=0.08, uniform_priors=False):
    """Random noisy instance plus the matched detector statistics."""
    rng = np.random.default_rng(seed)
    a = 1 - 2 * rng.integers(0, 2, n)
    model = acr.NoiseModel(P.N_f, E_g, N0, P.W, P.T_g)
    samples = acr.generate_discrete(a, m, model, rng)
    if uniform_priors:
        priors = None
    else:
        p = rng.uniform(0.05, 0.95, n)
        priors = np.column_stack([p, 1.0 - p])
    return a, samples, model, priors


def _app(samples, m, A, s2, priors=None):
    """(app, gamma) of one packet, run as a one-packet stack."""
    app, gamma = msdd.msdd_app([samples], m, A, s2,
                               None if priors is None else [priors])
    return app[0], gamma[0]


# ---------------------------------------------------------------------------
# trellis structure


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_trellis_state_and_transition_counts(m):
    signs = msdd._state_signs(m)
    assert signs.shape == (2 ** m, m)
    assert len({tuple(row) for row in signs}) == 2 ** m
    # shifting symbol bit b into state s lands on (2s + b) mod 2^M, whose
    # run products are the new symbol times 1 and the M-1 newest of s
    for s_prev in range(2 ** m):
        for b in (0, 1):
            want = (1 - 2 * b) * np.concatenate([[1.0], signs[s_prev, :-1]])
            assert np.array_equal(signs[(2 * s_prev + b) % 2 ** m], want)


def test_trellis_rejects_oversized_window():
    with pytest.raises(ValueError):
        msdd._state_signs(msdd.MAX_WINDOW + 1)
    with pytest.raises(ValueError):
        msdd._state_signs(0)


def test_trellis_signs_are_newest_run_products():
    signs = msdd._state_signs(3)
    for s in range(8):
        syms = 1 - 2 * ((s >> np.arange(3)) & 1)   # bit k set: a_{i-k} = -1
        for m in range(1, 4):
            assert signs[s, m - 1] == np.prod(syms[:m])


# ---------------------------------------------------------------------------
# evidence


def _log_evidence(rows, A, s2):
    samples = acr.CorrSamples(np.array(rows, dtype=float))
    return msdd.log_evidence_matrix(samples, A, s2)


def test_evidence_peaks_at_matching_state():
    # rows 2..5 hold the noiseless samples of each state; row 1 has its
    # lag-2 sample padded
    A, s2 = 7.0, 3.0
    logE = _log_evidence(np.vstack([[A, 0.0], A * msdd._state_signs(2)]),
                         A, s2)[1:]
    for state in range(4):
        assert np.exp(logE[state, state]) == pytest.approx(1.0)
        assert np.argmax(logE[state]) == state


def test_evidence_sign_flip_ratio():
    # flipping one matched sample of magnitude A multiplies the factor by
    # exp(-4 A^2 / sigma^2)
    A, s2 = 2.0, 5.0
    logE = _log_evidence([[A], [-A]], A, s2)
    assert np.exp(logE[1, 0] - logE[0, 0]) == pytest.approx(
        np.exp(-4 * A ** 2 / s2), rel=1e-12)


def test_evidence_ignores_padded_entries():
    # a padded lag-2 sample leaves only the newest symbol observed
    with_pad = _log_evidence([[1.3, 0.0]], 1.0, 2.0)
    alone = _log_evidence([[1.3]], 1.0, 2.0)
    assert np.allclose(with_pad[0], alone[0, np.arange(4) & 1], rtol=1e-12)


def test_log_evidence_matrix_matches_scalar_evidence():
    a, samples, model, _ = _instance(0, n=6, m=3)
    logE = msdd.log_evidence_matrix(samples, model.amplitude,
                                    model.sigma_n_sq)
    for i in range(6):
        for s in range(8):
            want = evidence(samples.values[i], samples.pad_mask[i], s,
                            model.amplitude, model.sigma_n_sq)
            assert np.exp(logE[i, s]) == pytest.approx(want, rel=1e-9)


def test_evidence_requires_positive_variance():
    with pytest.raises(ValueError):
        _log_evidence([[1.0]], 1.0, 0.0)


# ---------------------------------------------------------------------------
# forward / backward sweep


def _sweep_rows(samples, priors, m, A, s2):
    """Normalized alpha and beta rows of one sequence, (N+1, 2^M) each."""
    logE = msdd.log_evidence_matrix(samples, A, s2)
    logp = msdd._log_priors(priors, samples.n_symbols)
    la, lb = msdd._sweep(logE[:, None, :], logp[:, None, :])
    lb = lb[..., np.arange(2 ** m) % 2 ** (m - 1)]
    alpha, beta = np.exp(la[:, 0]), np.exp(lb[:, 0])
    return (alpha / alpha.sum(axis=1, keepdims=True),
            beta / beta.sum(axis=1, keepdims=True))


def test_forward_matches_prefix_enumeration():
    a, samples, model, priors = _instance(1, n=8, m=2)
    alpha, _ = _sweep_rows(samples, priors, 2, model.amplitude,
                           model.sigma_n_sq)
    want = forward_state_marginals_bruteforce(
        samples, 2, model.amplitude, model.sigma_n_sq, priors)
    assert np.allclose(alpha, want, rtol=1e-9, atol=1e-12)


def test_backward_boundary_is_uniform():
    a, samples, model, priors = _instance(2, n=6, m=2)
    _, beta = _sweep_rows(samples, priors, 2, model.amplitude,
                          model.sigma_n_sq)
    assert np.allclose(beta[-1], 0.25)


def test_forward_point_mass_on_noiseless_symbols():
    rng = np.random.default_rng(3)
    a = 1 - 2 * rng.integers(0, 2, 10)
    model = acr.NoiseModel(P.N_f, 1.0, 0.0, P.W, P.T_g)
    samples = acr.generate_discrete(a, 1, model, rng)
    # evaluate with a small but positive detection variance
    alpha, _ = _sweep_rows(samples, None, 1, model.amplitude, 1e-2)
    for i in range(1, 11):
        state = 0 if a[i - 1] == 1 else 1
        assert alpha[i, state] > 1.0 - 1e-12


def _forward_loop(logE, logp):
    """Reference: the per-sequence forward loop with gathered predecessors."""
    N, S = logE.shape
    prev0 = np.arange(S) >> 1
    in_bit = np.arange(S) & 1
    la = np.full((N + 1, S), -np.inf)
    la[0, 0] = 0.0
    for i in range(1, N + 1):
        prev = la[i - 1]
        v = (np.logaddexp(prev[prev0], prev[prev0 + S // 2])
             + logp[i - 1, in_bit] + logE[i - 1])
        la[i] = v - v.max()
    return la


def _backward_loop(logE, logp):
    """Reference: the per-sequence backward loop over all 2^M states."""
    N, S = logE.shape
    to0 = (np.arange(S) << 1) & (S - 1)
    lb = np.zeros((N + 1, S))
    for i in range(N, 0, -1):
        nxt = lb[i] + logE[i - 1]
        v = np.logaddexp(nxt[to0] + logp[i - 1, 0],
                         nxt[to0 | 1] + logp[i - 1, 1])
        lb[i - 1] = v - v.max()
    return lb


def _stack(seed, m, n, b, noise, saturate):
    """b sequences with distinct amplitude and noise level, and priors."""
    rng = np.random.default_rng(seed)
    samples, amps, sigmas, priors = [], [], [], []
    for _ in range(b):
        model = acr.NoiseModel(P.N_f, rng.uniform(0.3, 3.0),
                               noise * rng.uniform(0.5, 2.0), P.W, P.T_g)
        a = 1 - 2 * rng.integers(0, 2, n)
        samples.append(acr.generate_discrete(a, m, model, rng))
        amps.append(model.amplitude)
        sigmas.append(model.sigma_n_sq)
        p = rng.uniform(0.0, 1.0, n)
        if saturate:
            p[rng.random(n) < 0.4] = 1e-300
            p[rng.random(n) < 0.4] = 1.0 - 1e-16
        priors.append(np.column_stack([p, 1.0 - p]))
    return samples, amps, sigmas, priors


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 7),
       extra=st.integers(0, 33), b=st.integers(1, 9),
       noise=st.sampled_from([1e-9, 1e-4, 0.05, 0.5, 5.0]),
       saturate=st.booleans())
@example(seed=21, m=2, extra=0, b=1, noise=1e-9, saturate=True)
@example(seed=22, m=2, extra=33, b=2, noise=5.0, saturate=False)
@example(seed=23, m=2, extra=7, b=3, noise=0.05, saturate=True)
@example(seed=24, m=2, extra=19, b=4, noise=1e-4, saturate=True)
def test_batched_sweep_matches_single_sequences(seed, m, extra, b, noise,
                                                saturate):
    n = m + extra
    samples, amps, sigmas, priors = _stack(seed, m, n, b, noise, saturate)
    logE = np.stack([msdd.log_evidence_matrix(s, A, v)
                     for s, A, v in zip(samples, amps, sigmas)], axis=1)
    logp = np.stack([msdd._log_priors(p, n) for p in priors], axis=1)
    la, lb = msdd._sweep(logE, logp)
    lg = msdd._merge_log(la, lb, logE.copy())
    hard = msdd.detect_mmsdd(samples, m, amps, sigmas)
    assert hard.shape == (b, n)
    apps, gammas = msdd.msdd_app(samples, m, amps, sigmas, priors)
    assert apps.shape == gammas.shape == (b, n, 2)
    for j in range(b):
        # the same float operations, in the same order, as one sequence alone
        assert np.array_equal(la[:, j], _forward_loop(logE[:, j], logp[:, j]))
        assert np.array_equal(lb[:, j, np.arange(2 ** m) % 2 ** (m - 1)],
                              _backward_loop(logE[:, j], logp[:, j]))
        app, gamma = _app(samples[j], m, amps[j], sigmas[j],
                                   priors[j])
        assert np.array_equal(gamma, beliefs.from_log(lg[:, j]))
        assert np.array_equal(app, beliefs.from_log(lg[:, j] + logp[:, j]))
        assert np.array_equal(gammas[j], gamma)
        assert np.array_equal(apps[j], app)
        app, _ = _app(samples[j], m, amps[j], sigmas[j])
        assert np.array_equal(hard[j], beliefs.hard(app))


@pytest.mark.parametrize(
    "b", range(1, max(msdd.SCALAR_PACKETS + 1, 5) + 1))
def test_m2_sweep_matches_single_sequence_loops(b):
    # M=2 stacks on both sides of the scalar-loop threshold, N from 2 to
    # 1600, evidence over 10 decades of noise, saturated priors, -inf
    # evidence at most once per step so that no row is -inf throughout,
    # and equal evidence columns under equal priors, so that each
    # logaddexp meets finite ties (its x == y branch)
    cases = [(2, 1e-9, None), (3, 5.0, None), (50, 1e-4, None),
             (420, 0.5, None), (1600, 0.05, None), (300, 0.05, "holes"),
             (200, 0.5, "ties")]
    for k, (n, noise, kind) in enumerate(cases):
        samples, amps, sigmas, priors = _stack(100 * b + k, 2, n, b, noise,
                                               True)
        logE = np.stack([msdd.log_evidence_matrix(s, A, v)
                         for s, A, v in zip(samples, amps, sigmas)], axis=1)
        logp = np.stack([msdd._log_priors(p, n) for p in priors], axis=1)
        if kind == "holes":
            rng = np.random.default_rng(b)
            hit = rng.random((n, b)) < 0.2
            logE[hit, rng.integers(0, 4, (n, b))[hit]] = -np.inf
        elif kind == "ties":
            logE[...] = logE[:, :, :1]
            logp[...] = logp[:, :, :1]
        la, lb = msdd._sweep(logE, logp)
        for j in range(b):
            assert np.array_equal(la[:, j],
                                  _forward_loop(logE[:, j], logp[:, j]))
            assert np.array_equal(lb[:, j, np.arange(4) % 2],
                                  _backward_loop(logE[:, j], logp[:, j]))
        if kind == "ties":
            assert (la[2:] == 0.0).all() and (lb[:-1] == 0.0).all()


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_m2_merge_matches_frozen_merge(b):
    # the merge alone at M=2, N from 2 to 1600, saturated priors, -inf
    # evidence once per step, and -inf in both destinations of one bit,
    # which makes every term of that bit's log-sum-exp -inf
    cases = [(2, 1e-9, None), (3, 5.0, None), (50, 1e-4, "one"),
             (420, 0.5, None), (1600, 0.05, "one"), (300, 0.05, "pair")]
    for k, (n, noise, holes) in enumerate(cases):
        samples, amps, sigmas, priors = _stack(200 * b + k, 2, n, b, noise,
                                               True)
        logE = np.stack([msdd.log_evidence_matrix(s, A, v)
                         for s, A, v in zip(samples, amps, sigmas)], axis=1)
        rng = np.random.default_rng(300 + b)
        hit = rng.random((n, b)) < 0.2
        col = rng.integers(0, 4, (n, b))[hit]
        if holes == "one":
            logE[hit, col] = -np.inf
        elif holes == "pair":
            logE[hit, col & 1] = -np.inf
            logE[hit, (col & 1) + 2] = -np.inf
        logp = np.stack([msdd._log_priors(p, n) for p in priors], axis=1)
        la, lb = msdd._sweep(logE, logp)
        lg = msdd._merge_log(la, lb, logE.copy())
        assert np.array_equal(lg, frozen.merge_log(la, lb, logE.copy()))
        if holes == "pair":
            assert np.isneginf(lg).any()


@pytest.mark.parametrize("shape", [(37, 2), (420, 3, 2), (1600, 2, 2)])
def test_from_log_matches_frozen_reduction(shape):
    # log weights over hundreds of nats, with -inf entries, rows of two
    # -inf (NaN out), gaps at and beyond LLR_CLIP, signed zeros and ties,
    # as a contiguous array and as a strided view
    inf = np.inf
    edges = np.array([[-inf, 0.0], [3.0, -inf], [-inf, -inf], [0.0, -600.0],
                      [-600.0 - 1e-9, 0.0], [-1e3, 5.0], [7.0, -1e300],
                      [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [2.5, 2.5],
                      [-inf, -1e308]])
    rng = np.random.default_rng(shape[0])
    x = rng.normal(0.0, 400.0, shape)
    flat = x.reshape(-1, 2)
    flat[rng.choice(len(flat), len(edges), replace=False)] = edges
    for logp in (x, x.swapaxes(0, -2)[::-1]):
        with np.errstate(invalid="ignore"):
            got = beliefs.from_log(logp)
            want = frozen.from_log(logp)
        assert got.shape == want.shape == logp.shape
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).sum() == 2


def test_m2_sweep_takes_scalar_loop_up_to_threshold():
    # the scalar loop makes no numpy ufunc call; the numpy loop does
    rng = np.random.default_rng(18)
    patch = mock.patch.object(np, "logaddexp",
                              side_effect=AssertionError("numpy loop"))
    for b in range(1, msdd.SCALAR_PACKETS + 2):
        logE = -rng.exponential(3.0, (40, b, 4))
        logp = np.log(rng.uniform(0.01, 1.0, (40, b, 2)))
        with patch:
            if b <= msdd.SCALAR_PACKETS:
                msdd._sweep(logE, logp)
            else:
                with pytest.raises(AssertionError, match="numpy loop"):
                    msdd._sweep(logE, logp)
    with patch, pytest.raises(AssertionError, match="numpy loop"):
        msdd._sweep(-rng.exponential(3.0, (40, 1, 8)),
                    np.log(rng.uniform(0.01, 1.0, (40, 1, 2))))


def test_m2_merge_takes_column_path():
    # M=2 merges on columns and never reaches the block merge's
    # _row_logsumexp; every other M does
    patch = mock.patch.object(msdd, "_row_logsumexp",
                              side_effect=AssertionError("block merge"))
    for m in (2, 3):
        samples, amps, sigmas, priors = _stack(21, m, 30, 2, 0.05, False)
        with patch:
            if m == 2:
                msdd.msdd_app(samples, m, amps, sigmas, priors)
            else:
                with pytest.raises(AssertionError, match="block merge"):
                    msdd.msdd_app(samples, m, amps, sigmas, priors)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 7),
       b=st.integers(1, 9), block=st.integers(2, 8), full=st.integers(1, 11),
       ragged=st.integers(1, 7), slack=st.floats(0.0, 0.99),
       noise=st.sampled_from([1e-9, 1e-4, 0.05, 0.5, 5.0]),
       prior=st.sampled_from(["none", "random", "saturated"]))
def test_app_matches_frozen_merge(seed, m, b, block, full, ragged, slack,
                                  noise, prior):
    # N = full merge blocks of `block` steps plus a ragged last block, up to
    # 95; the element budget need not be a whole number of steps
    n = full * block + 1 + (ragged - 1) % (block - 1)
    assume(n >= m)
    step = b << m
    budget = block * step + int(slack * step)
    samples, amps, sigmas, priors = _stack(seed, m, n, b, noise,
                                           prior == "saturated")
    if prior == "none":
        priors = None
    with mock.patch.object(msdd, "MERGE_ELEMENTS", budget):
        app, gamma = msdd.msdd_app(samples, m, amps, sigmas, priors)
    want_app, want_gamma = frozen.msdd_app(samples, m, amps, sigmas, priors)
    assert np.array_equal(app, want_app)
    assert np.array_equal(gamma, want_gamma)

# ---------------------------------------------------------------------------
# merged posteriors against the enumeration oracle


def test_app_matches_bruteforce_single_instance():
    a, samples, model, priors = _instance(5, n=8, m=3)
    app, _ = _app(samples, 3, model.amplitude, model.sigma_n_sq, priors)
    want = reference.app_marginals_bruteforce(
        samples, 3, model.amplitude, model.sigma_n_sq, priors)
    rel = np.max(np.abs(app - want) / np.maximum(want, 1e-300))
    assert rel <= 1e-9


@settings(max_examples=40, deadline=None)
@example(seed=31, m=7, extra=5, b=3, noise=0.05, saturate=True, uniform=False)
@example(seed=32, m=6, extra=6, b=2, noise=5.0, saturate=False, uniform=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 7),
       extra=st.integers(0, 11), b=st.integers(1, 3),
       noise=st.sampled_from([1e-9, 1e-4, 0.05, 0.5, 5.0]),
       saturate=st.booleans(), uniform=st.booleans())
def test_app_matches_bruteforce_across_range(seed, m, extra, b, noise,
                                             saturate, uniform):
    # M up to 7 (the numpy sweep and the block merge at 128 states), N up
    # to 12, per-packet amplitude and sigma^2, N0 from 5e-10 to 10
    # (SNR = N_f E_g / N0 down to about -5 dB), priors at 1e-300 and
    # 1 - 1e-16
    n = min(m + extra, 12)
    samples, amps, sigmas, priors = _stack(seed, m, n, b, noise, saturate)
    if uniform:
        priors = [None] * b
    apps, _ = msdd.msdd_app(samples, m, amps, sigmas,
                            None if uniform else priors)
    for app, s, A, s2, p in zip(apps, samples, amps, sigmas, priors):
        want = reference.app_marginals_bruteforce(s, m, A, s2, p)
        rel = np.max(np.abs(app - want) / np.maximum(want, 1e-300))
        assert rel <= 1e-9


def test_oracle_suite_frozen_subset():
    out = reference.run_oracle_check(n_instances=40, seed=7)
    assert out["app_pass"] and out["block_pass"]
    assert out["app_max_rel_err"] <= 1e-9
    assert out["block_max_abs_err"] <= 1e-12


def test_app_is_prior_times_extrinsic():
    a, samples, model, priors = _instance(6, n=8, m=2)
    app, gamma = _app(samples, 2, model.amplitude, model.sigma_n_sq,
                               priors)
    merged = beliefs.normalize(priors * gamma)
    assert np.allclose(app, merged, rtol=1e-10, atol=1e-12)


def test_delta_priors_pin_posteriors():
    # a zero prior (floored internally at float tiny) pins the posterior
    # whenever the opposing likelihood ratio is anywhere near moderate
    a, samples, model, _ = _instance(7, n=8, m=2, N0=5.0)
    priors = np.full((8, 2), 0.5)
    priors[2] = [1.0, 0.0]     # forces a_3 = +1
    priors[5] = [0.0, 1.0]     # forces a_6 = -1
    app, _ = _app(samples, 2, model.amplitude, model.sigma_n_sq, priors)
    assert app[2, 1] < 1e-100
    assert app[5, 0] < 1e-100


def test_uninformative_samples_return_priors():
    a, samples, model, priors = _instance(8, n=8, m=2)
    app, gamma = _app(samples, 2, model.amplitude, 1e18, priors)
    assert np.allclose(gamma, 0.5, atol=1e-9)
    assert np.allclose(app, priors, atol=1e-9)


def test_decisions_scale_invariant():
    a, samples, model, priors = _instance(9, n=10, m=3)
    app1, g1 = _app(samples, 3, model.amplitude, model.sigma_n_sq,
                             priors)
    c = 37.5
    scaled = acr.CorrSamples(c * samples.values)
    app2, g2 = _app(scaled, 3, c * model.amplitude,
                             c ** 2 * model.sigma_n_sq, priors)
    assert np.allclose(app1, app2, rtol=1e-10, atol=1e-12)
    assert np.allclose(g1, g2, rtol=1e-10, atol=1e-12)


def test_beliefs_normalized_and_positive():
    a, samples, model, priors = _instance(10, n=12, m=3, N0=0.3)
    app, gamma = _app(samples, 3, model.amplitude, model.sigma_n_sq,
                               priors)
    for arr in (app, gamma):
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(arr > 0.0)


def test_merge_footprint_is_about_three_arrays():
    # M=7, B=8, N=420: the evidence and the sweep's alpha and beta buffer,
    # about three (N, B, 2^M) arrays, plus one merge block
    samples, amps, sigmas, _ = _stack(13, 7, 420, 8, 0.05, False)
    msdd.msdd_app(samples, 7, amps, sigmas)
    tracemalloc.start()
    try:
        msdd.msdd_app(samples, 7, amps, sigmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * 420 * 8 * 2 ** 7 * 8


def test_empty_round_rejected():
    with pytest.raises(ValueError, match="at least one packet"):
        msdd.msdd_app([], 2, 1.0, 1.0)


def test_unequal_packet_lengths_rejected():
    samples, amps, sigmas, _ = _stack(14, 2, 8, 2, 0.05, False)
    short = acr.CorrSamples(samples[1].values[:-1])
    with pytest.raises(ValueError, match="differ in length"):
        msdd.msdd_app([samples[0], short], 2, amps, sigmas)


def test_per_packet_statistics_count_checked():
    samples, amps, sigmas, _ = _stack(15, 2, 8, 3, 0.05, False)
    with pytest.raises(ValueError, match="one value per packet"):
        msdd.msdd_app(samples, 2, amps[:2], sigmas)
    with pytest.raises(ValueError, match="one value per packet"):
        msdd.msdd_app(samples, 2, amps, sigmas + sigmas)
    # scalars still broadcast over the stack
    app, _ = msdd.msdd_app(samples, 2, amps[0], sigmas[0])
    assert app.shape == (3, 8, 2)


def test_window_mismatch_rejected():
    a, samples, model, _ = _instance(11, n=8, m=2)
    with pytest.raises(ValueError):
        msdd.msdd_app([samples], 3, model.amplitude, model.sigma_n_sq)
    with pytest.raises(ValueError):   # one prior belief per packet
        msdd.msdd_app([samples, samples], 2, model.amplitude,
                      model.sigma_n_sq, [np.full((8, 2), 0.5)])


def _soft_detectors():
    """Both soft detectors on one M=2 packet, as f(amplitude, sigma_sq,
    priors), and the packet's noise model."""
    rng = np.random.default_rng(19)
    model = acr.NoiseModel(P.N_f, 1.0, 0.1, P.W, P.T_g)
    a = 1 - 2 * rng.integers(0, 2, 8)
    samples = acr.generate_discrete(a, 2, model, rng)
    blocks = acr.generate_discrete_blocks(a, 2, model, rng)
    return {
        "mmsdd": lambda A, s2, p: msdd.msdd_app([samples], 2, A, s2, [p]),
        "bmsdd": lambda A, s2, p: msdd.bmsdd_extrinsic(blocks, p, A, s2),
    }, model


@pytest.mark.parametrize("detector", ["mmsdd", "bmsdd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_amplitude_rejected(detector, bad):
    run, model = _soft_detectors()
    with pytest.raises(ValueError, match="amplitude must be finite"):
        run[detector](bad, model.sigma_n_sq, np.full((8, 2), 0.5))


@pytest.mark.parametrize("detector", ["mmsdd", "bmsdd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_sigma_sq_rejected(detector, bad):
    run, model = _soft_detectors()
    with pytest.raises(ValueError, match="sigma_sq must be finite"):
        run[detector](model.amplitude, bad, np.full((8, 2), 0.5))


@pytest.mark.parametrize("detector", ["mmsdd", "bmsdd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_prior_rejected(detector, bad):
    run, model = _soft_detectors()
    priors = np.full((8, 2), 0.5)
    priors[3, 1] = bad
    with pytest.raises(ValueError, match="priors must be finite"):
        run[detector](model.amplitude, model.sigma_n_sq, priors)


@pytest.mark.parametrize("case", ["mmsdd-B1", "mmsdd-B4", "bmsdd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_samples_rejected(case, bad):
    # one bad live sample in one packet of an M=2, N=12 stack
    samples, amps, sigmas, priors = _stack(20, 2, 12, 4, 0.05, False)
    values = samples[2].values.copy()
    values[5, 1] = bad
    samples[2] = acr.CorrSamples(values)
    with pytest.raises(ValueError, match="samples must be finite"):
        if case == "mmsdd-B1":
            msdd.msdd_app(samples[2:3], 2, amps[2], sigmas[2], priors[2:3])
        elif case == "mmsdd-B4":
            msdd.msdd_app(samples, 2, amps, sigmas, priors)
        else:
            rng = np.random.default_rng(20)
            model = acr.NoiseModel(P.N_f, 1.0, 0.1, P.W, P.T_g)
            blocks = acr.generate_discrete_blocks(
                1 - 2 * rng.integers(0, 2, 12), 2, model, rng)
            blocks.values[3, 1, 0] = bad
            msdd.bmsdd_extrinsic(blocks, priors[0], model.amplitude,
                                 model.sigma_n_sq)


@pytest.mark.parametrize("detector", ["mmsdd", "bmsdd"])
@pytest.mark.parametrize("amplitude, sigma_sq", [(1e160, 1.0),
                                                 (1.0, 1e-320)])
def test_overflowing_evidence_rejected(detector, amplitude, sigma_sq):
    # finite statistics whose log evidence overflows to -inf in every
    # state made all 24 beliefs of this M=2, 12-symbol packet NaN
    rng = np.random.default_rng(21)
    model = acr.NoiseModel(P.N_f, 1.0, 0.1, P.W, P.T_g)
    a = 1 - 2 * rng.integers(0, 2, 12)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="log evidence overflows"):
        if detector == "mmsdd":
            msdd.msdd_app([acr.generate_discrete(a, 2, model, rng)], 2,
                          amplitude, sigma_sq)
        else:
            msdd.bmsdd_extrinsic(acr.generate_discrete_blocks(a, 2, model, rng),
                                 None, amplitude, sigma_sq)


# ---------------------------------------------------------------------------
# hard decisions


def test_noiseless_detection_recovers_symbols():
    rng = np.random.default_rng(12)
    for m in (1, 2, 3):
        a = 1 - 2 * rng.integers(0, 2, 20)
        model = acr.NoiseModel(P.N_f, 1.0, 0.0, P.W, P.T_g)
        samples = acr.generate_discrete(a, m, model, rng)
        got = msdd.detect_mmsdd([samples], m, model.amplitude, 1e-2)
        assert np.array_equal(got[0], a)


def test_dd_sign_rule_and_tie_break():
    vals = np.array([[0.4], [-0.1], [0.0], [-7.0]])
    samples = acr.CorrSamples(vals)
    assert msdd.detect_dd(samples).tolist() == [1, -1, 1, -1]


# ---------------------------------------------------------------------------
# block detector


def test_block_extrinsic_m1_closed_form():
    rng = np.random.default_rng(13)
    model = acr.NoiseModel(P.N_f, 1.0, 0.2, P.W, P.T_g)
    a = 1 - 2 * rng.integers(0, 2, 5)
    blocks = acr.generate_discrete_blocks(a, 1, model, rng)
    lam = msdd.bmsdd_extrinsic(blocks, None, model.amplitude, model.sigma_n_sq)
    y = blocks.values[:, 0, 0]
    A, s2 = model.amplitude, model.sigma_n_sq
    lp = np.exp(-(y - A) ** 2 / s2)
    lm = np.exp(-(y + A) ** 2 / s2)
    want = np.column_stack([lp, lm]) / (lp + lm)[:, None]
    assert np.allclose(lam, want, rtol=1e-10, atol=1e-12)


def test_block_extrinsic_m2_hand_enumeration():
    rng = np.random.default_rng(14)
    model = acr.NoiseModel(P.N_f, 1.0, 0.15, P.W, P.T_g)
    a = np.array([1, -1])
    blocks = acr.generate_discrete_blocks(a, 2, model, rng)
    lam = msdd.bmsdd_extrinsic(blocks, None, model.amplitude, model.sigma_n_sq)
    A, s2 = model.amplitude, model.sigma_n_sq
    Y = blocks.values[0]
    raw = np.zeros((2, 2))      # raw[t, b]: symbol slot t, hypothesis bit b
    for h1 in (1, -1):
        for h2 in (1, -1):
            sig = np.array([[h1, 0.0], [h1 * h2, h2]])
            ll = np.exp(-((Y[0, 0] - A * sig[0, 0]) ** 2
                          + (Y[1, 0] - A * sig[1, 0]) ** 2
                          + (Y[1, 1] - A * sig[1, 1]) ** 2) / s2)
            raw[0, (1 - h1) // 2] += ll * 0.5   # other symbol's uniform prior
            raw[1, (1 - h2) // 2] += ll * 0.5
    want = raw / raw.sum(axis=1, keepdims=True)
    assert np.allclose(lam, want, rtol=1e-10, atol=1e-12)


def test_block_extrinsic_matches_enumeration_oracle():
    rng = np.random.default_rng(15)
    model = acr.NoiseModel(P.N_f, 1.0, 0.1, P.W, P.T_g)
    a = 1 - 2 * rng.integers(0, 2, 9)
    blocks = acr.generate_discrete_blocks(a, 3, model, rng)
    p = rng.uniform(0.1, 0.9, 9)
    priors = np.column_stack([p, 1.0 - p])
    lam = msdd.bmsdd_extrinsic(blocks, priors, model.amplitude, model.sigma_n_sq)
    want = reference.block_extrinsic_bruteforce(blocks, priors, model.amplitude,
                                                model.sigma_n_sq)
    assert np.max(np.abs(lam - want)) <= 1e-12


def test_block_hard_detect_is_glrt_argmax():
    rng = np.random.default_rng(16)
    model = acr.NoiseModel(P.N_f, 1.0, 0.4, P.W, P.T_g)
    a = 1 - 2 * rng.integers(0, 2, 8)
    blocks = acr.generate_discrete_blocks(a, 2, model, rng)
    got = msdd.bmsdd_detect(blocks)
    A, s2 = model.amplitude, model.sigma_n_sq
    # independent exhaustive argmax over the 4 block hypotheses
    for u in range(blocks.n_blocks):
        Y = blocks.values[u]
        best, best_ll = None, -np.inf
        for h1 in (1, -1):
            for h2 in (1, -1):
                sig = np.array([[h1, 0.0], [h1 * h2, h2]])
                resid = ((Y[0, 0] - A * sig[0, 0]) ** 2
                         + (Y[1, 0] - A * sig[1, 0]) ** 2
                         + (Y[1, 1] - A * sig[1, 1]) ** 2)
                if -resid / s2 > best_ll:
                    best_ll, best = -resid / s2, (h1, h2)
        assert tuple(got[2 * u:2 * u + 2]) == best


def test_block_noiseless_detection_recovers_symbols():
    rng = np.random.default_rng(17)
    a = 1 - 2 * rng.integers(0, 2, 12)
    model = acr.NoiseModel(P.N_f, 1.0, 0.0, P.W, P.T_g)
    blocks = acr.generate_discrete_blocks(a, 3, model, rng)
    assert np.array_equal(msdd.bmsdd_detect(blocks), a)
