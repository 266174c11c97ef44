"""Serial detector/decoder loop: schedule, traces, convergence, validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbsim import acr, beliefs, joint, ldpc, msdd, txchain
from uwbsim.harness import n0_for_snr
from uwbsim.params import SystemParams

P = SystemParams()


@pytest.fixture(scope="module")
def small():
    return ldpc.construct_regular(k=24, n=48, seed=3)


@pytest.fixture(scope="module")
def code():
    return ldpc.default_code()


@pytest.fixture(scope="module")
def medium():
    return ldpc.construct_regular(k=100, n=200, seed=2)


def _packet(seed, m, kind, code, N0_gen, N0_det, E_g=1.0):
    """Encode, interleave, map to symbols, and sample one packet."""
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, code.k)
    cw = ldpc.encode(code, info)
    imap = txchain.InterleaverMap.random(code.n, rng)
    a = txchain.bits_to_symbols(txchain.interleave(cw, imap))
    gen = acr.NoiseModel(P.N_f, E_g, N0_gen, P.W, P.T_g)
    det = acr.NoiseModel(P.N_f, E_g, N0_det, P.W, P.T_g)
    if kind == "mmsdd":
        samples = acr.generate_discrete(a, m, gen, rng)
    else:
        samples = acr.generate_discrete_blocks(a, m, gen, rng)
    return info, cw, imap, samples, det


@pytest.mark.parametrize("kind,m", [("mmsdd", 2), ("mmsdd", 3), ("bmsdd", 2)])
def test_noiseless_packet_decodes_immediately(small, kind, m):
    info, cw, imap, samples, det = _packet(0, m, kind, small, 0.0, 0.05)
    out = joint.run_joint([samples], small, [imap], [det])
    assert out.converged and out.n_outer_run == 1
    assert np.array_equal(out.info_bits, [info])
    assert np.array_equal(out.coded_bits, [cw])


def test_trace_reports_perfect_fractions_on_clean_packet(small):
    info, cw, imap, samples, det = _packet(1, 2, "mmsdd", small, 0.0, 0.05)
    out = joint.run_joint([samples], small, [imap], [det], outer_iters=3,
                          true_coded_bits=[cw])
    (trace,) = out.trace
    assert len(trace) == 3
    for t in trace:
        assert t.p_c_msdd == 1.0 and t.p_c_dec == 1.0
        assert t.checks_satisfied == small.H.shape[0]
    assert [t.iteration for t in trace] == [1, 2, 3]


def test_trace_fractions_nan_without_truth(small):
    _, _, imap, samples, det = _packet(2, 2, "mmsdd", small, 0.0, 0.05)
    out = joint.run_joint([samples], small, [imap], [det], outer_iters=2)
    assert all(np.isnan(t.p_c_msdd) and np.isnan(t.p_c_dec)
               for t in out.trace[0])


def test_extra_outer_iterations_rescue_noisy_packet(code):
    # operating point inside the coded waterfall: one detector pass is not
    # enough, the second round of priors flips the packet to error free
    N0 = n0_for_snr(12.6, 1.0, 0.5, P)
    info, cw, imap, samples, det = _packet(0, 2, "mmsdd", code, N0, N0)
    one = joint.run_joint([samples], code, [imap], [det], outer_iters=1)
    ten = joint.run_joint([samples], code, [imap], [det], outer_iters=10)
    assert not one.converged and np.sum(one.info_bits[0] != info) > 0
    assert ten.converged and np.array_equal(ten.info_bits[0], info)
    assert ten.n_outer_run <= 10


def test_early_exit_only_fires_on_valid_codewords(code):
    N0 = n0_for_snr(12.6, 1.0, 0.5, P)
    for seed in range(4):
        _, _, imap, samples, det = _packet(seed, 2, "mmsdd", code, N0, N0)
        out = joint.run_joint([samples], code, [imap], [det])
        assert out.n_outer_run == len(out.trace[0])
        if out.converged:
            assert ldpc.syndrome_weight(code, out.coded_bits[0]) == 0


def test_repeat_runs_are_identical(code):
    N0 = n0_for_snr(12.4, 1.0, 0.5, P)
    info, cw, imap, samples, det = _packet(3, 2, "mmsdd", code, N0, N0)
    a = joint.run_joint([samples], code, [imap], [det], true_coded_bits=[cw])
    b = joint.run_joint([samples], code, [imap], [det], true_coded_bits=[cw])
    assert np.array_equal(a.coded_bits, b.coded_bits)
    assert [t.p_c_dec for t in a.trace[0]] == [t.p_c_dec for t in b.trace[0]]


def test_single_iteration_matches_manual_composition(small):
    # one outer pass is exactly: detector extrinsic under uniform priors,
    # deinterleave, LDPC decode, info extraction
    _, _, imap, samples, det = _packet(4, 2, "mmsdd", small, 0.4, 0.4)
    out = joint.run_joint([samples], small, [imap], [det], outer_iters=1,
                          inner_iters=10)
    _, (gamma,) = msdd.msdd_app(
        [samples], 2, det.amplitude, det.sigma_n_sq,
        priors=[txchain.interleave(beliefs.uniform(small.n), imap)])
    gamma_code = txchain.deinterleave(gamma, imap)
    res = ldpc.decode(small, beliefs.to_llr(gamma_code), max_iter=10)
    assert np.array_equal(out.coded_bits[0], res.hard_bits)
    assert np.array_equal(out.info_bits[0],
                          ldpc.extract_info(small, res.hard_bits))


def test_sample_type_picks_the_detector(small):
    # block samples run the block detector: one outer pass is its extrinsic
    # under uniform priors, deinterleaved and decoded
    _, _, imap, blocks, det = _packet(5, 2, "bmsdd", small, 0.4, 0.4)
    out = joint.run_joint([blocks], small, [imap], [det], outer_iters=1)
    lam = msdd.bmsdd_extrinsic(blocks, beliefs.uniform(small.n),
                               det.amplitude, det.sigma_n_sq)
    res = ldpc.decode(small, beliefs.to_llr(txchain.deinterleave(lam, imap)),
                      max_iter=10)
    assert np.array_equal(out.coded_bits[0], res.hard_bits)
    with pytest.raises(TypeError):
        joint.run_joint([np.zeros((48, 2))], small, [imap], [det])
    _, _, _, samples, _ = _packet(5, 2, "mmsdd", small, 0.4, 0.4)
    with pytest.raises(TypeError):   # one round runs one detector
        joint.run_joint([samples, blocks], small, [imap] * 2, [det] * 2)


def test_dimension_validation(small):
    _, _, imap, samples, det = _packet(6, 2, "mmsdd", small, 0.1, 0.1)
    short = acr.CorrSamples(samples.values[:-2])
    with pytest.raises(ValueError):
        joint.run_joint([short], small, [imap], [det])
    bad_map = txchain.InterleaverMap(np.arange(small.n - 1))
    with pytest.raises(ValueError):
        joint.run_joint([samples], small, [bad_map], [det])
    with pytest.raises(ValueError):
        joint.run_joint([samples], small, [imap], [det], outer_iters=0)
    with pytest.raises(TypeError):
        joint.run_joint([], small, [], [])
    with pytest.raises(ValueError):
        joint.run_joint([samples, samples], small, [imap], [det, det])


def _joint_one(samples, code, imap, det, outer_iters, inner_iters, truth):
    """Reference: the serial schedule on one packet alone, one detector call
    per outer iteration; without a truth it stops once the checks are
    satisfied.  Returns the last DecodeResult and the trace."""
    zeta = beliefs.uniform(code.n)
    trace = []
    for t in range(1, outer_iters + 1):
        priors = txchain.interleave(zeta, imap)
        if isinstance(samples, acr.CorrSamples):
            _, (gamma,) = msdd.msdd_app([samples], samples.window,
                                        det.amplitude, det.sigma_n_sq,
                                        [priors])
        else:
            gamma = msdd.bmsdd_extrinsic(samples, priors, det.amplitude,
                                         det.sigma_n_sq)
        gamma_code = txchain.deinterleave(gamma, imap)
        res = ldpc.decode(code, beliefs.to_llr(gamma_code),
                          max_iter=inner_iters)
        zeta = beliefs.from_llr(res.extrinsic_llr)
        p_det = p_dec = float("nan")
        if truth is not None:
            p_det = float(np.mean(beliefs.hard_bits(gamma_code) == truth))
            p_dec = float(np.mean((res.extrinsic_llr < 0) == truth))
        trace.append((t, p_det, p_dec, code.H.shape[0] - res.n_unsatisfied))
        if truth is None and res.checks_satisfied:
            break
    return res, trace


def _records(trace):
    return [(r.iteration, r.p_c_msdd, r.p_c_dec, r.checks_satisfied)
            for r in trace]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["mmsdd", "bmsdd"]),
       m=st.sampled_from([1, 2, 4]), with_truth=st.booleans(),
       snrs=st.lists(st.sampled_from([11.5, 12.0, 12.5, 13.0, 13.5, 14.0]),
                     min_size=1, max_size=6))
def test_round_matches_packet_by_packet_loop(medium, seed, kind, m,
                                             with_truth, snrs):
    # mixed SNRs, so packets converge after different outer iterations and,
    # without a truth, leave the round at different points; detector
    # statistics differ too
    rng = np.random.default_rng(seed)
    packets = []
    for j, snr in enumerate(snrs):
        E_g = rng.uniform(0.5, 2.0)
        N0 = n0_for_snr(snr, E_g, medium.rate, P)
        packets.append(_packet((seed, j), m, kind, medium, N0,
                               N0 * rng.uniform(0.8, 1.25), E_g))
    _, cws, imaps, samples, dets = zip(*packets)
    truths = cws if with_truth else None
    out = joint.run_joint(samples, medium, imaps, dets, outer_iters=6,
                          inner_iters=5, true_coded_bits=truths)
    assert out.info_bits.shape == (len(snrs), medium.k)
    converged = []
    for j in range(len(snrs)):
        res, trace = _joint_one(samples[j], medium, imaps[j], dets[j], 6, 5,
                                None if truths is None else cws[j])
        assert np.array_equal(out.coded_bits[j], res.hard_bits)
        assert np.array_equal(out.info_bits[j],
                              ldpc.extract_info(medium, res.hard_bits))
        assert np.array_equal(_records(out.trace[j]), trace, equal_nan=True)
        converged.append(res.checks_satisfied)
    assert out.n_outer_run == max(len(trace) for trace in out.trace)
    assert out.converged == all(converged)
