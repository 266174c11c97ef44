"""Serial joint detection and decoding of a round of packets.

One outer iteration: the SISO detector (sliding-window or block) recomputes
its extrinsic gamma using the decoder extrinsics zeta as symbol priors, the
deinterleaved gamma feeds the LDPC decoder for a fixed number of inner
iterations, and the decoder's extrinsic zeta flows back.  Messages exchanged
are strictly extrinsic; final info-bit decisions come from the decoder's
total (posterior) beliefs.  Early exit fires only when the hard decisions
satisfy every parity check, so it never changes the decoded output.
"""

from dataclasses import dataclass

import numpy as np

from . import beliefs, ldpc
from .acr import BlockCorrSamples, CorrSamples
from .msdd import bmsdd_extrinsic, msdd_app
from .txchain import deinterleave, interleave


@dataclass
class IterationTrace:
    """Per-outer-iteration convergence record (extrinsic-based decisions)."""
    iteration: int
    p_c_msdd: float        # fraction of coded bits correct from detector extrinsic
    p_c_dec: float         # fraction correct from decoder extrinsic
    checks_satisfied: int  # parity checks currently satisfied


@dataclass
class JointResult:
    """One round of packets.

    info_bits (B, K) and coded_bits (B, N) are the decoded packets and
    trace[j] holds one record per outer iteration packet j ran.
    n_outer_run is the iterations the round ran and converged whether every
    packet ended with its checks satisfied.
    """
    info_bits: np.ndarray
    coded_bits: np.ndarray
    trace: list
    n_outer_run: int
    converged: bool


def _detector_extrinsics(samples, priors, models):
    """Detector extrinsic gamma of each packet, symbol order."""
    if isinstance(samples[0], CorrSamples):
        _, gamma = msdd_app(samples, samples[0].window,
                            [d.amplitude for d in models],
                            [d.sigma_n_sq for d in models], priors=priors)
        return gamma
    return [bmsdd_extrinsic(s, p, d.amplitude, d.sigma_n_sq)
            for s, p, d in zip(samples, priors, models)]


def run_joint(samples, code: ldpc.LdpcCode, imaps, models,
              outer_iters: int = 10, inner_iters: int = 10,
              true_coded_bits=None) -> JointResult:
    """Run the serial schedule on a round of packets and decode each.

    samples, imaps and models hold one entry per packet.  The samples pick
    the detector: CorrSamples run the sliding-window detector, one sweep
    per outer iteration for every packet still running, BlockCorrSamples
    the block detector.  A packet leaves the round once its checks are
    satisfied, unless true_coded_bits (one codeword-order 0/1 array per
    packet) is given: then every packet runs every outer iteration, scored
    in its trace against that oracle, which never influences any message.
    """
    if outer_iters < 1:
        raise ValueError("outer_iters must be >= 1")
    if {type(s) for s in samples} not in ({CorrSamples}, {BlockCorrSamples}):
        raise TypeError("a round needs packets, all CorrSamples or all "
                        "BlockCorrSamples")
    if not len(imaps) == len(models) == len(samples):
        raise ValueError("need one interleaver and one model per packet")
    if any(s.n_symbols != code.n for s in samples) or any(
            len(imap.perm) != code.n for imap in imaps):
        raise ValueError(f"packets and interleavers must span the "
                         f"length-{code.n} code")
    n_checks = code.H.shape[0]

    B = len(samples)
    zeta = [beliefs.uniform(code.n)] * B   # codeword order
    trace = [[] for _ in range(B)]
    res = [None] * B
    live = list(range(B))
    t = 0
    while live and t < outer_iters:
        t += 1
        priors_sym = [interleave(zeta[j], imaps[j]) for j in live]
        gammas = _detector_extrinsics([samples[j] for j in live], priors_sym,
                                      [models[j] for j in live])
        for j, gamma_sym in zip(live, gammas):
            gamma_code = deinterleave(gamma_sym, imaps[j])
            res[j] = ldpc.decode(code, beliefs.to_llr(gamma_code),
                                 max_iter=inner_iters)
            zeta[j] = beliefs.from_llr(res[j].extrinsic_llr)
            if true_coded_bits is not None:
                truth = np.asarray(true_coded_bits[j])
                det_bits = beliefs.hard_bits(gamma_code)
                dec_bits = (res[j].extrinsic_llr < 0).astype(np.uint8)
                p_det = float(np.mean(det_bits == truth))
                p_dec = float(np.mean(dec_bits == truth))
            else:
                p_det = p_dec = float("nan")
            trace[j].append(IterationTrace(
                iteration=t, p_c_msdd=p_det, p_c_dec=p_dec,
                checks_satisfied=n_checks - res[j].n_unsatisfied))
        if true_coded_bits is None:
            live = [j for j in live if not res[j].checks_satisfied]

    hard = np.stack([r.hard_bits for r in res])
    return JointResult(info_bits=ldpc.extract_info(code, hard),
                       coded_bits=hard, trace=trace, n_outer_run=t,
                       converged=all(r.checks_satisfied for r in res))
