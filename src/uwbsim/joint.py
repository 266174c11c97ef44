"""Serial joint detection and decoding.

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
from .acr import BlockCorrSamples, CorrSamples, NoiseModel
from .msdd import bmsdd_extrinsic, msdd_app
from .txchain import InterleaverMap, deinterleave, interleave


@dataclass
class IterationTrace:
    """Per-outer-iteration convergence record (extrinsic-based decisions)."""
    iteration: int
    p_c_msdd: float        # fraction of coded bits correct from detector extrinsic
    p_c_dec: float         # fraction correct from decoder extrinsic
    checks_satisfied: int  # parity checks currently satisfied


@dataclass
class JointResult:
    info_bits: np.ndarray
    coded_bits: np.ndarray
    n_outer_run: int
    converged: bool
    trace: list


def _detector_extrinsic(samples, priors_sym: np.ndarray, model: NoiseModel,
                        variance_factor: int) -> np.ndarray:
    if isinstance(samples, CorrSamples):
        _, gamma = msdd_app(samples, samples.window, model.amplitude,
                            model.sigma_n_sq, priors=priors_sym,
                            variance_factor=variance_factor)
        return gamma
    return bmsdd_extrinsic(samples, priors_sym, model.amplitude,
                           model.sigma_n_sq, variance_factor)


def run_joint(samples, code: ldpc.LdpcCode, imap: InterleaverMap,
              model: NoiseModel, outer_iters: int = 10,
              inner_iters: int = 10, variance_factor: int = 1,
              early_exit: bool = True, true_coded_bits=None) -> JointResult:
    """Run the serial schedule and decode one packet.

    The samples pick the detector: CorrSamples run the sliding-window
    detector, BlockCorrSamples the block detector.  true_coded_bits
    (codeword order, 0/1) is a simulator-side oracle used only to fill the
    trace; it never influences any message.
    """
    if outer_iters < 1:
        raise ValueError("outer_iters must be >= 1")
    if not isinstance(samples, (CorrSamples, BlockCorrSamples)):
        raise TypeError("samples must be CorrSamples or BlockCorrSamples")
    if samples.n_symbols != code.n:
        raise ValueError(f"got {samples.n_symbols} symbols for a "
                         f"length-{code.n} code")
    if len(imap.perm) != code.n:
        raise ValueError("interleaver length must equal codeword length")
    n_checks = code.H.shape[0]

    zeta = beliefs.uniform(code.n)   # codeword order
    trace = []
    res = None
    n_outer_run = 0
    for t in range(1, outer_iters + 1):
        priors_sym = interleave(zeta, imap)
        gamma_sym = _detector_extrinsic(samples, priors_sym, model,
                                        variance_factor)
        gamma_code = deinterleave(gamma_sym, imap)
        res = ldpc.decode(code, beliefs.to_llr(gamma_code),
                          max_iter=inner_iters, early_stop=True)
        zeta = beliefs.from_llr(res.extrinsic_llr)
        n_outer_run = t
        if true_coded_bits is not None:
            truth = np.asarray(true_coded_bits)
            det_bits = beliefs.hard_bits(gamma_code)
            dec_bits = (res.extrinsic_llr < 0).astype(np.uint8)
            p_det = float(np.mean(det_bits == truth))
            p_dec = float(np.mean(dec_bits == truth))
        else:
            p_det = p_dec = float("nan")
        trace.append(IterationTrace(iteration=t, p_c_msdd=p_det, p_c_dec=p_dec,
                                    checks_satisfied=n_checks - res.n_unsatisfied))
        if early_exit and res.checks_satisfied:
            break

    hard = res.hard_bits
    return JointResult(info_bits=ldpc.extract_info(code, hard),
                       coded_bits=hard, n_outer_run=n_outer_run,
                       converged=bool(res.checks_satisfied), trace=trace)
