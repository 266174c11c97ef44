"""Watch the detector and the LDPC decoder talk each other into a codeword.

One outer iteration runs the soft detector with the decoder's current
extrinsics as symbol priors, deinterleaves the detector's extrinsics into
LLRs, and gives the code ten flooding iterations.  Near the waterfall the
first pass leaves hundreds of bit errors, yet the refreshed priors lift the
next detector pass enough for the decoder to finish the job.  The demo
first traces that hand-off on a single packet, then compares the coded BER
of the sliding-window and block detectors at one operating point.

About a minute end to end.
"""

import argparse

import numpy as np

from uwbsim import acr, harness, joint, ldpc, txchain
from uwbsim.params import SystemParams


def trace_one_packet(snr_db, seed):
    params = SystemParams()
    code = ldpc.default_code()
    N0 = harness.n0_for_snr(snr_db, 1.0, code.rate, params)
    model = acr.NoiseModel(params.N_f, 1.0, N0, params.W, params.T_g)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, code.k)
    cw = ldpc.encode(code, info)
    imap = txchain.InterleaverMap.random(code.n, rng)
    a = txchain.bits_to_symbols(txchain.interleave(cw, imap))
    samples = acr.generate_discrete(a, 2, model, rng)

    out = joint.run_joint(samples, code, imap, model,
                          early_exit=False, true_coded_bits=cw)
    print(f"one packet at {snr_db:g} dB, sliding-window detector, M=2:")
    print("iter   detector correct   decoder correct   checks satisfied")
    for t in out.trace:
        print(f"{t.iteration:4d}   {t.p_c_msdd:16.4f}   {t.p_c_dec:15.4f}"
              f"   {t.checks_satisfied:10d}/{code.H.shape[0]}")
    errs = int(np.sum(out.info_bits != info))
    print(f"final info-bit errors: {errs}\n")


def compare_detectors(snr_db, packets, seed):
    params = SystemParams()
    code = ldpc.default_code()
    N0 = harness.n0_for_snr(snr_db, 1.0, code.rate, params)
    model = acr.NoiseModel(params.N_f, 1.0, N0, params.W, params.T_g)
    print(f"coded BER over {packets} packets at {snr_db:g} dB:")
    for kind, label in (("mmsdd", "sliding-window"), ("bmsdd", "block")):
        errors = 0
        for pkt in range(packets):
            rng = np.random.default_rng((seed, pkt))
            info = rng.integers(0, 2, code.k)
            cw = ldpc.encode(code, info)
            imap = txchain.InterleaverMap.random(code.n, rng)
            a = txchain.bits_to_symbols(txchain.interleave(cw, imap))
            if kind == "mmsdd":
                samples = acr.generate_discrete(a, 2, model, rng)
            else:
                samples = acr.generate_discrete_blocks(a, 2, model, rng)
            out = joint.run_joint(samples, code, imap, model)
            errors += int(np.sum(out.info_bits != info))
        ber = errors / (packets * code.k)
        print(f"  {label:15s} {ber:.3e}  ({errors} errors)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-snr-db", type=float, default=12.4)
    ap.add_argument("--compare-snr-db", type=float, default=12.8)
    ap.add_argument("--packets", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    trace_one_packet(args.trace_snr_db, args.seed)
    compare_detectors(args.compare_snr_db, args.packets, args.seed)
    print("\nThe sliding-window front end pulls the coded waterfall several")
    print("tenths of a dB below the block detector's, so at an SNR between")
    print("the two cliffs it decodes cleanly while the block variant still")
    print("loses whole packets.")


if __name__ == "__main__":
    main()
