"""Watch the detector and the LDPC decoder talk each other into a codeword.

One outer iteration runs the soft detector with the decoder's current
extrinsics as symbol priors, deinterleaves the detector's extrinsics into
LLRs, and gives the code ten flooding iterations.  Near the waterfall the
first pass leaves hundreds of bit errors, yet the refreshed priors lift the
next detector pass enough for the decoder to finish the job.  The demo
first traces that hand-off on a single packet, then compares the coded BER
of the sliding-window and block detectors at one operating point.

A few seconds end to end.
"""

import argparse
from dataclasses import replace

from uwbsim import harness


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-snr-db", type=float, default=12.4)
    ap.add_argument("--compare-snr-db", type=float, default=12.8)
    ap.add_argument("--packets", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # the bit budget alone ends each point: errors can never reach the target
    cfg = harness.default_config(4)
    budget = args.packets * cfg.k_info
    cfg = replace(cfg, snr_db=(args.compare_snr_db,),
                  trace_snr_db=(args.trace_snr_db,), trace_packets=1,
                  max_bits=budget, target_errors=budget + 1, seed=args.seed)
    points, traces = harness.run_testcase4(cfg)

    print(f"one packet at {args.trace_snr_db:g} dB, sliding-window detector, "
          "M=2:")
    print("iter   detector correct   decoder correct   checks satisfied")
    for t in traces:
        print(f"{t.outer_iter:4d}   {t.p_c_msdd:16.4f}   {t.p_c_dec:15.4f}"
              f"   {t.checks_satisfied_frac:16.4f}")
    print(f"\ncoded BER over {args.packets} packets at "
          f"{args.compare_snr_db:g} dB:")
    labels = {"joint-mmsdd": "sliding-window", "joint-bmsdd": "block"}
    for p in points:
        print(f"  {labels[p.scheme]:15s} {p.ber:.3e}  ({p.bit_errors} errors)")
    print("\nThe sliding-window front end pulls the coded waterfall several")
    print("tenths of a dB below the block detector's, so at an SNR between")
    print("the two cliffs it decodes cleanly while the block variant still")
    print("loses whole packets.")


if __name__ == "__main__":
    main()
