"""Command-line front end for the experiment harness.

Subcommands tc1..tc4 run the corresponding test case and write CSVs;
oracle-check runs the randomized detector-vs-enumeration suite.  Exit codes:
0 success, 2 configuration error, 3 oracle mismatch.
"""

import argparse
import sys
from dataclasses import fields

from . import harness, reference


def _add_common(p: argparse.ArgumentParser) -> None:
    # every flag but --config and --out sets the config field named by dest
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--snr-db", dest="snr_db",
                   help="comma-separated SNR grid in dB")
    p.add_argument("--m", dest="m_list", help="comma-separated window sizes")
    p.add_argument("--packets", dest="n_packets", type=int,
                   help="packet budget per point")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--path", choices=["waveform", "discrete"])
    p.add_argument("--eg", dest="eg_modes", choices=["perfect", "estimated"],
                   help="restrict to one energy-knowledge mode")
    p.add_argument("--out", help="output directory (overrides UWBSIM_OUT)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uwbsim",
        description="Noncoherent differential UWB transceiver simulator")
    sub = ap.add_subparsers(dest="command", required=True)
    helps = {
        1: "empirical correlation-noise statistics (waveform path)",
        2: "MSE of the captured-energy estimate",
        3: "uncoded BER sweeps (DD, block, sliding-window MSDD)",
        4: "coded BER sweeps and convergence traces (joint receivers)",
    }
    for tc in (1, 2, 3, 4):
        _add_common(sub.add_parser(f"tc{tc}", help=helps[tc]))
    oc = sub.add_parser("oracle-check",
                        help="randomized brute-force detector validation")
    oc.add_argument("--instances", type=int, default=200)
    oc.add_argument("--seed", type=int, default=0)
    return ap


def _build_config(tc: int, args) -> harness.ExperimentConfig:
    cfg = harness.default_config(tc)
    if args.config:
        given = harness.load_config_file(args.config)
        case = given.get("test_case", str(tc))
        # named before validate(), which would apply the other case's rules
        if case.isdigit() and int(case) != tc:
            raise harness.ConfigError(
                f"tc{tc} cannot run a test case {case} config")
        cfg = harness.apply_overrides(cfg, given)
    keys = {f.name for f in fields(harness.ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys}
    # for stopping-rule sweeps the packet budget caps total bits
    if args.n_packets is not None and tc in (3, 4):
        overrides["max_bits"] = args.n_packets * (cfg.n_symbols if tc == 3
                                                  else cfg.k_info)
    return harness.apply_overrides(cfg, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle-check":
            rep = reference.run_oracle_check(args.instances, args.seed)
            print(f"app oracle:   {'PASS' if rep['app_pass'] else 'FAIL'}"
                  f" (max rel err {rep['app_max_rel_err']:.3e})")
            print(f"block oracle: {'PASS' if rep['block_pass'] else 'FAIL'}"
                  f" (max abs err {rep['block_max_abs_err']:.3e})")
            return 0 if rep["app_pass"] and rep["block_pass"] else 3
        tc = int(args.command[2])
        cfg = _build_config(tc, args)
        out_dir = harness.resolve_out_dir(args.out, cfg)
        if tc == 1:
            for r in harness.run_testcase1(cfg, out_dir):
                print(f"snr {r.snr_db:g} dB: {r.n_samples} samples, "
                      f"var {r.variance:.4g} vs theory "
                      f"{r.sigma_n_sq_theory:.4g}, KS {r.ks_stat:.4f}")
        elif tc == 2:
            for p in harness.run_testcase2(cfg, out_dir):
                print(f"snr {p.snr_db:g} dB M={p.m}: "
                      f"MSE {p.mse:.4g} (+-{p.ci95_halfwidth:.2g})")
        elif tc == 3:
            for p in harness.run_testcase3(cfg, out_dir):
                print(f"snr {p.snr_db:g} dB {p.scheme} M={p.m} {p.eg_mode}: "
                      f"BER {p.ber:.3e} ({p.bit_errors}/{p.bits_simulated})")
        else:
            points, traces = harness.run_testcase4(cfg, out_dir)
            for p in points:
                print(f"snr {p.snr_db:g} dB {p.scheme} M={p.m} {p.eg_mode}: "
                      f"BER {p.ber:.3e} ({p.bit_errors}/{p.bits_simulated})")
            if traces:
                print(f"wrote {len(traces)} trace rows")
        print(f"CSV output in {out_dir}")
        return 0
    except harness.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
