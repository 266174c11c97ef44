"""Workloads of the uwbsim benchmark and the check of each operation's output.

An operation is one public campaign call, ``harness.run_testcaseN(cfg,
out_dir)``, the call ``uwbsim tcN`` makes, on a desk-scale config.  Every BER
point stops on its bit budget: ``target_errors`` is set out of reach, so the
work per operation is fixed and does not depend on the BER.  Each operation
gets its own seed, derived from the workload seed.
"""

import csv
import hashlib
import math
import os
from dataclasses import dataclass, replace

from uwbsim import harness

# the seed whose first operation's CSV digests are recorded in digests.json
DEFAULT_SEED = 1
UNREACHABLE_ERRORS = 10 ** 9
# tc1 writes an 80-bin histogram per SNR point (fixed in harness.run_testcase1)
HIST_BINS = 80
TEXT_COLUMNS = {"scheme", "eg_mode"}


@dataclass(frozen=True)
class Workload:
    test_case: int
    overrides: dict
    # spans that must record calls in a traced operation of this workload
    spans: tuple


WORKLOADS = {
    # M-MSDD hard-decision sweep dominates; no ldpc/joint/waveform/channel work
    "uncoded-sweep": Workload(
        3,
        dict(path="discrete", snr_db=(8.0, 10.0), m_list=(2, 3, 7),
             eg_modes=("perfect", "estimated"),
             schemes=("dd", "bmsdd", "mmsdd"), n_symbols=420,
             max_bits=2 * 420, target_errors=UNREACHABLE_ERRORS),
        ("msdd.detect_dd", "msdd.bmsdd_detect", "msdd.detect_mmsdd.M2",
         "msdd.detect_mmsdd.M3", "msdd.detect_mmsdd.M7",
         "acr.generate_discrete", "acr.generate_discrete_blocks",
         "acr.estimate_Eg")),
    # 12.0 dB never converges (10 x 10 iterations); 13.6 dB stops after one
    # outer iteration, so ldpc and joint are used in opposite ways
    "coded-waterfall": Workload(
        4,
        dict(snr_db=(12.0, 13.6), m_list=(2,),
             schemes=("joint-mmsdd", "joint-bmsdd"), eg_modes=("perfect",),
             max_bits=2 * 800, target_errors=UNREACHABLE_ERRORS,
             trace_snr_db=()),
        ("joint.run_joint", "msdd.msdd_app", "msdd.bmsdd_extrinsic",
         "ldpc.decode", "ldpc.syndrome_weight", "ldpc.encode",
         "beliefs.to_llr", "beliefs.from_llr", "acr.generate_discrete",
         "acr.generate_discrete_blocks")),
    # 9 packets is the fewest that give tc1 its 1000 noise samples at N=40, M=3
    "waveform-noise": Workload(
        1,
        dict(path="waveform", channel_mode="cm2", snr_db=(14.0,),
             m_list=(3,), n_symbols=40, n_packets=9),
        ("waveform.brickwall_lowpass", "waveform.add_awgn_and_filter",
         "waveform.apply_channel", "acr.sample_overlapping",
         "channel.generate_cm2", "channel.effective_captured_energy")),
}


def op_seed(seed: int, index: int) -> int:
    """Seed of operation `index` of a run with workload seed `seed`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def make_config(name: str, seed: int) -> harness.ExperimentConfig:
    w = WORKLOADS[name]
    cfg = replace(harness.default_config(w.test_case), seed=seed, **w.overrides)
    cfg.validate()
    return cfg


def run_operation(cfg: harness.ExperimentConfig, out_dir: str) -> None:
    getattr(harness, f"run_testcase{cfg.test_case}")(cfg, out_dir)


@dataclass
class Expected:
    rows: dict          # CSV file name -> number of data rows
    budgets: dict       # (scheme, m) -> bits_simulated of each BER row
    payload_bits: int   # info bits (coded) or data symbols per operation


def _bit_budget(max_bits: int, per_packet: int) -> int:
    return math.ceil(max_bits / per_packet) * per_packet


def expected(cfg: harness.ExperimentConfig) -> Expected:
    n_snr = len(cfg.snr_db)
    ms = [int(m) for m in cfg.m_list]
    if cfg.test_case == 1:
        return Expected({"tc1_moments.csv": n_snr,
                         "tc1_hist.csv": HIST_BINS * n_snr}, {},
                        n_snr * cfg.n_packets * cfg.n_symbols)
    if cfg.test_case == 3:
        combos = []
        if "dd" in cfg.schemes:
            combos.append(("dd", 1, cfg.n_symbols))
        if "bmsdd" in cfg.schemes:
            combos += [("bmsdd", m, m * (cfg.n_symbols // m)) for m in ms]
        if "mmsdd" in cfg.schemes:
            combos += [("mmsdd", m, cfg.n_symbols)
                       for m in ms for _ in cfg.eg_modes]
        budgets = {(s, m): _bit_budget(cfg.max_bits, n) for s, m, n in combos}
        return Expected({"tc3_ber.csv": len(combos) * n_snr}, budgets,
                        n_snr * sum(budgets[s, m] for s, m, _ in combos))
    n_combos = len(cfg.schemes) * len(ms) * len(cfg.eg_modes)
    bits = _bit_budget(cfg.max_bits, cfg.k_info)
    n_trace = (len(cfg.trace_snr_db) * len(cfg.trace_schemes) * len(ms)
               * cfg.outer_iters)
    return Expected({"tc4_ber.csv": n_combos * n_snr, "tc4_trace.csv": n_trace},
                    {(s, m): bits for s in cfg.schemes for m in ms},
                    n_snr * n_combos * bits)


def check_outputs(exp: Expected, out_dir: str) -> list[str]:
    """Problems with one operation's CSVs: files, row counts, bit budgets,
    and non-finite values.  An empty list means the output passed."""
    present = sorted(os.listdir(out_dir))
    if present != sorted(exp.rows):
        return [f"expected CSVs {sorted(exp.rows)}, found {present}"]
    problems = []
    for fname, n_rows in exp.rows.items():
        with open(os.path.join(out_dir, fname), newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != n_rows:
            problems.append(f"{fname}: {len(rows)} rows, expected {n_rows}")
        for i, row in enumerate(rows):
            for col, val in row.items():
                if col in TEXT_COLUMNS:
                    continue
                try:
                    finite = math.isfinite(float(val))
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    problems.append(f"{fname} row {i}: {col}={val!r}")
            if "bits_simulated" in row:
                budget = exp.budgets.get((row["scheme"], int(row["m"])))
                if int(row["bits_simulated"]) != budget:
                    problems.append(f"{fname} row {i}: bits_simulated="
                                    f"{row['bits_simulated']}, budget {budget}")
    return problems


def csv_digests(out_dir: str) -> dict:
    out = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as f:
            out[fname] = hashlib.sha256(f.read()).hexdigest()
    return out


def clear_dir(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for fname in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, fname))
