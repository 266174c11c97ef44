"""Experiment orchestration: noise statistics, energy-estimator MSE, uncoded
and coded BER sweeps, and convergence traces.

Every run is fully determined by (config, seed): each packet gets its own
Generator seeded from the tuple (seed, test_case, point index, scheme, M,
E_g mode, packet index), and CSV floats are written with repr round-tripping,
so reruns are byte-identical.

SNR (dB) maps to the noise level through SNR = N_f * E_g / (R * N_0), with
R = 1 for uncoded runs and R = K/N for coded runs.  On the discrete fast path
the detection statistics depend on the SNR only, so uncoded sweeps fix
E_g = 1; the waveform path computes the per-realization captured energy of
the band-limited received pulse and maps SNR through it.

Both BER campaigns share one stopping-rule driver.  It advances the points
of one (scheme, M) in lockstep rounds, so one M-MSDD sweep serves a round,
and takes from each point only packets its sequential rule is certain to
reach, so packet counts and streams equal a point-by-point loop's.
"""

import csv
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby

import numpy as np

from . import acr, channel as chmod, joint as jointmod, ldpc, txchain, waveform
from .msdd import (BATCH_ELEMENTS, MAX_WINDOW, bmsdd_detect, detect_dd,
                   detect_mmsdd)
from .params import SystemParams


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


_SCHEME_IDS = {
    "dd": 0, "bmsdd": 1, "mmsdd": 2, "joint-mmsdd": 3, "joint-bmsdd": 4,
    "noise": 5, "estimate": 6, "channel": 7,
}
_EG_IDS = {"perfect": 0, "estimated": 1}
# the detectors each BER campaign runs
_BER_SCHEMES = {3: {"dd", "bmsdd", "mmsdd"}, 4: {"joint-mmsdd", "joint-bmsdd"}}
# trace runs use point indices offset by this so they never share a stream
# with the BER sweep of the same test case
_TRACE_POINT_BASE = 1000


@dataclass
class ExperimentConfig:
    test_case: int
    snr_db: tuple = ()
    m_list: tuple = ()
    n_symbols: int = 1600          # uncoded symbols per packet
    k_info: int = 800
    n_coded: int = 1600
    target_errors: int = 100
    max_bits: int = 2_000_000
    n_packets: int = 1000          # fixed-count runs (noise / MSE / traces)
    seed: int = 1
    path: str = "discrete"
    channel_mode: str = "ideal"    # "ideal" (single unit tap) or "cm2"
    eg_modes: tuple = ("perfect",)
    schemes: tuple = ()
    outer_iters: int = 10
    inner_iters: int = 10
    variance_factor: int = 1
    code_seed: int = 1
    trace_snr_db: tuple = ()
    trace_schemes: tuple = ("joint-mmsdd",)
    trace_packets: int = 200
    out_dir: str | None = None

    def validate(self) -> None:
        if self.test_case not in (1, 2, 3, 4):
            raise ConfigError(f"unknown test case {self.test_case}")
        if not self.snr_db:
            raise ConfigError("snr_db grid must be non-empty")
        if self.target_errors <= 0 or self.max_bits <= 0 or self.n_packets <= 0:
            raise ConfigError("stopping rule values must be positive")
        if min(self.n_symbols, self.k_info, self.outer_iters, self.trace_packets) <= 0:
            raise ConfigError("packet sizes and iteration counts must be positive")
        if self.path not in ("discrete", "waveform"):
            raise ConfigError(f"unknown path {self.path!r}")
        if self.channel_mode not in ("ideal", "cm2"):
            raise ConfigError(f"unknown channel_mode {self.channel_mode!r}")
        for eg in self.eg_modes:
            if eg not in _EG_IDS:
                raise ConfigError(f"unknown E_g mode {eg!r}")
        for s in self.schemes:
            if s not in _SCHEME_IDS:
                raise ConfigError(f"unknown scheme {s!r}")
        if not self.eg_modes or not self.m_list:
            raise ConfigError("eg_modes and m_list must be non-empty")
        allowed = _BER_SCHEMES.get(self.test_case)
        named = set(self.schemes)
        if self.test_case == 4:
            named |= set(self.trace_schemes)
        if allowed and not (self.schemes and named <= allowed):
            raise ConfigError(f"test case {self.test_case} runs schemes from "
                              f"{sorted(allowed)}; got {sorted(named) or 'none'}")
        if self.test_case == 1 and self.path != "waveform":
            raise ConfigError("test case 1 requires the waveform path")
        if self.test_case in (2, 4) and self.path != "discrete":
            raise ConfigError("this test case supports only the discrete path")
        if self.path == "waveform" and self.n_symbols > 200:
            raise ConfigError("waveform packets above 200 symbols are "
                              "impractically slow; lower n_symbols")
        if self.variance_factor not in (1, 2):
            raise ConfigError("likelihood variance factor must be 1 or 2")
        # every window must fit in a packet, and block schemes must tile it
        n_pkt = self.n_coded if self.test_case == 4 else self.n_symbols
        for m in self.m_list:
            if not (1 <= int(m) <= min(MAX_WINDOW, n_pkt)):
                raise ConfigError(
                    f"M values must be in 1..{min(MAX_WINDOW, n_pkt)}")
            if self.test_case == 4 and n_pkt % int(m) != 0:
                raise ConfigError("block schemes need n_coded divisible by M")
        if self.test_case == 4:
            try:
                ldpc.default_code(self.k_info, self.n_coded, self.code_seed)
            except (ValueError, RuntimeError) as e:
                raise ConfigError(f"no (3,6)-regular code for k_info={self.k_info}, "
                                  f"n_coded={self.n_coded}: {e}") from e


def default_config(test_case: int) -> ExperimentConfig:
    if test_case == 1:
        return ExperimentConfig(test_case=1, snr_db=(14.0,), m_list=(3,),
                                n_symbols=40, n_packets=860, path="waveform",
                                channel_mode="cm2", schemes=("noise",))
    if test_case == 2:
        return ExperimentConfig(test_case=2, snr_db=(4.0, 7.0, 10.0, 13.0, 16.0),
                                m_list=(2, 3, 7), n_symbols=1600,
                                n_packets=1000, channel_mode="cm2",
                                schemes=("estimate",))
    if test_case == 3:
        # grid chosen so the steepest curve (sliding-window M=7) still
        # accumulates >=100 errors at the top point within max_bits
        return ExperimentConfig(test_case=3, snr_db=(8.0, 9.0, 10.0, 11.0),
                                m_list=(2, 3, 7), n_symbols=1600,
                                target_errors=120, max_bits=12_000_000,
                                schemes=("dd", "bmsdd", "mmsdd"),
                                eg_modes=("perfect", "estimated"))
    if test_case == 4:
        # both coded waterfalls fall in 12.4-13.2 dB under this noise model
        return ExperimentConfig(test_case=4,
                                snr_db=(12.0, 12.4, 12.8, 13.2, 13.6),
                                m_list=(2,), max_bits=400_000,
                                schemes=("joint-mmsdd", "joint-bmsdd"),
                                eg_modes=("perfect",),
                                trace_snr_db=(12.4, 13.0), trace_packets=200)
    raise ConfigError(f"unknown test case {test_case}")


# ---------------------------------------------------------------------------
# config file / overrides

_FLOAT_LIST_KEYS = {"snr_db", "trace_snr_db"}
_INT_LIST_KEYS = {"m_list"}
_STR_LIST_KEYS = {"schemes", "eg_modes", "trace_schemes"}
_INT_KEYS = {"test_case", "n_symbols", "k_info", "n_coded", "target_errors",
             "max_bits", "n_packets", "seed", "outer_iters", "inner_iters",
             "variance_factor", "code_seed", "trace_packets"}
_STR_KEYS = {"path", "channel_mode", "out_dir"}


def load_config_file(path) -> dict:
    """Parse a plain `key = value` file; '#' starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as f:
        for ln, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Apply string-valued overrides (from a config file or CLI) to cfg."""
    kw = {}
    for key, val in overrides.items():
        if val is None:
            continue
        try:
            if key in _FLOAT_LIST_KEYS:
                kw[key] = tuple(float(v) for v in str(val).split(",") if v != "")
            elif key in _INT_LIST_KEYS:
                kw[key] = tuple(int(v) for v in str(val).split(",") if v != "")
            elif key in _STR_LIST_KEYS:
                kw[key] = tuple(v.strip() for v in str(val).split(",") if v.strip())
            elif key in _INT_KEYS:
                kw[key] = int(val)
            elif key in _STR_KEYS:
                kw[key] = str(val)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from e
    cfg = replace(cfg, **kw)
    cfg.validate()
    return cfg


def resolve_out_dir(cli_out=None, cfg: ExperimentConfig | None = None) -> str:
    """Precedence: explicit flag, then UWBSIM_OUT, then config, then ./out."""
    if cli_out:
        return cli_out
    env = os.environ.get("UWBSIM_OUT")
    if env:
        return env
    if cfg is not None and cfg.out_dir:
        return cfg.out_dir
    return "out"


# ---------------------------------------------------------------------------
# shared plumbing

@dataclass
class BerPoint:
    scheme: str
    m: int
    eg_mode: str
    snr_db: float
    bits_simulated: int
    bit_errors: int
    ber: float
    ci95_halfwidth: float


@dataclass
class NoiseStats:
    snr_db: float
    n_samples: int
    mean: float
    variance: float
    sigma_n_sq_theory: float
    ks_stat: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


@dataclass
class MsePoint:
    snr_db: float
    m: int
    n_packets: int
    mse: float
    ci95_halfwidth: float


@dataclass
class TracePoint:
    scheme: str
    m: int
    eg_mode: str
    snr_db: float
    outer_iter: int
    n_packets: int
    p_c_msdd: float
    p_c_dec: float
    checks_satisfied_frac: float


def _snr_lin(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def n0_for_snr(snr_db: float, E_g: float, rate: float, params: SystemParams) -> float:
    """Invert SNR = N_f*E_g/(R*N_0)."""
    return params.N_f * E_g / (rate * _snr_lin(snr_db))


def _packet_rng(seed: int, tc: int, point: int, scheme: str, m: int,
                eg_mode: str, packet: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(seed, tc, point, _SCHEME_IDS[scheme],
                                         m, _EG_IDS[eg_mode], packet))
    return np.random.default_rng(ss)


def _ber_ci(errors: int, bits: int) -> float:
    if bits == 0:
        return 0.0
    p = errors / bits
    return 1.96 * float(np.sqrt(p * (1.0 - p) / bits))


def _random_symbols(rng: np.random.Generator, n: int) -> np.ndarray:
    return (1 - 2 * rng.integers(0, 2, n)).astype(np.int64)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


_BER_HEADER = ["test_case", "scheme", "m", "eg_mode", "snr_db",
               "bits_simulated", "bit_errors", "ber", "ci95_halfwidth"]


def _ber_rows(tc: int, points) -> list:
    return [[tc, p.scheme, p.m, p.eg_mode, p.snr_db, p.bits_simulated,
             p.bit_errors, p.ber, p.ci95_halfwidth] for p in points]


def _ideal_channel(params: SystemParams) -> chmod.ChannelRealization:
    ch = chmod.ChannelRealization(np.array([0.0]), np.array([1.0]))
    ch.E_g = chmod.captured_energy(ch, params)
    return ch


def _waveform_packet(a, params: SystemParams, th, ch, N0, rng,
                     M: int, block: bool = False):
    """Simulate one packet through the waveform chain and sample it."""
    sig = waveform.add_awgn_and_filter(
        waveform.transmit(txchain.differential_modulate(a), params, th, ch),
        N0, params, rng)
    sample = acr.sample_block if block else acr.sample_overlapping
    return sample(sig, th, params, len(a), M)


# ---------------------------------------------------------------------------
# test case 1: empirical noise statistics on the waveform path

def run_testcase1(cfg: ExperimentConfig, out_dir=None) -> list[NoiseStats]:
    """Empirical PDF of the correlation-sample noise vs the Gaussian model.

    One seeded channel realization is held fixed per SNR point (so the
    theoretical variance is a single number); TH codes, data, and noise are
    redrawn per packet.  Noise samples are Y minus the known signal part.
    """
    from scipy import stats

    cfg.validate()
    params = SystemParams()
    M = int(cfg.m_list[0])
    results = []
    hist_rows = []
    moment_rows = []
    for p_idx, snr in enumerate(cfg.snr_db):
        ch_rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, "channel",
                             M, "perfect", 0)
        if cfg.channel_mode == "cm2":
            ch = chmod.generate_cm2(params, ch_rng)
        else:
            ch = _ideal_channel(params)
        E_g = chmod.effective_captured_energy(ch, params)
        N0 = n0_for_snr(snr, E_g, 1.0, params)
        model = acr.NoiseModel(params.N_f, E_g, N0, params.W, params.T_g)
        N = cfg.n_symbols
        chunks = []
        for pkt in range(cfg.n_packets):
            rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, "noise",
                              M, "perfect", pkt)
            th = waveform.ThCode.random(params, rng)
            a = _random_symbols(rng, N)
            samples = _waveform_packet(a, params, th, ch, N0, rng, M)
            C = acr._running_products(a)
            i = np.arange(1, N + 1)[:, None]
            m = np.arange(1, M + 1)[None, :]
            signal = model.amplitude * C[i] * C[np.maximum(i - m, 0)]
            resid = samples.values - signal
            chunks.append(resid[~samples.pad_mask])
        noise = np.concatenate(chunks)
        if noise.size < 1000:
            raise ConfigError("too few noise samples for a stable histogram; "
                              "raise n_packets or n_symbols")
        sigma_th = model.sigma_n_sq
        ks = stats.kstest(noise, "norm", args=(0.0, np.sqrt(sigma_th))).statistic
        span = 5.0 * np.sqrt(sigma_th)
        counts, edges = np.histogram(noise, bins=80, range=(-span, span))
        res = NoiseStats(snr_db=snr, n_samples=int(noise.size),
                         mean=float(noise.mean()),
                         variance=float(noise.var()),
                         sigma_n_sq_theory=float(sigma_th),
                         ks_stat=float(ks), hist_edges=edges,
                         hist_counts=counts)
        results.append(res)
        moment_rows.append([cfg.test_case, snr, res.n_samples, res.mean,
                            res.variance, res.sigma_n_sq_theory, res.ks_stat])
        width = edges[1] - edges[0]
        for b in range(len(counts)):
            center = 0.5 * (edges[b] + edges[b + 1])
            theory = float(np.exp(-center ** 2 / (2 * sigma_th))
                           / np.sqrt(2 * np.pi * sigma_th))
            hist_rows.append([cfg.test_case, snr, edges[b], edges[b + 1],
                              int(counts[b]),
                              counts[b] / (noise.size * width), theory])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "tc1_moments.csv"),
                   ["test_case", "snr_db", "n_samples", "mean", "variance",
                    "sigma_n_sq_theory", "ks_stat"], moment_rows)
        _write_csv(os.path.join(out_dir, "tc1_hist.csv"),
                   ["test_case", "snr_db", "bin_left", "bin_right", "count",
                    "density", "theory_density"], hist_rows)
    return results


# ---------------------------------------------------------------------------
# test case 2: MSE of the energy estimator

def run_testcase2(cfg: ExperimentConfig, out_dir=None) -> list[MsePoint]:
    """Mean squared error of the mean-magnitude E_g estimate per SNR and M.

    All window sizes share the same channel draws and noise: one packet is
    sampled once at the largest M, and a size-m estimate reads the first m
    lag columns (a lag-m sample does not depend on how many other lags the
    receiver takes).  This pairs the comparison across M, so the common
    low-SNR magnitude bias cancels when curves are compared.
    """
    cfg.validate()
    params = SystemParams()
    m_list = [int(m) for m in cfg.m_list]
    m_max = max(m_list)
    points = []
    for p_idx, snr in enumerate(cfg.snr_db):
        sq = {m: np.empty(cfg.n_packets) for m in m_list}
        for pkt in range(cfg.n_packets):
            rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, "estimate",
                              0, "perfect", pkt)
            if cfg.channel_mode == "cm2":
                ch = chmod.generate_cm2(params, rng)
                E_g = ch.E_g
            else:
                E_g = 1.0
            N0 = n0_for_snr(snr, E_g, 1.0, params)
            model = acr.NoiseModel(params.N_f, E_g, N0, params.W, params.T_g)
            a = _random_symbols(rng, cfg.n_symbols)
            samples = acr.generate_discrete(a, m_max, model, rng)
            for m in m_list:
                sub = acr.CorrSamples(samples.values[:, :m],
                                      samples.pad_mask[:, :m])
                eh = acr.estimate_Eg(sub, params.N_f)
                sq[m][pkt] = (eh - E_g) ** 2
        for m in m_list:
            mse = float(sq[m].mean())
            ci = 1.96 * float(sq[m].std(ddof=1) / np.sqrt(cfg.n_packets))
            points.append(MsePoint(snr, m, cfg.n_packets, mse, ci))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "tc2_mse.csv"),
                   ["test_case", "snr_db", "m", "n_packets", "mse",
                    "ci95_halfwidth"],
                   [[cfg.test_case, p.snr_db, p.m, p.n_packets, p.mse,
                     p.ci95_halfwidth] for p in points])
    return points


# ---------------------------------------------------------------------------
# BER points: one stopping-rule driver for test cases 3 and 4

def _ber_points(cfg, points, n_bits, cap, make_packet, detect) -> list:
    """BER of each point under `while errors < target and bits < max_bits`.

    points are (p_idx, scheme, m, eg_mode, snr); make_packet(point, pkt)
    returns (truth, packet), and detect(packets) one decision per packet.
    A round holds at most `cap` packets, taken in point order; each live
    point adds its next k = min(packets left in its bit budget,
    ceil((target_errors - errors) / n_bits)), all of which the sequential
    rule reaches even if every bit before the last is in error.
    """
    errors = [0] * len(points)
    bits = [0] * len(points)
    sent = [0] * len(points)
    while True:
        batch = []
        for j in range(len(points)):
            k = min(-(-(cfg.max_bits - bits[j]) // n_bits),
                    -(-(cfg.target_errors - errors[j]) // n_bits),
                    cap - len(batch))
            batch += [(j, sent[j] + q) for q in range(k)]
            sent[j] += max(k, 0)
        if not batch:
            break
        made = [make_packet(points[j], pkt) for j, pkt in batch]
        decided = detect([packet for _, packet in made])
        for (j, _), (truth, _), hat in zip(batch, made, decided):
            errors[j] += int(np.sum(hat != truth))
            bits[j] += n_bits
    return [BerPoint(scheme, m, eg, snr, b, e, e / b, _ber_ci(e, b))
            for (_, scheme, m, eg, snr), b, e in zip(points, bits, errors)]


# ---------------------------------------------------------------------------
# test case 3: uncoded BER sweeps

def _uncoded_packet(cfg, params, n_use, point, pkt):
    """(symbols, (samples, detector model)) of one uncoded packet."""
    p_idx, scheme, m, eg_mode, snr = point
    rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, scheme, m, eg_mode, pkt)
    if cfg.path == "discrete":
        N0 = n0_for_snr(snr, 1.0, 1.0, params)
        model = acr.NoiseModel(params.N_f, 1.0, N0, params.W, params.T_g)
        a = _random_symbols(rng, n_use)
        if scheme == "bmsdd":
            samples = acr.generate_discrete_blocks(a, m, model, rng)
        else:
            samples = acr.generate_discrete(a, m if scheme == "mmsdd" else 1,
                                            model, rng)
    else:
        ch = (_ideal_channel(params) if cfg.channel_mode == "ideal"
              else chmod.generate_cm2(params, rng))
        E_g = chmod.effective_captured_energy(ch, params)
        N0 = n0_for_snr(snr, E_g, 1.0, params)
        model = acr.NoiseModel(params.N_f, E_g, N0, params.W, params.T_g)
        th = waveform.ThCode.random(params, rng)
        a = _random_symbols(rng, n_use)
        samples = _waveform_packet(a, params, th, ch, N0, rng,
                                   m if scheme != "dd" else 1,
                                   block=(scheme == "bmsdd"))
    if scheme == "mmsdd" and eg_mode == "estimated":
        eh = acr.estimate_Eg(samples, params.N_f)
        model = acr.NoiseModel(params.N_f, eh, N0, params.W, params.T_g)
    return a, (samples, model)


def _detect_uncoded(scheme, m, variance_factor, packets):
    if scheme == "mmsdd":
        return detect_mmsdd([s for s, _ in packets], m,
                            [d.amplitude for _, d in packets],
                            [d.sigma_n_sq for _, d in packets], variance_factor)
    detect = detect_dd if scheme == "dd" else bmsdd_detect
    return [detect(s) for s, _ in packets]


def _uncoded_points(cfg, params, scheme, m, eg_modes) -> dict:
    """BerPoints of one (scheme, M) over the SNR grid and `eg_modes`, keyed
    by point; a round's M-MSDD packets share one sweep."""
    n_use = cfg.n_symbols if scheme != "bmsdd" else m * (cfg.n_symbols // m)
    if n_use <= 0:  # a packet of no bits would never end the point
        raise ConfigError(f"{scheme} M={m} packets carry no bits")
    keys = [(p_idx, scheme, m, eg, snr)
            for p_idx, snr in enumerate(cfg.snr_db) for eg in eg_modes]
    return dict(zip(keys, _ber_points(
        cfg, keys, n_use, max(1, BATCH_ELEMENTS // (n_use << m)),
        partial(_uncoded_packet, cfg, params, n_use),
        partial(_detect_uncoded, scheme, m, cfg.variance_factor))))


def _tc3_combos(cfg) -> list:
    combos = []
    if "dd" in cfg.schemes:
        combos.append(("dd", 1, "perfect"))
    if "bmsdd" in cfg.schemes:
        combos.extend(("bmsdd", int(m), "perfect") for m in cfg.m_list)
    if "mmsdd" in cfg.schemes:
        combos.extend(("mmsdd", int(m), eg)
                      for m in cfg.m_list for eg in cfg.eg_modes)
    return combos


def run_testcase3(cfg: ExperimentConfig, out_dir=None) -> list[BerPoint]:
    """Uncoded BER of DD, hard block detection, and sliding-window MSDD."""
    cfg.validate()
    params = SystemParams()
    combos = _tc3_combos(cfg)
    by_point = {}
    for (scheme, m), group in groupby(combos, key=lambda c: c[:2]):
        egs = [eg for _, _, eg in group]
        by_point.update(_uncoded_points(cfg, params, scheme, m, egs))
    points = [by_point[p_idx, scheme, m, eg, snr]
              for p_idx, snr in enumerate(cfg.snr_db)
              for scheme, m, eg in combos]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "tc3_ber.csv"), _BER_HEADER,
                   _ber_rows(cfg.test_case, points))
    return points


# ---------------------------------------------------------------------------
# test case 4: joint detection and decoding

def _coded_packet(cfg, params, code, point, pkt, early_exit=True,
                  want_trace=False):
    """(info bits, JointResult) of one packet through the joint receiver."""
    p_idx, scheme, m, eg_mode, snr = point
    rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, scheme, m, eg_mode, pkt)
    N0 = n0_for_snr(snr, 1.0, code.rate, params)
    model = acr.NoiseModel(params.N_f, 1.0, N0, params.W, params.T_g)
    info = rng.integers(0, 2, code.k).astype(np.uint8)
    cw = ldpc.encode(code, info)
    imap = txchain.InterleaverMap.random(code.n, rng)
    a = txchain.bits_to_symbols(txchain.interleave(cw, imap))
    if scheme == "joint-mmsdd":
        samples = acr.generate_discrete(a, m, model, rng)
    else:
        samples = acr.generate_discrete_blocks(a, m, model, rng)
    if eg_mode == "estimated":
        eh = acr.estimate_Eg(samples, params.N_f)
        model = acr.NoiseModel(params.N_f, eh, N0, params.W, params.T_g)
    res = jointmod.run_joint(samples, code, imap, model,
                             outer_iters=cfg.outer_iters,
                             inner_iters=cfg.inner_iters,
                             variance_factor=cfg.variance_factor,
                             early_exit=early_exit,
                             true_coded_bits=cw if want_trace else None)
    return info, res


def _trace_point(cfg, params, code, t_idx, scheme, m, eg_mode, snr):
    acc_det = np.zeros(cfg.outer_iters)
    acc_dec = np.zeros(cfg.outer_iters)
    acc_chk = np.zeros(cfg.outer_iters)
    n_checks = code.H.shape[0]
    point = (_TRACE_POINT_BASE + t_idx, scheme, m, eg_mode, snr)
    for pkt in range(cfg.trace_packets):
        _, res = _coded_packet(cfg, params, code, point, pkt,
                               early_exit=False, want_trace=True)
        for rec in res.trace:
            acc_det[rec.iteration - 1] += rec.p_c_msdd
            acc_dec[rec.iteration - 1] += rec.p_c_dec
            acc_chk[rec.iteration - 1] += rec.checks_satisfied / n_checks
    out = []
    for t in range(cfg.outer_iters):
        out.append(TracePoint(scheme, m, eg_mode, snr, t + 1,
                              cfg.trace_packets,
                              acc_det[t] / cfg.trace_packets,
                              acc_dec[t] / cfg.trace_packets,
                              acc_chk[t] / cfg.trace_packets))
    return out


def run_testcase4(cfg: ExperimentConfig, out_dir=None):
    """Coded BER of the two joint receivers, plus convergence traces.

    Returns (ber_points, trace_points).
    """
    cfg.validate()
    params = SystemParams()
    code = ldpc.default_code(cfg.k_info, cfg.n_coded, cfg.code_seed)
    keys = [(p_idx, scheme, int(m), eg, snr)
            for p_idx, snr in enumerate(cfg.snr_db) for scheme in cfg.schemes
            for m in cfg.m_list for eg in cfg.eg_modes]
    # the joint receiver decodes as it makes each packet: one per round
    points = _ber_points(cfg, keys, code.k, 1,
                         partial(_coded_packet, cfg, params, code),
                         lambda done: [res.info_bits for res in done])
    traces = []
    t_idx = 0
    for snr in cfg.trace_snr_db:
        for scheme in cfg.trace_schemes:
            for m in cfg.m_list:
                traces.extend(_trace_point(cfg, params, code, t_idx, scheme,
                                           int(m), cfg.eg_modes[0], snr))
                t_idx += 1
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "tc4_ber.csv"), _BER_HEADER,
                   _ber_rows(cfg.test_case, points))
        _write_csv(os.path.join(out_dir, "tc4_trace.csv"),
                   ["test_case", "scheme", "m", "eg_mode", "snr_db",
                    "outer_iter", "n_packets", "p_c_msdd", "p_c_dec",
                    "checks_satisfied_frac"],
                   [[cfg.test_case, t.scheme, t.m, t.eg_mode, t.snr_db,
                     t.outer_iter, t.n_packets, t.p_c_msdd, t.p_c_dec,
                     t.checks_satisfied_frac] for t in traces])
    return points, traces


# ---------------------------------------------------------------------------
# analysis helpers

@dataclass
class RequiredSnr:
    """SNR (dB) where a BER curve crosses a target, with CI-bound variants."""
    mid: float
    optimistic: float   # from the lower CI bounds (curve could be this good)
    pessimistic: float  # from the upper CI bounds


def _cross(snrs, bers, target):
    for (s1, b1), (s2, b2) in zip(zip(snrs, bers), zip(snrs[1:], bers[1:])):
        if b1 >= target >= b2 and b1 > 0 and b2 > 0 and b1 != b2:
            f = (np.log10(target) - np.log10(b1)) / (np.log10(b2) - np.log10(b1))
            return float(s1 + f * (s2 - s1))
    return float("nan")


def interpolate_required_snr(points: list[BerPoint], target_ber: float) -> RequiredSnr:
    """Interpolate the SNR needed to reach target_ber on a log-BER curve.

    Zero-error points are floored at 0.5/bits (the usual continuity rule),
    and the CI-bound curves give the optimistic/pessimistic crossings.
    """
    pts = sorted(points, key=lambda p: p.snr_db)
    snrs = [p.snr_db for p in pts]
    floor = [max(p.ber, 0.5 / p.bits_simulated) for p in pts]
    lo = [max(p.ber - p.ci95_halfwidth, 0.1 / p.bits_simulated) for p in pts]
    hi = [max(p.ber + p.ci95_halfwidth, 0.5 / p.bits_simulated) for p in pts]
    return RequiredSnr(mid=_cross(snrs, floor, target_ber),
                       optimistic=_cross(snrs, lo, target_ber),
                       pessimistic=_cross(snrs, hi, target_ber))
