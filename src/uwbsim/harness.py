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
of one (scheme, M) in lockstep rounds, so one M-MSDD sweep serves a round
(in the joint receiver, one per outer iteration), and takes from each point
only packets its sequential rule is certain to reach, so packet counts and
streams equal a point-by-point loop's.  Convergence traces decode their
packets in rounds of the same size.
"""

import csv
import math
import os
from dataclasses import dataclass, fields, replace
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
# the schemes each campaign runs
_RUN_SCHEMES = {1: {"noise"}, 2: {"estimate"}, 3: {"dd", "bmsdd", "mmsdd"},
                4: {"joint-mmsdd", "joint-bmsdd"}}
# the code, turbo-loop and trace settings only test case 4 reads
_TC4_FIELDS = ("k_info", "n_coded", "outer_iters", "inner_iters",
               "trace_snr_db", "trace_schemes", "trace_packets")
# trace runs use point indices offset by this so they never share a stream
# with the BER sweep of the same test case
_TRACE_POINT_BASE = 1000


@dataclass
class ExperimentConfig:
    test_case: int
    snr_db: tuple[float, ...] = ()
    m_list: tuple[int, ...] = ()
    n_symbols: int = 1600          # uncoded symbols per packet
    k_info: int = 800
    n_coded: int = 1600
    target_errors: int = 100
    max_bits: int = 2_000_000
    n_packets: int = 1000          # fixed-count runs (noise / MSE / traces)
    seed: int = 1
    path: str = "discrete"
    channel_mode: str = "ideal"    # "ideal" (single unit tap) or "cm2"
    eg_modes: tuple[str, ...] = ("perfect",)
    schemes: tuple[str, ...] = ()
    outer_iters: int = 10
    inner_iters: int = 10
    trace_snr_db: tuple[float, ...] = ()
    trace_schemes: tuple[str, ...] = ("joint-mmsdd",)
    trace_packets: int = 200
    out_dir: str | None = None

    def validate(self) -> None:
        if self.test_case not in (1, 2, 3, 4):
            raise ConfigError(f"unknown test case {self.test_case}")
        if not self.snr_db:
            raise ConfigError("snr_db grid must be non-empty")
        if self.target_errors <= 0 or self.max_bits <= 0 or self.n_packets <= 0:
            raise ConfigError("stopping rule values must be positive")
        if min(self.n_symbols, self.k_info, self.outer_iters, self.inner_iters,
               self.trace_packets) <= 0:
            raise ConfigError("packet sizes and iteration counts must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.path not in ("discrete", "waveform"):
            raise ConfigError(f"unknown path {self.path!r}")
        if self.channel_mode not in ("ideal", "cm2"):
            raise ConfigError(f"unknown channel_mode {self.channel_mode!r}")
        for eg in self.eg_modes:
            if eg not in _EG_IDS:
                raise ConfigError(f"unknown E_g mode {eg!r}")
        if not self.eg_modes or not self.m_list:
            raise ConfigError("eg_modes and m_list must be non-empty")
        allowed = _RUN_SCHEMES[self.test_case]
        named = set(self.schemes)
        if self.test_case == 4:
            named |= set(self.trace_schemes)
        if not (self.schemes and named <= allowed):
            raise ConfigError(f"test case {self.test_case} runs schemes from "
                              f"{sorted(allowed)}; got {sorted(named) or 'none'}")
        if self.test_case != 4:
            base = ExperimentConfig(self.test_case)
            moved = [f for f in _TC4_FIELDS
                     if getattr(self, f) != getattr(base, f)]
            if moved:
                raise ConfigError(f"only test case 4 reads {', '.join(moved)}")
        # test cases 1 and 2 know the energy and sample one window size
        if self.test_case in (1, 2) and set(self.eg_modes) != {"perfect"}:
            raise ConfigError(f"test case {self.test_case} runs only the "
                              "perfect E_g mode")
        if self.test_case == 1 and len(self.m_list) > 1:
            raise ConfigError("test case 1 samples one window size M")
        if self.test_case == 1 and self.path != "waveform":
            raise ConfigError("test case 1 requires the waveform path")
        if self.test_case in (2, 4) and self.path != "discrete":
            raise ConfigError("this test case supports only the discrete path")
        if self.path == "waveform" and self.n_symbols > 200:
            raise ConfigError("waveform packets above 200 symbols are "
                              "impractically slow; lower n_symbols")
        # every window must fit in a packet, and block schemes must tile it
        n_pkt = self.n_coded if self.test_case == 4 else self.n_symbols
        for m in self.m_list:
            if not (1 <= int(m) <= min(MAX_WINDOW, n_pkt)):
                raise ConfigError(
                    f"M values must be in 1..{min(MAX_WINDOW, n_pkt)}")
            if self.test_case == 4 and n_pkt % int(m) != 0:
                raise ConfigError("block schemes need n_coded divisible by M")
        # test case 1 keeps the N - m + 1 unpadded samples of each lag m <= M
        if self.test_case == 1 and self.n_packets * sum(
                self.n_symbols - m for m in range(int(self.m_list[0]))) < 1000:
            raise ConfigError("too few noise samples for a stable histogram; "
                              "raise n_packets or n_symbols")
        # test case 2's confidence interval is a sample standard deviation
        if self.test_case == 2 and self.n_packets < 2:
            raise ConfigError("test case 2 needs at least 2 packets per point")
        rate = 1.0
        if self.test_case == 4:
            try:
                rate = ldpc.default_code(self.k_info, self.n_coded).rate
            except (ValueError, RuntimeError) as e:
                raise ConfigError(f"no (3,6)-regular code for k_info={self.k_info}, "
                                  f"n_coded={self.n_coded}: {e}") from e
        for snr in (*self.snr_db, *self.trace_snr_db):
            if not _noise_model_is_finite(snr, rate):
                raise ConfigError(
                    f"SNR {snr} dB gives no finite, positive noise model; "
                    "snr_db and trace_snr_db must lie within about "
                    "-750 to +1640 dB")


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
    """Apply string-valued overrides (from a config file or CLI) to cfg.

    Each value is parsed by its field's type: a tuple field takes a
    comma-separated list, whose blank entries are dropped, of its item type.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    kw = {}
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        # the item type of tuple[T, ...], and str of str | None
        item = getattr(types[key], "__args__", (types[key],))[0]
        try:
            if getattr(types[key], "__origin__", None) is tuple:
                kw[key] = tuple(item(v.strip()) for v in str(val).split(",")
                                if v.strip())
            else:
                kw[key] = item(val)
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


def n0_for_snr(snr_db: float, E_g: float, rate: float, params: SystemParams) -> float:
    """Invert SNR = N_f*E_g/(R*N_0)."""
    return params.N_f * E_g / (rate * 10.0 ** (snr_db / 10.0))


def _noise_model(snr_db: float, E_g: float, rate: float,
                 params: SystemParams) -> acr.NoiseModel:
    """Detector statistics of a packet with captured energy E_g at an SNR."""
    N0 = n0_for_snr(snr_db, E_g, rate, params)
    return acr.NoiseModel(params.N_f, E_g, N0, params.W, params.T_g)


def _validate(cfg: ExperimentConfig, case: int) -> None:
    if cfg.test_case != case:
        raise ConfigError(f"tc{case} cannot run a test case {cfg.test_case} config")
    cfg.validate()


def _noise_model_is_finite(snr_db: float, rate: float) -> bool:
    """Whether sigma_n^4 at unit E_g is finite and positive.  The largest
    power of the noise a runner forms is the fourth: tc2's confidence
    interval is the spread of squared E_g-estimate errors, each of order
    sigma_n^2.  At rate 1 this admits about -750 to +1638 dB; the captured
    energy of a CM2 channel (about 0.05 to 1.3) stays inside that margin."""
    try:
        var = _noise_model(snr_db, 1.0, rate, SystemParams()).sigma_n_sq
        return 0.0 < var ** 2 < math.inf
    except (OverflowError, ZeroDivisionError):
        return False


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


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_records(out_dir, fname, tc: int, cls, records) -> None:
    """Write records of dataclass `cls` to out_dir/fname: test_case, then
    the non-array fields of `cls` in declaration order."""
    names = [f.name for f in fields(cls) if f.type is not np.ndarray]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, fname), ["test_case", *names],
               [[tc, *(getattr(r, n) for n in names)] for r in records])


def _waveform_packet(a, params: SystemParams, th, ch, N0, rng,
                     M: int, block: bool = False):
    """Simulate one packet through the waveform chain and sample it."""
    r = waveform.add_awgn_and_filter(
        waveform.transmit(txchain.differential_modulate(a), params, th, ch),
        N0, params, rng)
    sample = acr.sample_block if block else acr.sample_overlapping
    return sample(r, th, params, len(a), M)


# ---------------------------------------------------------------------------
# test case 1: empirical noise statistics on the waveform path

def _ks_statistic(x: np.ndarray, sd: float) -> np.float64:
    """KS statistic of x against N(0, sd^2), as scipy.stats.kstest computes it."""
    from scipy.special import ndtr
    cdf, n = ndtr(np.sort(x) / sd), len(x)
    return max(np.max(np.arange(1.0, n + 1) / n - cdf),
               np.max(cdf - np.arange(0.0, n) / n))


def run_testcase1(cfg: ExperimentConfig, out_dir=None) -> list[NoiseStats]:
    """Empirical PDF of the correlation-sample noise vs the Gaussian model.

    One seeded channel realization is held fixed per SNR point (so the
    theoretical variance is a single number); TH codes, data, and noise are
    redrawn per packet.  Noise samples are Y minus the known signal part.
    """
    _validate(cfg, 1)
    params = SystemParams()
    M = int(cfg.m_list[0])
    results = []
    hist_rows = []
    for p_idx, snr in enumerate(cfg.snr_db):
        ch_rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, "channel",
                             M, "perfect", 0)
        if cfg.channel_mode == "cm2":
            ch = chmod.generate_cm2(params, ch_rng)
        else:
            ch = chmod.ChannelRealization([0.0], [1.0])
        model = _noise_model(snr, chmod.effective_captured_energy(ch, params),
                             1.0, params)
        noiseless = replace(model, N0=0.0)
        chunks = []
        for pkt in range(cfg.n_packets):
            rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, "noise",
                              M, "perfect", pkt)
            th = waveform.ThCode.random(params, rng)
            a = txchain.bits_to_symbols(rng.integers(0, 2, cfg.n_symbols))
            samples = _waveform_packet(a, params, th, ch, model.N0, rng, M)
            signal = acr.generate_discrete(a, M, noiseless, rng).values
            chunks.append((samples.values - signal)[~samples.pad_mask])
        noise = np.concatenate(chunks)
        sigma_th = model.sigma_n_sq
        ks = _ks_statistic(noise, np.sqrt(sigma_th))
        span = 5.0 * np.sqrt(sigma_th)
        counts, edges = np.histogram(noise, bins=80, range=(-span, span))
        res = NoiseStats(snr_db=snr, n_samples=int(noise.size),
                         mean=float(noise.mean()),
                         variance=float(noise.var()),
                         sigma_n_sq_theory=float(sigma_th),
                         ks_stat=float(ks), hist_edges=edges,
                         hist_counts=counts)
        results.append(res)
        width = edges[1] - edges[0]
        for b in range(len(counts)):
            center = 0.5 * (edges[b] + edges[b + 1])
            theory = float(np.exp(-center ** 2 / (2 * sigma_th))
                           / np.sqrt(2 * np.pi * sigma_th))
            hist_rows.append([cfg.test_case, snr, edges[b], edges[b + 1],
                              int(counts[b]),
                              counts[b] / (noise.size * width), theory])
    if out_dir is not None:
        _write_records(out_dir, "tc1_moments.csv", cfg.test_case,
                       NoiseStats, results)
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
    _validate(cfg, 2)
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
                E_g = chmod.captured_energy(ch, params)
            else:
                E_g = 1.0
            model = _noise_model(snr, E_g, 1.0, params)
            a = txchain.bits_to_symbols(rng.integers(0, 2, cfg.n_symbols))
            samples = acr.generate_discrete(a, m_max, model, rng)
            for m in m_list:
                sub = acr.CorrSamples(samples.values[:, :m])
                eh = acr.estimate_Eg(sub, params.N_f)
                sq[m][pkt] = (eh - E_g) ** 2
        for m in m_list:
            mse = float(sq[m].mean())
            ci = 1.96 * float(sq[m].std(ddof=1) / np.sqrt(cfg.n_packets))
            points.append(MsePoint(snr, m, cfg.n_packets, mse, ci))
    if out_dir is not None:
        _write_records(out_dir, "tc2_mse.csv", cfg.test_case, MsePoint,
                       points)
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


def _round_cap(n_symbols: int, m: int) -> int:
    """Packets per round that keep a sweep within BATCH_ELEMENTS."""
    return max(1, BATCH_ELEMENTS // (n_symbols << m))


def _grouped_points(cfg, combos, group_points) -> list:
    """BerPoints of every (scheme, M, E_g mode) combo at every SNR, in CSV
    order (SNR, then combo).  group_points(scheme, m, keys) runs the points
    of one (scheme, M), across SNR and E_g mode, and returns their BerPoints
    in key order."""
    by_point = {}
    for (scheme, m), group in groupby(combos, key=lambda c: c[:2]):
        egs = [eg for _, _, eg in group]
        keys = [(p_idx, scheme, m, eg, snr)
                for p_idx, snr in enumerate(cfg.snr_db) for eg in egs]
        by_point.update(zip(keys, group_points(scheme, m, keys)))
    return [by_point[p_idx, scheme, m, eg, snr]
            for p_idx, snr in enumerate(cfg.snr_db)
            for scheme, m, eg in combos]


# ---------------------------------------------------------------------------
# test case 3: uncoded BER sweeps

def _uncoded_packet(cfg, params, n_use, point, pkt):
    """(symbols, (samples, detector model)) of one uncoded packet."""
    p_idx, scheme, m, eg_mode, snr = point
    rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, scheme, m, eg_mode, pkt)
    if cfg.path == "discrete":
        model = _noise_model(snr, 1.0, 1.0, params)
        a = txchain.bits_to_symbols(rng.integers(0, 2, n_use))
        if scheme == "bmsdd":
            samples = acr.generate_discrete_blocks(a, m, model, rng)
        else:
            samples = acr.generate_discrete(a, m if scheme == "mmsdd" else 1,
                                            model, rng)
    else:
        ch = (chmod.ChannelRealization([0.0], [1.0])
              if cfg.channel_mode == "ideal"
              else chmod.generate_cm2(params, rng))
        model = _noise_model(snr, chmod.effective_captured_energy(ch, params),
                             1.0, params)
        th = waveform.ThCode.random(params, rng)
        a = txchain.bits_to_symbols(rng.integers(0, 2, n_use))
        samples = _waveform_packet(a, params, th, ch, model.N0, rng,
                                   m if scheme != "dd" else 1,
                                   block=(scheme == "bmsdd"))
    if scheme == "mmsdd" and eg_mode == "estimated":
        model = replace(model, E_g=acr.estimate_Eg(samples, params.N_f))
    return a, (samples, model)


def _detect_uncoded(scheme, m, packets):
    if scheme == "mmsdd":
        return detect_mmsdd([s for s, _ in packets], m,
                            [d.amplitude for _, d in packets],
                            [d.sigma_n_sq for _, d in packets])
    detect = detect_dd if scheme == "dd" else bmsdd_detect
    return [detect(s) for s, _ in packets]


def _uncoded_points(cfg, params, scheme, m, keys) -> list:
    """BerPoints of one (scheme, M) at `keys`; a round's M-MSDD packets
    share one sweep."""
    n_use = cfg.n_symbols if scheme != "bmsdd" else m * (cfg.n_symbols // m)
    if n_use <= 0:  # a packet of no bits would never end the point
        raise ConfigError(f"{scheme} M={m} packets carry no bits")
    return _ber_points(cfg, keys, n_use, _round_cap(n_use, m),
                       partial(_uncoded_packet, cfg, params, n_use),
                       partial(_detect_uncoded, scheme, m))


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
    _validate(cfg, 3)
    points = _grouped_points(cfg, _tc3_combos(cfg),
                             partial(_uncoded_points, cfg, SystemParams()))
    if out_dir is not None:
        _write_records(out_dir, "tc3_ber.csv", cfg.test_case, BerPoint,
                       points)
    return points


# ---------------------------------------------------------------------------
# test case 4: joint detection and decoding

def _coded_packet(cfg, params, code, point, pkt):
    """(info bits, (samples, interleaver, detector model, codeword)) of one
    coded packet."""
    p_idx, scheme, m, eg_mode, snr = point
    rng = _packet_rng(cfg.seed, cfg.test_case, p_idx, scheme, m, eg_mode, pkt)
    model = _noise_model(snr, 1.0, code.rate, params)
    info = rng.integers(0, 2, code.k).astype(np.uint8)
    cw = ldpc.encode(code, info)
    imap = txchain.InterleaverMap.random(code.n, rng)
    a = txchain.bits_to_symbols(txchain.interleave(cw, imap))
    if scheme == "joint-mmsdd":
        samples = acr.generate_discrete(a, m, model, rng)
    else:
        samples = acr.generate_discrete_blocks(a, m, model, rng)
    if eg_mode == "estimated":
        model = replace(model, E_g=acr.estimate_Eg(samples, params.N_f))
    return info, (samples, imap, model, cw)


def _decode_round(cfg, code, packets, trace=False):
    """JointResult of one round of packets from _coded_packet; a trace
    round runs every outer iteration and scores it against the codewords."""
    samples, imaps, models, cws = zip(*packets)
    return jointmod.run_joint(samples, code, imaps, models,
                              outer_iters=cfg.outer_iters,
                              inner_iters=cfg.inner_iters,
                              true_coded_bits=cws if trace else None)


def _coded_points(cfg, params, code, scheme, m, keys) -> list:
    """BerPoints of one (scheme, M) at `keys`, each round decoded together."""
    return _ber_points(cfg, keys, code.k, _round_cap(code.n, m),
                       partial(_coded_packet, cfg, params, code),
                       lambda packets: _decode_round(cfg, code,
                                                     packets).info_bits)


def _trace_point(cfg, params, code, t_idx, scheme, m, eg_mode, snr):
    acc_det = np.zeros(cfg.outer_iters)
    acc_dec = np.zeros(cfg.outer_iters)
    acc_chk = np.zeros(cfg.outer_iters)
    n_checks = code.H.shape[0]
    point = (_TRACE_POINT_BASE + t_idx, scheme, m, eg_mode, snr)
    cap = _round_cap(code.n, m)
    for first in range(0, cfg.trace_packets, cap):
        packets = [_coded_packet(cfg, params, code, point, pkt)[1]
                   for pkt in range(first, min(first + cap, cfg.trace_packets))]
        res = _decode_round(cfg, code, packets, trace=True)
        # packet by packet, so the sums add in packet order
        for trace in res.trace:
            for rec in trace:
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
    _validate(cfg, 4)
    params = SystemParams()
    code = ldpc.default_code(cfg.k_info, cfg.n_coded)
    combos = [(scheme, int(m), eg) for scheme in cfg.schemes
              for m in cfg.m_list for eg in cfg.eg_modes]
    points = _grouped_points(cfg, combos,
                             partial(_coded_points, cfg, params, code))
    traces = []
    t_idx = 0
    for snr in cfg.trace_snr_db:
        for scheme in cfg.trace_schemes:
            for m in cfg.m_list:
                traces.extend(_trace_point(cfg, params, code, t_idx, scheme,
                                           int(m), cfg.eg_modes[0], snr))
                t_idx += 1
    if out_dir is not None:
        _write_records(out_dir, "tc4_ber.csv", cfg.test_case, BerPoint,
                       points)
        _write_records(out_dir, "tc4_trace.csv", cfg.test_case, TracePoint,
                       traces)
    return points, traces
