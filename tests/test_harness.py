"""Experiment harness: configs, helpers, runners, and CSV reproducibility."""

import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import uwbsim
from uwbsim import beliefs, cli, harness, msdd
from uwbsim.harness import (BerPoint, ConfigError, apply_overrides,
                            default_config, interpolate_required_snr,
                            load_config_file, n0_for_snr, resolve_out_dir)
from uwbsim.params import SystemParams

P = SystemParams()


# ---------------------------------------------------------------------------
# configuration


def test_default_configs_validate():
    for tc in (1, 2, 3, 4):
        cfg = default_config(tc)
        cfg.validate()
        assert cfg.test_case == tc
    assert default_config(1).path == "waveform"
    assert default_config(3).path == "discrete"
    with pytest.raises(ConfigError):
        default_config(5)


@pytest.mark.parametrize("patch", [
    dict(test_case=7),
    dict(snr_db=()),
    dict(target_errors=0),
    dict(max_bits=-1),
    dict(path="fft"),
    dict(channel_mode="cm9"),
    dict(eg_modes=("oracle",)),
    dict(schemes=("ml",)),
    dict(variance_factor=3),
    dict(m_list=(11,)),
    dict(n_symbols=0),
    dict(outer_iters=0),        # the turbo loop raised a raw ValueError
    dict(trace_packets=0),      # trace rows were NaN
    # a window longer than the packet raised a raw ValueError
    dict(schemes=("mmsdd",), m_list=(5,), n_symbols=3),
    # raised KeyError, IndexError or ValueError instead of a ConfigError
    dict(test_case=4, m_list=(2,), schemes=("joint-mmsdd",),
         trace_schemes=("foo",)),
    dict(test_case=4, m_list=(2,), schemes=("joint-mmsdd",), eg_modes=(),
         trace_snr_db=(13.0,)),
    dict(test_case=2, schemes=("estimate",), m_list=()),
    dict(test_case=1, path="waveform", schemes=("noise",), m_list=(),
         n_symbols=2),
    # ran, but wrote mislabelled or empty results
    dict(test_case=4, m_list=(2,), schemes=("dd",)),
    dict(schemes=("joint-mmsdd",)),
    dict(schemes=("mmsdd",), eg_modes=()),
    dict(schemes=()),
    dict(test_case=4, m_list=(2,), schemes=()),
])
def test_validate_rejects_bad_fields(patch):
    cfg = replace(default_config(3), **patch)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_enforces_path_per_test_case():
    with pytest.raises(ConfigError):
        replace(default_config(1), path="discrete").validate()
    with pytest.raises(ConfigError):
        replace(default_config(2), path="waveform").validate()
    with pytest.raises(ConfigError):
        replace(default_config(4), path="waveform").validate()
    # waveform packets are capped to keep runtimes sane
    with pytest.raises(ConfigError):
        replace(default_config(1), n_symbols=300).validate()


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body runs past `seconds`."""
    def _expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_block_window_longer_than_packet_is_a_config_error(tmp_path, capsys):
    # M > n_symbols leaves B-MSDD packets with no symbols, so the bit
    # budget was never reached and the run looped forever
    cfg = replace(default_config(3), schemes=("bmsdd",), m_list=(5,),
                  n_symbols=3)
    with _deadline(60):
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            harness.run_testcase3(cfg)
        path = tmp_path / "run.cfg"
        path.write_text("schemes = bmsdd\nm_list = 5\nn_symbols = 3\n")
        assert cli.main(["tc3", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    dict(k_info=100, n_coded=150),   # not a (3,6) degree profile
    dict(k_info=6, n_coded=12),      # profile fits, no 4-cycle-free code
    dict(m_list=(3,)),               # 1600 symbols do not tile into M=3
    dict(k_info=0, n_coded=0),
])
def test_coded_config_without_a_code_is_a_config_error(patch):
    with pytest.raises(ConfigError):
        replace(default_config(4), **patch).validate()


def test_uncoded_point_runners_refuse_empty_packets():
    # the point runner is reached only after validate(); it still refuses a
    # packet that adds no bits rather than loop on it, on either path
    for path in ("discrete", "waveform"):
        cfg = replace(default_config(3), n_symbols=3, path=path)
        with _deadline(60):
            with pytest.raises(ConfigError):
                harness._uncoded_points(cfg, P, "bmsdd", 5, ["perfect"])


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "snr_db = 8, 9.5   # trailing comment\n"
        "m_list = 2,3\n"
        "schemes = dd, mmsdd\n"
        "seed = 5\n"
        "channel_mode = ideal\n"
    )
    raw = load_config_file(path)
    assert raw["snr_db"] == "8, 9.5"
    cfg = apply_overrides(default_config(3), raw)
    assert cfg.snr_db == (8.0, 9.5)
    assert cfg.m_list == (2, 3)
    assert cfg.schemes == ("dd", "mmsdd")
    assert cfg.seed == 5
    assert cfg.channel_mode == "ideal"


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a bare token\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)


def test_override_errors():
    cfg = default_config(3)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"wavelength": "3"})
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"seed": "xyz"})
    # overrides re-validate the merged config
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"m_list": "11"})
    assert apply_overrides(cfg, {"seed": None}).seed == cfg.seed


def test_out_dir_precedence(monkeypatch):
    cfg = replace(default_config(3), out_dir="from_cfg")
    monkeypatch.delenv("UWBSIM_OUT", raising=False)
    assert resolve_out_dir("cli_dir", cfg) == "cli_dir"
    assert resolve_out_dir(None, cfg) == "from_cfg"
    assert resolve_out_dir(None, default_config(3)) == "out"
    monkeypatch.setenv("UWBSIM_OUT", "env_dir")
    assert resolve_out_dir(None, cfg) == "env_dir"
    assert resolve_out_dir("cli_dir", cfg) == "cli_dir"


# ---------------------------------------------------------------------------
# numeric helpers


def test_n0_inverts_snr_definition():
    for snr, E_g, rate in [(10.0, 1.0, 1.0), (13.0, 0.7, 0.5), (0.0, 2.0, 1.0)]:
        N0 = n0_for_snr(snr, E_g, rate, P)
        assert P.N_f * E_g / (rate * N0) == pytest.approx(10 ** (snr / 10),
                                                          rel=1e-12)


def test_ber_ci_formula():
    p = 37 / 5000
    want = 1.96 * np.sqrt(p * (1 - p) / 5000)
    assert harness._ber_ci(37, 5000) == pytest.approx(want, rel=1e-12)
    assert harness._ber_ci(0, 0) == 0.0


def test_packet_rng_streams_are_keyed():
    a = harness._packet_rng(1, 3, 0, "mmsdd", 3, "perfect", 7)
    b = harness._packet_rng(1, 3, 0, "mmsdd", 3, "perfect", 7)
    assert a.integers(0, 1 << 30, 8).tolist() == b.integers(0, 1 << 30, 8).tolist()
    variants = [harness._packet_rng(1, 3, 0, "mmsdd", 3, "perfect", 8),
                harness._packet_rng(1, 3, 0, "bmsdd", 3, "perfect", 7),
                harness._packet_rng(1, 3, 0, "mmsdd", 2, "perfect", 7),
                harness._packet_rng(2, 3, 0, "mmsdd", 3, "perfect", 7)]
    ref = harness._packet_rng(1, 3, 0, "mmsdd", 3, "perfect", 7)
    base = ref.integers(0, 1 << 30, 8).tolist()
    for v in variants:
        assert v.integers(0, 1 << 30, 8).tolist() != base


def _pt(snr, ber, bits=1_000_000, ci=0.0):
    errors = int(round(ber * bits))
    return BerPoint("mmsdd", 2, "perfect", snr, bits, errors, ber, ci)


def test_required_snr_log_linear_crossing():
    pts = [_pt(8.0, 1e-2), _pt(10.0, 1e-4)]
    out = interpolate_required_snr(pts, 1e-3)
    assert out.mid == pytest.approx(9.0, abs=1e-9)
    assert out.optimistic == pytest.approx(9.0, abs=1e-9)
    assert out.pessimistic == pytest.approx(9.0, abs=1e-9)


def test_required_snr_zero_error_floor():
    # a clean point is floored at 0.5/bits so the crossing stays finite
    pts = [_pt(8.0, 1e-2), _pt(12.0, 0.0)]
    out = interpolate_required_snr(pts, 1e-3)
    f = (np.log10(1e-3) - np.log10(1e-2)) / (np.log10(0.5e-6) - np.log10(1e-2))
    assert out.mid == pytest.approx(8.0 + 4.0 * f, abs=1e-9)


def test_required_snr_ci_bounds_bracket_mid():
    pts = [_pt(8.0, 1e-2, ci=2e-3), _pt(10.0, 1e-4, ci=2e-5)]
    out = interpolate_required_snr(pts, 1e-3)
    assert out.optimistic < out.mid < out.pessimistic


def test_required_snr_no_crossing_is_nan():
    out = interpolate_required_snr([_pt(8.0, 1e-2), _pt(10.0, 5e-3)], 1e-3)
    assert np.isnan(out.mid)


def test_required_snr_sorts_inputs():
    pts = [_pt(10.0, 1e-4), _pt(8.0, 1e-2)]
    assert interpolate_required_snr(pts, 1e-3).mid == pytest.approx(9.0, abs=1e-9)


# ---------------------------------------------------------------------------
# combo expansion


def test_tc3_combo_grid():
    cfg = replace(default_config(3), schemes=("dd", "bmsdd", "mmsdd"),
                  m_list=(2, 3), eg_modes=("perfect", "estimated"))
    combos = harness._tc3_combos(cfg)
    assert combos.count(("dd", 1, "perfect")) == 1
    assert ("bmsdd", 2, "perfect") in combos and ("bmsdd", 3, "perfect") in combos
    assert ("bmsdd", 2, "estimated") not in combos
    for m in (2, 3):
        for eg in ("perfect", "estimated"):
            assert ("mmsdd", m, eg) in combos
    assert len(combos) == 1 + 2 + 4


# ---------------------------------------------------------------------------
# runners at reduced scale


def test_noise_runner_small(tmp_path):
    cfg = replace(default_config(1), n_packets=40, n_symbols=40)
    stats = harness.run_testcase1(cfg, out_dir=str(tmp_path))
    assert len(stats) == 1
    s = stats[0]
    assert s.n_samples >= 1000
    assert abs(s.mean) < 5 * np.sqrt(s.sigma_n_sq_theory / s.n_samples)
    assert s.variance == pytest.approx(s.sigma_n_sq_theory, rel=0.3)
    assert (tmp_path / "tc1_moments.csv").exists()
    assert (tmp_path / "tc1_hist.csv").exists()


def test_noise_runner_rejects_thin_sampling():
    cfg = replace(default_config(1), n_packets=2, n_symbols=5)
    with pytest.raises(ConfigError):
        harness.run_testcase1(cfg)


def test_mse_runner_small(tmp_path):
    cfg = replace(default_config(2), n_packets=40, snr_db=(10.0, 16.0),
                  m_list=(2, 7))
    pts = harness.run_testcase2(cfg, out_dir=str(tmp_path))
    assert len(pts) == 4
    assert all(p.mse > 0 and p.ci95_halfwidth > 0 for p in pts)
    by = {(p.snr_db, p.m): p.mse for p in pts}
    # shared channel and noise draws: larger window cannot do worse
    assert by[(10.0, 7)] <= by[(10.0, 2)]
    assert by[(16.0, 7)] <= by[(16.0, 2)]
    assert (tmp_path / "tc2_mse.csv").exists()


def _tiny_tc3(**kw):
    base = dict(snr_db=(10.0,), m_list=(2,), n_symbols=200, target_errors=10,
                max_bits=3000, schemes=("dd", "mmsdd"), eg_modes=("perfect",))
    base.update(kw)
    return replace(default_config(3), **base)


def test_ber_runner_counts_and_stopping(tmp_path):
    pts = harness.run_testcase3(_tiny_tc3(), out_dir=str(tmp_path))
    assert {(p.scheme, p.m) for p in pts} == {("dd", 1), ("mmsdd", 2)}
    for p in pts:
        assert p.bits_simulated % 200 == 0
        assert p.bit_errors >= 10 or p.bits_simulated >= 3000
        assert p.ber == pytest.approx(p.bit_errors / p.bits_simulated)
    assert (tmp_path / "tc3_ber.csv").exists()


def test_ber_csv_reruns_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    harness.run_testcase3(_tiny_tc3(), out_dir=str(d1))
    harness.run_testcase3(_tiny_tc3(), out_dir=str(d2))
    b1 = (d1 / "tc3_ber.csv").read_bytes()
    assert b1 == (d2 / "tc3_ber.csv").read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == ",".join(harness._BER_HEADER)


def _sequential_tc3(cfg):
    """Reference: each point in turn, one packet and one detector call at a
    time, under the plain while-loop stopping rule.  Returns the points and
    the number of packets made."""
    params = SystemParams()
    points, made = [], 0
    for p_idx, snr in enumerate(cfg.snr_db):
        for scheme, m, eg in harness._tc3_combos(cfg):
            n_use = (m * (cfg.n_symbols // m) if scheme == "bmsdd"
                     else cfg.n_symbols)
            errors = bits = 0
            while errors < cfg.target_errors and bits < cfg.max_bits:
                a, (samples, model) = harness._uncoded_packet(
                    cfg, params, n_use, (p_idx, scheme, m, eg, snr),
                    bits // n_use)
                if scheme == "dd":
                    a_hat = msdd.detect_dd(samples)
                elif scheme == "bmsdd":
                    a_hat = msdd.bmsdd_detect(samples)
                else:
                    app, _ = msdd.msdd_app(samples, m, model.amplitude,
                                           model.sigma_n_sq)
                    a_hat = beliefs.hard(app)
                errors += int(np.sum(a_hat != a))
                bits += n_use
                made += 1
            points.append(BerPoint(scheme, m, eg, snr, bits, errors,
                                   errors / bits, harness._ber_ci(errors, bits)))
    return points, made


@pytest.mark.parametrize("path, budget", [
    ("discrete", None), ("discrete", 1), ("discrete", 600),
    ("waveform", None), ("waveform", 100)])
def test_lockstep_driver_matches_sequential_loop(monkeypatch, path, budget):
    # points stop on the error target after different numbers of packets,
    # or on the bit budget; a small element budget splits the rounds
    if path == "discrete":
        cfg = replace(default_config(3), snr_db=(2.0, 6.0, 9.0),
                      m_list=(2, 3), n_symbols=30, target_errors=12,
                      max_bits=600, schemes=("dd", "bmsdd", "mmsdd"),
                      eg_modes=("perfect", "estimated"))
    else:
        cfg = replace(default_config(3), path="waveform", channel_mode="cm2",
                      snr_db=(4.0, 8.0, 12.0), m_list=(2,), n_symbols=10,
                      target_errors=4, max_bits=60, schemes=("dd", "mmsdd"),
                      eg_modes=("perfect", "estimated"))
    want, want_made = _sequential_tc3(cfg)
    if budget is not None:
        monkeypatch.setattr(harness, "BATCH_ELEMENTS", budget)
    made = []
    packet = harness._uncoded_packet

    def counted(*args):
        made.append(args[-2:])
        return packet(*args)
    monkeypatch.setattr(harness, "_uncoded_packet", counted)
    got = harness.run_testcase3(cfg)
    assert got == want
    assert len(made) == want_made == len(set(made))
    stops = {p.bits_simulated for p in got if p.bits_simulated < cfg.max_bits}
    assert len(stops) >= 2


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the waveform path and test case 1 when they run
    src = os.path.dirname(os.path.dirname(uwbsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, uwbsim; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_waveform_and_discrete_paths_agree():
    # the sampled-waveform front end must reproduce the discrete statistics;
    # identical operating point, BER within joint 95% confidence
    common = dict(snr_db=(10.0,), m_list=(2,), schemes=("mmsdd",),
                  eg_modes=("perfect",), n_symbols=100, target_errors=40,
                  max_bits=6000, channel_mode="ideal")
    disc = replace(default_config(3), **common)
    wave = replace(default_config(3), path="waveform", **common)
    p_d = harness.run_testcase3(disc)[0]
    p_w = harness.run_testcase3(wave)[0]
    assert abs(p_w.ber - p_d.ber) <= p_w.ci95_halfwidth + p_d.ci95_halfwidth


def test_coded_runner_small(tmp_path):
    cfg = replace(default_config(4), snr_db=(13.0,), target_errors=5,
                  max_bits=20_000, schemes=("joint-mmsdd",),
                  trace_snr_db=(13.0,), trace_packets=3)
    pts, traces = harness.run_testcase4(cfg, out_dir=str(tmp_path))
    assert len(pts) == 1
    assert pts[0].bits_simulated % cfg.k_info == 0
    rows = {t.outer_iter for t in traces}
    assert rows == set(range(1, cfg.outer_iters + 1))
    for t in traces:
        assert 0.0 <= t.p_c_dec <= 1.0 and 0.0 <= t.p_c_msdd <= 1.0
        assert 0.0 <= t.checks_satisfied_frac <= 1.0
    assert (tmp_path / "tc4_ber.csv").exists()
    assert (tmp_path / "tc4_trace.csv").exists()
