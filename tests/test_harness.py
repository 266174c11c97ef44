"""Experiment harness: configs, helpers, runners, and CSV reproducibility."""

import csv
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uwbsim
from uwbsim import acr, beliefs, cli, harness, joint, ldpc, msdd
from uwbsim.harness import (BerPoint, ConfigError, ExperimentConfig,
                            apply_overrides, default_config, load_config_file,
                            n0_for_snr, resolve_out_dir)
from uwbsim.params import SystemParams

from required_snr import interpolate_required_snr

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
    # ran with no decoder iteration, or died with a raw ValueError
    dict(inner_iters=0),
    dict(seed=-1),
    # simulated every packet before refusing the thin histogram
    dict(test_case=1, path="waveform", schemes=("noise",), m_list=(3,),
         eg_modes=("perfect",), n_symbols=5, n_packets=1),
])
def test_validate_rejects_bad_fields(patch):
    cfg = replace(default_config(3), **patch)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("tc, patch", [
    (2, dict(schemes=("mmsdd",), eg_modes=("estimated",))),
    (2, dict(schemes=("mmsdd",))),
    (2, dict(schemes=("estimate", "noise"))),
    (2, dict(schemes=())),
    (2, dict(eg_modes=("estimated",))),
    (2, dict(eg_modes=("perfect", "estimated"))),
    (1, dict(schemes=("estimate",))),
    (1, dict(eg_modes=("estimated",))),
    (1, dict(m_list=(3, 7))),
])
def test_validate_rejects_settings_tc1_and_tc2_ignore(tc, patch):
    # these ran and returned results for a scheme, E_g mode or M that the
    # runner never used
    cfg = replace(default_config(tc), **patch)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_refuses_trace_settings_on_tc3():
    # tc3 ran and ignored a trace of an unknown scheme
    cfg = replace(default_config(3), trace_schemes=("foo",), trace_packets=7,
                  outer_iters=3)
    with pytest.raises(ConfigError, match="only test case 4"):
        cfg.validate()


def test_validate_refuses_code_size_on_tc2():
    with pytest.raises(ConfigError, match="k_info"):
        replace(default_config(2), k_info=7).validate()


@pytest.mark.parametrize("tc", [1, 2, 3])
@pytest.mark.parametrize("patch", [
    dict(k_info=400), dict(n_coded=800), dict(outer_iters=3),
    dict(inner_iters=20), dict(trace_snr_db=(13.0,)),
    dict(trace_schemes=("joint-bmsdd",)), dict(trace_packets=5)])
def test_validate_refuses_tc4_settings_elsewhere(tc, patch):
    with pytest.raises(ConfigError, match="only test case 4"):
        replace(default_config(tc), **patch).validate()


@pytest.mark.parametrize("tc", [1, 2, 3])
def test_cli_defaults_pass_the_tc4_settings_rule(tc):
    for argv in ([f"tc{tc}"], [f"tc{tc}", "--packets", "9"]):
        cli._build_config(tc, cli.build_parser().parse_args(argv)).validate()


@pytest.mark.parametrize("argv", [["tc2", "--eg", "estimated"],
                                  ["tc1", "--eg", "estimated"],
                                  ["tc1", "--m", "3,7"],
                                  # one packet wrote a NaN confidence interval
                                  ["tc2", "--packets", "1", "--snr-db", "10",
                                   "--m", "2"]])
def test_cli_refuses_ignored_tc1_tc2_settings(argv, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("inner_iters", [0, -3])
def test_inner_iters_must_be_positive(inner_iters, tmp_path, capsys):
    # decode ran no iteration and the BER was reported as if decoded
    with pytest.raises(ConfigError, match="iteration counts"):
        replace(default_config(4), inner_iters=inner_iters).validate()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"inner_iters = {inner_iters}\n")
    out = tmp_path / "out"
    assert cli.main(["tc4", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # SeedSequence refused it only once the first packet was drawn (exit 1)
    with pytest.raises(ConfigError, match="seed"):
        replace(default_config(3), seed=-1).validate()
    out = tmp_path / "out"
    assert cli.main(["tc3", "--seed", "-1", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("snr_db", "nan"), ("snr_db", "inf"), ("snr_db", "-inf"),
    ("trace_snr_db", "nan"), ("trace_snr_db", "inf")])
def test_non_finite_snr_is_a_config_error(field, value, tmp_path, capsys):
    # nan ran and wrote snr_db nan rows; inf died with a raw ValueError
    with pytest.raises(ConfigError, match="finite"):
        replace(default_config(4), **{field: (12.0, float(value))}).validate()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{field} = 12.0,{value}\n")
    out = tmp_path / "out"
    assert cli.main(["tc4", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_refuses_non_finite_snr_flag(value, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["tc3", "--snr-db", value, "--m", "2", "--packets", "2",
                     "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tc", [3, 4])
@pytest.mark.parametrize("snr", ["3000", "-3000", "4000", "-4000"])
def test_snr_past_the_noise_model_is_a_config_error(tc, snr, tmp_path, capsys):
    # 4000 dB overflowed 10**(snr/10), -4000 dB divided by its 0.0, and
    # -3000 dB overflowed N0**2: each exited 1 with a raw traceback
    out = tmp_path / "out"
    assert cli.main([f"tc{tc}", "--snr-db", snr, "--packets", "1", "--m", "2",
                     "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="noise model"):
        replace(default_config(4), trace_snr_db=(12.4, float(snr))).validate()


def _assert_finite_rows(out_dir):
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))
    assert names
    for name in names:
        with open(os.path.join(out_dir, name)) as f:
            rows = list(csv.DictReader(f))
        assert rows, name
        assert all(np.isfinite(float(v)) for row in rows
                   for k, v in row.items() if k not in ("scheme", "eg_mode")), name


@pytest.mark.parametrize("tc", [3, 4])
@pytest.mark.parametrize("snr", ["300", "-300"])
def test_extreme_representable_snr_runs(tc, snr, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    # only tc4 traces; tc3 refuses trace settings it would ignore
    cfg_file.write_text(f"trace_snr_db = {snr}\ntrace_packets = 1\n"
                        if tc == 4 else "")
    out = tmp_path / "out"
    assert cli.main([f"tc{tc}", "--config", str(cfg_file), "--snr-db", snr,
                     "--packets", "1", "--m", "2", "--out", str(out)]) == 0
    _assert_finite_rows(out)


# the outermost SNRs validate() accepts (to 0.01 dB), at rate 1 and rate 1/2
_SNR_EDGES = {1.0: (-750.63, 1638.03), 0.5: (-747.62, 1641.04)}


@pytest.mark.parametrize("tc", [1, 2, 3, 4])
@pytest.mark.parametrize("side", [0, 1])
def test_snr_at_the_accepted_edge_writes_finite_rows(tc, side, tmp_path):
    # at -1519.76 dB, which an earlier rule accepted, tc1's noise variance
    # and tc2's confidence interval came out inf; CM2 channels and the
    # estimated E_g run at each edge
    snr = _SNR_EDGES[0.5 if tc == 4 else 1.0][side]
    cfg = replace(default_config(tc), snr_db=(snr,), **{
        1: dict(n_symbols=20, n_packets=18),
        2: dict(m_list=(2, 7), n_packets=3),
        3: dict(path="waveform", channel_mode="cm2", m_list=(2,),
                n_symbols=20, max_bits=40, eg_modes=("perfect", "estimated")),
        4: dict(m_list=(2,), max_bits=800, trace_snr_db=(snr,),
                trace_packets=1, eg_modes=("perfect", "estimated")),
    }[tc])
    beyond = snr + (0.01 if side else -0.01)
    with pytest.raises(ConfigError, match="noise model"):
        replace(cfg, snr_db=(beyond,)).validate()
    getattr(harness, f"run_testcase{tc}")(cfg, tmp_path)
    _assert_finite_rows(tmp_path)


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


@pytest.mark.parametrize("command,config", [
    # tc4 decoded these mmsdd points with the block detector, labelled 3
    ("tc4", "test_case = 3\nschemes = mmsdd\n"),
    # tc3 ran no point of the joint scheme and wrote a header-only CSV
    ("tc3", "test_case = 4\nschemes = joint-mmsdd\n"),
], ids=["tc4-given-tc3", "tc3-given-tc4"])
def test_cli_refuses_a_config_for_the_other_campaign(command, config,
                                                     tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config + "snr_db = 12\nm_list = 2\nmax_bits = 1600\n")
    out = tmp_path / "out"
    with _deadline(60):
        assert cli.main([command, "--config", str(path),
                         "--out", str(out)]) == 2
    assert "cannot run a test case" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case,other", [(1, 2), (2, 1), (3, 4), (4, 3)])
def test_runner_refuses_a_config_for_another_test_case(case, other, tmp_path):
    run = getattr(harness, f"run_testcase{case}")
    with _deadline(60):
        with pytest.raises(ConfigError, match=f"tc{case} cannot run"):
            run(default_config(other), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("key", ["variance_factor", "code_seed"])
def test_removed_config_keys_are_refused(key, tmp_path, capsys):
    # the likelihood scale and the code seed are fixed; a file that still
    # names them is refused rather than silently ignored
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(default_config(4), {key: "1"})
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = 1\n")
    out = tmp_path / "out"
    assert cli.main(["tc4", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_config_fields_parse_by_type_and_flags_name_fields():
    # ExperimentConfig is the only schema: each key parses by its field's
    # type, and each CLI flag sets the field its dest names
    # a tc4 config, as only test case 4 reads every field
    raw = {"test_case": "4", "snr_db": "8.5, 9", "m_list": "2,4",
           "n_symbols": "300", "k_info": "400", "n_coded": "800",
           "target_errors": "7", "max_bits": "9000", "n_packets": "4",
           "seed": "5", "path": "discrete", "channel_mode": "cm2",
           "eg_modes": "perfect, estimated",
           "schemes": "joint-mmsdd,joint-bmsdd",
           "outer_iters": "3", "inner_iters": "4", "trace_snr_db": "13",
           "trace_schemes": "joint-bmsdd", "trace_packets": "6",
           "out_dir": "results"}
    want = dict(test_case=4, snr_db=(8.5, 9.0), m_list=(2, 4), n_symbols=300,
                k_info=400, n_coded=800, target_errors=7, max_bits=9000,
                n_packets=4, seed=5, path="discrete", channel_mode="cm2",
                eg_modes=("perfect", "estimated"),
                schemes=("joint-mmsdd", "joint-bmsdd"),
                outer_iters=3, inner_iters=4, trace_snr_db=(13.0,),
                trace_schemes=("joint-bmsdd",), trace_packets=6,
                out_dir="results")
    names = {f.name for f in fields(ExperimentConfig)}
    assert set(raw) == set(want) == names
    cfg = apply_overrides(default_config(1), raw)
    for name, value in want.items():
        got = getattr(cfg, name)
        assert got == value and type(got) is type(value), name
        if isinstance(value, tuple):
            assert [type(v) for v in got] == [type(v) for v in value], name
    # one rule for every list field: blank entries are dropped
    blanks = {"snr_db": "8.5, ,9,", "m_list": ",2,,4", "trace_snr_db": " 13 ,",
              "eg_modes": "perfect, ,estimated",
              "schemes": "joint-mmsdd,,joint-bmsdd,",
              "trace_schemes": ", joint-bmsdd"}
    assert apply_overrides(cfg, blanks) == cfg
    assert apply_overrides(cfg, {"trace_snr_db": ""}).trace_snr_db == ()
    # every default value round-trips through its string form
    for tc in (1, 2, 3, 4):
        base = default_config(tc)
        text = {f.name: (",".join(map(str, v)) if isinstance(v, tuple)
                         else str(v))
                for f in fields(base)
                if (v := getattr(base, f.name)) is not None}
        assert apply_overrides(ExperimentConfig(test_case=tc), text) == base
    # every flag but --config and --out names a field, and sets it
    args = cli.build_parser().parse_args(
        ["tc3", "--snr-db", "8,9", "--m", "2", "--packets", "3", "--seed",
         "4", "--path", "discrete", "--eg", "estimated"])
    assert set(vars(args)) - {"command", "config", "out"} <= names
    cfg = cli._build_config(3, args)
    assert (cfg.snr_db, cfg.m_list, cfg.n_packets, cfg.seed, cfg.path,
            cfg.eg_modes) == ((8.0, 9.0), (2,), 3, 4, "discrete",
                              ("estimated",))
    assert cfg.max_bits == 3 * cfg.n_symbols


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


def test_noise_runner_rejects_thin_sampling(tmp_path, capsys, monkeypatch):
    # refused by validate(), before any packet is simulated
    def no_packets(*args, **kwargs):
        raise AssertionError("a packet was simulated")
    monkeypatch.setattr(harness, "_waveform_packet", no_packets)
    cfg = replace(default_config(1), n_packets=2, n_symbols=5)
    with pytest.raises(ConfigError):
        harness.run_testcase1(cfg)
    with pytest.raises(ConfigError, match="too few noise samples"):
        replace(cfg, n_packets=1).validate()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_symbols = 5\n")
    out = tmp_path / "out"
    assert cli.main(["tc1", "--config", str(cfg_file), "--packets", "1",
                     "--out", str(out)]) == 2
    assert "too few noise samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_symbols, m", [(40, 3), (5, 5), (100, 1), (12, 10)])
def test_thin_sampling_rule_counts_unpadded_samples(n_symbols, m):
    # the fewest packets that give 1000 samples outside the padding pass
    per_packet = int(np.sum(~acr.pad_mask_for(n_symbols, m)))
    need = -(-1000 // per_packet)
    cfg = replace(default_config(1), n_symbols=n_symbols, m_list=(m,),
                  n_packets=need)
    cfg.validate()
    with pytest.raises(ConfigError):
        replace(cfg, n_packets=need - 1).validate()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
       decimals=st.sampled_from([None, 0, 1, 2]),
       log_scale=st.floats(-6.0, 6.0), log_sd=st.floats(-6.0, 6.0))
def test_ks_statistic_matches_scipy_kstest(n, seed, decimals, log_scale,
                                           log_sd):
    # rounding before scaling makes ties (and -0.0); sd spans 12 decades
    from scipy import stats
    x = np.random.default_rng(seed).standard_normal(n)
    if decimals is not None:
        x = np.round(x, decimals)
    x *= 10.0 ** log_scale
    sd = 10.0 ** log_sd
    want = stats.kstest(x, "norm", args=(0.0, sd)).statistic
    got = harness._ks_statistic(x, sd)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_testcase1_leaves_scipy_stats_unloaded():
    # importing scipy.stats alone adds ~45 MB of RSS to a tc1 run
    src = os.path.dirname(os.path.dirname(uwbsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from dataclasses import replace; "
            "from uwbsim import harness; "
            "cfg = replace(harness.default_config(1), n_packets=9); "
            "print(len(harness.run_testcase1(cfg)), "
            "sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "1 []"


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
    assert header.split(",") == ["test_case",
                                 *(f.name for f in fields(BerPoint))]


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
                    (app,), _ = msdd.msdd_app([samples], m, model.amplitude,
                                              model.sigma_n_sq)
                    a_hat = beliefs.hard(app)
                errors += int(np.sum(a_hat != a))
                bits += n_use
                made += 1
            points.append(BerPoint(scheme, m, eg, snr, bits, errors,
                                   errors / bits, harness._ber_ci(errors, bits)))
    return points, made


def _sequential_tc4(cfg):
    """Reference: each point in turn, one packet per joint-receiver call,
    then each trace packet alone.  Returns (points, traces) and the number
    of packets made."""
    params = SystemParams()
    code = ldpc.default_code(cfg.k_info, cfg.n_coded)
    run = partial(joint.run_joint, code=code, outer_iters=cfg.outer_iters,
                  inner_iters=cfg.inner_iters)
    points, made = [], 0
    for p_idx, snr in enumerate(cfg.snr_db):
        for scheme in cfg.schemes:
            for eg in cfg.eg_modes:
                point = (p_idx, scheme, cfg.m_list[0], eg, snr)
                errors = bits = 0
                while errors < cfg.target_errors and bits < cfg.max_bits:
                    info, (samples, imap, model, _) = harness._coded_packet(
                        cfg, params, code, point, bits // code.k)
                    out = run([samples], imaps=[imap], models=[model])
                    errors += int(np.sum(out.info_bits[0] != info))
                    bits += code.k
                    made += 1
                points.append(BerPoint(scheme, point[2], eg, snr, bits, errors,
                                       errors / bits,
                                       harness._ber_ci(errors, bits)))
    traces = []
    n_checks = code.H.shape[0]
    for t_idx, (snr, scheme) in enumerate(
            (snr, scheme) for snr in cfg.trace_snr_db
            for scheme in cfg.trace_schemes):
        point = (harness._TRACE_POINT_BASE + t_idx, scheme, cfg.m_list[0],
                 cfg.eg_modes[0], snr)
        acc = np.zeros((cfg.outer_iters, 3))
        for pkt in range(cfg.trace_packets):
            _, (samples, imap, model, cw) = harness._coded_packet(
                cfg, params, code, point, pkt)
            out = run([samples], imaps=[imap], models=[model],
                      true_coded_bits=[cw])
            made += 1
            for rec in out.trace[0]:
                acc[rec.iteration - 1, 0] += rec.p_c_msdd
                acc[rec.iteration - 1, 1] += rec.p_c_dec
                acc[rec.iteration - 1, 2] += rec.checks_satisfied / n_checks
        traces += [harness.TracePoint(scheme, point[2], point[3], snr, t + 1,
                                      cfg.trace_packets,
                                      *(acc[t] / cfg.trace_packets))
                   for t in range(cfg.outer_iters)]
    return (points, traces), made


_LOCKSTEP_CONFIGS = {
    "discrete": replace(default_config(3), snr_db=(2.0, 6.0, 9.0),
                        m_list=(2, 3), n_symbols=30, target_errors=12,
                        max_bits=600, schemes=("dd", "bmsdd", "mmsdd"),
                        eg_modes=("perfect", "estimated")),
    "waveform": replace(default_config(3), path="waveform",
                        channel_mode="cm2", snr_db=(4.0, 8.0, 12.0),
                        m_list=(2,), n_symbols=10, target_errors=4,
                        max_bits=60, schemes=("dd", "mmsdd"),
                        eg_modes=("perfect", "estimated")),
    # 100-bit packets; 11 dB stops on the error target after 5 or 6
    # packets, the rest on the budget of 8; five trace packets per scheme
    "coded": replace(default_config(4), snr_db=(11.0, 12.5, 14.0),
                     m_list=(2,), k_info=100, n_coded=200,
                     target_errors=120, max_bits=800,
                     schemes=("joint-mmsdd", "joint-bmsdd"),
                     eg_modes=("perfect", "estimated"), trace_snr_db=(12.5,),
                     trace_schemes=("joint-mmsdd", "joint-bmsdd"),
                     trace_packets=5),
}


@pytest.mark.parametrize("path, budget", [
    ("discrete", None), ("discrete", 1), ("discrete", 600),
    ("waveform", None), ("waveform", 100),
    # 1600 elements per 200-symbol M=2 round: 2 packets, so rounds split
    ("coded", None), ("coded", 1), ("coded", 1600)])
def test_lockstep_driver_matches_sequential_loop(monkeypatch, path, budget):
    # points stop on the error target after different numbers of packets,
    # or on the bit budget; a small element budget splits the rounds
    cfg = _LOCKSTEP_CONFIGS[path]
    coded = cfg.test_case == 4
    want, want_made = (_sequential_tc4 if coded else _sequential_tc3)(cfg)
    if budget is not None:
        monkeypatch.setattr(harness, "BATCH_ELEMENTS", budget)
    made = []
    name = "_coded_packet" if coded else "_uncoded_packet"
    packet = getattr(harness, name)

    def counted(*args):
        made.append(args[-2:])
        return packet(*args)
    monkeypatch.setattr(harness, name, counted)
    got = (harness.run_testcase4 if coded else harness.run_testcase3)(cfg)
    assert got == want
    assert len(made) == want_made == len(set(made))
    points = got[0] if coded else got
    stops = {p.bits_simulated for p in points if p.bits_simulated < cfg.max_bits}
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
