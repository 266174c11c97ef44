"""Command-line front end: exit codes, flag plumbing, CSV output."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from uwbsim import cli

ROOT = Path(__file__).resolve().parent.parent


def _tiny_cfg(tmp_path, **extra):
    lines = {
        "n_symbols": "200",
        "target_errors": "5",
        "max_bits": "2000",
        "schemes": "mmsdd",
        "m_list": "2",
        "snr_db": "10",
    }
    lines.update({k: str(v) for k, v in extra.items()})
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


def test_oracle_check_success(capsys):
    assert cli.main(["oracle-check", "--instances", "15", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "app oracle:   PASS" in out
    assert "block oracle: PASS" in out


def test_tc3_runs_and_writes_csv(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path)
    out_dir = tmp_path / "results"
    rc = cli.main(["tc3", "--config", cfg, "--out", str(out_dir)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "BER" in text and str(out_dir) in text
    with open(out_dir / "tc3_ber.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows and rows[0]["scheme"] == "mmsdd"


def test_missing_config_is_a_config_error(tmp_path, capsys):
    rc = cli.main(["tc3", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_flag_value_is_a_config_error(capsys):
    assert cli.main(["tc3", "--snr-db", "ten"]) == 2
    assert "config error" in capsys.readouterr().err


def test_eg_flag_restricts_modes(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    out_dir = tmp_path / "results"
    rc = cli.main(["tc3", "--config", cfg, "--eg", "estimated",
                   "--out", str(out_dir)])
    assert rc == 0
    with open(out_dir / "tc3_ber.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(r["eg_mode"] == "estimated" for r in rows)


def test_out_flag_beats_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UWBSIM_OUT", str(tmp_path / "env_dir"))
    cfg = _tiny_cfg(tmp_path)
    want = tmp_path / "flag_dir"
    assert cli.main(["tc3", "--config", cfg, "--out", str(want)]) == 0
    capsys.readouterr()
    assert (want / "tc3_ber.csv").exists()
    assert not (tmp_path / "env_dir").exists()


def test_packets_flag_caps_total_bits(tmp_path):
    cfg = _tiny_cfg(tmp_path, target_errors="100000", max_bits="10000000")
    out_dir = tmp_path / "results"
    rc = cli.main(["tc3", "--config", cfg, "--packets", "4",
                   "--out", str(out_dir)])
    assert rc == 0
    with open(out_dir / "tc3_ber.csv") as f:
        rows = list(csv.DictReader(f))
    assert int(rows[0]["bits_simulated"]) == 4 * 200


@pytest.mark.parametrize("config", [
    # tc4's settings on tc3's default windows 2,3,7, which tc4's block rule
    # (n_coded divisible by M) refused before the mismatch was named
    "test_case = 4\nschemes = joint-mmsdd\n",
    "test_case = 4\n",
], ids=["tc4-scheme", "tc4-only"])
def test_config_for_another_test_case_is_named(config, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out_dir = tmp_path / "results"
    assert cli.main(["tc3", "--config", str(path),
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "tc3 cannot run a test case 4 config" in err
    assert not out_dir.exists()


def test_config_may_repeat_its_test_case(tmp_path):
    cfg = _tiny_cfg(tmp_path, test_case=3)
    out_dir = tmp_path / "results"
    assert cli.main(["tc3", "--config", cfg, "--out", str(out_dir)]) == 0
    assert (out_dir / "tc3_ber.csv").exists()


def test_module_entry_runs_without_install():
    # the same run as the console script below, through `python -m uwbsim`
    # on the checkout's src/, so it runs where the package is not installed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "uwbsim", "oracle-check",
                           "--instances", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    # ...and the console script, once installed, calls the same function
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["uwbsim"] == "uwbsim.cli:main"


@pytest.mark.skipif(shutil.which("uwbsim") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["uwbsim", "oracle-check", "--instances", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
