"""Smoke runs of the demo scripts: each must finish with exit status 0."""

import os
import subprocess
import sys

import pytest

import uwbsim

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


@pytest.mark.parametrize("argv", [
    ["joint_decoding.py", "--packets", "1"],
    ["energy_estimation.py", "--packets", "5"],
    ["noise_statistics.py", "--packets", "9"],
    ["uncoded_ber.py", "--target-errors", "5", "--snr-db", "9", "--m", "2"],
], ids=lambda argv: argv[0])
def test_demo_runs(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(uwbsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, os.path.join(DEMOS, argv[0]),
                          *argv[1:]], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
