"""Golden result CSVs of small fixed campaigns.

Each case runs one public campaign, ``harness.run_testcaseN``, on a small
config and compares every CSV it writes byte for byte with the copy under
``tests/golden/<case>/``.  A change that moves any result number, or only
its formatting, fails here.

Regenerate the files (only for a change meant to move results, logged as
such) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import sys
from dataclasses import replace

import pytest

from uwbsim import harness

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "tc1_waveform_cm2": (1, dict(path="waveform", channel_mode="cm2",
                                 snr_db=(14.0,), m_list=(3,), n_symbols=40,
                                 n_packets=9)),
    "tc2_mse": (2, dict(snr_db=(4.0, 10.0), m_list=(2, 3), n_packets=20)),
    # points stop on the error target at 6 dB and mostly on the bit budget at
    # 13 dB
    "tc3_discrete": (3, dict(snr_db=(6.0, 13.0), m_list=(2, 3), n_symbols=200,
                             target_errors=20, max_bits=1000,
                             schemes=("dd", "bmsdd", "mmsdd"),
                             eg_modes=("perfect", "estimated"))),
    "tc3_waveform_cm2": (3, dict(path="waveform", channel_mode="cm2",
                                 snr_db=(6.0, 12.0), m_list=(2,),
                                 n_symbols=20, target_errors=6, max_bits=80,
                                 schemes=("dd", "bmsdd", "mmsdd"),
                                 eg_modes=("perfect", "estimated"))),
    "tc4_joint": (4, dict(snr_db=(12.0, 13.6), m_list=(2,),
                          schemes=("joint-mmsdd", "joint-bmsdd"),
                          max_bits=800, trace_snr_db=(13.0,),
                          trace_packets=1)),
}


def _config(name: str) -> harness.ExperimentConfig:
    tc, overrides = CASES[name]
    return replace(harness.default_config(tc), **overrides)


def _run(name: str, out_dir: str) -> None:
    cfg = _config(name)
    getattr(harness, f"run_testcase{cfg.test_case}")(cfg, out_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_csvs_match_golden(name, tmp_path):
    _run(name, str(tmp_path))
    want_dir = os.path.join(GOLDEN, name)
    got = sorted(os.listdir(tmp_path))
    assert got == sorted(os.listdir(want_dir))
    for fname in got:
        with open(os.path.join(want_dir, fname), "rb") as f:
            want = f.read()
        assert (tmp_path / fname).read_bytes() == want, fname


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        _run(case, os.path.join(GOLDEN, case))
        print(f"wrote {os.path.join(GOLDEN, case)}")
