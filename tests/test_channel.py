"""Dense-multipath channel generation, truncation, and captured energy."""

import numpy as np
import pytest

from uwbsim import channel as chmod
from uwbsim import waveform
from uwbsim.params import SystemParams

P = SystemParams()


def test_fixed_seed_reproduces_tap_list():
    a = chmod.generate_cm2(P, np.random.default_rng(123))
    b = chmod.generate_cm2(P, np.random.default_rng(123))
    assert np.array_equal(a.delays, b.delays)
    assert np.array_equal(a.gains, b.gains)


def test_all_delays_within_capture_window():
    for seed in range(20):
        ch = chmod.generate_cm2(P, np.random.default_rng(seed))
        assert len(ch.delays) >= 1
        assert np.all(ch.delays <= P.T_g)
        assert np.all(ch.delays >= 0.0)


def test_unit_energy_before_truncation():
    # total (untruncated) tap energy is normalized to 1, so the truncated
    # list can only carry less
    for seed in range(20):
        ch = chmod.generate_cm2(P, np.random.default_rng(seed))
        assert float(np.sum(ch.gains ** 2)) <= 1.0 + 1e-12


def test_captured_energy_matches_stored_value():
    for seed in range(5):
        ch = chmod.generate_cm2(P, np.random.default_rng(seed))
        assert ch.E_g == pytest.approx(chmod.captured_energy(ch, P), rel=1e-6)
        assert ch.E_g > 0.0


def test_mean_rms_delay_spread_near_model_target():
    # NLOS 0-4 m profile targets about 8 ns RMS delay spread
    vals = [chmod.rms_delay_spread(chmod.generate_cm2(P, np.random.default_rng(s)))
            for s in range(1000)]
    mean_ns = float(np.mean(vals)) * 1e9
    assert 8.03 * 0.75 < mean_ns < 8.03 * 1.25


def test_identity_channel_captures_unit_pulse_energy():
    ch = chmod.ChannelRealization(np.array([0.0]), np.array([1.0]))
    assert chmod.captured_energy(ch, P) == pytest.approx(1.0, abs=1e-4)


def test_edge_tap_loses_clipped_tail():
    ch = chmod.ChannelRealization(np.array([99.9e-9]), np.array([1.0]))
    eg = chmod.captured_energy(ch, P)
    assert eg < 0.9   # most of the 0.5 ns pulse hangs past the window


def test_two_orthogonal_taps_sum_in_energy():
    ch = chmod.ChannelRealization(np.array([0.0, 50e-9]), np.array([0.6, 0.8]))
    assert chmod.captured_energy(ch, P) == pytest.approx(1.0, abs=1e-3)


def test_window_can_only_lose_energy():
    for seed in range(10):
        ch = chmod.generate_cm2(P, np.random.default_rng(seed))
        g = chmod.received_pulse(ch, P)
        total = float(np.sum(g ** 2) / P.f_sim)
        assert chmod.captured_energy(ch, P) <= total + 1e-9


def test_effective_energy_uses_filtered_pulse():
    ch = chmod.ChannelRealization(np.array([0.0]), np.array([1.0]))
    eff = chmod.effective_captured_energy(ch, P)
    # only the in-band fraction of the pulse survives the 2 GHz front end,
    # and filter ringing ahead of t=0 falls outside the capture window
    assert 0.06 < eff < 0.09
    assert eff < chmod.captured_energy(ch, P)


def test_realization_field_validation():
    with pytest.raises(ValueError):
        chmod.ChannelRealization(np.array([0.0, 1e-9]), np.array([1.0]))
    with pytest.raises(ValueError):
        chmod.ChannelRealization(np.array([-1e-9]), np.array([1.0]))
