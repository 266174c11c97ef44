"""Pulse, symbol waveform, transmit, channel convolution, and noise front end."""

import numpy as np
import pytest

from uwbsim import txchain, waveform
from uwbsim.channel import ChannelRealization
from uwbsim.params import SystemParams

P = SystemParams()
UNIT_TAP = ChannelRealization(np.array([0.0]), np.array([1.0]))


def _energy(x: np.ndarray, f_sim: float) -> float:
    return float(np.sum(x ** 2) / f_sim)


def test_monocycle_unit_energy():
    w = waveform.monocycle(P)
    assert _energy(w, P.f_sim) == pytest.approx(1.0, abs=1e-6)


def test_monocycle_zero_dc():
    # doublet integrates to zero; grid discretization leaves a sub-percent residue
    w = waveform.monocycle(P)
    assert abs(float(np.sum(w))) < 0.01 * float(np.sum(np.abs(w)))


def test_monocycle_rejects_coarse_grid():
    # fewer than 8 samples across the pulse
    with pytest.raises(ValueError):
        waveform.monocycle(SystemParams(f_sim=8e9, W=2e9))


def test_monocycle_band_retention_value():
    # a 0.5 ns doublet peaks near 3 GHz, so a 2 GHz low-pass keeps only
    # about a tenth of the energy; frozen from a padded-spectrum computation
    w = waveform.monocycle(P)
    x = np.zeros(4096)
    x[:len(w)] = w
    xf = waveform.brickwall_lowpass(x, P.f_sim, P.W)
    frac = float(np.sum(xf ** 2) / np.sum(x ** 2))
    assert 0.09 < frac < 0.11


def test_symbol_waveform_single_frame_is_one_pulse():
    p1 = SystemParams(N_f=1)
    th = waveform.ThCode(np.array([0]))
    sig = waveform.symbol_waveform(p1, th)
    w = waveform.monocycle(p1)
    assert np.allclose(sig.samples[:len(w)], w)
    assert np.allclose(sig.samples[len(w):], 0.0)


def test_symbol_waveform_ten_disjoint_pulses():
    rng = np.random.default_rng(0)
    th = waveform.ThCode.random(P, rng)
    sig = waveform.symbol_waveform(P, th)
    occupied = np.flatnonzero(np.abs(sig.samples) > 0)
    # pulse supports land inside their own frames at the chip offsets
    starts = {P.to_samples(j * P.T_f + c * P.T_c)
              for j, c in enumerate(th.chips)}
    got_frames = set(occupied // P.to_samples(P.T_f))
    assert got_frames == set(range(P.N_f))
    assert min(occupied) == min(starts)


def test_symbol_waveform_energy_is_nf_pulse_energies():
    rng = np.random.default_rng(1)
    th = waveform.ThCode.random(P, rng)
    sig = waveform.symbol_waveform(P, th)
    assert _energy(sig.samples, P.f_sim) == pytest.approx(P.N_f * 1.0,
                                                          rel=1e-6)


def test_thcode_validation():
    with pytest.raises(ValueError):
        waveform.ThCode(np.array([0, 1])).validate(P)          # wrong length
    with pytest.raises(ValueError):
        waveform.ThCode(np.full(P.N_f, P.N_c)).validate(P)     # chip too large


def test_transmit_reference_only():
    th = waveform.ThCode(np.zeros(P.N_f, dtype=int))
    ws = waveform.symbol_waveform(P, th)
    sig = waveform.transmit(np.array([1]), P, th, UNIT_TAP)
    n = P.to_samples(P.T_s)
    assert len(sig.samples) >= n
    assert np.allclose(sig.samples[:n], ws.samples)
    assert np.all(sig.samples[n:] == 0.0)


def test_transmit_all_plus_one_is_periodic():
    rng = np.random.default_rng(2)
    th = waveform.ThCode.random(P, rng)
    d = np.ones(4, dtype=int)
    sig = waveform.transmit(d, P, th, UNIT_TAP)
    n = P.to_samples(P.T_s)
    first = sig.samples[:n]
    for i in range(1, 4):
        assert np.allclose(sig.samples[i * n:(i + 1) * n], first)


def test_transmit_segment_signs_match_symbols():
    rng = np.random.default_rng(3)
    th = waveform.ThCode.random(P, rng)
    a = np.array([-1, 1, -1, -1, 1])
    d = txchain.differential_modulate(a)
    sig = waveform.transmit(d, P, th, UNIT_TAP)
    ws = waveform.symbol_waveform(P, th)
    n = P.to_samples(P.T_s)
    for i, di in enumerate(d):
        seg = sig.samples[i * n:(i + 1) * n]
        corr = float(seg @ ws.samples[:n])
        assert np.sign(corr) == di


def test_transmit_energy_accounting():
    rng = np.random.default_rng(4)
    th = waveform.ThCode.random(P, rng)
    d = txchain.differential_modulate(np.array([1, -1, 1]))
    sig = waveform.transmit(d, P, th, UNIT_TAP)
    assert _energy(sig.samples, P.f_sim) == pytest.approx(
        len(d) * P.N_f * 1.0, rel=1e-6)


def test_transmit_through_channel_equals_channel_of_transmit():
    # the channel is linear and time-invariant, so rendering it once into
    # the symbol template equals passing the whole pulse train through it
    rng = np.random.default_rng(10)
    th = waveform.ThCode.random(P, rng)
    d = txchain.differential_modulate(np.array([1, -1, -1, 1]))
    ch = ChannelRealization(np.array([0.0, 3e-9, 40e-9]),
                            np.array([0.7, -0.4, 0.2]))
    got = waveform.transmit(d, P, th, ch).samples
    want = waveform.apply_channel(waveform.transmit(d, P, th, UNIT_TAP),
                                  ch, P).samples
    n = min(len(got), len(want))
    assert np.allclose(got[:n], want[:n], atol=1e-12)
    assert np.all(got[n:] == 0.0) and np.all(want[n:] == 0.0)


def test_transmit_rejects_non_antipodal_symbols():
    th = waveform.ThCode(np.zeros(P.N_f, dtype=int))
    for bad in (np.array([]), np.array([1, 0]), np.ones((2, 2))):
        with pytest.raises(ValueError):
            waveform.transmit(bad, P, th, UNIT_TAP)


def test_apply_channel_identity_tap():
    rng = np.random.default_rng(5)
    th = waveform.ThCode.random(P, rng)
    sig = waveform.symbol_waveform(P, th)
    ch = ChannelRealization(np.array([0.0]), np.array([1.0]))
    out = waveform.apply_channel(sig, ch, P)
    assert np.allclose(out.samples[:len(sig.samples)], sig.samples)


def test_apply_channel_scaled_delayed_copy():
    rng = np.random.default_rng(6)
    th = waveform.ThCode.random(P, rng)
    sig = waveform.symbol_waveform(P, th)
    ch = ChannelRealization(np.array([5e-9]), np.array([0.5]))
    out = waveform.apply_channel(sig, ch, P)
    k = P.to_samples(5e-9)
    assert np.allclose(out.samples[k:k + len(sig.samples)], 0.5 * sig.samples)
    assert np.allclose(out.samples[:k], 0.0)


def test_apply_channel_linearity():
    rng = np.random.default_rng(7)
    th = waveform.ThCode.random(P, rng)
    s1 = waveform.symbol_waveform(P, th)
    s2 = waveform.SampledSignal(rng.normal(size=len(s1.samples)), P.f_sim)
    ch = ChannelRealization(np.array([0.0, 3e-9, 40e-9]),
                            np.array([0.7, -0.4, 0.2]))
    lhs = waveform.apply_channel(
        waveform.SampledSignal(2.0 * s1.samples - 3.0 * s2.samples, P.f_sim),
        ch, P)
    r1 = waveform.apply_channel(s1, ch, P)
    r2 = waveform.apply_channel(s2, ch, P)
    assert np.allclose(lhs.samples, 2.0 * r1.samples - 3.0 * r2.samples,
                       atol=1e-12)


def test_add_awgn_zero_noise_returns_filtered_input():
    rng = np.random.default_rng(8)
    x = rng.normal(size=4096)
    sig = waveform.SampledSignal(x, P.f_sim)
    out = waveform.add_awgn_and_filter(sig, 0.0, P)
    assert np.allclose(out.samples, waveform.brickwall_lowpass(x, P.f_sim, P.W))


def test_add_awgn_noise_power_matches_psd():
    # post-filter noise power is N0*W for two-sided PSD N0/2 through an
    # ideal low-pass of one-sided bandwidth W
    rng = np.random.default_rng(9)
    N0 = 0.3
    sig = waveform.SampledSignal(np.zeros(2_000_000), P.f_sim)
    out = waveform.add_awgn_and_filter(sig, N0, P, rng)
    power = float(np.mean(out.samples ** 2))
    assert power == pytest.approx(N0 * P.W, rel=0.03)


def test_add_awgn_deterministic_given_seed():
    sig = waveform.SampledSignal(np.ones(1000), P.f_sim)
    a = waveform.add_awgn_and_filter(sig, 0.1, P, np.random.default_rng(42))
    b = waveform.add_awgn_and_filter(sig, 0.1, P, np.random.default_rng(42))
    assert np.array_equal(a.samples, b.samples)


def test_add_awgn_requires_rng_for_positive_noise():
    sig = waveform.SampledSignal(np.zeros(16), P.f_sim)
    with pytest.raises(ValueError):
        waveform.add_awgn_and_filter(sig, 0.1, P)
    with pytest.raises(ValueError):
        waveform.add_awgn_and_filter(sig, -1.0, P)
