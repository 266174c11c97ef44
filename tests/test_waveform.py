"""Pulse, symbol waveform, transmit, channel convolution, and noise front end."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbsim import txchain, waveform
from uwbsim.channel import ChannelRealization, generate_cm2
from uwbsim.params import SystemParams
from waveform_reference import (add_awgn_and_filter_fresh, symbol_waveform,
                                transmit_full_train)

P = SystemParams()
UNIT_TAP = ChannelRealization(np.array([0.0]), np.array([1.0]))


def _energy(x: np.ndarray, f_sim: float) -> float:
    return float(np.sum(x ** 2) / f_sim)


def _one_symbol(params, th) -> np.ndarray:
    """One symbol's pulse train, as transmit renders it through a unit tap."""
    return waveform.transmit(np.array([1]), params, th, UNIT_TAP)


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
    x = _one_symbol(p1, th)
    w = waveform.monocycle(p1)
    assert np.allclose(x[:len(w)], w)
    assert np.allclose(x[len(w):], 0.0)


def test_symbol_waveform_ten_disjoint_pulses():
    rng = np.random.default_rng(0)
    th = waveform.ThCode.random(P, rng)
    occupied = np.flatnonzero(np.abs(_one_symbol(P, th)) > 0)
    # pulse supports land inside their own frames at the chip offsets
    starts = {P.to_samples(j * P.T_f + c * P.T_c)
              for j, c in enumerate(th.chips)}
    got_frames = set(occupied // P.to_samples(P.T_f))
    assert got_frames == set(range(P.N_f))
    assert min(occupied) == min(starts)


def test_symbol_waveform_energy_is_nf_pulse_energies():
    rng = np.random.default_rng(1)
    th = waveform.ThCode.random(P, rng)
    assert _energy(_one_symbol(P, th), P.f_sim) == pytest.approx(P.N_f * 1.0,
                                                                 rel=1e-6)


def test_thcode_validation():
    with pytest.raises(ValueError):
        waveform.ThCode(np.array([0, 1])).offsets(P)           # wrong length
    with pytest.raises(ValueError):
        waveform.ThCode(np.full(P.N_f, P.N_c)).offsets(P)      # chip too large


def test_transmit_reference_only():
    th = waveform.ThCode(np.zeros(P.N_f, dtype=int))
    ws = symbol_waveform(P, th)
    sig = waveform.transmit(np.array([1]), P, th, UNIT_TAP)
    n = P.to_samples(P.T_s)
    assert len(sig) >= n
    assert np.allclose(sig[:n], ws)
    assert np.all(sig[n:] == 0.0)


def test_transmit_all_plus_one_is_periodic():
    rng = np.random.default_rng(2)
    th = waveform.ThCode.random(P, rng)
    d = np.ones(4, dtype=int)
    sig = waveform.transmit(d, P, th, UNIT_TAP)
    n = P.to_samples(P.T_s)
    first = sig[:n]
    for i in range(1, 4):
        assert np.allclose(sig[i * n:(i + 1) * n], first)


def test_transmit_segment_signs_match_symbols():
    rng = np.random.default_rng(3)
    th = waveform.ThCode.random(P, rng)
    a = np.array([-1, 1, -1, -1, 1])
    d = txchain.differential_modulate(a)
    sig = waveform.transmit(d, P, th, UNIT_TAP)
    ws = symbol_waveform(P, th)
    n = P.to_samples(P.T_s)
    for i, di in enumerate(d):
        seg = sig[i * n:(i + 1) * n]
        corr = float(seg @ ws[:n])
        assert np.sign(corr) == di


def test_transmit_energy_accounting():
    rng = np.random.default_rng(4)
    th = waveform.ThCode.random(P, rng)
    d = txchain.differential_modulate(np.array([1, -1, 1]))
    sig = waveform.transmit(d, P, th, UNIT_TAP)
    assert _energy(sig, P.f_sim) == pytest.approx(
        len(d) * P.N_f * 1.0, rel=1e-6)


def test_transmit_through_channel_equals_channel_of_transmit():
    # the channel is linear and time-invariant, so writing its pulse
    # response at each hop offset equals passing the pulse train through it
    rng = np.random.default_rng(10)
    th = waveform.ThCode.random(P, rng)
    d = txchain.differential_modulate(np.array([1, -1, -1, 1]))
    ch = ChannelRealization(np.array([0.0, 3e-9, 40e-9]),
                            np.array([0.7, -0.4, 0.2]))
    got = waveform.transmit(d, P, th, ch)
    want = waveform.apply_channel(waveform.transmit(d, P, th, UNIT_TAP),
                                  ch, P)
    n = min(len(got), len(want))
    assert np.allclose(got[:n], want[:n], atol=1e-12)
    assert np.all(got[n:] == 0.0) and np.all(want[n:] == 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_symbols=st.integers(1, 40),
       cm2=st.booleans())
def test_transmit_matches_full_train_rendering(seed, n_symbols, cm2):
    # frame responses never overlap at the default params, so rendering the
    # pulse response per hop offset adds the same products in the same order
    rng = np.random.default_rng(seed)
    ch = generate_cm2(P, rng) if cm2 else UNIT_TAP
    th = waveform.ThCode.random(P, rng)
    d = rng.choice([-1, 1], n_symbols)
    got = waveform.transmit(d, P, th, ch)
    want = transmit_full_train(d, P, th, ch)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_transmit_rejects_non_antipodal_symbols():
    th = waveform.ThCode(np.zeros(P.N_f, dtype=int))
    for bad in (np.array([]), np.array([1, 0]), np.ones((2, 2))):
        with pytest.raises(ValueError):
            waveform.transmit(bad, P, th, UNIT_TAP)


def test_apply_channel_identity_tap():
    rng = np.random.default_rng(5)
    th = waveform.ThCode.random(P, rng)
    sig = symbol_waveform(P, th)
    ch = ChannelRealization(np.array([0.0]), np.array([1.0]))
    out = waveform.apply_channel(sig, ch, P)
    assert np.allclose(out[:len(sig)], sig)


def test_apply_channel_scaled_delayed_copy():
    rng = np.random.default_rng(6)
    th = waveform.ThCode.random(P, rng)
    sig = symbol_waveform(P, th)
    ch = ChannelRealization(np.array([5e-9]), np.array([0.5]))
    out = waveform.apply_channel(sig, ch, P)
    k = P.to_samples(5e-9)
    assert np.allclose(out[k:k + len(sig)], 0.5 * sig)
    assert np.allclose(out[:k], 0.0)


def test_apply_channel_linearity():
    rng = np.random.default_rng(7)
    th = waveform.ThCode.random(P, rng)
    s1 = symbol_waveform(P, th)
    s2 = rng.normal(size=len(s1))
    ch = ChannelRealization(np.array([0.0, 3e-9, 40e-9]),
                            np.array([0.7, -0.4, 0.2]))
    lhs = waveform.apply_channel(2.0 * s1 - 3.0 * s2, ch, P)
    r1 = waveform.apply_channel(s1, ch, P)
    r2 = waveform.apply_channel(s2, ch, P)
    assert np.allclose(lhs, 2.0 * r1 - 3.0 * r2, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3000), f_sim=st.floats(1e3, 1e11),
       frac=st.floats(0.0, 0.6), on_bin=st.booleans(),
       nudge=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_brickwall_slice_matches_frequency_mask(n, f_sim, frac, on_bin, nudge,
                                                seed):
    # W on a bin frequency (or one ulp off it) is where a slice boundary
    # computed any other way than rfftfreq's would disagree with its mask
    freqs = np.fft.rfftfreq(n, 1.0 / f_sim)
    W = freqs[int(frac * (len(freqs) - 1))] if on_bin else frac * f_sim
    W = W if nudge == 0 else float(np.nextafter(W, nudge * np.inf))
    x = np.random.default_rng(seed).normal(size=n)
    spec = np.fft.rfft(x)
    spec[freqs > W] = 0.0
    want = np.fft.irfft(spec, n=n)
    assert waveform.brickwall_lowpass(x, f_sim, W).tobytes() == want.tobytes()
    # the same bits when the inverse FFT writes into the input buffer
    assert waveform.brickwall_lowpass(x, f_sim, W, out=x) is x
    assert x.tobytes() == want.tobytes()


def test_add_awgn_zero_noise_returns_filtered_input():
    rng = np.random.default_rng(8)
    x = rng.normal(size=4096)
    out = waveform.add_awgn_and_filter(x, 0.0, P)
    assert np.allclose(out, waveform.brickwall_lowpass(x, P.f_sim, P.W))


@pytest.mark.parametrize("N0", [0.0, 1e-3])
def test_add_awgn_matches_fresh_buffer_reference(N0):
    # a received CM2 packet: the same bits and the same rng stream as the
    # filter that returned a new array, and the caller's array untouched
    rng = np.random.default_rng(12)
    ch = generate_cm2(P, rng)
    th = waveform.ThCode.random(P, rng)
    x = waveform.transmit(txchain.differential_modulate(np.array([1, -1, -1])),
                          P, th, ch)
    before = x.copy()
    rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
    got = waveform.add_awgn_and_filter(x, N0, P, rng_a)
    want = add_awgn_and_filter_fresh(x, N0, P, rng_b)
    assert got.tobytes() == want.tobytes()
    assert rng_a.random() == rng_b.random()
    assert got is not x
    assert x.tobytes() == before.tobytes()


def test_add_awgn_noise_power_matches_psd():
    # post-filter noise power is N0*W for two-sided PSD N0/2 through an
    # ideal low-pass of one-sided bandwidth W
    rng = np.random.default_rng(9)
    N0 = 0.3
    out = waveform.add_awgn_and_filter(np.zeros(2_000_000), N0, P, rng)
    power = float(np.mean(out ** 2))
    assert power == pytest.approx(N0 * P.W, rel=0.03)


def test_add_awgn_deterministic_given_seed():
    x = np.ones(1000)
    a = waveform.add_awgn_and_filter(x, 0.1, P, np.random.default_rng(42))
    b = waveform.add_awgn_and_filter(x, 0.1, P, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_add_awgn_requires_rng_for_positive_noise():
    x = np.zeros(16)
    with pytest.raises(ValueError):
        waveform.add_awgn_and_filter(x, 0.1, P)
    with pytest.raises(ValueError):
        waveform.add_awgn_and_filter(x, -1.0, P)
