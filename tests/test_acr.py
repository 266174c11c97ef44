"""Autocorrelation receiver: sampling, padding, noise model, energy estimate."""

import numpy as np
import pytest

from uwbsim import acr, txchain, waveform
from uwbsim.channel import ChannelRealization, generate_cm2
from uwbsim.params import SystemParams

P = SystemParams()


def _noiseless_received(a, th):
    """Transmit symbols a through the identity channel, no noise, no filter."""
    d = txchain.differential_modulate(np.asarray(a))
    sig = waveform.transmit(d, P, th, ChannelRealization([0.0], [1.0]))
    # leave headroom for the last capture window
    tail = np.zeros(P.to_samples(P.T_g) + P.to_samples(P.T_f))
    return np.concatenate([sig, tail])


def test_noise_variance_formula_value():
    # 10*0.1*1 + 2e9*1e-7*0.01/2 = 1 + 1
    assert acr.NoiseModel(10, 1.0, 0.1, 2e9, 1e-7).sigma_n_sq == \
        pytest.approx(2.0)
    assert acr.NoiseModel(10, 1.0, 0.0, 2e9, 1e-7).sigma_n_sq == 0.0


def test_noise_model_carries_formula_value():
    model = acr.NoiseModel(P.N_f, 0.8, 0.05, P.W, P.T_g)
    want = P.N_f * 0.05 * 0.8 + P.W * P.T_g * 0.05 ** 2 / 2.0
    assert model.sigma_n_sq == pytest.approx(want, rel=1e-12)
    assert model.amplitude == pytest.approx(P.N_f * 0.8)


@pytest.mark.parametrize("bad", [dict(N_f=0), dict(E_g=-1.0), dict(N0=-0.1),
                                 dict(W=0.0), dict(T_g=0.0)])
def test_noise_model_refuses_bad_parameters(bad):
    kw = dict(N_f=10, E_g=1.0, N0=0.1, W=2e9, T_g=1e-7) | bad
    with pytest.raises(ValueError, match="bad noise model"):
        acr.NoiseModel(**kw).sigma_n_sq


def test_pad_mask_rule_and_count():
    for N, M in [(5, 1), (6, 3), (10, 4), (8, 8)]:
        mask = acr.pad_mask_for(N, M)
        for i in range(1, N + 1):
            for m in range(1, M + 1):
                assert mask[i - 1, m - 1] == (m > i)
        assert mask.sum() == M * (M - 1) // 2


def test_pad_mask_is_shared_and_read_only():
    s = acr.CorrSamples(np.zeros((6, 3)))
    assert s.pad_mask is acr.pad_mask_for(6, 3)
    with pytest.raises(ValueError):
        s.pad_mask[0, 0] = True


def test_corr_samples_reject_nonzero_padding():
    vals = np.ones((3, 2))
    with pytest.raises(ValueError):
        acr.CorrSamples(vals)


def test_generate_discrete_noiseless_values():
    rng = np.random.default_rng(0)
    a = np.array([1, -1, -1, 1, -1])
    model = acr.NoiseModel(P.N_f, 0.7, 0.0, P.W, P.T_g)
    s = acr.generate_discrete(a, 3, model, rng)
    amp = P.N_f * 0.7
    for i in range(1, 6):
        for m in range(1, 4):
            if m > i:
                assert s.values[i - 1, m - 1] == 0.0
            else:
                want = np.prod(a[i - m:i]) * amp
                assert s.values[i - 1, m - 1] == pytest.approx(want, rel=1e-12)


def test_generate_discrete_noise_mean_and_variance():
    rng = np.random.default_rng(1)
    n = 40000
    a = np.ones(n, dtype=int)
    model = acr.NoiseModel(P.N_f, 1.0, 0.05, P.W, P.T_g)
    s = acr.generate_discrete(a, 1, model, rng)
    resid = s.values[:, 0] - model.amplitude
    se = np.sqrt(model.sigma_n_sq / n)
    assert abs(float(resid.mean())) < 3 * se
    assert float(resid.var()) == pytest.approx(model.sigma_n_sq, rel=0.05)


def test_generate_blocks_noiseless_all_plus_one():
    rng = np.random.default_rng(2)
    a = np.ones(6, dtype=int)
    model = acr.NoiseModel(P.N_f, 1.0, 0.0, P.W, P.T_g)
    b = acr.generate_discrete_blocks(a, 3, model, rng)
    assert b.n_blocks == 2 and b.block_size == 3
    assert int(b.valid_mask.sum()) == 3 * 4 // 2
    valid = np.broadcast_to(b.valid_mask, b.values.shape)
    assert np.allclose(b.values[valid], P.N_f * 1.0)
    assert np.all(b.values[~valid] == 0.0)


def test_generate_blocks_m1_matches_overlapping_first_column():
    a = np.array([1, -1, 1, 1, -1, -1])
    model = acr.NoiseModel(P.N_f, 0.9, 0.0, P.W, P.T_g)
    rng = np.random.default_rng(3)
    blocks = acr.generate_discrete_blocks(a, 1, model, rng)
    sliding = acr.generate_discrete(a, 1, model, rng)
    assert np.allclose(blocks.values[:, 0, 0], sliding.values[:, 0])


def test_generate_blocks_requires_divisible_length():
    model = acr.NoiseModel(P.N_f, 1.0, 0.0, P.W, P.T_g)
    with pytest.raises(ValueError):
        acr.generate_discrete_blocks(np.ones(5, dtype=int), 2, model,
                                     np.random.default_rng(0))


def test_despread_single_frame_is_identity():
    # with one frame and chip 0, window i is the raw slice at i*T_s
    p1 = SystemParams(N_f=1)
    th = waveform.ThCode(np.array([0]))
    rng = np.random.default_rng(4)
    r = rng.normal(size=10000)
    win = acr.despread_windows(r, th, p1, 2)
    step, G = p1.to_samples(p1.T_s), p1.to_samples(p1.T_g)
    for i in range(2):
        assert np.array_equal(win[i], r[i * step:i * step + G])


def test_despread_coherent_sum_over_frames():
    # one noiseless symbol: the de-spread window equals N_f copies of g(t)
    rng = np.random.default_rng(5)
    th = waveform.ThCode.random(P, rng)
    r = _noiseless_received([1], th)
    win = acr.despread_windows(r, th, P, 1)
    g = waveform.monocycle(P)
    want = np.zeros(P.to_samples(P.T_g))
    want[:len(g)] = P.N_f * g
    assert np.allclose(win[0], want, atol=1e-6 * np.max(np.abs(g)))


def test_despread_window_energy():
    rng = np.random.default_rng(6)
    th = waveform.ThCode.random(P, rng)
    r = _noiseless_received([1], th)
    win = acr.despread_windows(r, th, P, 1)
    energy = float(np.sum(win[0] ** 2) / P.f_sim)
    assert energy == pytest.approx(P.N_f ** 2 * 1.0, rel=1e-3)


def test_despread_rejects_short_signal():
    th = waveform.ThCode(np.zeros(P.N_f, dtype=int))
    r = np.zeros(100)
    with pytest.raises(ValueError):
        acr.despread_windows(r, th, P, 1)


def test_sample_overlapping_noiseless_all_plus_one():
    rng = np.random.default_rng(7)
    th = waveform.ThCode.random(P, rng)
    r = _noiseless_received([1, 1, 1], th)
    s = acr.sample_overlapping(r, th, P, 3, 2)
    amp = P.N_f * 1.0
    for i in range(1, 4):
        for m in range(1, 3):
            if m > i:
                assert s.values[i - 1, m - 1] == 0.0
            else:
                assert s.values[i - 1, m - 1] == pytest.approx(amp, rel=1e-3)


def test_sample_overlapping_sign_algebra():
    rng = np.random.default_rng(8)
    th = waveform.ThCode.random(P, rng)
    a = np.array([-1, 1])
    r = _noiseless_received(a, th)
    s = acr.sample_overlapping(r, th, P, 2, 2)
    amp = P.N_f * 1.0
    assert s.values[1, 1] == pytest.approx(a[0] * a[1] * amp, rel=1e-3)
    assert s.values[0, 0] == pytest.approx(a[0] * amp, rel=1e-3)


def test_sample_block_matches_overlapping_adjacent_pairs():
    rng = np.random.default_rng(9)
    th = waveform.ThCode.random(P, rng)
    r = _noiseless_received([1, -1, -1, 1], th)
    sl = acr.sample_overlapping(r, th, P, 4, 1)
    bl = acr.sample_block(r, th, P, 4, 1)
    assert np.allclose(bl.values[:, 0, 0], sl.values[:, 0], rtol=1e-9)


@pytest.fixture(scope="module")
def cm2_packet():
    """A noisy 60-symbol CM2 waveform packet and its TH code."""
    rng = np.random.default_rng(12)
    ch = generate_cm2(P, rng)
    th = waveform.ThCode.random(P, rng)
    d = txchain.differential_modulate(rng.choice([-1, 1], 60))
    sig = waveform.add_awgn_and_filter(waveform.transmit(d, P, th, ch), 0.5,
                                       P, rng)
    return sig, th


def test_despread_matches_per_window_loop(cm2_packet):
    # adding each hop offset to every window at once keeps each element's
    # terms in offset order
    sig, th = cm2_packet
    step, G = P.to_samples(P.T_s), P.to_samples(P.T_g)
    offs = [P.to_samples(j * P.T_f + c * P.T_c) for j, c in enumerate(th.chips)]
    want = np.zeros((61, G))
    for i in range(61):
        for k in offs:
            want[i] += sig[i * step + k:i * step + k + G]
    assert acr.despread_windows(sig, th, P, 61).tobytes() == want.tobytes()


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
def test_sample_block_matches_pairwise_loop(cm2_packet, M):
    # block sample (u, r, c) is the overlapping sample of the same window pair
    sig, th = cm2_packet
    N = 60
    D = acr.despread_windows(sig, th, P, N + 1)
    dt = P.dt
    want = np.zeros((N // M, M, M))
    for u in range(N // M):
        for r in range(M):
            for c in range(r + 1):
                want[u, r, c] = dt * float(D[u * M + r + 1] @ D[u * M + c]) / P.N_f
    got = acr.sample_block(sig, th, P, N, M).values
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sample_block_shape_and_divisibility():
    rng = np.random.default_rng(10)
    th = waveform.ThCode.random(P, rng)
    r = _noiseless_received([1, 1, 1, 1, 1, 1], th)
    b = acr.sample_block(r, th, P, 6, 3)
    assert b.values.shape == (2, 3, 3)
    with pytest.raises(ValueError):
        acr.sample_block(r, th, P, 5, 3)


def test_estimate_eg_noiseless_exact():
    a = np.array([1, -1, 1, -1, 1, 1])
    model = acr.NoiseModel(P.N_f, 0.65, 0.0, P.W, P.T_g)
    s = acr.generate_discrete(a, 3, model, np.random.default_rng(0))
    assert acr.estimate_Eg(s, P.N_f) == pytest.approx(0.65, rel=1e-12)
    b = acr.generate_discrete_blocks(a, 3, model, np.random.default_rng(0))
    assert acr.estimate_Eg(b, P.N_f) == pytest.approx(0.65, rel=1e-12)


def test_estimate_eg_scale_equivariant():
    a = np.array([1, -1, -1, 1])
    model = acr.NoiseModel(P.N_f, 1.0, 0.2, P.W, P.T_g)
    s = acr.generate_discrete(a, 2, model, np.random.default_rng(11))
    e1 = acr.estimate_Eg(s, P.N_f)
    scaled = acr.CorrSamples(3.0 * s.values)
    assert acr.estimate_Eg(scaled, P.N_f) == pytest.approx(3.0 * e1, rel=1e-12)


def test_estimate_eg_rejects_other_types():
    with pytest.raises(TypeError):
        acr.estimate_Eg(np.zeros((4, 2)), P.N_f)

