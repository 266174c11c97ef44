"""Differential modulation, demodulation products, and interleaving."""

import itertools

import numpy as np
import pytest

from uwbsim import acr, beliefs, txchain, waveform


def test_differential_modulate_identity_chain():
    d = txchain.differential_modulate(np.array([1, 1]))
    assert d.tolist() == [1, 1, 1]


def test_differential_modulate_sign_recursion():
    d = txchain.differential_modulate(np.array([-1, 1, -1]))
    assert d.tolist() == [1, -1, -1, 1]


def test_differential_modulate_alternating_chain():
    d = txchain.differential_modulate(np.array([-1, -1, -1, -1]))
    assert d.tolist() == [1, -1, 1, -1, 1]


def test_differential_modulate_rejects_non_binary():
    with pytest.raises(ValueError):
        txchain.differential_modulate(np.array([1, 0, -1]))


@pytest.mark.parametrize("make", [
    lambda: txchain.differential_modulate([1.5, -1.2, 1]),
    lambda: txchain.bits_to_symbols([0.5, 1]),
    lambda: txchain.InterleaverMap([0.5, 1.7]),
    lambda: waveform.ThCode(np.full(10, 0.7)),
    # the discrete generators take their products from differential_modulate
    lambda: acr.generate_discrete([1.5, -1.0, 1.0], 2,
                                  acr.NoiseModel(10, 1.0, 0.0, 1e9, 1e-8),
                                  np.random.default_rng(0)),
], ids=["differential_modulate", "bits_to_symbols", "InterleaverMap",
        "ThCode", "generate_discrete"])
def test_fractional_input_is_refused_before_the_integer_cast(make):
    # each used to cast to int first and accept the truncated values
    with pytest.raises(ValueError):
        make()


def test_differential_round_trip_exhaustive():
    # recovering a_i = d_i * d_{i-1} inverts the modulation for every input
    for n in range(1, 9):
        for a in itertools.product((1, -1), repeat=n):
            a = np.array(a)
            d = txchain.differential_modulate(a)
            assert d[0] == 1
            assert np.array_equal(d[1:] * d[:-1], a)


def test_demodulate_product_by_hand():
    d = txchain.differential_modulate(np.array([-1, 1]))   # d = 1, -1, -1
    assert d[2] * d[0] == -1
    assert d[2] * d[1] == 1


def test_demodulate_product_all_ones():
    d = txchain.differential_modulate(np.ones(4, dtype=int))
    for i in range(1, 5):
        for m in range(1, i + 1):
            assert d[i] * d[i - m] == 1


def test_demodulate_product_equals_symbol_run_product():
    # d_i * d_{i-m} == prod of a_{i-m+1}..a_i, exhaustively to length 8
    for n in range(1, 9):
        for a in itertools.product((1, -1), repeat=n):
            a = np.array(a)
            d = txchain.differential_modulate(a)
            for i in range(1, n + 1):
                for m in range(1, i + 1):
                    assert d[i] * d[i - m] == np.prod(a[i - m:i])


def test_interleave_identity_map():
    imap = txchain.InterleaverMap(np.arange(5))
    x = np.arange(5.0)
    assert np.array_equal(txchain.interleave(x, imap), x)
    assert np.array_equal(txchain.deinterleave(x, imap), x)


def test_interleave_reverse_map():
    imap = txchain.InterleaverMap(np.array([2, 1, 0]))
    out = txchain.interleave(np.array([1.0, 2.0, 3.0]), imap)
    assert out.tolist() == [3.0, 2.0, 1.0]


def test_interleave_round_trip_random_map():
    rng = np.random.default_rng(3)
    imap = txchain.InterleaverMap.random(64, rng)
    x = rng.normal(size=64)
    back = txchain.deinterleave(txchain.interleave(x, imap), imap)
    assert np.array_equal(back, x)


def test_interleave_inverse_composition_is_identity():
    rng = np.random.default_rng(11)
    imap = txchain.InterleaverMap.random(32, rng)
    assert np.array_equal(imap.perm[imap.inverse], np.arange(32))
    assert np.array_equal(imap.inverse[imap.perm], np.arange(32))


def test_interleave_moves_belief_rows():
    rng = np.random.default_rng(5)
    imap = txchain.InterleaverMap.random(40, rng)
    x = rng.random((40, 2))
    assert np.array_equal(txchain.interleave(x, imap), x[imap.perm])
    assert np.array_equal(txchain.deinterleave(x, imap), x[imap.inverse])


def test_interleave_length_mismatch():
    imap = txchain.InterleaverMap(np.arange(4))
    with pytest.raises(ValueError):
        txchain.interleave(np.zeros(5), imap)
    with pytest.raises(ValueError):
        txchain.deinterleave(np.zeros(3), imap)


def test_interleaver_rejects_non_permutation():
    with pytest.raises(ValueError):
        txchain.InterleaverMap(np.array([0, 0, 2]))


def test_bit_symbol_mapping_round_trip():
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    sym = txchain.bits_to_symbols(bits)
    assert sym.tolist() == [1, -1, -1, 1, -1]
    # the receiver reads bits back under the same 0 <-> +1 convention
    belief = np.stack([sym == 1, sym == -1], axis=1).astype(float)
    assert np.array_equal(beliefs.hard_bits(belief), bits)
