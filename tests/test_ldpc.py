"""Code construction, systematic encoding, and sum-product decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbsim import ldpc


@pytest.fixture(scope="module")
def small():
    return ldpc.construct_regular(k=24, n=48, seed=3)


@pytest.fixture(scope="module")
def code():
    return ldpc.default_code()


def _bpsk_llr(codeword, sigma, rng):
    x = 1.0 - 2.0 * codeword
    y = x + sigma * rng.standard_normal(codeword.size)
    return 2.0 * y / sigma ** 2


def _dense_syndrome(code, bits):
    """Oracle: the parity checks as a dense integer product with H."""
    return (code.H.astype(np.int64) @ (np.asarray(bits, dtype=np.int64) & 1)) % 2


# ---------------------------------------------------------------------------
# construction


def test_degree_profile_is_3_6_regular(small, code):
    for c in (small, code):
        assert np.all(c.H.sum(axis=0) == 3)
        assert np.all(c.H.sum(axis=1) == 6)


def test_no_length_four_cycles(code):
    # two variable nodes never share more than one check
    gram = code.H.astype(np.int64) @ code.H.astype(np.int64).T
    off = gram - np.diag(np.diag(gram))
    assert off.max() <= 1


def test_dimensions_and_rate(small, code):
    assert (code.n, code.k) == (1600, 800)
    assert code.rate == 0.5
    assert (small.n, small.k) == (48, 24)


def test_info_and_parity_positions_partition_codeword(code):
    merged = np.concatenate([code.info_positions, code.parity_positions])
    assert np.array_equal(np.sort(merged), np.arange(code.n))


def _move_edge(H, axis):
    """Move one edge of H along a column (axis=0) or a row (axis=1).

    Moving along a column keeps every column weight and unbalances two
    rows; moving along a row does the opposite.
    """
    H = H.copy()
    line = H[:, 0] if axis == 0 else H[0, :]
    src, dst = np.nonzero(line)[0][0], np.nonzero(line == 0)[0][0]
    if axis == 0:
        H[src, 0], H[dst, 0] = 0, 1
    else:
        H[0, src], H[0, dst] = 0, 1
    return H


@pytest.mark.parametrize("axis", [0, 1])
def test_irregular_H_is_refused_at_construction(small, axis):
    H = _move_edge(small.H, axis)
    assert np.ptp(H.sum(axis=axis)) == 0 and np.ptp(H.sum(axis=1 - axis)) == 2
    with pytest.raises(ValueError, match="regular"):
        ldpc.LdpcCode(H=H, info_positions=small.info_positions,
                      parity_positions=small.parity_positions, B=small.B,
                      seed=small.seed)


def test_construction_is_seed_deterministic():
    a = ldpc.construct_regular(k=24, n=48, seed=9)
    b = ldpc.construct_regular(k=24, n=48, seed=9)
    c = ldpc.construct_regular(k=24, n=48, seed=10)
    assert np.array_equal(a.H, b.H)
    assert not np.array_equal(a.H, c.H)


# ---------------------------------------------------------------------------
# encoding


def test_zero_info_encodes_to_zero(code):
    cw = ldpc.encode(code, np.zeros(code.k, dtype=np.uint8))
    assert not cw.any()


def test_random_codewords_satisfy_every_check(code):
    rng = np.random.default_rng(0)
    for _ in range(5):
        cw = ldpc.encode(code, rng.integers(0, 2, code.k))
        assert ldpc.check(code, cw)
        assert ldpc.syndrome_weight(code, cw) == 0


def test_encode_rejects_wrong_length(code):
    with pytest.raises(ValueError):
        ldpc.encode(code, np.zeros(code.k + 1, dtype=np.uint8))


def test_extract_info_round_trip(code):
    rng = np.random.default_rng(1)
    info = rng.integers(0, 2, code.k).astype(np.uint8)
    assert np.array_equal(ldpc.extract_info(code, ldpc.encode(code, info)), info)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["small", "odd", "default"]),
       kind=st.sampled_from(["uint8", "bool", "int64-wide", "sparse"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_encode_matches_dense_oracle(small, code, name, kind, seed):
    # "odd" has k = 30, so the packed info row ends in padding bits
    code = {"small": small, "default": code,
            "odd": ldpc.construct_regular(k=30, n=60, seed=3)}[name]
    rng = np.random.default_rng(seed)
    if kind == "uint8":
        info = rng.integers(0, 2, code.k).astype(np.uint8)
    elif kind == "bool":
        info = rng.random(code.k) < 0.5
    elif kind == "int64-wide":
        # only the low bit of each value is an info bit
        info = rng.integers(-2 ** 40, 2 ** 40, code.k, dtype=np.int64)
    else:
        info = np.zeros(code.k, dtype=np.uint8)
        info[rng.choice(code.k, size=rng.integers(1, 4), replace=False)] = 1
    bits = np.asarray(info, dtype=np.int64) & 1
    cw = ldpc.encode(code, info)
    assert cw.dtype == np.uint8
    assert np.array_equal(cw[code.info_positions], bits)
    assert np.array_equal(cw[code.parity_positions],
                          (code.B.astype(np.int64) @ bits) % 2)


def test_single_bit_flip_breaks_col_weight_checks(code):
    cw = ldpc.encode(code, np.zeros(code.k, dtype=np.uint8))
    cw[137] ^= 1
    assert ldpc.syndrome_weight(code, cw) == 3


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["small", "default"]),
       kind=st.sampled_from(["uint8", "int64", "int64-wide", "near-codeword"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_syndrome_matches_dense_oracle(small, code, name, kind, seed):
    code = small if name == "small" else code
    rng = np.random.default_rng(seed)
    if kind == "uint8":
        x = rng.integers(0, 2, code.n).astype(np.uint8)
    elif kind == "int64":
        x = rng.integers(0, 2, code.n, dtype=np.int64)
    elif kind == "int64-wide":
        # only the low bit of each value is a hard decision
        x = rng.integers(-2 ** 40, 2 ** 40, code.n, dtype=np.int64)
    else:
        x = ldpc.encode(code, rng.integers(0, 2, code.k))
        x[rng.choice(code.n, size=rng.integers(0, 4), replace=False)] ^= 1
    syn = _dense_syndrome(code, x)
    assert ldpc.syndrome_weight(code, x) == int(syn.sum())
    assert ldpc.check(code, x) == (not syn.any())


def test_syndrome_rejects_wrong_length(small):
    for n in (small.n - 1, small.n + 1):
        with pytest.raises(ValueError):
            ldpc.syndrome_weight(small, np.zeros(n, dtype=np.uint8))
        with pytest.raises(ValueError):
            ldpc.check(small, np.zeros(n, dtype=np.uint8))


# ---------------------------------------------------------------------------
# decoding


@pytest.mark.parametrize("early_stop", [True, False])
def test_decode_check_counts_match_dense_oracle(code, early_stop):
    # from far below the waterfall (most checks fail) to inside it
    rng = np.random.default_rng(6)
    seen_bad = seen_good = False
    for ebn0_db in (-2.0, 0.5, 1.0, 1.5, 2.5):
        sigma = float(np.sqrt(1.0 / (2 * code.rate * 10 ** (ebn0_db / 10))))
        cw = ldpc.encode(code, rng.integers(0, 2, code.k))
        res = ldpc.decode(code, _bpsk_llr(cw, sigma, rng), max_iter=8,
                          early_stop=early_stop)
        n_bad = int(_dense_syndrome(code, res.hard_bits).sum())
        assert res.n_unsatisfied == n_bad
        assert res.checks_satisfied == (n_bad == 0)
        seen_bad |= n_bad > 0
        seen_good |= n_bad == 0
    assert seen_bad and seen_good


def test_confident_valid_codeword_is_fixed_point(code):
    rng = np.random.default_rng(2)
    cw = ldpc.encode(code, rng.integers(0, 2, code.k))
    llr = 20.0 * (1.0 - 2.0 * cw.astype(float))
    res = ldpc.decode(code, llr, max_iter=10)
    assert np.array_equal(res.hard_bits, cw)
    assert res.checks_satisfied and res.n_unsatisfied == 0
    assert res.n_iterations == 1            # early stop on the first pass


def test_zero_llrs_stay_uninformative(small):
    res = ldpc.decode(small, np.zeros(small.n), max_iter=5, early_stop=False)
    assert np.allclose(res.extrinsic_llr, 0.0)
    assert np.allclose(res.posterior_llr, 0.0)


def test_extrinsic_excludes_own_channel_llr(small):
    # after one iteration the message into variable i is built only from the
    # other variables' channel LLRs
    rng = np.random.default_rng(3)
    base = rng.normal(0.0, 2.0, small.n)
    ref = ldpc.decode(small, base, max_iter=1, early_stop=False)
    for i in (0, 17, small.n - 1):
        bumped = base.copy()
        bumped[i] += 10.0
        out = ldpc.decode(small, bumped, max_iter=1, early_stop=False)
        assert out.extrinsic_llr[i] == pytest.approx(ref.extrinsic_llr[i],
                                                     rel=1e-12)


def test_decode_rejects_wrong_length(code):
    with pytest.raises(ValueError):
        ldpc.decode(code, np.zeros(code.n - 1))


def test_decoding_cleans_awgn_at_moderate_snr(code):
    # rate-1/2 BPSK at Eb/N0 = 2.5 dB sits safely inside the waterfall
    ebn0 = 10 ** (2.5 / 10)
    sigma = float(np.sqrt(1.0 / (2 * code.rate * ebn0)))
    rng = np.random.default_rng(4)
    for _ in range(10):
        cw = ldpc.encode(code, rng.integers(0, 2, code.k))
        res = ldpc.decode(code, _bpsk_llr(cw, sigma, rng), max_iter=50)
        assert res.checks_satisfied
        assert np.array_equal(res.hard_bits, cw)


def test_posterior_is_channel_plus_extrinsic(small):
    rng = np.random.default_rng(5)
    llr = rng.normal(0.0, 2.0, small.n)
    res = ldpc.decode(small, llr, max_iter=3, early_stop=False)
    assert np.allclose(res.posterior_llr, llr + res.extrinsic_llr,
                       rtol=1e-12, atol=1e-12)

