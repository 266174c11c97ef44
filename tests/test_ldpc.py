"""Code construction, systematic encoding, and sum-product decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwbsim import ldpc

import ldpc_reference


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
                      parity_positions=small.parity_positions,
                      B_packed=small.B_packed)


def test_construction_is_seed_deterministic():
    a = ldpc.construct_regular(k=24, n=48, seed=9)
    b = ldpc.construct_regular(k=24, n=48, seed=9)
    c = ldpc.construct_regular(k=24, n=48, seed=10)
    assert np.array_equal(a.H, b.H)
    assert not np.array_equal(a.H, c.H)


@pytest.mark.parametrize("k,n,seed", [(24, 48, 3), (24, 48, 9), (30, 60, 3),
                                      (100, 200, 1), (400, 800, 2),
                                      (800, 1600, 1)])
def test_build_matches_reference_attempt_for_attempt(k, n, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    outcomes = []
    for _ in range(2 if n > 1000 else 6):
        want = ldpc_reference.try_build_H(n, n - k, ref_rng)
        got = ldpc._try_build_H(n, n - k, rng)
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        outcomes.append(want is not None)
        assert rng.random() == ref_rng.random()
    if (k, n, seed) == (400, 800, 2):
        # the first attempt dead-ends and a later one succeeds, so both the
        # dead end and the restart after it are compared
        assert outcomes[0] is False and any(outcomes)


@st.composite
def _gf2_matrices(draw):
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = (gen.random((rows, cols)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    # rank deficiency: a repeated row and an empty column
    if draw(st.booleans()) and rows > 1:
        A[-1] = A[0]
    if draw(st.booleans()):
        A[:, gen.integers(cols)] = 0
    return A


@settings(max_examples=200, deadline=None)
@given(A=_gf2_matrices())
def test_rref_matches_reference(A):
    want, want_pivots = ldpc_reference.gf2_rref(A)
    got, got_pivots = ldpc._gf2_rref(A)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_pivots.dtype == want_pivots.dtype
    assert np.array_equal(got_pivots, want_pivots)


def test_rref_of_default_H_matches_reference(code):
    want, want_pivots = ldpc_reference.gf2_rref(code.H)
    got, got_pivots = ldpc._gf2_rref(code.H)
    assert np.array_equal(got, want) and np.array_equal(got_pivots, want_pivots)


# ---------------------------------------------------------------------------
# encoding


def test_zero_info_encodes_to_zero(code):
    cw = ldpc.encode(code, np.zeros(code.k, dtype=np.uint8))
    assert not cw.any()


def test_random_codewords_satisfy_every_check(code):
    rng = np.random.default_rng(0)
    for _ in range(5):
        cw = ldpc.encode(code, rng.integers(0, 2, code.k))
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
    B = np.unpackbits(code.B_packed, axis=1, count=code.k)
    assert np.array_equal(cw[code.parity_positions],
                          (B.astype(np.int64) @ bits) % 2)


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


def test_syndrome_rejects_wrong_length(small):
    for n in (small.n - 1, small.n + 1):
        with pytest.raises(ValueError):
            ldpc.syndrome_weight(small, np.zeros(n, dtype=np.uint8))


# ---------------------------------------------------------------------------
# decoding


def test_decode_check_counts_match_dense_oracle(code):
    # from far below the waterfall (most checks fail) to inside it
    rng = np.random.default_rng(6)
    seen_bad = seen_good = False
    for ebn0_db in (-2.0, 0.5, 1.0, 1.5, 2.5):
        sigma = float(np.sqrt(1.0 / (2 * code.rate * 10 ** (ebn0_db / 10))))
        cw = ldpc.encode(code, rng.integers(0, 2, code.k))
        res = ldpc.decode(code, _bpsk_llr(cw, sigma, rng), max_iter=8)
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
    res = ldpc.decode(small, np.zeros(small.n), max_iter=5)
    assert np.allclose(res.extrinsic_llr, 0.0)
    assert not res.hard_bits.any()


def test_extrinsic_excludes_own_channel_llr(small):
    # after one iteration the message into variable i is built only from the
    # other variables' channel LLRs
    rng = np.random.default_rng(3)
    base = rng.normal(0.0, 2.0, small.n)
    ref = ldpc.decode(small, base, max_iter=1)
    for i in (0, 17, small.n - 1):
        bumped = base.copy()
        bumped[i] += 10.0
        out = ldpc.decode(small, bumped, max_iter=1)
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
    # the hard decisions and the syndrome count read the posterior
    rng = np.random.default_rng(5)
    llr = rng.normal(0.0, 2.0, small.n)
    res = ldpc.decode(small, llr, max_iter=3)
    hard = llr + res.extrinsic_llr < 0
    assert np.array_equal(res.hard_bits, hard)
    assert res.n_unsatisfied == int(_dense_syndrome(small, hard).sum())


@pytest.mark.parametrize("max_iter", [0, -1])
def test_decode_refuses_no_iteration(small, max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        ldpc.decode(small, np.zeros(small.n), max_iter=max_iter)



# ---------------------------------------------------------------------------
# the decoder against its reduction-based form


def _reference_edges(code):
    """Edge tables of the reduction-based decoder, rebuilt from H."""
    rows, cols = np.nonzero(code.H)
    by_check = np.lexsort((cols, rows))
    by_var = np.lexsort((rows, cols))
    # var-ordering position of each check-ordered edge
    pos_in_var = np.empty(len(rows), dtype=np.int64)
    pos_in_var[by_var] = np.arange(len(rows))
    return {"check_cols": cols[by_check], "c2v_scatter": pos_in_var[by_check],
            "row_w": int(code.H.sum(axis=1)[0]),
            "col_w": int(code.H.sum(axis=0)[0])}


def _reference_decode(code, channel_llr, max_iter=10):
    """Reference: the flooding decoder written with short-axis reductions
    (per-node sums, np.cumprod prefix and suffix products); the syndrome
    is the dense oracle."""
    llr = np.clip(np.asarray(channel_llr, dtype=float), -ldpc._MSG_CLIP * 20, ldpc._MSG_CLIP * 20)
    ed = _reference_edges(code)
    n_edges = len(ed["check_cols"])
    row_w, col_w = ed["row_w"], ed["col_w"]
    n_checks = code.H.shape[0]
    c2v_var = np.zeros(n_edges)          # c2v messages in var ordering
    hard = (llr < 0).astype(np.uint8)
    n_run = 0
    for it in range(max_iter):
        # variable update: leave-one-out sums of incoming check messages
        c2v_mat = c2v_var.reshape(code.n, col_w)
        totals = llr + c2v_mat.sum(axis=1)
        v2c_var = totals[:, None] - c2v_mat
        # check update: leave-one-out tanh products per check
        v2c_check = v2c_var.reshape(-1)[ed["c2v_scatter"]].reshape(n_checks, row_w)
        t = np.tanh(np.clip(v2c_check, -ldpc._MSG_CLIP, ldpc._MSG_CLIP) / 2.0)
        pre = np.cumprod(np.concatenate([np.ones((n_checks, 1)), t[:, :-1]], axis=1), axis=1)
        suf = np.cumprod(np.concatenate([np.ones((n_checks, 1)), t[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        prod = np.clip(pre * suf, -1.0 + ldpc._PROD_EPS, 1.0 - ldpc._PROD_EPS)
        c2v_check = 2.0 * np.arctanh(prod)
        c2v_var = np.empty(n_edges)
        c2v_var[ed["c2v_scatter"]] = c2v_check.reshape(-1)
        n_run = it + 1
        totals = llr + c2v_var.reshape(code.n, col_w).sum(axis=1)
        hard = (totals < 0).astype(np.uint8)
        if not _dense_syndrome(code, hard).any():
            break
    extr = c2v_var.reshape(code.n, col_w).sum(axis=1)
    post = llr + extr
    hard = (post < 0).astype(np.uint8)
    n_bad = int(_dense_syndrome(code, hard).sum())
    return ldpc.DecodeResult(hard_bits=hard, extrinsic_llr=extr,
                             n_iterations=n_run, checks_satisfied=(n_bad == 0),
                             n_unsatisfied=n_bad)


def _same_bits(a, b):
    """Equal dtype, shape and bytes, so -0.0 and +0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["small", "default"]),
       max_iter=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.5, 3.0, 40.0]),
       edge_frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_decode_matches_reduction_reference(small, code, name, max_iter,
                                            seed, scale, edge_frac):
    code = small if name == "small" else code
    rng = np.random.default_rng(seed)
    llr = rng.normal(rng.uniform(-2.0, 2.0), scale, code.n)
    # a share of LLRs at the +-600 clip edge or past it, past the +-30
    # message clip, or exactly +-0.0
    edge = rng.random(code.n) < edge_frac
    llr[edge] = rng.choice([600.0, -600.0, 1e4, -1e4, 45.0, -45.0, 0.0, -0.0],
                           size=int(edge.sum()))
    got = ldpc.decode(code, llr, max_iter=max_iter)
    want = _reference_decode(code, llr, max_iter=max_iter)
    for field in ("hard_bits", "extrinsic_llr"):
        assert _same_bits(getattr(got, field), getattr(want, field)), field
    assert got.n_iterations == want.n_iterations
    assert got.n_unsatisfied == want.n_unsatisfied
    assert got.checks_satisfied == want.checks_satisfied
