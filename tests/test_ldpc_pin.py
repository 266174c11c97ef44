"""The constructed LDPC codes, pinned byte for byte.

Every coded result depends on the exact parity-check matrix that
``ldpc.construct_regular`` draws from its seed, and on the systematic
encoder derived from it.  These digests were taken from the column-by-column
construction with ``Generator.choice`` draws; a faster construction must
reproduce them unchanged.  The (800, 1600) seed-1 code is pinned twice: as
constructed, and as ``default_code()`` loads it from the shipped file.
"""

import hashlib

import numpy as np
import pytest

from uwbsim import ldpc

# (k, n, seed) -> sha256 of the H, info_positions, parity_positions and
# B_packed bytes
PINNED = {
    (800, 1600, 1): (
        "d03133084c514dd34f63375ef29690bdf77cacdec03f8b90b8058033771b0d61",
        "b0cf1a31f7363c12fdc976f272d9a4f0d145e672eae404f4a64a9b682d845122",
        "de19a5c5085e18eae5dcb39382e1d613ee51f98dfe76d690c5779cafbbcd4ebf",
        "f2a52f153e72dd2ed019b10179ff70faf4c9995993ba0c4623c395420c3d3ce1"),
    (24, 48, 3): (
        "a20f6689c2cb59e0a1ea924d5d6ac06df4702d1566bd5713ac48908fe2c7c50f",
        "38f32c509d1bd5c9d1c0654f11e67c33bd9b3505adb2f6d1c0cd38082305b6e8",
        "66b2a9b1bfe6849707b5aa43bc450089061f9fa16198b718d0543d1e29a248f4",
        "658a901309b661ec66fec244de04310aecf8577a6d5a578ed46ac9f6cf0e30c4"),
    (30, 60, 3): (
        "f10560e2c5496bc93335bb9809981a1d25708b384e34beb092d6da751fd48b58",
        "22d3797c1cd942154f20ee8630eee93074f5730fa75e3e4bed16ffdb3c8f40a4",
        "394a42f05d4ef71e6c3270cc4fb38075f42683eb24255ab033cbf89ecccf5143",
        "c8f27928b6a685a8f9f39c6d556d8bdb4565f2ad0232095fb31cb460f13c9fba"),
    (100, 200, 1): (
        "9503a68d4fda6f0ca310dff4c3f440e09e7ef7fe8e8854fac063c8fe5aa81c57",
        "1f048e4e7fa79193ff39f7d61b36781cfe0289ce03e886fa2d71af8b5b76877d",
        "457c0b3f3f527093c45b7a15e84072b7f3b97a99e505289319474b00591158b6",
        "41b1728a210194e0f72bc71859d92b4992256d6b83cf481676fef41e8f3b7607"),
}


def _assert_pinned(code, k, n, seed):
    fields = (code.H, code.info_positions, code.parity_positions,
              code.B_packed)
    assert [a.dtype for a in fields] == [np.uint8, np.int64, np.int64,
                                         np.uint8]
    assert [a.shape for a in fields] == [(n - k, n), (k,), (n - k,),
                                         (n - k, -(-k // 8))]
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in fields)
    assert digests == PINNED[(k, n, seed)]


@pytest.mark.parametrize("k,n,seed", list(PINNED))
def test_code_bytes_are_pinned(k, n, seed):
    _assert_pinned(ldpc.construct_regular(k, n, seed), k, n, seed)


def test_shipped_default_code_bytes_are_pinned():
    _assert_pinned(ldpc.default_code(), 800, 1600, 1)


def test_default_size_loads_without_constructing(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"construct_regular{args} called")

    monkeypatch.setattr(ldpc, "_default_code", {})
    monkeypatch.setattr(ldpc, "construct_regular", refuse)
    _assert_pinned(ldpc.default_code(800, 1600), 800, 1600, 1)
    # every other size is still constructed
    with pytest.raises(AssertionError, match=r"construct_regular\(24, 48, 1\)"):
        ldpc.default_code(24, 48)


def test_shipped_file_with_irregular_H_is_refused(tmp_path):
    path = tmp_path / "code.npz"
    with np.load(ldpc._SHIPPED_PATH) as f:
        arrays = dict(f)
    # column 0 repeats column 1's rows, so row weights leave 6
    arrays["col_rows"][0] = arrays["col_rows"][1]
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="regular"):
        ldpc._load_code(str(path))
