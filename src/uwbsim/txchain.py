"""Transmit-side bit and symbol plumbing.

Differential encoding maps data symbols a_1..a_N in {+1,-1} onto transmitted
symbols d_0..d_N via d_i = d_{i-1} * a_i with d_0 = +1, so the product
d_i * d_{i-m} recovers the running product a_{i-m+1} * ... * a_i without any
channel knowledge.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class InterleaverMap:
    """Permutation between code order and channel order.

    interleave(x)[j] = x[perm[j]], deinterleave inverts it.
    """

    perm: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=int)
        n = len(self.perm)
        if sorted(self.perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        inv = np.empty(n, dtype=int)
        inv[self.perm] = np.arange(n)
        self.inverse = inv

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "InterleaverMap":
        return cls(rng.permutation(n))


def interleave(x: np.ndarray, imap: InterleaverMap) -> np.ndarray:
    x = np.asarray(x)
    if x.shape[0] != len(imap.perm):
        raise ValueError("length mismatch with interleaver")
    return x[imap.perm]


def deinterleave(x: np.ndarray, imap: InterleaverMap) -> np.ndarray:
    x = np.asarray(x)
    if x.shape[0] != len(imap.perm):
        raise ValueError("length mismatch with interleaver")
    return x[imap.inverse]


def bits_to_symbols(bits: np.ndarray) -> np.ndarray:
    """Map bits to antipodal symbols, 0 -> +1 and 1 -> -1."""
    bits = np.asarray(bits, dtype=int)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    return 1 - 2 * bits


def differential_modulate(symbols: np.ndarray) -> np.ndarray:
    """Return d_0..d_N for data symbols a_1..a_N, with d_0 = +1."""
    symbols = np.asarray(symbols, dtype=int)
    if symbols.ndim != 1 or np.any(np.abs(symbols) != 1):
        raise ValueError("symbols must be a 1-d array of +-1")
    d = np.empty(len(symbols) + 1, dtype=int)
    d[0] = 1
    np.cumprod(symbols, out=d[1:])
    return d
