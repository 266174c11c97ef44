"""Regular LDPC code construction, encoding, and sum-product decoding.

Bit convention everywhere: bit 0 maps to symbol +1 and LLR = log p(0)/p(1),
so a positive LLR favors bit 0.  Hard decisions break ties toward bit 0.

The parity-check matrix is (3,6)-regular, built column by column with a
seeded generator while refusing row pairs that would close a length-4 cycle.
Each column's rows are drawn by ``Generator.choice(replace=False, p=...)``
in proportion to the capacity each row has left.  Construction restarts
(bounded) until the matrix is also full rank, which makes the realized rate
equal the design rate K/N and gives a systematic encoder on the non-pivot
columns of the GF(2) reduced form.

The seed-1 (800, 1600) code every coded campaign uses ships beside this
module as ``default_code.npz`` (H's column rows, the pivot columns and the
packed encoder), so a process loads it instead of drawing it again.
"""

import os
from dataclasses import dataclass, field

import numpy as np

# messages clipped so tanh/atanh stay away from +-1
_MSG_CLIP = 30.0
_PROD_EPS = 1e-15
# every code is (3,6)-regular; construction gives up after this many draws
_COL_W, _ROW_W = 3, 6
_MAX_ATTEMPTS = 50
# the seed-1 (800, 1600) code, stored beside this module
_SHIPPED_PATH = os.path.join(os.path.dirname(__file__), "default_code.npz")


@dataclass(frozen=True)
class LdpcCode:
    """A binary LDPC code with a precomputed systematic encoder."""

    H: np.ndarray                 # (N-K, N) uint8 parity-check matrix
    info_positions: np.ndarray    # (K,) ascending codeword indices of info bits
    parity_positions: np.ndarray  # (N-K,) pivot columns, row-aligned with B
    # (N-K, ceil(K/8)) uint8: the rows of B (parity = B @ info mod 2)
    # packed by np.packbits, so encode's parity is a popcount per row
    B_packed: np.ndarray
    # edge tables for the flooding decoder, derived in __post_init__
    _edges: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        n_checks, n = self.H.shape
        # edges in check order (row-major), columns ascending within a check
        rows, cols = np.divmod(np.flatnonzero(self.H), n)
        # the decoder and the syndrome lay edges out by these weights,
        # which would count silently wrong on an irregular H
        row_w = np.bincount(rows, minlength=n_checks)
        col_w = np.bincount(cols, minlength=n)
        if np.ptp(row_w) or np.ptp(col_w):
            raise ValueError("H must have a regular row and column profile")
        row_w, col_w = int(row_w[0]), int(col_w[0])
        n_edges = len(rows)
        slot_in_var = np.empty(n_edges, dtype=np.int64)
        slot_in_var[np.lexsort((rows, cols))] = np.arange(n_edges) % col_w
        # flat position of each edge in the check layout (row_w, n_checks)
        # and in the variable layout (col_w, n): slot-major, so each slot
        # is one contiguous column of checks or of variables
        at_check = np.arange(n_edges) % row_w * n_checks + rows
        at_var = slot_in_var * n + cols
        for name, shape, where, value in (
                ("check_cols", (row_w, n_checks), at_check, cols),
                ("to_check", (row_w, n_checks), at_check, at_var),
                ("to_var", (col_w, n), at_var, at_check)):
            table = np.empty(n_edges, dtype=np.int64)
            table[where] = value
            self._edges[name] = table.reshape(shape)

    @property
    def n(self) -> int:
        return self.H.shape[1]

    @property
    def k(self) -> int:
        return self.H.shape[1] - self.H.shape[0]

    @property
    def rate(self) -> float:
        return self.k / self.n


@dataclass
class DecodeResult:
    hard_bits: np.ndarray       # (N,) uint8 decisions from posterior LLRs
    extrinsic_llr: np.ndarray   # (N,) check-to-variable sums only
    n_iterations: int
    checks_satisfied: bool
    n_unsatisfied: int


def _gf2_rref(A: np.ndarray):
    """Reduced row-echelon form over GF(2); returns (rref, pivot_columns)."""
    n_rows, n_cols = A.shape
    P = np.packbits(A, axis=1)  # row operations XOR 8 columns per byte
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        hits = (P[:, c >> 3] & (0x80 >> (c & 7))).nonzero()[0]
        i = hits.searchsorted(r)
        if i == hits.size:
            continue
        # make row r the pivot row, then clear column c from every other row
        if hits[i] != r:
            P[r] ^= P[hits[i]]
        P[hits[hits != r]] ^= P[r]
        pivots.append(c)
    rref = np.unpackbits(P, axis=1, count=n_cols)
    return rref, np.asarray(pivots, dtype=np.int64)


def _try_build_H(n: int, n_rows: int, rng):
    """One attempt at a regular 4-cycle-free matrix; None on dead end."""
    cap = np.full(n_rows, float(_ROW_W))
    linked = np.zeros((n_rows, n_rows), dtype=bool)  # rows a < b share a column
    col_rows = np.empty((n, _COL_W), dtype=np.int64)
    for j in range(n):
        if np.count_nonzero(cap) < _COL_W:
            return None
        # over all rows, full ones at weight 0: as the sum is exact and a zero
        # weight is never picked, this draws what a choice over open rows does
        p = cap / (_ROW_W * n_rows - _COL_W * j)
        for _ in range(400):
            a, b, c = pick = sorted(rng.choice(n_rows, _COL_W, replace=False,
                                               p=p))
            if not (linked[a, b] or linked[a, c] or linked[b, c]):
                break
        else:
            return None
        linked[a, b] = linked[a, c] = linked[b, c] = True
        for r in pick:
            cap[r] -= 1.0
        col_rows[j] = pick
    return _H_from_columns(col_rows, n_rows)


def _H_from_columns(col_rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The (n_rows, n) parity-check matrix whose column j has ones in the
    rows ``col_rows[j]``."""
    n = len(col_rows)
    H = np.zeros((n_rows, n), dtype=np.uint8)
    H[col_rows, np.arange(n)[:, None]] = 1
    return H


def construct_regular(k: int = 800, n: int = 1600, seed: int = 1) -> LdpcCode:
    """Build a seeded (3,6)-regular full-rank code without 4-cycles."""
    n_rows = n - k
    if n * _COL_W != n_rows * _ROW_W:
        raise ValueError("degree sequence is inconsistent with (k, n)")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        H = _try_build_H(n, n_rows, rng)
        if H is None:
            continue
        rref, pivots = _gf2_rref(H)
        if pivots.size != n_rows:
            continue
        free = np.delete(np.arange(n), pivots)
        return LdpcCode(H=H, info_positions=free, parity_positions=pivots,
                        B_packed=np.packbits(rref[:, free], axis=1))
    raise RuntimeError("could not construct a full-rank 4-cycle-free code")


_default_code: dict[tuple, LdpcCode] = {}


def _load_code(path: str) -> LdpcCode:
    """The seed-1 code stored in `path`, through the same checks."""
    with np.load(path) as f:
        col_rows, pivots, B_packed = (f["col_rows"], f["parity_positions"],
                                      f["B_packed"])
    n = len(col_rows)
    pivots = pivots.astype(np.int64)
    return LdpcCode(H=_H_from_columns(col_rows, len(pivots)),
                    info_positions=np.delete(np.arange(n), pivots),
                    parity_positions=pivots, B_packed=B_packed)


def default_code(k: int = 800, n: int = 1600) -> LdpcCode:
    """Cached standard code used by the experiment harness (seed 1): loaded
    from the shipped file at its size, constructed at any other."""
    key = (k, n)
    if key not in _default_code:
        _default_code[key] = (_load_code(_SHIPPED_PATH) if key == (800, 1600)
                              else construct_regular(k, n, 1))
    return _default_code[key]


def encode(code: LdpcCode, info_bits: np.ndarray) -> np.ndarray:
    """Map K info bits to an N-bit codeword with H @ c = 0 (mod 2)."""
    info = np.asarray(info_bits, dtype=np.int64) & 1
    if info.shape != (code.k,):
        raise ValueError(f"expected {code.k} info bits")
    both = code.B_packed & np.packbits(info)
    parity = np.bitwise_count(both).sum(axis=1) & 1
    c = np.zeros(code.n, dtype=np.uint8)
    c[code.info_positions] = info
    c[code.parity_positions] = parity
    return c


def extract_info(code: LdpcCode, codeword_bits: np.ndarray) -> np.ndarray:
    """Info bits of one codeword (N,) or of a stack of them (..., N)."""
    return np.asarray(codeword_bits)[..., code.info_positions]


def syndrome_weight(code: LdpcCode, hard_bits: np.ndarray) -> int:
    """Number of unsatisfied checks: XOR each check's row_w edge bits."""
    bits = np.asarray(hard_bits, dtype=np.int64) & 1
    if bits.shape != (code.n,):
        raise ValueError(f"expected {code.n} bits")
    parity = np.bitwise_xor.reduce(bits[code._edges["check_cols"]], axis=0)
    return int(np.count_nonzero(parity))


def decode(code: LdpcCode, channel_llr: np.ndarray,
           max_iter: int = 10) -> DecodeResult:
    """Flooding sum-product decoding in the LLR domain; stops after the
    first iteration whose posterior hard decisions satisfy every check.

    Messages live slot-major, (col_w, n) at the variables and (row_w,
    n_checks) at the checks, so every sum and product over a node's edges
    is a few whole-column operations, taken left to right in edge order.
    """
    llr = np.clip(np.asarray(channel_llr, dtype=float), -_MSG_CLIP * 20, _MSG_CLIP * 20)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} channel LLRs")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    to_check, to_var = code._edges["to_check"], code._edges["to_var"]
    c2v = np.zeros(to_var.shape)
    # leave-one-out products: pre[r] = t[0]...t[r-1], suf[r] = t[r+1]...
    pre = np.empty(to_check.shape)
    suf = np.empty(to_check.shape)
    pre[0] = suf[-1] = 1.0
    extr = np.zeros(code.n)
    post = llr + extr
    for n_run in range(1, max_iter + 1):
        # variable update: leave-one-out sums of incoming check messages
        v2c = post - c2v
        # check update: leave-one-out tanh products per check
        t = v2c.reshape(-1)[to_check]
        np.clip(t, -_MSG_CLIP, _MSG_CLIP, out=t)
        np.divide(t, 2.0, out=t)
        np.tanh(t, out=t)
        for r in range(1, len(t)):
            np.multiply(pre[r - 1], t[r - 1], out=pre[r])
            np.multiply(suf[-r], t[-r], out=suf[-r - 1])
        np.multiply(pre, suf, out=t)
        np.clip(t, -1.0 + _PROD_EPS, 1.0 - _PROD_EPS, out=t)
        np.arctanh(t, out=t)
        np.multiply(t, 2.0, out=t)
        c2v = t.reshape(-1)[to_var]
        # each sum starts from +0.0, as np.sum does, so -0.0 terms sum to +0.0
        np.add(c2v[0], 0.0, out=extr)
        for row in c2v[1:]:
            np.add(extr, row, out=extr)
        np.add(llr, extr, out=post)
        n_bad = syndrome_weight(code, post < 0)
        if n_bad == 0:
            break
    return DecodeResult(hard_bits=(post < 0).astype(np.uint8),
                        extrinsic_llr=extr, n_iterations=n_run,
                        checks_satisfied=(n_bad == 0), n_unsatisfied=n_bad)
