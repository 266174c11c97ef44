"""Regular LDPC code construction, encoding, and sum-product decoding.

Bit convention everywhere: bit 0 maps to symbol +1 and LLR = log p(0)/p(1),
so a positive LLR favors bit 0.  Hard decisions break ties toward bit 0.

The parity-check matrix is (3,6)-regular, built column by column with a
seeded generator while refusing row pairs that would close a length-4 cycle.
Construction restarts (bounded) until the matrix is also full rank, which
makes the realized rate equal the design rate K/N and gives a systematic
encoder on the non-pivot columns of the GF(2) reduced form.
"""

from dataclasses import dataclass, field

import numpy as np

# messages clipped so tanh/atanh stay away from +-1
_MSG_CLIP = 30.0
_PROD_EPS = 1e-15


@dataclass(frozen=True)
class LdpcCode:
    """A binary LDPC code with a precomputed systematic encoder."""

    H: np.ndarray                 # (N-K, N) uint8 parity-check matrix
    info_positions: np.ndarray    # (K,) ascending codeword indices of info bits
    parity_positions: np.ndarray  # (N-K,) pivot columns, row-aligned with B
    B: np.ndarray                 # (N-K, K) uint8: parity = B @ info mod 2
    seed: int
    # edge tables for the flooding decoder, derived in __post_init__
    _edges: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        rows, cols = np.nonzero(self.H)
        by_check = np.lexsort((cols, rows))
        by_var = np.lexsort((rows, cols))
        # var-ordering position of each check-ordered edge
        pos_in_var = np.empty(len(rows), dtype=np.int64)
        pos_in_var[by_var] = np.arange(len(rows))
        # the decoder and the syndrome reshape the edge lists by these
        # weights, which would count silently wrong on an irregular H
        row_w, col_w = self.H.sum(axis=1), self.H.sum(axis=0)
        if np.ptp(row_w) or np.ptp(col_w):
            raise ValueError("H must have a regular row and column profile")
        self._edges["check_cols"] = cols[by_check]
        self._edges["c2v_scatter"] = pos_in_var[by_check]
        self._edges["row_w"] = int(row_w[0])
        self._edges["col_w"] = int(col_w[0])
        # B's rows as bytes, so encode's parity is a popcount per row
        self._edges["B_packed"] = np.packbits(self.B, axis=1)

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
    posterior_llr: np.ndarray   # (N,) channel + extrinsic
    extrinsic_llr: np.ndarray   # (N,) check-to-variable sums only
    n_iterations: int
    checks_satisfied: bool
    n_unsatisfied: int


def _gf2_rref(A: np.ndarray):
    """Reduced row-echelon form over GF(2); returns (rref, pivot_columns)."""
    A = A.astype(np.uint8).copy()
    n_rows, n_cols = A.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            A[[r, p]] = A[[p, r]]
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        if others.size:
            A[others] ^= A[r]
        pivots.append(c)
        r += 1
    return A, np.asarray(pivots, dtype=np.int64)


def _try_build_H(n: int, n_rows: int, col_w: int, row_w: int, rng):
    """One attempt at a regular 4-cycle-free matrix; None on dead end."""
    cap = np.full(n_rows, row_w, dtype=np.int64)
    used_pairs = set()
    col_rows = np.empty((n, col_w), dtype=np.int64)
    for j in range(n):
        placed = False
        for _ in range(400):
            avail = np.nonzero(cap)[0]
            if avail.size < col_w:
                return None
            w = cap[avail].astype(float)
            pick = rng.choice(avail, size=col_w, replace=False, p=w / w.sum())
            pairs = [frozenset(p) for p in
                     [(pick[0], pick[1]), (pick[0], pick[2]), (pick[1], pick[2])]] \
                if col_w == 3 else \
                    [frozenset((pick[a], pick[b]))
                     for a in range(col_w) for b in range(a + 1, col_w)]
            if any(p in used_pairs for p in pairs):
                continue
            used_pairs.update(pairs)
            cap[pick] -= 1
            col_rows[j] = np.sort(pick)
            placed = True
            break
        if not placed:
            return None
    H = np.zeros((n_rows, n), dtype=np.uint8)
    for j in range(n):
        H[col_rows[j], j] = 1
    return H


def construct_regular(k: int = 800, n: int = 1600, seed: int = 1,
                      col_w: int = 3, row_w: int = 6,
                      max_attempts: int = 50) -> LdpcCode:
    """Build a seeded (col_w,row_w)-regular full-rank code without 4-cycles."""
    n_rows = n - k
    if n * col_w != n_rows * row_w:
        raise ValueError("degree sequence is inconsistent with (k, n)")
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        H = _try_build_H(n, n_rows, col_w, row_w, rng)
        if H is None:
            continue
        rref, pivots = _gf2_rref(H)
        if pivots.size != n_rows:
            continue
        free = np.setdiff1d(np.arange(n), pivots)
        B = rref[:, free].astype(np.uint8)
        return LdpcCode(H=H, info_positions=free, parity_positions=pivots,
                        B=B, seed=seed)
    raise RuntimeError("could not construct a full-rank 4-cycle-free code")


_default_code: dict[tuple, LdpcCode] = {}


def default_code(k: int = 800, n: int = 1600, seed: int = 1) -> LdpcCode:
    """Cached standard code used by the experiment harness."""
    key = (k, n, seed)
    if key not in _default_code:
        _default_code[key] = construct_regular(k, n, seed)
    return _default_code[key]


def encode(code: LdpcCode, info_bits: np.ndarray) -> np.ndarray:
    """Map K info bits to an N-bit codeword with H @ c = 0 (mod 2)."""
    info = np.asarray(info_bits, dtype=np.int64) & 1
    if info.shape != (code.k,):
        raise ValueError(f"expected {code.k} info bits")
    both = code._edges["B_packed"] & np.packbits(info)
    parity = np.bitwise_count(both).sum(axis=1) & 1
    c = np.zeros(code.n, dtype=np.uint8)
    c[code.info_positions] = info
    c[code.parity_positions] = parity
    return c


def extract_info(code: LdpcCode, codeword_bits: np.ndarray) -> np.ndarray:
    return np.asarray(codeword_bits)[code.info_positions]


def check(code: LdpcCode, codeword_bits: np.ndarray) -> bool:
    return syndrome_weight(code, codeword_bits) == 0


def syndrome_weight(code: LdpcCode, hard_bits: np.ndarray) -> int:
    """Number of unsatisfied checks: XOR each check's row_w edge bits."""
    bits = np.asarray(hard_bits, dtype=np.int64) & 1
    if bits.shape != (code.n,):
        raise ValueError(f"expected {code.n} bits")
    per_check = bits[code._edges["check_cols"]].reshape(-1, code._edges["row_w"])
    return int(np.count_nonzero(np.bitwise_xor.reduce(per_check, axis=1)))


def decode(code: LdpcCode, channel_llr: np.ndarray, max_iter: int = 10,
           early_stop: bool = True) -> DecodeResult:
    """Flooding sum-product decoding in the LLR domain."""
    llr = np.clip(np.asarray(channel_llr, dtype=float), -_MSG_CLIP * 20, _MSG_CLIP * 20)
    if llr.shape != (code.n,):
        raise ValueError(f"expected {code.n} channel LLRs")
    ed = code._edges
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
        t = np.tanh(np.clip(v2c_check, -_MSG_CLIP, _MSG_CLIP) / 2.0)
        pre = np.cumprod(np.concatenate([np.ones((n_checks, 1)), t[:, :-1]], axis=1), axis=1)
        suf = np.cumprod(np.concatenate([np.ones((n_checks, 1)), t[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        prod = np.clip(pre * suf, -1.0 + _PROD_EPS, 1.0 - _PROD_EPS)
        c2v_check = 2.0 * np.arctanh(prod)
        c2v_var = np.empty(n_edges)
        c2v_var[ed["c2v_scatter"]] = c2v_check.reshape(-1)
        n_run = it + 1
        totals = llr + c2v_var.reshape(code.n, col_w).sum(axis=1)
        hard = (totals < 0).astype(np.uint8)
        if early_stop and syndrome_weight(code, hard) == 0:
            break
    extr = c2v_var.reshape(code.n, col_w).sum(axis=1)
    post = llr + extr
    hard = (post < 0).astype(np.uint8)
    n_bad = syndrome_weight(code, hard)
    return DecodeResult(hard_bits=hard, posterior_llr=post, extrinsic_llr=extr,
                        n_iterations=n_run, checks_satisfied=(n_bad == 0),
                        n_unsatisfied=n_bad)
