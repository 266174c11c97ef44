"""LDPC construction steps as they were first written, kept as references:
the column-by-column draw through ``Generator.choice`` over the open rows
with a set of row pairs, and the GF(2) reduction on unpacked rows with
explicit row swaps.  ``ldpc._try_build_H`` must return the same matrix (or
the same dead end) and leave the generator in the same state;
``ldpc._gf2_rref`` must return the same reduced form and pivots."""

import numpy as np

_COL_W, _ROW_W = 3, 6


def try_build_H(n: int, n_rows: int, rng):
    """One attempt at a regular 4-cycle-free matrix; None on dead end."""
    cap = np.full(n_rows, _ROW_W, dtype=np.int64)
    used_pairs = set()
    col_rows = np.empty((n, _COL_W), dtype=np.int64)
    for j in range(n):
        placed = False
        for _ in range(400):
            avail = np.nonzero(cap)[0]
            if avail.size < _COL_W:
                return None
            w = cap[avail].astype(float)
            pick = rng.choice(avail, size=_COL_W, replace=False, p=w / w.sum())
            pairs = [frozenset((pick[a], pick[b]))
                     for a in range(_COL_W) for b in range(a + 1, _COL_W)]
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


def gf2_rref(A: np.ndarray):
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
