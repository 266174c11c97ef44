"""Binary symbol beliefs.

A belief over n antipodal symbols is an (n, 2) float array; column 0 carries
p(a = +1) and column 1 carries p(a = -1).  The same layout doubles as a belief
over bits with the fixed mapping bit 0 <-> +1, bit 1 <-> -1.  All producers
return rows normalized to sum 1 and strictly positive.
"""

import numpy as np

# cap on |log(p+/p-)|; exp(-LLR_CLIP) is still a normal float, so clipped
# beliefs stay strictly positive without changing any decision
LLR_CLIP = 600.0


def uniform(n: int) -> np.ndarray:
    return np.full((n, 2), 0.5)


def normalize(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    s = b.sum(axis=1, keepdims=True)
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ValueError("belief rows must have positive finite mass")
    return b / s


def from_log(logp: np.ndarray) -> np.ndarray:
    """Normalize unnormalized log weights (..., 2) into strictly positive beliefs."""
    logp = np.asarray(logp, dtype=float)
    shifted = logp - logp.max(axis=-1, keepdims=True)
    shifted = np.maximum(shifted, -LLR_CLIP)
    p = np.exp(shifted)
    return p / p.sum(axis=-1, keepdims=True)


def to_llr(b: np.ndarray) -> np.ndarray:
    """Per-row log(p+ / p-), clipped to +-LLR_CLIP."""
    b = np.asarray(b, dtype=float)
    tiny = np.finfo(float).tiny
    llr = np.log(np.maximum(b[:, 0], tiny)) - np.log(np.maximum(b[:, 1], tiny))
    return np.clip(llr, -LLR_CLIP, LLR_CLIP)


def from_llr(llr: np.ndarray) -> np.ndarray:
    llr = np.clip(np.asarray(llr, dtype=float), -LLR_CLIP, LLR_CLIP)
    p_plus = 1.0 / (1.0 + np.exp(-llr))
    return np.stack([p_plus, 1.0 - p_plus], axis=1)


def hard(b: np.ndarray) -> np.ndarray:
    """Symbol decisions in {+1, -1}; ties resolve to +1."""
    b = np.asarray(b)
    return np.where(b[..., 0] >= b[..., 1], 1, -1).astype(int)


def hard_bits(b: np.ndarray) -> np.ndarray:
    """Bit decisions in {0, 1} under the fixed 0 <-> +1 mapping."""
    return ((1 - hard(b)) // 2).astype(int)
