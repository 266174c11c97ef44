"""Differential detectors operating on correlation samples.

The data symbols form a Markov chain in the sliding state
S_i = (a_i, ..., a_{i-M+1}); sample Y_{i,m} observes the product of the m
newest entries of S_i times the signal amplitude.  Detection runs one
log-domain forward/backward sweep over the 2^M states for a stack of packets.
The merge output gamma deliberately excludes the symbol's own prior, so it is
the extrinsic message an outer decoder can consume; APP = prior * gamma.

The block detector treats U = N/M blocks independently, enumerating the 2^M
hypotheses of a block explicitly; its soft output lambda likewise excludes the
symbol's own prior.  The plain DD baseline just takes the sign of the
adjacent-symbol correlation.

The squared residual in the likelihood is divided by sigma^2, not the
conventional 2 sigma^2.  A constant factor would cancel from the detector's
own posteriors, but it sets the sharpness of the soft outputs handed to a
decoder, so every result depends on this fixed scale.
"""

import functools
import math

import numpy as np

from . import beliefs
from .acr import BlockCorrSamples, CorrSamples, pad_mask_for

# hypothesis enumeration cost is 2^M; refuse absurd windows by default
MAX_WINDOW = 10

_TINY = np.finfo(float).tiny


def log_evidence_matrix(samples: CorrSamples, amplitude: float,
                        sigma_sq: float) -> np.ndarray:
    """log p(Y_i | S_i) for every step and state, shape (N, 2^M).

    The squared residual is expanded so the state axis only enters through
    one (N,M)x(M,2^M) product; signs are +-1 so the quadratic term reduces to
    the per-row count of live samples.
    """
    Y = samples.values
    _check_inputs(Y, amplitude, sigma_sq)
    keep = _keep_mask(*Y.shape)
    kY = Y * keep
    const = np.sum(kY * Y, axis=1) + amplitude ** 2 * keep.sum(axis=1)
    cross = kY @ _state_signs(samples.window).T
    se = const[:, None] - 2.0 * amplitude * cross
    return _finite_evidence(-se / sigma_sq)


def _check_inputs(values: np.ndarray, amplitude: float,
                  sigma_sq: float) -> None:
    if not np.isfinite(values).all():
        raise ValueError("samples must be finite")
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not (math.isfinite(sigma_sq) and sigma_sq > 0):
        raise ValueError("sigma_sq must be finite and positive")


def _finite_evidence(log_ev: np.ndarray) -> np.ndarray:
    """log_ev; finite statistics can overflow it, and -inf rows give NaN."""
    if not np.isfinite(log_ev).all():
        raise ValueError("log evidence overflows: statistics out of range")
    return log_ev


@functools.lru_cache(maxsize=64)
def _keep_mask(N: int, M: int) -> np.ndarray:
    """1.0 at live samples, 0.0 at padding; read-only, shared per shape."""
    keep = (~pad_mask_for(N, M)).astype(float)
    keep.flags.writeable = False
    return keep


def _log_priors(priors, n: int) -> np.ndarray:
    if priors is None:
        return np.full((n, 2), np.log(0.5))
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (n, 2):
        raise ValueError("priors must have shape (N, 2)")
    if not np.isfinite(priors).all():
        raise ValueError("priors must be finite")
    return np.log(np.maximum(priors, _TINY))


# stacked sweep arrays hold at most this many (step, sequence, state)
# elements, about 4 MB each; callers size their batches by it.  msdd_app
# holds about three such arrays plus one merge block: the evidence, and the
# sweep's shared buffer of alpha and beta, beta padded to 2^M states
BATCH_ELEMENTS = 1 << 19
# the merge runs over blocks of steps of about this many elements (256 KB),
# so its working set stays in cache
MERGE_ELEMENTS = 1 << 15


@functools.cache
def _compiled_sweep():
    """_sweep.c's sweep loaded through ctypes, or None without it.

    Built the first time a sweep runs, never at import, with the system C
    compiler into a temporary directory.  Any failure (no compiler, a
    failed or slow compile, a library that does not load) gives None, and
    _sweep runs the numpy loop instead.
    """
    import ctypes
    import pathlib
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return None
    src = pathlib.Path(__file__).with_name("_sweep.c")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            lib = pathlib.Path(tmp, "_sweep.so")
            subprocess.run([cc, "-O2", "-fno-tree-vectorize",
                            "-ffp-contract=off", "-shared", "-fPIC",
                            str(src), "-o", str(lib), "-lm"],
                           check=True, capture_output=True, timeout=60)
            fn = ctypes.CDLL(str(lib)).sweep
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 3
    fn.restype = None
    return fn


def _sweep(logE: np.ndarray, logp: np.ndarray):
    """Forward/backward sweep over B independent sequences at once.

    logE is (N, B, 2^M) log evidence and logp (N, B, 2) log priors, time
    major.  Returns max-normalized log alpha, (N+1, B, 2^M), whose row 0 is
    the all-+1 point mass, and log beta, (N+1, B, 2^(M-1)), whose row N is
    uniform.  State s is reached from s >> 1 and s >> 1 + 2^(M-1) by
    shifting in bit s & 1, so both recursions run on contiguous halves and
    even/odd slices of a row.  beta(S_i) depends only on the M-1 newest
    symbols, the ones later samples still see, so state s reads column
    s mod 2^(M-1).

    One loop advances alpha_i -> alpha_{i+1} and beta_{N-i} -> beta_{N-i-1}
    together in a shared (N+1, 2, B, 2^M) buffer R: R[i, 0] is alpha_i and
    R[i, 1] holds beta_{N-i} in its first 2^(M-1) columns, the rest pinned
    at -inf.  So one max and one subtract over R[i+1] normalize both rows,
    and exactly: a -inf entry never raises a row max, and -inf minus the
    finite max stays -inf.  alpha and beta come back as views of R.

    The loop runs in one of two ways, and both fill R with the same bits.
    The compiled kernel (_sweep.c) makes the numpy loop's float operations
    in its order, packet by packet, and runs whenever it loaded.  The numpy
    loop makes 8 ufunc calls per step whatever B is, a fixed cost of about
    1 us per call; it is the reference the kernel is tested against, and
    the path on a host without a C compiler.
    """
    N, B, S = logE.shape
    if logp.shape != (N, B, 2):
        raise ValueError("log priors must have shape (N, B, 2)")
    half = S >> 1
    R = np.empty((N + 1, 2, B, S))
    R[0, 0] = -np.inf
    R[0, 0, :, 0] = 0.0
    R[0, 1, :, :half] = 0.0
    R[:, 1, :, half:] = -np.inf
    kernel = _compiled_sweep()
    if kernel is not None:
        E = np.ascontiguousarray(logE, dtype=float)
        P = np.ascontiguousarray(logp, dtype=float)
        kernel(E.ctypes.data, P.ctypes.data, R.ctypes.data, N, B, S)
        return R[:, 0], R[::-1, 1, :, :half]
    t = np.empty((B, half))
    t3 = t[:, :, None]
    # the backward step's sum, as (B, 2, half) by source and as
    # (B, half, 2) pairs of states that differ only in the newest bit
    nxt = np.empty((B, 2, half))
    pairs = nxt.reshape(B, half, 2)
    even, odd = pairs[:, :, 0], pairs[:, :, 1]
    mx = np.empty((2, B, 1))
    mx2 = mx[:, :, 0]
    for lo, hi, cur, cur3, e, lp, nb, beta, eb, lpb, row in zip(
            R[:-1, 0, :, :half], R[:-1, 0, :, half:], R[1:, 0],
            R[1:, 0].reshape(N, B, half, 2), logE, logp[:, :, None, :],
            R[:-1, 1, :, None, :half], R[1:, 1, :, :half],
            logE.reshape(N, B, 2, half)[::-1], logp[::-1, :, None, :],
            R[1:]):
        np.logaddexp(lo, hi, out=t)
        np.add(t3, lp, out=cur3)
        np.add(cur, e, out=cur)
        np.add(nb, eb, out=nxt)
        np.add(pairs, lpb, out=pairs)
        np.logaddexp(even, odd, out=beta)
        np.maximum.reduce(row, axis=2, out=mx2)
        np.subtract(row, mx, out=row)
    return R[:, 0], R[::-1, 1, :, :half]


def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis; overwrites x."""
    m = x.max(axis=-1)
    with np.errstate(invalid="ignore"):
        np.subtract(x, m[..., None], out=x)
        out = m + np.log(np.sum(np.exp(x, out=x), axis=-1))
    return np.where(np.isfinite(m), out, -np.inf)


def _merge_log(la: np.ndarray, lb: np.ndarray, logE: np.ndarray) -> np.ndarray:
    """Unnormalized log gamma (N, B, 2): prior of a_i intentionally left out.

    Shifting bit b into state s lands on 2*(s mod 2^(M-1)) + b, so the
    destination term for every source state is a broadcast of the even
    (b = 0) or odd (b = 1) half of the destination row.  A contiguous logE
    is overwritten with that destination term.

    The merge runs in one of two ways, with the same bits.  At M=2 each bit
    has four terms, built as (N, B, 2) arrays over b from columns of la and
    logE: about 20 ufunc calls for the whole stack, each over N*B*2
    elements.  Their max is exact in any order, and their exps are summed
    ((x0 + x1) + x2) + x3, the order of np.sum over a row of four.  For
    larger M the term rows grow as 2^M, so the cost per element dominates:
    the steps run in blocks of about MERGE_ELEMENTS through one reused
    buffer, and each row sees the same operations as in a merge of all N
    steps at once.
    """
    N, B, S = logE.shape
    # indexed by destination state, rows i = 1..N
    post = logE.reshape(N, B, 2, S >> 1)
    beta = lb[1:, :, None, :]
    if S == 4:
        np.add(post, beta, out=post)
        lo, hi = logE[:, :, :2], logE[:, :, 2:]
        a = la[:-1]
        x0, x1 = a[:, :, 0, None] + lo, a[:, :, 1, None] + hi
        x2, x3 = a[:, :, 2, None] + lo, a[:, :, 3, None] + hi
        m = np.maximum(np.maximum(np.maximum(x0, x1), x2), x3)
        with np.errstate(invalid="ignore"):
            for t in (x0, x1, x2, x3):
                np.exp(np.subtract(t, m, out=t), out=t)
            out = m + np.log(x0 + x1 + x2 + x3)
        return np.where(np.isfinite(m), out, -np.inf)
    prev = la[:-1].reshape(N, B, 2, S >> 1)   # source states, rows i-1
    step = min(N, max(1, MERGE_ELEMENTS // (B * S)))
    buf = np.empty((step, B, 2, S >> 1))
    lg = np.empty((N, B, 2))
    for i in range(0, N, step):
        rows = slice(i, i + step)
        p = post[rows]
        np.add(p, beta[rows], out=p)
        p = p.reshape(-1, B, S)
        term = buf[:len(p)]
        for b in (0, 1):
            np.add(prev[rows], p[:, :, None, b::2], out=term)
            lg[rows, :, b] = _row_logsumexp(term.reshape(-1, B, S))
    return lg


def msdd_app(samples, M: int, amplitude, sigma_sq,
             priors=None) -> tuple[np.ndarray, np.ndarray]:
    """Sliding-window detection of a stack of packets; returns (app, gamma).

    samples is a sequence of B equal-length CorrSamples; amplitude and
    sigma_sq give each packet's detector statistics (scalars broadcast),
    and priors is None (uniform) or one (N, 2) belief per packet.  app and
    gamma are (B, N, 2).  One sweep serves the whole stack, so callers keep
    B * N * 2^M within BATCH_ELEMENTS.
    """
    B = len(samples)
    if B == 0:
        raise ValueError("need at least one packet")
    if any(s.window != M for s in samples):
        raise ValueError("sample window does not match M")
    N = samples[0].n_symbols
    if any(s.n_symbols != N for s in samples):
        raise ValueError("packets differ in length")
    if any(np.shape(x) not in ((), (B,)) for x in (amplitude, sigma_sq)):
        raise ValueError("amplitude and sigma_sq need one value per packet")
    amplitude = np.broadcast_to(amplitude, B)
    sigma_sq = np.broadcast_to(sigma_sq, B)
    logE = np.empty((N, B, 1 << M))
    for j, (s, a, v) in enumerate(zip(samples, amplitude, sigma_sq)):
        logE[:, j] = log_evidence_matrix(s, a, v)
    if priors is None:
        priors = [None] * B
    elif len(priors) != B:
        raise ValueError("need one prior belief per packet")
    logp = np.stack([_log_priors(p, N) for p in priors], axis=1)
    lg = _merge_log(*_sweep(logE, logp), logE)
    gamma = beliefs.from_log(lg)
    app = beliefs.from_log(np.add(lg, logp, out=lg))
    return app.transpose(1, 0, 2), gamma.transpose(1, 0, 2)


def detect_mmsdd(samples, M: int, amplitude, sigma_sq) -> np.ndarray:
    """Hard sliding-window decisions under uniform priors, (B, N), for a
    stack of packets as msdd_app takes them."""
    app, _ = msdd_app(samples, M, amplitude, sigma_sq)
    return beliefs.hard(app)


def detect_dd(samples: CorrSamples) -> np.ndarray:
    """Conventional differential detection: sign of Y_{i,1}, ties to +1."""
    return np.where(samples.values[:, 0] >= 0.0, 1, -1).astype(int)


@functools.cache
def _state_signs(M: int) -> np.ndarray:
    """(2^M, M) table: row s, column m-1 is the product of the m newest
    symbols of sliding state s.

    Bit k of s set means a_{i-k} = -1, so state 0 is the all-+1 state and
    shifting symbol bit b into state s gives (2s + b) mod 2^M.
    """
    if not (1 <= M <= MAX_WINDOW):
        raise ValueError(f"window size must be in 1..{MAX_WINDOW}")
    bits = (np.arange(1 << M)[:, None] >> np.arange(M)[None, :]) & 1
    return np.cumprod(1 - 2 * bits, axis=1).astype(float)


@functools.cache
def _block_tables(M: int):
    """(bits, signs3, valid): per-hypothesis bit patterns and sample signs.

    bits[h, t] encodes local symbol x_{t+1} (0 means +1), the bit layout of
    sliding state h, so row h of _state_signs(M) holds the running products
    x_1..x_{t+1}.  signs3[h, r, c] is the noiseless sign of the block sample
    correlating windows r+1 and c under hypothesis h, i.e. the product
    x_{c+1}..x_{r+1}.
    """
    signs = _state_signs(M)
    bits = (np.arange(1 << M)[:, None] >> np.arange(M)[None, :]) & 1
    C = np.concatenate([np.ones((1 << M, 1)), signs], axis=1)
    valid = np.tril(np.ones((M, M), dtype=bool))
    signs3 = C[:, 1:, None] * C[:, None, :-1] * valid[None, :, :]
    return bits, signs3, valid


def _block_loglik(blocks: BlockCorrSamples, amplitude: float,
                  sigma_sq: float) -> np.ndarray:
    """log p(block u | hypothesis h), shape (U, 2^M)."""
    _check_inputs(blocks.values, amplitude, sigma_sq)
    M = blocks.block_size
    _, signs3, valid = _block_tables(M)
    resid = blocks.values[:, None, :, :] - amplitude * signs3[None, :, :, :]
    se = np.einsum("uhrc,rc->uh", resid ** 2, valid.astype(float))
    return _finite_evidence(-se / sigma_sq)


def bmsdd_extrinsic(blocks: BlockCorrSamples, priors, amplitude: float,
                    sigma_sq: float) -> np.ndarray:
    """Per-symbol extrinsic lambda from independent block enumeration."""
    M = blocks.block_size
    U = blocks.n_blocks
    N = U * M
    bits, _, _ = _block_tables(M)
    ll = _block_loglik(blocks, amplitude, sigma_sq)
    logp = _log_priors(priors, N).reshape(U, M, 2)
    # per-hypothesis prior mass of the whole block, then remove own symbol
    lp_h = logp[:, np.arange(M)[None, :], bits[:, :]].sum(axis=2)
    lg = np.empty((U, M, 2))
    for t in range(M):
        term = ll + lp_h - logp[:, t, :][:, bits[:, t]]
        for b in (0, 1):
            lg[:, t, b] = _row_logsumexp(term[:, bits[:, t] == b])
    return beliefs.from_log(lg.reshape(N, 2))


def bmsdd_detect(blocks: BlockCorrSamples) -> np.ndarray:
    """Hard block decisions: per-block max-likelihood hypothesis.

    The quadratic expands so the argmax only needs the sign-weighted sample
    sum; amplitude and noise level drop out.
    """
    bits, signs3, _ = _block_tables(blocks.block_size)
    score = np.einsum("urc,hrc->uh", blocks.values, signs3)
    best = np.argmax(score, axis=1)
    return (1 - 2 * bits[best]).reshape(-1).astype(int)
