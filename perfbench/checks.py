"""Output checks computed apart from dudekit, with numpy alone.

Nothing here imports the package under test: the sequence files are parsed
from their bytes, DUDE is rebuilt from its definition (own windows, own
inv(Pi) rho table, own argmin) and the forward-backward decisions are
recomputed on a window around each sampled position. Every check raises
CheckFailed with a message when the program's output disagrees.
"""

from __future__ import annotations

import itertools

import numpy as np

# Two rule scores closer than this (relative to their size) are a tie: the
# program may break it either way.
TIE_TOL = 1e-9
EST_TOL = 1e-12
FB_HALF_WINDOW = 64
FB_TIE_TOL = 1e-6


class CheckFailed(Exception):
    pass


def read_symbols(path: str, labels: str) -> np.ndarray:
    """Symbol indices of a sequence file: '#' header lines, then symbol text."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    body = b"".join(line.strip() for line in lines if not line.startswith(b"#"))
    lut = np.full(256, 255, dtype=np.uint8)
    for i, ch in enumerate(labels.encode("ascii")):
        lut[ch] = i
    out = lut[np.frombuffer(body, dtype=np.uint8)]
    if out.size and out.max() == 255:
        raise CheckFailed(f"{path} holds a symbol outside {labels!r}")
    return out


def mismatch_rate(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise CheckFailed(f"length {a.size} vs {b.size}")
    return np.count_nonzero(a != b) / a.size


def hamming(size: int) -> np.ndarray:
    return 1.0 - np.eye(size)


def dude(z: np.ndarray, k: int, channel: np.ndarray, loss: np.ndarray):
    """DUDE of order k from its definition.

    Returns (reconstruction, estimated loss, tie mask). Positions within k of
    an edge keep their symbol and are scored with the identity rule, as the
    program documents. The tie mask marks interior positions whose context's
    two best rules score within TIE_TOL of each other.
    """
    size = channel.shape[0]
    n = z.size
    # rules[s, a] = reconstruction of rule s for observed symbol a
    rules = np.array(list(itertools.product(range(loss.shape[1]), repeat=size)))
    # rho[x, s] = expected loss of rule s when the clean symbol is x
    rho = np.einsum("xa,xsa->xs", channel, loss[:, rules])
    est = np.linalg.inv(channel) @ rho  # est[a, s], unbiased per observed symbol
    identity = int(np.flatnonzero((rules == np.arange(size)).all(axis=1))[0])

    xhat = z.copy()
    ties = np.zeros(n, dtype=bool)
    edge = np.r_[z[:k], z[n - k :]] if k else z[:0]
    total = est[edge, identity].sum()
    if n > 2 * k:
        win = np.lib.stride_tricks.sliding_window_view(z, 2 * k + 1)
        centers = win[:, k].astype(np.int64)
        if size ** (2 * k) >= 2**63:
            raise ValueError(f"contexts of order {k} over {size} symbols do not fit an int64 key")
        key = np.zeros(win.shape[0], dtype=np.int64)
        for j in itertools.chain(range(k), range(k + 1, 2 * k + 1)):
            key = key * size + win[:, j]
        _, group = np.unique(key, return_inverse=True)
        n_groups = int(group.max()) + 1
        counts = np.bincount(group * size + centers, minlength=n_groups * size)
        scores = counts.reshape(n_groups, size).astype(np.float64) @ est
        best = np.argmin(scores, axis=1)
        two = np.partition(scores, 1, axis=1)
        tied = two[:, 1] - two[:, 0] <= TIE_TOL * np.maximum(1.0, np.abs(two[:, 0]))
        xhat[k : n - k] = rules[best[group], centers]
        ties[k : n - k] = tied[group]
        total += scores[np.arange(n_groups), best].sum()
    return xhat, total / n, ties


def check_dude(z, k, channel, loss, reported_est: float, recon: np.ndarray | None = None):
    """The reported estimated loss (and, if given, the reconstruction) at k."""
    xhat, est, ties = dude(z, k, channel, loss)
    if abs(est - reported_est) > EST_TOL:
        raise CheckFailed(f"k={k}: estimated_loss {reported_est!r}, recomputed {est!r}")
    if recon is not None:
        if recon.shape != z.shape:
            raise CheckFailed(f"k={k}: reconstruction has length {recon.size}, input {z.size}")
        bad = np.flatnonzero((recon != xhat) & ~ties)
        if bad.size:
            raise CheckFailed(
                f"k={k}: reconstruction differs at {bad.size} untied positions, first {bad[0]}"
            )


def stationary(trans: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eig(trans.T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return pi / pi.sum()


def fb_window_decisions(z, positions, trans, channel, loss, half=FB_HALF_WINDOW):
    """Forward-backward decisions at `positions` from the symbols within
    `half` of each, starting the chain from its stationary law.

    Positions beyond the sequence ends carry no observation, which is exact
    for a stationary chain. Returns (decisions, near_tie) where near_tie marks
    posteriors whose two best risks lie within FB_TIE_TOL.
    """
    n = z.size
    offsets = np.arange(-half, half + 1)
    idx = positions[:, None] + offsets[None, :]
    inside = (idx >= 0) & (idx < n)
    like = np.where(inside[:, :, None], channel.T[z[np.clip(idx, 0, n - 1)]], 1.0)
    fwd = stationary(trans) * like[:, 0]
    fwd /= fwd.sum(axis=1, keepdims=True)
    for j in range(1, half + 1):
        fwd = (fwd @ trans) * like[:, j]
        fwd /= fwd.sum(axis=1, keepdims=True)
    bwd = np.ones_like(fwd)
    for j in range(2 * half, half, -1):
        bwd = (like[:, j] * bwd) @ trans.T
        bwd /= bwd.sum(axis=1, keepdims=True)
    post = fwd * bwd
    post /= post.sum(axis=1, keepdims=True)
    risk = post @ loss
    two = np.sort(risk, axis=1)[:, :2]
    return np.argmin(risk, axis=1), two[:, 1] - two[:, 0] <= FB_TIE_TOL


def check_fb(z, fb_out, positions, trans, channel, loss):
    """The FB decisions at the sampled positions; returns how many were compared."""
    if fb_out.shape != z.shape:
        raise CheckFailed(f"FB output has length {fb_out.size}, input {z.size}")
    dec, tie = fb_window_decisions(z, positions, trans, channel, loss)
    bad = positions[(dec != fb_out[positions]) & ~tie]
    if bad.size:
        raise CheckFailed(f"FB decision differs at {bad.size} sampled positions, first {bad[0]}")
    return int((~tie).sum())


def check_true_ber(clean, recon, reported: float, what: str):
    """A report's true_ber equals the mismatch rate counted from the files."""
    rate = mismatch_rate(clean, recon)
    if abs(rate - reported) > EST_TOL:
        raise CheckFailed(f"{what}: true_ber {reported!r}, counted {rate!r}")
