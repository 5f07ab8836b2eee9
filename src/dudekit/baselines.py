"""Synthetic sources, channel corruption, and the informed smoothing baseline.

The forward-backward denoiser here knows the true source chain and
channel, so it attains the best possible per-symbol loss on hidden
Markov data. It exists as the yardstick the universal denoisers are
measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, LossMatrix, is_singular, read_spec_json, stochastic
from .core import BINARY, Alphabet, Rebuilt, Sequence
from .errors import DataError


@dataclass(frozen=True, eq=False)
class MarkovSource(Rebuilt):
    """First-order stationary Markov chain over an alphabet.

    initial defaults to the chain's stationary distribution, which is
    uniform for symmetric transition matrices. rng_seed fixes the sample
    path, so generation is reproducible by construction.
    """

    transition: np.ndarray
    alphabet: Alphabet
    initial: np.ndarray | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.rng_seed < 0:
            raise DataError(f"rng_seed must be non-negative, got {self.rng_seed}")
        n = self.alphabet.size
        arr = stochastic(self.transition, (n, n), "transition")
        object.__setattr__(self, "transition", arr)
        init = _stationary(arr) if self.initial is None else self.initial
        object.__setattr__(self, "initial", stochastic(init, (n,), "initial distribution"))


def _stationary(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solves (P^T - I) pi = 0 with the last equation replaced by the
    normalization constraint. Chains whose stationary distribution is
    not unique (for example the identity transition) fall back to the
    uniform distribution when that is stationary, else fail.
    """
    n = transition.shape[0]
    a = transition.T - np.eye(n)
    a[-1, :] = 1.0
    if is_singular(a):
        uniform = np.full(n, 1.0 / n)
        if np.max(np.abs(uniform @ transition - uniform)) < 1e-12:
            return uniform
        raise DataError(
            "transition matrix has no unique stationary distribution; "
            "provide an initial distribution explicitly"
        )
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, rhs), 0.0, None)
    return pi / pi.sum()


def bsmc(alpha: float, rng_seed: int = 0) -> MarkovSource:
    """Binary symmetric Markov chain with switch probability alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"switch probability must be in [0, 1], got {alpha}")
    trans = np.array([[1.0 - alpha, alpha], [alpha, 1.0 - alpha]])
    return MarkovSource(trans, BINARY, rng_seed=rng_seed)


def _blocked_scan(first, identity, steps, advance, carry) -> np.ndarray:
    """States from first through steps shaped (blocks, length, ...).

    advance(x, steps[:, j]) applies step j of every block to x: one state,
    or one map from identity, per block. One pass builds the maps,
    carry(state, map) takes first to each block's start, and a second pass
    fills all blocks: 2 * length + blocks Python steps, not blocks * length.
    """
    blocks, length = steps.shape[:2]
    out = np.empty((1 + blocks * length,) + first.shape, dtype=first.dtype)
    out[0] = first
    maps = np.broadcast_to(identity, (blocks,) + identity.shape)
    for j in range(length):
        maps = advance(maps, steps[:, j])
    starts = np.empty((blocks,) + first.shape, dtype=first.dtype)
    for b in range(blocks):
        starts[b], first = first, carry(first, maps[b])
    body = out[1:].reshape((blocks, length) + out.shape[1:])
    for j in range(length):
        body[:, j] = starts = advance(starts, steps[:, j])
    return out


def generate_source(source: MarkovSource, n: int) -> Sequence:
    """Sample a length-n path from the chain, deterministic in rng_seed.

    Sampling draws one uniform per step. Binary chains flip when the
    uniform falls below the current row's switch probability; larger
    alphabets walk the row's cumulative distribution. Symmetric binary
    chains reduce to an accumulated-parity fast path with identical
    output to the stepwise rule; the other chains compose per-step tables
    of next states by a blocked scan, which is exact for integer maps.
    """
    if n < 1:
        raise DataError("cannot generate an empty sequence")
    rng = np.random.default_rng(source.rng_seed)
    size = source.alphabet.size
    first = int(np.searchsorted(np.cumsum(source.initial), rng.random(), side="right"))
    first = min(first, size - 1)
    u = rng.random(n - 1)
    if size == 2 and source.transition[0, 1] == source.transition[1, 0]:
        flips = (u < source.transition[0, 1]).astype(np.uint8)
        out = np.empty(n, dtype=np.uint8)
        out[0] = first
        np.bitwise_xor.accumulate(flips, out=out[1:])
        out[1:] ^= np.uint8(first)
        return Sequence(out, source.alphabet)
    side = math.isqrt(max(n - 2, 0)) + 1  # n - 1 steps fit in side blocks of side steps
    step = np.zeros((side * side, size), dtype=np.uint8)  # step[i, s]: state after s
    if size == 2:
        step[: n - 1, 0] = u < source.transition[0, 1]
        step[: n - 1, 1] = u >= source.transition[1, 0]
    else:
        cum = np.cumsum(source.transition, axis=1)
        for s in range(size):
            step[: n - 1, s] = np.minimum(np.searchsorted(cum[s], u, side="right"), size - 1)
    out = _blocked_scan(np.array([first], dtype=np.uint8), np.arange(size, dtype=np.uint8),
                        step.reshape(side, side, size),
                        lambda x, table: np.take_along_axis(table, x, axis=1),
                        lambda state, table: table[state])
    return Sequence(out[:n, 0], source.alphabet)


def corrupt(x: Sequence, channel: ChannelMatrix, rng_seed: int = 0) -> Sequence:
    """Pass a sequence through the memoryless channel, position by position."""
    if channel.alphabet != x.alphabet:
        raise DataError("channel alphabet does not match the sequence")
    if rng_seed < 0:
        raise DataError(f"rng_seed must be non-negative, got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    n = len(x)
    u = rng.random(n)
    cum = np.cumsum(channel.entries, axis=1)
    # z_i = first column whose cumulative mass exceeds u_i, per row x_i
    z = (cum[x.data.astype(np.int64)] <= u[:, None]).sum(axis=1)
    z = np.minimum(z, channel.size - 1)
    return Sequence(z.astype(np.uint8), x.alphabet)


def parse_source_spec(spec: str, rng_seed: int = 0) -> MarkovSource:
    """Parse a source argument: 'bsmc:<alpha>', or the path of a JSON file with keys
    "alphabet" (list of labels), "transition" (square, row-stochastic) and optionally
    "initial" (sums to 1; the stationary law when absent or null)."""
    if spec.startswith("bsmc:"):
        try:
            alpha = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DataError(f"bad bsmc spec {spec!r}") from exc
        return bsmc(alpha, rng_seed=rng_seed)
    alphabet, transition, initial = read_spec_json(spec, "source file", "transition", "initial")
    return MarkovSource(transition, alphabet, initial=initial, rng_seed=rng_seed)


@dataclass(frozen=True, eq=False)
class HMMSpec(Rebuilt):
    """A Markov source observed through a memoryless channel."""

    source: MarkovSource
    channel: ChannelMatrix

    def __post_init__(self):
        if self.source.alphabet != self.channel.alphabet:
            raise DataError("source and channel alphabets differ")


def _normalized(msg: np.ndarray) -> np.ndarray:
    """msg scaled to sum to one over its last two axes; a sum that is not
    positive and finite means some symbol has zero likelihood."""
    total = msg.sum(axis=(-2, -1), keepdims=True)
    if not np.all(np.isfinite(total) & (total > 0.0)):
        raise DataError("observation has zero likelihood under the model")
    return msg / total


def smoothing_posteriors(z: Sequence, spec: HMMSpec) -> np.ndarray:
    """P(x_i | z) for every position, by forward and backward blocked scans.

    Forward, alpha_i ∝ (alpha_{i-1} @ T) * like_i; backward, the same with
    T transposed over the reversed likelihoods gives u_i = like_i * beta_i,
    and beta_i ∝ T @ u_{i+1}. Messages and block maps (products of
    T @ diag(like_i)) are scaled to sum to one, which keeps them stable.
    """
    if z.alphabet != spec.channel.alphabet:
        raise DataError("sequence alphabet does not match the model")
    n = len(z)
    if n < 1:
        raise DataError("cannot smooth an empty sequence")
    size = spec.source.alphabet.size
    side = math.isqrt(max(n - 2, 0)) + 1  # n - 1 steps fit in side blocks of side steps
    pad = side * side - (n - 1)
    # state likelihoods per position, between pad rows of ones to fill the blocks
    like = np.ones((n + 2 * pad, size))
    like[pad : pad + n] = spec.channel.entries.T[z.data]

    def scan(first, steps, trans):  # messages through steps of trans @ diag(like)
        def advance(x, like_j):  # one matrix product for all blocks
            return _normalized((x.reshape(-1, size) @ trans).reshape(x.shape) * like_j)

        return _blocked_scan(_normalized(first[None]), np.eye(size),
                             steps.reshape(side, side, 1, size), advance,
                             lambda msg, block: _normalized(msg @ block))[:, 0]

    trans = spec.source.transition
    post = scan(spec.source.initial * like[pad], like[pad + 1 :], trans)[:n]
    u = scan(like[pad + n - 1], like[: pad + n - 1][::-1], trans.T)
    del like
    post[:-1] *= u[: n - 1][::-1] @ trans.T
    post /= post.sum(axis=1, keepdims=True)
    return post


def forward_backward_denoise(z: Sequence, spec: HMMSpec, loss: LossMatrix) -> Sequence:
    """Loss-optimal per-symbol reconstruction given the true model.

    Picks, at each position, the guess minimizing the posterior-averaged
    loss; ties resolve to the smallest symbol index.
    """
    if loss.alphabet != z.alphabet:
        raise DataError("loss alphabet does not match the sequence")
    post = smoothing_posteriors(z, spec)
    risk = post @ loss.entries  # (n, guesses)
    xhat = np.argmin(risk, axis=1).astype(np.uint8)
    return Sequence(xhat, z.alphabet)
