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


def _blocked_scan(first, identity, steps, advance, carry):
    """Yield the states after step j = 0, 1, ... of side blocks of side steps.

    Blocks lie on the last axis: advance(x, steps[j]) applies step j of every
    block to its state or map (from identity). One pass builds the maps,
    carry(state, map) takes first to each block's start, and a second pass
    fills all blocks: 3 * side Python steps over side numbers each.
    """
    maps = identity[..., None]  # the first step broadcasts it to every block
    for step in steps:
        maps = advance(maps, step)
    maps = np.ascontiguousarray(np.moveaxis(maps, -1, 0))  # one contiguous map per block
    starts = np.empty((len(maps),) + first.shape, dtype=first.dtype)
    for b in range(len(maps)):
        starts[b], first = first, carry(first, maps[b])
    states = np.ascontiguousarray(np.moveaxis(starts, 0, -1))
    for step in steps:
        states = advance(states, step)
        yield states


def generate_source(source: MarkovSource, n: int) -> Sequence:
    """Sample a length-n path from the chain, deterministic in rng_seed.

    Sampling draws one uniform per step. Binary chains flip when the
    uniform falls below the current row's switch probability; larger
    alphabets walk the row's cumulative distribution. Symmetric binary
    chains reduce to an accumulated-parity fast path with identical
    output to the stepwise rule; the other chains compose per-step tables
    of next states through `_blocked_scan`, which is exact for integer maps.
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
    step = np.zeros((size, side * side), dtype=np.uint8)  # step[s, i]: state after s
    if size == 2:
        step[0, : n - 1] = u < source.transition[0, 1]
        step[1, : n - 1] = u >= source.transition[1, 0]
    else:
        cum = np.cumsum(source.transition, axis=1)
        for s in range(size):
            step[s, : n - 1] = np.minimum(np.searchsorted(cum[s], u, side="right"), size - 1)
    out = np.full(1 + side * side, first, dtype=np.uint8)  # step j of block b at 1 + b * side + j
    steps = step.reshape(size, side, side).transpose(2, 0, 1).copy()  # [j, s, block]
    for j, states in enumerate(_blocked_scan(out[:1], np.arange(size, dtype=np.uint8), steps,
                                             lambda x, table: np.take_along_axis(table, x, axis=0),
                                             lambda state, table: table[state])):
        out[1 + j :: side] = states[0]
    return Sequence(out[:n], source.alphabet)


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


def _summed(a: np.ndarray) -> np.ndarray:
    """a summed over axis 1 as numpy sums m <= 128 contiguous numbers: in
    sequence below 8, else 8 partial sums by a pairwise tree, then the rest."""
    m = a.shape[1]
    lanes = 8 if m >= 8 else 1
    r = a[:, :lanes].copy()
    for i in range(lanes, m - m % lanes, lanes):
        r += a[:, i : i + lanes]
    while r.shape[1] > 1:
        r = r[:, 0::2] + r[:, 1::2]
    for i in range(m - m % lanes, m):
        r[:, 0] += a[:, i]
    return r[:, 0]


def smoothing_posteriors(z: Sequence, spec: HMMSpec) -> np.ndarray:
    """P(x_i | z) for every position, by one blocked scan of both directions.

    Forward, alpha_i ∝ (alpha_{i-1} @ T) * like_i; backward, u_i ∝ like_i *
    (T @ u_{i+1}), and beta_i ∝ T @ u_{i+1}. Messages and block maps are
    scaled to sum to one, summed as numpy sums (`_summed`); the least sum
    flags a symbol of zero likelihood. The peak is about two n x |X| arrays.
    """
    if z.alphabet != spec.channel.alphabet:
        raise DataError("sequence alphabet does not match the model")
    n = len(z)
    if n < 1:
        raise DataError("cannot smooth an empty sequence")
    size = spec.source.alphabet.size
    side = math.isqrt(max(n - 2, 0)) + 1  # n - 1 steps fit in side blocks of side steps
    codes = np.full((2, side * side), size, dtype=np.uint8)  # symbol `size` pads the last block
    codes[:, : n - 1] = z.data[1:], z.data[-2::-1]  # each direction's symbols by step
    codes = codes.reshape(2, side, side).transpose(2, 0, 1).copy()  # [j, direction, block]
    like = np.hstack((spec.channel.entries, np.ones((size, 1))))  # like[:, c]: given symbol c
    t = spec.source.transition
    trans = np.stack((t, t.T)).swapaxes(1, 2)[:, None]  # T' and T, laid out as in x @ T, x @ T'
    low = np.full((2, side), np.inf)

    def scaled(x):  # x divided in place by its sum over axes 1 and 2
        total = _summed(x.reshape((2, -1) + x.shape[3:]))
        np.minimum(low, total.reshape(2, -1), out=low)
        return np.divide(x, total[:, None, None], out=x)

    def advance(x, code):  # x: (direction, rows, state, block)
        return scaled(trans @ x * np.take(like, code, axis=1).swapaxes(0, 1)[:, None])

    post, u = np.empty((1 + side * side, size)), np.empty((1 + side * side, size))
    with np.errstate(divide="ignore", invalid="ignore"):  # a 0/0 shows in low
        first = np.stack((spec.source.initial * like[:, z.data[0]], like[:, z.data[-1]]))
        post[0], u[0] = first = scaled(first[:, None])[:, 0]
        for j, states in enumerate(_blocked_scan(first[:, None], np.eye(size), codes, advance,
                                                 lambda x, m: scaled(x @ m))):
            post[1 + j :: side], u[1 + j :: side] = states[:, 0].swapaxes(1, 2)
    if not low.min() > 0.0:
        raise DataError("observation has zero likelihood under the model")
    post, back = post[:n], u[: n - 1][::-1]
    parts = -(-(n - 1) // (1 << 14))  # beta_i ∝ T @ u_{i+1}, in parts of 2 rows or more,
    for i in range(parts):  # as one row would take numpy's vector path
        rows = slice((n - 1) * i // parts, (n - 1) * (i + 1) // parts)
        post[rows] *= back[rows] @ t.T
    del u, back
    np.divide(post.T, _summed(post.T[None]), out=post.T)
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
