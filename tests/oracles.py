"""Per-context reference implementations that the tests check dudekit against.

Each works one context at a time: a context is a Context tuple pair,
keyed by context_key, counted position by position (collect_counts),
turned into a reconstruction by the original inverse-channel rule form
(dude_rule_original), one-hot encoded digit by digit (encode_context)
and classified by a per-layer loop over a network's weights
(context_probabilities). None of them reads a window view, a context
group or a stacked forward pass, so they stay independent of the code
they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dudekit.channel import ChannelMatrix, LossMatrix
from dudekit.core import Alphabet, Sequence, interior_slice
from dudekit.errors import DataError
from dudekit.neural import MLPDenoiser


@dataclass(frozen=True)
class Context:
    """Double-sided context: k symbols left of center, k symbols right.

    left is stored in sequence order (left[0] is the farthest symbol,
    left[-1] the one immediately before the center); right likewise
    (right[0] immediately after the center). Entries equal to the
    alphabet's pad_index mark positions beyond the sequence edge.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise DataError("context sides must have equal length")

    @property
    def k(self) -> int:
        return len(self.left)

    def digits(self) -> tuple[int, ...]:
        return self.left + self.right


def extract_context(seq: Sequence, i: int, k: int) -> Context:
    """Context of order k around position i, padded at the edges."""
    n = len(seq)
    if not 0 <= i < n:
        raise DataError(f"position {i} out of range for sequence of length {n}")
    if k < 0:
        raise DataError("context order k must be non-negative")
    pad = seq.alphabet.pad_index
    data = seq.data
    left = tuple(int(data[j]) if j >= 0 else pad for j in range(i - k, i))
    right = tuple(int(data[j]) if j < n else pad for j in range(i + 1, i + k + 1))
    return Context(left, right)


def context_key(c: Context, alphabet: Alphabet) -> int:
    """Injective integer key for a context.

    Pad-free contexts use little-endian base-|Z| over (left, right) and
    occupy [0, |Z|^(2k)). Contexts containing padding are shifted past
    that range and keyed in base |Z|+1, so the two families never
    collide.
    """
    size = alphabet.size
    digits = c.digits()
    if all(d < size for d in digits):
        key = 0
        for j, d in enumerate(digits):
            key += d * size**j
        return key
    if any(d > size for d in digits):
        raise DataError("context digit outside alphabet and pad range")
    base = size + 1
    key = 0
    for j, d in enumerate(digits):
        key += d * base**j
    return size ** (2 * c.k) + key


@dataclass(frozen=True)
class CountTable:
    """Center-symbol counts per context, keyed by context_key."""

    alphabet: Alphabet
    k: int
    counts: dict[int, np.ndarray]
    n_interior: int

    def vector(self, c: Context) -> np.ndarray:
        """Count vector for a context; zeros if the context never occurred."""
        key = context_key(c, self.alphabet)
        row = self.counts.get(key)
        if row is None:
            return np.zeros(self.alphabet.size, dtype=np.int64)
        return row


def collect_counts(z: Sequence, k: int) -> CountTable:
    """First pass: tally each interior position's center symbol under its context's key."""
    interior_slice(len(z), k)  # raises DataError
    table = {}
    for i in range(k, len(z) - k):
        key = context_key(extract_context(z, i, k), z.alphabet)
        table.setdefault(key, np.zeros(z.alphabet.size, dtype=np.int64))[z.data[i]] += 1
    for row in table.values():
        row.flags.writeable = False
    return CountTable(alphabet=z.alphabet, k=k, counts=table, n_interior=len(z) - 2 * k)


def dude_rule_original(
    m: np.ndarray, z_center: int, channel: ChannelMatrix, loss: LossMatrix
) -> int:
    """Reconstruction for one context and center symbol, original form.

    Scores each candidate guess by m^T Pi^{-1} (lambda_guess * pi_z)
    where lambda_guess is that guess's loss column and pi_z the channel
    likelihood column of the observed center. Lowest score wins; ties go
    to the smallest symbol index.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (channel.size,):
        raise DataError(f"count vector must have length {channel.size}")
    v = m @ channel.inverse
    weighted = loss.entries * channel.entries[:, z_center][:, None]
    return int(np.argmin(v @ weighted))


def encode_context(c: Context, alphabet: Alphabet) -> np.ndarray:
    """One-hot encoding of a context: 2k blocks of |alphabet| entries.

    Block j is the one-hot vector of digit j in (left, right) order;
    padding digits encode as an all-zero block.
    """
    size = alphabet.size
    digits = c.digits()
    out = np.zeros(len(digits) * size, dtype=np.float64)
    for j, d in enumerate(digits):
        if d < size:
            out[j * size + d] = 1.0
        elif d != alphabet.pad_index:
            raise DataError(f"context digit {d} outside alphabet and pad range")
    return out


def context_probabilities(
    net: MLPDenoiser, contexts: list[Context], alphabet: Alphabet
) -> np.ndarray:
    """Rule probabilities for explicit Context objects, one row each, by a
    plain loop over the network's layers: ReLU on each hidden layer, then
    a softmax."""
    a = np.stack([encode_context(c, alphabet) for c in contexts]).astype(net.dtype)
    layers = net.layers()
    for w, b in zip(layers[0:-2:2], layers[1:-2:2]):
        a = np.maximum(a @ w + b, 0.0)
    logits = a @ layers[-2] + layers[-1]
    logits = np.exp(logits - logits.max(axis=1, keepdims=True))
    return logits / logits.sum(axis=1, keepdims=True)
