"""Two-pass sliding-window denoiser.

Pass one counts, for every double-sided order-k context, how often each
symbol appears at the center. Pass two replays the sequence and maps
each interior position through the single-symbol rule that minimizes
the count-weighted estimated loss of its context. Positions within k of
either edge are passed through unchanged.

The selection rule exists in two equivalent forms: the original one
scores each reconstruction for the observed center symbol directly; the
estimated-loss form scores whole single-symbol rules and then applies
the winner to the center. Both are provided; the sequence-level code
uses the estimated-loss form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, EstimatedLossTables, LossMatrix, apply_rules
from .core import Alphabet, Context, Sequence, context_key, group_contexts, interior_slice
from .errors import DataError, DimensionMismatch

# Cap on score-matrix chunk size, in float64 entries (2 MiB).
_CHUNK_ENTRIES = 1 << 18


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
    """First pass: tally center symbols for every interior context."""
    interior_slice(len(z), k)  # raises SequenceTooShort
    groups = group_contexts(z, k)
    counts = groups.center_counts()
    counts.flags.writeable = False
    table = {}
    for row, m in zip(groups.rows().tolist(), counts):
        if max(row, default=0) < z.alphabet.size:  # edge contexts hold the pad digit
            table[context_key(Context(tuple(row[:k]), tuple(row[k:])), z.alphabet)] = m
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
        raise DimensionMismatch(f"count vector must have length {channel.size}")
    v = m @ channel.inverse
    weighted = loss.entries * channel.entries[:, z_center][:, None]
    return int(np.argmin(v @ weighted))


def dude_rule_estimated(m: np.ndarray, tables: EstimatedLossTables) -> int:
    """Index of the single-symbol rule minimizing the count-weighted estimated loss."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (tables.channel.size,):
        raise DimensionMismatch(f"count vector must have length {tables.channel.size}")
    return int(np.argmin(m @ tables.estimated_loss))


def _argmin_chunked(counts: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Row-wise argmin of counts @ est without materializing all scores."""
    n_groups = counts.shape[0]
    n_rules = est.shape[1]
    out = np.empty(n_groups, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, n_rules))
    for start in range(0, n_groups, step):
        stop = min(start + step, n_groups)
        scores = counts[start:stop].astype(np.float64) @ est
        out[start:stop] = np.argmin(scores, axis=1)
    return out


def select_denoisers(z: Sequence, k: int, tables: EstimatedLossTables, groups=None) -> np.ndarray:
    """Per-position single-symbol rule indices for the whole sequence.

    Interior positions get the rule chosen from their context's counts;
    edge positions get the identity rule, which reproduces the
    pass-through behavior of the denoiser there. Edge contexts hold the
    pad digit, so counting them changes no interior group's counts.
    groups, if given, are z's order-k ContextGroups in any numbering (a
    sweep refines them from the order before).
    """
    if tables.channel.alphabet != z.alphabet:
        raise DataError("tables were built for a different alphabet")
    if tables.loss.n_reconstructions != z.alphabet.size:
        raise DimensionMismatch("sliding-window denoising requires a square loss")
    inner = interior_slice(len(z), k)
    groups = groups if groups is not None else group_contexts(z, k)
    per_group = _argmin_chunked(groups.center_counts(), tables.estimated_loss)
    s_idx = per_group[groups.inverse]
    s_idx[: inner.start] = tables.identity
    s_idx[inner.stop :] = tables.identity
    return s_idx


def dude_denoise(z: Sequence, k: int, tables: EstimatedLossTables) -> Sequence:
    """Denoise a sequence with context order k; edge positions are emitted unchanged."""
    return apply_rules(z, select_denoisers(z, k, tables), tables)
