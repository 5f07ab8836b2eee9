"""Two-pass sliding-window denoiser.

Pass one takes, for every double-sided order-k context group that has
not settled, how often each symbol appears at its center: the counts of
core.ContextGroups.center_counts(), from which N-DUDE builds its targets
too (a ContextGroups carries the sequence and k). Pass two maps each
interior position through the single-symbol rule that minimizes the
count-weighted estimated loss of its context, a settled group's being
its center symbol's; edge positions pass through unchanged.

This is the estimated-loss form of the selection rule: it scores whole
single-symbol rules and applies the winner to the center. The original
form, which scores each reconstruction of the observed center directly,
picks the same reconstruction; the tests keep it as their reference.
"""

from __future__ import annotations

import numpy as np

from .channel import EstimatedLossTables, apply_rules
from .core import ContextGroups, Sequence, group_contexts, interior_slice
from .errors import DataError

# Cap on score-matrix chunk size, in float64 entries (2 MiB).
_CHUNK_ENTRIES = 1 << 18


def _argmin_chunked(counts: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Row-wise argmin of counts @ est without materializing all scores."""
    out = np.empty(counts.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, est.shape[1]))
    for start in range(0, counts.shape[0], step):
        scores = counts[start : start + step].astype(np.float64) @ est
        out[start : start + step] = np.argmin(scores, axis=1)
    return out


def select_denoisers(groups: ContextGroups, tables: EstimatedLossTables) -> np.ndarray:
    """Per-position rule indices, in tables.rule_dtype, for groups.seq at order groups.k.

    Interior positions get the rule chosen from their context's counts;
    edge positions get the identity rule, which reproduces the
    pass-through behavior of the denoiser there. Edge contexts hold the
    pad digit, so counting them changes no interior group's counts.
    A settled group's count row would be one-hot, so it scores exactly
    estimated_loss[centre]; ContextGroups.center_counts() counts the others.
    groups may be numbered in any way (a sweep refines them from the order before).
    """
    if tables.channel.alphabet != groups.seq.alphabet:
        raise DataError("tables were built for a different alphabet")
    inner = interior_slice(len(groups.seq), groups.k)
    est, settled = tables.estimated_loss, len(groups.centres)
    per_group = np.empty(groups.n_groups, dtype=tables.rule_dtype)
    per_group[:settled] = np.argmin(est, axis=1)[groups.centres]
    per_group[settled:] = _argmin_chunked(groups.center_counts(), est)
    s_idx = per_group[groups.inverse]
    s_idx[: inner.start] = tables.identity
    s_idx[inner.stop :] = tables.identity
    return s_idx


def dude_denoise(z: Sequence, k: int, tables: EstimatedLossTables) -> Sequence:
    """Denoise a sequence with context order k; edge positions are emitted unchanged."""
    return apply_rules(z, select_denoisers(group_contexts(z, k), tables), tables)
