"""Two-pass sliding-window denoiser.

Pass one counts, for every double-sided order-k context group (a
core.ContextGroups, which carries the sequence and k), how often each
symbol appears at the center. Pass two maps each interior position
through the single-symbol rule that minimizes the count-weighted
estimated loss of its context; edge positions pass through unchanged.

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
    n_groups = counts.shape[0]
    n_rules = est.shape[1]
    out = np.empty(n_groups, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // max(1, n_rules))
    for start in range(0, n_groups, step):
        stop = min(start + step, n_groups)
        scores = counts[start:stop].astype(np.float64) @ est
        out[start:stop] = np.argmin(scores, axis=1)
    return out


def select_denoisers(groups: ContextGroups, tables: EstimatedLossTables) -> np.ndarray:
    """Per-position single-symbol rule indices for groups.seq at order groups.k.

    Interior positions get the rule chosen from their context's counts;
    edge positions get the identity rule, which reproduces the
    pass-through behavior of the denoiser there. Edge contexts hold the
    pad digit, so counting them changes no interior group's counts.
    groups may be numbered in any way (a sweep refines them from the
    order before).
    """
    if tables.channel.alphabet != groups.seq.alphabet:
        raise DataError("tables were built for a different alphabet")
    inner = interior_slice(len(groups.seq), groups.k)
    per_group = _argmin_chunked(groups.center_counts(), tables.estimated_loss)
    s_idx = per_group[groups.inverse]
    s_idx[: inner.start] = tables.identity
    s_idx[inner.stop :] = tables.identity
    return s_idx


def dude_denoise(z: Sequence, k: int, tables: EstimatedLossTables) -> Sequence:
    """Denoise a sequence with context order k; edge positions are emitted unchanged."""
    interior_slice(len(z), k)  # checked before grouping, which pads z by k on each side
    return apply_rules(z, select_denoisers(group_contexts(z, k), tables), tables)
