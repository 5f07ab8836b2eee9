"""Alphabets, symbol sequences, and double-sided sliding-window contexts.

Sequences are stored as uint8 index arrays into a fixed alphabet. A
context of order k at position i is the k symbols to the left and the k
symbols to the right of i, center excluded. Positions within k of either
edge use a padding sentinel (index == alphabet.size) for the missing
symbols, so the sentinel never collides with a real symbol.
Every context row is read from one padded window view (context_windows
and context_columns), and positions are grouped by context in one way:
context_groups refines the groups order by order, and group_contexts is
its one-order case. Both denoisers, and their sweeps, work from these
groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, InvalidSymbol, SequenceTooShort

# uint8 storage must leave room for the padding sentinel.
MAX_ALPHABET_SIZE = 255


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct labels, one latin-1 character each, none of them
    whitespace or '#', which sequence files strip or read as comments; index = position."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise DataError("alphabet must contain at least one symbol")
        if len(self.labels) > MAX_ALPHABET_SIZE:
            raise DataError(f"alphabet larger than {MAX_ALPHABET_SIZE} symbols")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("alphabet labels must be distinct")
        for lab in self.labels:
            if not isinstance(lab, str) or len(lab) != 1 or ord(lab) > 255:
                raise DataError(f"alphabet label {lab!r} is not one latin-1 character")
            if lab.isspace() or lab == "#":
                raise DataError(f"alphabet label {lab!r} is whitespace, a line break or '#'")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def pad_index(self) -> int:
        """Sentinel index used for out-of-range context positions."""
        return len(self.labels)

    def encode(self, text: str) -> np.ndarray:
        """Map a string of labels to an index array."""
        lut = np.full(256, -1, dtype=np.int16)
        lut[[ord(lab) for lab in self.labels]] = np.arange(self.size)
        try:
            idx = lut[np.frombuffer(text.encode("latin-1"), dtype=np.uint8)]
            bad = np.flatnonzero(idx < 0)
        except UnicodeEncodeError as exc:
            bad = [exc.start]
        if len(bad):
            pos = int(bad[0])
            raise InvalidSymbol(f"symbol {text[pos]!r} at offset {pos} not in alphabet")
        return idx.astype(np.uint8)

    def decode(self, indices: np.ndarray) -> str:
        lut = np.frombuffer("".join(self.labels).encode("latin-1"), dtype=np.uint8)
        return lut[indices].tobytes().decode("latin-1")


BINARY = Alphabet(("0", "1"))
DNA = Alphabet(("A", "C", "G", "T"))


@dataclass(frozen=True, eq=False)
class Sequence:
    """Immutable index sequence over a fixed alphabet."""

    data: np.ndarray
    alphabet: Alphabet

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 1:
            raise DataError("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise InvalidSymbol("sequence contains indices outside the alphabet")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __reduce__(self):  # unpickled through __post_init__, so read-only again
        return Sequence, (self.data, self.alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.data, other.data)

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet) -> "Sequence":
        return cls(alphabet.encode(text), alphabet)

    def to_text(self) -> str:
        return self.alphabet.decode(self.data)


def context_windows(data: np.ndarray, reach: int, pad: int) -> np.ndarray:
    """Read-only (n, 2*reach + 1) view over a padded copy of data.

    Row i is (data[i-reach], ..., data[i+reach]) with pad substituted for
    out-of-range positions; context_columns picks an order's context
    from it. Each column is a contiguous slice of the padded copy.
    """
    return sliding_window_view(np.pad(data, reach, constant_values=pad), 2 * reach + 1)


def context_columns(k: int, reach: int) -> np.ndarray:
    """Columns of context_windows(data, reach, pad) holding the order-k
    context (k <= reach): its left digits, then its right."""
    return reach + np.r_[-k:0, 1 : k + 1]


def interior_slice(n: int, k: int) -> slice:
    """Positions whose order-k context needs no padding.

    Raises SequenceTooShort when no interior position exists.
    """
    if n <= 2 * k:
        raise SequenceTooShort(f"need length > 2k = {2 * k}, got {n}")
    return slice(k, n - k)


def pack_context_keys(windows, columns, base: int, head, rows=slice(None)) -> np.ndarray:
    """uint64 keys head * base**len(columns) + sum_j windows[rows, columns[j]] * base**j.

    The caller keeps every key below 2**64.
    """
    key = head.astype(np.uint64)
    # Horner's rule from the last column, accumulating in place: O(n) memory for any k.
    for col in columns[::-1]:
        key *= np.uint64(base)
        key += windows[rows, col]
    return key


def _refine(inverse: np.ndarray, n_groups: int, windows, columns, base: int):
    """Split the groups of the partition (inverse, n_groups) by windows[:, columns]."""
    span = n_groups * base ** len(columns)
    if span <= inverse.size:  # dense keys: mark them and number them in key order, with no sort
        key = pack_context_keys(windows, columns, base, inverse)
        seen = np.zeros(span, dtype=bool)
        seen[key] = True
        ids = np.cumsum(seen, dtype=inverse.dtype) - 1
        return ids[key], int(ids[-1]) + 1 if span else 0
    # Sparse keys: a position alone in its group stays alone, so only shared groups are sorted.
    alone = np.bincount(inverse, minlength=n_groups) == 1
    shared = np.flatnonzero(~alone[inverse]) if alone.any() else slice(None)
    key = pack_context_keys(windows, columns, base, inverse[shared], shared)
    uniq, sub = np.unique(key, return_inverse=True)
    rank = np.cumsum(alone, dtype=inverse.dtype) - 1
    out, n_alone = rank[inverse], int(rank[-1]) + 1
    sub += n_alone
    out[shared] = sub
    return out, n_alone + len(uniq)


@dataclass(frozen=True, eq=False)
class ContextGroups:
    """Positions of seq grouped by their padded order-k context.

    inverse[i] is the group of position i. Contexts that reach past an edge
    hold the pad digit, so they never share a group with pad-free ones.
    """

    seq: Sequence
    windows: np.ndarray  # context_windows of seq, reach >= k
    columns: np.ndarray  # context_columns(k, reach)
    inverse: np.ndarray  # (n,)
    n_groups: int

    def rows(self) -> np.ndarray:
        """(n_groups, 2k) context digits, row g being group g's context."""
        member = np.empty(self.n_groups, dtype=np.intp)
        # Every member of a group has the same row, so any one will do.
        member[self.inverse] = np.arange(self.inverse.size)
        return self.windows[member[:, None], self.columns]

    def center_counts(self) -> np.ndarray:
        """counts[g, a]: how often symbol a sits at the center of group g."""
        size = self.seq.alphabet.size
        flat = np.multiply(self.inverse, size, dtype=np.intp) + self.seq.data
        return np.bincount(flat, minlength=self.n_groups * size).reshape(self.n_groups, size)


def context_groups(seq: Sequence, orders):
    """Yield seq's ContextGroups for each of the ascending orders.

    Each order's groups refine those of the order before by the digits of
    the orders it adds, as many per step as keep every key within uint64.
    All share one window view of reach max(orders).
    """
    orders = [int(k) for k in orders]
    if orders != sorted(orders):
        raise DataError("context orders must ascend")
    if orders and orders[0] < 0:
        raise DataError(f"context order must be non-negative, got {orders[0]}")
    n, base = len(seq), seq.alphabet.size + 1  # pad digit == size needs base size+1
    reach = max(orders, default=0)
    windows = context_windows(seq.data, reach, pad=seq.alphabet.pad_index)
    inverse = np.zeros(n, dtype=np.int32 if n < 2**31 else np.int64)
    n_groups, done = min(n, 1), 0
    for k in orders:
        while done < k:
            step = 1  # keys grow with the step, so stop at the first that overflows
            while step < k - done and n_groups * base ** (2 * step + 2) <= 2**64:
                step += 1
            cols = context_columns(done + step, reach)
            cols = cols[abs(cols - reach) > done]  # the orders this step adds
            inverse, n_groups = _refine(inverse, n_groups, windows, cols, base)
            done += len(cols) // 2
        yield ContextGroups(seq, windows, context_columns(k, reach), inverse, n_groups)


def group_contexts(seq: Sequence, k: int) -> ContextGroups:
    """Group every position of seq, edges included, by its order-k context.

    Up to k = 20 on binary and 13 on DNA, groups are numbered in key order."""
    return next(context_groups(seq, (k,)))
