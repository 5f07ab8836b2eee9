"""Alphabets, symbol sequences, and double-sided sliding-window contexts.

Sequences are stored as uint8 index arrays into a fixed alphabet. A
context of order k at position i is the k symbols to the left and the k
symbols to the right of i, center excluded. Positions within k of either
edge use a padding sentinel (index == alphabet.size) for the missing
symbols, so the sentinel never collides with a real symbol.
Every context row is read from one padded window view (context_windows
and context_columns), and positions are grouped by context in one way:
context_groups refines the groups from k = 0, one order per step, settling
positions alone in their group, and group_contexts is its last step. Both
denoisers, and their sweeps, work from these groups.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

# uint8 storage must leave room for the padding sentinel.
MAX_ALPHABET_SIZE = 255


def frozen(arr, dtype=None) -> np.ndarray:
    """Read-only C-contiguous copy of arr, so no view of the caller's can change it."""
    out = np.array(arr, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


class Rebuilt:
    """Base of the frozen (eq=False) dataclasses holding arrays: they unpickle through
    their constructor, which freezes copies of the arrays, and == compares fields by value."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


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
            raise DataError(f"symbol {text[pos]!r} at offset {pos} not in alphabet")
        return idx.astype(np.uint8)

    def decode(self, indices: np.ndarray) -> str:
        lut = np.frombuffer("".join(self.labels).encode("latin-1"), dtype=np.uint8)
        return lut[indices].tobytes().decode("latin-1")


BINARY = Alphabet(("0", "1"))
DNA = Alphabet(("A", "C", "G", "T"))


@dataclass(frozen=True, eq=False)
class Sequence(Rebuilt):
    """Immutable index sequence over a fixed alphabet."""

    data: np.ndarray
    alphabet: Alphabet

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 1:
            raise DataError("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise DataError("sequence contains indices outside the alphabet")
        object.__setattr__(self, "data", frozen(arr, np.uint8))

    def __len__(self) -> int:
        return int(self.data.shape[0])

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

    Raises DataError when no interior position exists.
    """
    if n <= 2 * k:
        raise DataError(f"need length > 2k = {2 * k}, got {n}")
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


def _number_keys(key: np.ndarray, span: int, n: int, dtype):
    """(ids, count): each key's rank among the distinct keys, all below span.
    Up to a span of about 4n, marking them in a bool array and a cumulative
    sum beat a sort, which frees its sorted copy before numbering it."""
    if span > 4 * n:  # np.unique would hold about twice the memory
        order = np.argsort(key)
        key = key[order]
        new = np.r_[True, key[1:] != key[:-1]]  # where each distinct key starts
        del key
        ids = np.empty(order.size, dtype=dtype)
        ids[order] = np.cumsum(new, dtype=dtype) - 1
        return ids, int(np.count_nonzero(new))
    seen, key = np.zeros(span, dtype=bool), key.view(np.int64)  # an index numpy need not cast
    seen[key] = True
    ids = np.cumsum(seen, dtype=dtype) - 1
    return ids[key], int(ids[-1]) + 1 if span else 0


def _refine(inverse: np.ndarray, n_groups: int, windows, columns, base: int, settled=None):
    """Split the groups of the partition (inverse, n_groups) by windows[:, columns].

    Returns (inverse, n_groups, settled). A dense step, taken only while no
    group has settled, numbers the new groups by (old group, new digits) in a
    new array. A sparse one relabels inverse in place: the groups of one
    position first, in their old order, then the shared ones by (old group,
    new digits), and it settles the first: settled is None or (centres,
    count, active), each group below count holding one position, whose
    symbol is centres[g], and active the others, ascending."""
    n, digits, dtype = inverse.size, base ** len(columns), inverse.dtype
    if settled is None and n_groups * digits <= n:  # dense keys
        key = pack_context_keys(windows, columns, base, inverse)
        return (*_number_keys(key, n_groups * digits, n, dtype), None)
    centres, n_settled, active = settled or (np.empty(n, np.uint8), 0, np.arange(n, dtype=dtype))
    group = inverse[active]
    group -= n_settled
    alone = np.bincount(group, minlength=n_groups - n_settled) == 1
    n_alone = int(np.count_nonzero(alone))
    if n_alone:  # a position alone in its group stays alone, numbered in its group's order
        lone = alone[group]  # np.compress outruns indexing by this mask
        at = np.compress(lone, active)
        ids = (np.cumsum(alone, dtype=dtype) + (n_settled - 1))[np.compress(lone, group)]
        inverse[at] = ids
        centres[ids] = windows[at, windows.shape[1] // 2]
        active = np.compress(~lone, active)
        group = np.compress(~lone, group)  # freed whole before the compact ids are gathered
        group = (np.cumsum(~alone, dtype=dtype) - 1)[group]
        n_settled += n_alone
        del lone, at, ids
    key = pack_context_keys(windows, columns, base, group, active)
    del group
    sub, n_sub = _number_keys(key, (n_groups - n_settled) * digits, n, dtype)
    sub += n_settled
    inverse[active] = sub
    return inverse, n_settled + n_sub, (centres, n_settled, active) if n_settled else None


@dataclass(frozen=True, eq=False)
class ContextGroups:
    """Positions of seq grouped by their padded order-k context.

    inverse[i] is the group of position i, and members()[g] one position of
    group g, so windows[members()[g], columns] is group g's context. Contexts
    that reach past an edge hold the pad digit, so they never share a group
    with pad-free ones.
    Each group below len(centres) is settled: one position, whose symbol is
    centres[g], alone at every higher order; active holds the others, ascending, or None.
    It is current until the walk (context_groups) takes its next step.
    """

    seq: Sequence
    windows: np.ndarray  # context_windows of seq, reach >= k
    columns: np.ndarray  # context_columns(k, reach)
    inverse: np.ndarray  # (n,)
    n_groups: int
    centres: np.ndarray  # (settled groups,) uint8
    active: np.ndarray | None  # positions in inverse's dtype

    @property
    def k(self) -> int:
        return len(self.columns) // 2

    def members(self) -> np.ndarray:
        """One position of each group, in inverse's dtype, whose context is its group's."""
        member = np.empty(self.n_groups, dtype=self.inverse.dtype)
        for start in range(0, self.inverse.size, 1 << 16):  # no (n,) index of positions
            part = self.inverse[start : start + (1 << 16)]
            member[part] = np.arange(start, start + part.size, dtype=member.dtype)
        return member

    def center_counts(self) -> np.ndarray:
        """counts[g - len(centres), a]: how often symbol a sits at the center of
        group g, for each group g that has not settled, from the active positions
        alone; a settled group's row would be one-hot at centres[g]. int64."""
        size, settled = self.seq.alphabet.size, len(self.centres)
        at = slice(None) if self.active is None else self.active
        flat = np.multiply(self.inverse[at], size, dtype=np.intp)
        flat += self.seq.data[at]
        if settled:  # the active groups are numbered from settled on
            flat -= settled * size
        return np.bincount(flat, minlength=(self.n_groups - settled) * size).reshape(-1, size)


def context_groups(seq: Sequence, kmax: int):
    """Yield seq's ContextGroups at each order k = 0, 1, ..., kmax, once DUDE's
    rule 2 kmax < n (interior_slice) holds, checked before seq is padded.
    Order k's groups refine order k-1's by its two new digits, so every key
    stays below n (|Z|+1)**2; all share one window view of reach kmax. A
    ContextGroups is current until the walk's next step."""
    if len(seq) == 0:
        raise DataError("cannot group the contexts of an empty sequence")
    if kmax < 0:
        raise DataError(f"context order must be non-negative, got {kmax}")
    n, base = len(seq), seq.alphabet.size + 1  # pad digit == size needs base size+1
    interior_slice(n, kmax)
    windows = context_windows(seq.data, kmax, pad=seq.alphabet.pad_index)
    inverse = np.zeros(n, dtype=np.int32 if n < 2**31 else np.int64)
    n_groups, settled = 1, None
    for k in range(kmax + 1):
        if k:
            cols = kmax + np.array([-k, k])
            inverse, n_groups, settled = _refine(inverse, n_groups, windows, cols, base, settled)
        centres, n_settled, active = settled or (np.empty(0, dtype=np.uint8), 0, None)
        yield ContextGroups(
            seq, windows, context_columns(k, kmax), inverse, n_groups, centres[:n_settled], active
        )


def group_contexts(seq: Sequence, k: int) -> ContextGroups:
    """Positions of seq, edges included, by order-k context: context_groups' last."""
    for groups in context_groups(seq, k):
        pass  # each order's groups refine the order before's
    return groups
