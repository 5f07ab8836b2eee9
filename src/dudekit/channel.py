"""Memoryless channels, per-symbol losses, and estimated-loss tables.

A discrete memoryless channel is a row-stochastic matrix over the
alphabet. A single-symbol denoising rule s maps each observed symbol to
a symbol of the same alphabet; it is a row index into map_table. The
loss is square: rows index the clean symbol, columns the reconstruction.
From a channel and a loss we derive, for every rule s:

  expected_loss[x, s]   mean true loss of rule s when the clean symbol
                        is x, averaged over the channel output
  estimated_loss[z, s]  the channel-inverted image of expected_loss,
                        indexed by the observed symbol; unbiased in the
                        sense that the channel maps it back exactly
  pseudo_labels[z, s]   estimated_loss flipped and shifted by its own
                        maximum so every entry is non-negative

estimated_loss lets a denoiser be scored from noisy data alone;
pseudo_labels turn that score into non-negative training targets.
apply_rules maps each observed symbol through its position's rule; every
denoiser reconstructs through it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import BINARY, Alphabet, Rebuilt, Sequence, frozen
from .errors import DataError, NumericalError
from .io import read_json

ROW_SUM_TOL = 1e-9
# Largest rule table built; |alphabet|**|alphabet| rows past it raise.
DENOISER_CAP = 65536
# A matrix whose reciprocal condition number (in the 1-norm) is at most
# this is singular to working precision: the channel inverse and the
# chain's stationary law both stop there.
SINGULAR_RCOND = 1e-12


def nonnegative(arr, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Read-only float64 copy of arr, checked to have the given shape and
    finite non-negative entries."""
    out = frozen(arr, np.float64)
    if out.shape != shape:
        raise DataError(f"{what} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise DataError(f"{what} entries must be finite and non-negative")
    return out


def stochastic(arr, shape: tuple[int, ...], what: str) -> np.ndarray:
    """nonnegative(arr, shape, what), its rows (along the last axis) also
    checked to sum to 1."""
    out = nonnegative(arr, shape, what)
    if np.max(np.abs(out.sum(axis=-1) - 1.0)) > ROW_SUM_TOL:
        raise DataError(f"{what} rows must sum to 1")
    return out


def is_singular(a: np.ndarray) -> bool:
    """True when a square matrix is singular to working precision."""
    return not np.linalg.cond(a, 1) * SINGULAR_RCOND < 1.0


@dataclass(frozen=True, eq=False)
class ChannelMatrix(Rebuilt):
    """Row-stochastic transition matrix Pi over a common in/out alphabet.

    Invertibility is not required to construct a channel (corruption and
    forward-backward smoothing work regardless); it is checked when the
    inverse is first needed.
    """

    entries: np.ndarray
    alphabet: Alphabet

    def __post_init__(self):
        n = self.alphabet.size
        arr = stochastic(self.entries, (n, n), "channel")
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.alphabet.size

    @cached_property
    def inverse(self) -> np.ndarray:
        """Read-only matrix inverse of the channel; raises NumericalError."""
        if is_singular(self.entries):
            raise NumericalError("channel matrix is singular to working precision")
        return frozen(np.linalg.inv(self.entries))


def bsc(delta: float) -> ChannelMatrix:
    """Binary symmetric channel with crossover probability delta."""
    return symmetric_channel(delta, BINARY)


def symmetric_channel(delta: float, alphabet: Alphabet) -> ChannelMatrix:
    """Channel keeping each symbol w.p. 1-delta, else uniform over the rest."""
    n = alphabet.size
    if not 0.0 <= delta <= 1.0:
        raise DataError(f"flip probability must be in [0, 1], got {delta}")
    if n == 1:
        return ChannelMatrix(np.ones((1, 1)), alphabet)
    off = delta / (n - 1)
    entries = np.full((n, n), off)
    np.fill_diagonal(entries, 1.0 - delta)
    return ChannelMatrix(entries, alphabet)


@dataclass(frozen=True, eq=False)
class LossMatrix(Rebuilt):
    """Per-symbol loss: rows index the clean symbol, columns the guess."""

    entries: np.ndarray
    alphabet: Alphabet

    def __post_init__(self):
        n = self.alphabet.size
        object.__setattr__(self, "entries", nonnegative(self.entries, (n, n), "loss"))


def hamming_loss(alphabet: Alphabet) -> LossMatrix:
    n = alphabet.size
    return LossMatrix(np.ones((n, n)) - np.eye(n), alphabet)


def mapping_table(n: int) -> np.ndarray:
    """(n**n, n) uint8 table: row s gives the mapping of denoiser s.

    Row s is the little-endian base-n expansion of s, so s equals
    sum_j table[s, j] * n**j: row 0 is the constant map to symbol 0.
    """
    total = n**n
    if total > DENOISER_CAP:
        raise DataError(f"{total} denoisers exceed cap {DENOISER_CAP}")
    idx = np.arange(total, dtype=np.int64)
    table = np.empty((total, n), dtype=np.uint8)
    for j in range(n):
        table[:, j] = (idx // n**j) % n
    return table


@dataclass(frozen=True, eq=False)
class EstimatedLossTables(Rebuilt):
    """The tables over the full family of single-symbol denoisers, derived from a
    (channel, loss) pair over one alphabet when constructed, as read-only arrays
    map_table (S, Z), expected_loss (X, S), estimated_loss (Z, S), pseudo_labels (Z, S)."""

    channel: ChannelMatrix
    loss: LossMatrix

    def __post_init__(self):
        if self.loss.alphabet != self.channel.alphabet:
            raise DataError("loss and channel alphabets differ")
        table = mapping_table(self.channel.size)
        # row x: the loss of each denoiser s at observation z, averaged over z ~ channel row x
        rho = np.array([lx[table] @ px for lx, px in zip(self.loss.entries, self.channel.entries)])
        est = self.channel.inverse @ rho
        labels = est.max() - est  # non-negative: the shift is the max over the same array
        arrays = dict(map_table=table, expected_loss=rho, estimated_loss=est, pseudo_labels=labels)
        for name, arr in arrays.items():
            object.__setattr__(self, name, frozen(arr))

    @property
    def n_denoisers(self) -> int:
        return int(self.map_table.shape[0])

    @property
    def rule_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds every rule index."""
        return np.min_scalar_type(self.n_denoisers - 1)

    @property
    def identity(self) -> int:
        """Index of the identity denoiser."""
        n = self.channel.size
        return sum(j * n**j for j in range(n))

    def fingerprint(self) -> str:
        """Stable digest of the (channel, loss) pair, for checkpoint checks."""
        h = hashlib.sha256()
        h.update("|".join(self.channel.alphabet.labels).encode())
        h.update(self.channel.entries.tobytes())
        h.update(self.loss.entries.tobytes())
        return h.hexdigest()[:16]


def build_estimated_loss(channel: ChannelMatrix, loss: LossMatrix) -> EstimatedLossTables:
    """The tables of the (channel, loss) pair; see EstimatedLossTables."""
    return EstimatedLossTables(channel, loss)


def one_rule_each(z: Sequence, rule_indices, tables: EstimatedLossTables) -> np.ndarray:
    """rule_indices as an array, checked to hold one index of a rule of tables
    per position of z, whose alphabet tables must share."""
    if tables.channel.alphabet != z.alphabet:
        raise DataError("tables were built for a different alphabet")
    rule_indices = np.asarray(rule_indices)
    if rule_indices.shape != (len(z),):
        raise DataError("need one rule index per position")
    if not np.issubdtype(rule_indices.dtype, np.integer):
        raise DataError(f"rule indices must be integers, got {rule_indices.dtype}")
    if rule_indices.size and (rule_indices.min() < 0 or rule_indices.max() >= tables.n_denoisers):
        raise DataError(f"rule indices must lie in [0, {tables.n_denoisers})")
    return rule_indices


def apply_rules(z: Sequence, rule_indices: np.ndarray, tables: EstimatedLossTables) -> Sequence:
    """Reconstruct by applying each position's single-symbol rule to its center."""
    flat = np.multiply(one_rule_each(z, rule_indices, tables), z.alphabet.size, dtype=np.intp)
    flat += z.data  # map_table[r, z], read through the raveled table
    return Sequence(tables.map_table.ravel()[flat], z.alphabet)


def read_spec_json(path: str, what: str, required: str, optional: str):
    """(alphabet, required array, optional array or None) from a JSON spec file.

    The file holds an object with "alphabet" (a list of labels) and the
    nested lists `required` and, if present and not null, `optional`.
    Unreadable, non-UTF-8, non-JSON, ragged or non-numeric input raises DataError.
    """
    doc = read_json(path, what)
    if not isinstance(doc, dict) or "alphabet" not in doc or required not in doc:
        raise DataError(f"{what} needs 'alphabet' and '{required}' keys")
    try:
        alphabet = Alphabet(tuple(str(lab) for lab in doc["alphabet"]))
        first = np.asarray(doc[required], dtype=np.float64)
        second = None if doc.get(optional) is None else np.asarray(doc[optional], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad entries in {what} {path}: {exc}") from exc
    return alphabet, first, second


def parse_channel_spec(spec: str) -> tuple[ChannelMatrix, LossMatrix]:
    """Parse a channel argument: 'bsc:<delta>', 'dsc:<labels>:<delta>', or the path of
    a JSON file with keys "alphabet" (list of labels), "channel" (square, row-stochastic)
    and optionally "loss" (square, non-negative; Hamming when absent or null)."""
    if spec.startswith("bsc:"):
        try:
            delta = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DataError(f"bad bsc spec {spec!r}") from exc
        return bsc(delta), hamming_loss(BINARY)
    if spec.startswith("dsc:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise DataError(f"bad dsc spec {spec!r}, want dsc:<labels>:<delta>")
        alphabet = Alphabet(tuple(parts[1]))
        try:
            delta = float(parts[2])
        except ValueError as exc:
            raise DataError(f"bad dsc spec {spec!r}") from exc
        return symmetric_channel(delta, alphabet), hamming_loss(alphabet)
    alphabet, raw, loss = read_spec_json(spec, "channel file", "channel", "loss")
    chan = ChannelMatrix(raw, alphabet)
    return chan, hamming_loss(alphabet) if loss is None else LossMatrix(loss, alphabet)
