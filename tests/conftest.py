"""Shared fixtures and helpers for the test suite."""

import os
from dataclasses import replace

# Before numpy loads, BLAS on one thread, as the CLI, perfbench and tools/ run it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from dudekit import neural
from dudekit.channel import (
    ChannelMatrix, LossMatrix, apply_rules, bsc, build_estimated_loss, hamming_loss,
)
from dudekit.core import BINARY, Alphabet, group_contexts
from dudekit.neural import DEFAULT_HIDDEN, TrainConfig, train_groups

ALPHABETS = {
    2: Alphabet(("0", "1")),
    3: Alphabet(("0", "1", "2")),
    4: Alphabet(("0", "1", "2", "3")),
}


def random_invertible_channel(rng: np.random.Generator, size: int) -> ChannelMatrix:
    """Row-stochastic and strictly diagonally dominant, hence invertible."""
    raw = rng.random((size, size)) + size * np.eye(size)
    raw /= raw.sum(axis=1, keepdims=True)
    return ChannelMatrix(raw, ALPHABETS[size])


def random_loss(rng: np.random.Generator, size: int) -> LossMatrix:
    if rng.random() < 0.5:
        return hamming_loss(ALPHABETS[size])
    return LossMatrix(rng.random((size, size)) * 2.0, ALPHABETS[size])


def plain_pbm(grid) -> bytes:
    """The bytes of grid as a plain (P1) bitmap, one text row per pixel row."""
    rows = ("".join(map(str, row)) for row in grid.rows().tolist())
    return f"P1\n{grid.width} {grid.height}\n".encode("ascii") + "\n".join(rows).encode() + b"\n"


def bsc01_tables():
    """Estimated-loss tables of the binary symmetric channel at 0.1, Hamming loss."""
    return build_estimated_loss(bsc(0.1), hamming_loss(BINARY))


def train_alone(z, k, tables, hidden=DEFAULT_HIDDEN, config=None):
    """Order k's network trained alone, with hidden widths hidden and the rest
    of config: train_groups on group_contexts(z, k), which
    `denoise --method ndude` trains and a sweep's row k matches."""
    config = replace(config if config is not None else TrainConfig(), hidden=hidden)
    return train_groups(group_contexts(z, k), tables, config)


def ndude_apply(z, net, tables):
    """z reconstructed by net's rule for each of its contexts, selected on
    group_contexts(z, net.k) and applied, as `denoise --method ndude` does."""
    return apply_rules(z, neural.select_denoisers(group_contexts(z, net.k), net, tables), tables)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
