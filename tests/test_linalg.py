"""The package's two linear solves, the channel inverse and the stationary law,
against analytic and residual oracles and the one singularity threshold."""

import numpy as np
import pytest

from conftest import random_invertible_channel
from dudekit.baselines import MarkovSource
from dudekit.channel import ChannelMatrix, bsc, symmetric_channel
from dudekit.core import BINARY, Alphabet
from dudekit.errors import DataError, NumericalError


def _alphabet(n):
    return Alphabet(tuple(str(i) for i in range(n)))


def test_invert_2x2_analytic():
    chan = ChannelMatrix(np.array([[0.8, 0.2], [0.3, 0.7]]), BINARY)
    # closed form: inv = adj / det, det = 0.5
    expected = np.array([[0.7, -0.2], [-0.3, 0.8]]) / 0.5
    assert np.allclose(chan.inverse, expected, atol=1e-14)


def test_invert_identity():
    assert np.array_equal(symmetric_channel(0.0, _alphabet(5)).inverse, np.eye(5))
    assert symmetric_channel(0.3, _alphabet(1)).inverse.tolist() == [[1.0]]


def test_solve_residuals_random():
    # the stationary law balances the chain: pi @ T = pi, summing to one
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        trans = rng.random((n, n)) + 0.05
        trans /= trans.sum(axis=1, keepdims=True)
        pi = MarkovSource(trans, _alphabet(n)).initial
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(pi @ trans - pi)) < 1e-12


def test_pivoting_handles_zero_leading_entry():
    swap = ChannelMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), BINARY)
    assert np.array_equal(swap.inverse, swap.entries)


def test_inverse_times_matrix_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        chan = random_invertible_channel(rng, int(rng.integers(2, 5)))
        eye = np.eye(chan.size)
        assert np.max(np.abs(chan.inverse @ chan.entries - eye)) < 1e-12
        assert np.max(np.abs(chan.entries @ chan.inverse - eye)) < 1e-12


def test_singular_raises():
    # rank one; two equal rows; a crossover within 1e-14 of one half
    equal_rows = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    for chan in (bsc(0.5), ChannelMatrix(equal_rows, _alphabet(3)), bsc(0.5 - 1e-14)):
        with pytest.raises(NumericalError, match="channel matrix is singular to working precision"):
            _ = chan.inverse
    assert np.all(np.isfinite(bsc(0.4999).inverse))
    # two closed classes: no unique stationary law, and uniform is not stationary
    split = np.array([[1.0, 0.0, 0.0], [0.0, 0.9, 0.1], [0.0, 0.5, 0.5]])
    with pytest.raises(DataError):
        MarkovSource(split, _alphabet(3))
    # two closed classes where uniform is stationary: the fallback
    assert np.allclose(MarkovSource(np.eye(3), _alphabet(3)).initial, 1 / 3)
