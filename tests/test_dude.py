"""Counting denoiser: counts, both rule forms, and the sequence pass."""

import numpy as np
import pytest

from conftest import ALPHABETS, bsc01_tables, random_invertible_channel
from dudekit.channel import apply_rules, bsc, build_estimated_loss, hamming_loss, symmetric_channel
from dudekit.core import BINARY, DNA, Alphabet, Sequence, context_groups, group_contexts
from dudekit.dude import _argmin_chunked, dude_denoise, select_denoisers
from dudekit.errors import DataError
from dudekit.evaluation import estimated_loss
from oracles import Context, collect_counts, dude_rule_original, extract_context


def rule_estimated(m, t):
    """The rule the denoiser's own argmin picks for one count vector."""
    return _argmin_chunked(m[None], t.estimated_loss)[0]


def test_collect_counts_example():
    z = Sequence.from_text("01010", BINARY)
    table = collect_counts(z, 1)
    assert np.array_equal(table.vector(Context((0,), (0,))), [0, 2])
    assert np.array_equal(table.vector(Context((1,), (1,))), [1, 0])
    assert np.array_equal(table.vector(Context((0,), (1,))), [0, 0])
    assert table.n_interior == 3
    assert table.k == 1


def test_collect_counts_totals():
    rng = np.random.default_rng(2)
    data = rng.integers(0, 2, 300).astype(np.uint8)
    z = Sequence(data, BINARY)
    for k in (0, 1, 2, 5):
        table = collect_counts(z, k)
        total = sum(int(v.sum()) for v in table.counts.values())
        assert total == 300 - 2 * k == table.n_interior


def test_collect_counts_too_short():
    z = Sequence.from_text("0101", BINARY)
    with pytest.raises(DataError, match="need length > 2k = 4, got 4"):
        collect_counts(z, 2)


def test_rule_frozen_cases():
    t = bsc01_tables()
    c = bsc(0.1)
    loss = hamming_loss(BINARY)
    # heavy zero majority: constant-zero map beats identity
    m = np.array([90, 10])
    assert t.map_table[rule_estimated(m, t)].tolist() == [0, 0]
    assert dude_rule_original(m, 0, c, loss) == 0
    assert dude_rule_original(m, 1, c, loss) == 0
    # balanced counts: identity map (say what you see)
    assert rule_estimated(np.array([50, 50]), t) == t.identity
    # empty counts: every score is zero, ties resolve to index 0
    assert rule_estimated(np.array([0, 0]), t) == 0


def test_rule_forms_agree_randomly():
    rng = np.random.default_rng(9)
    for _ in range(40):
        size = int(rng.integers(2, 5))
        chan = random_invertible_channel(rng, size)
        loss = hamming_loss(ALPHABETS[size])
        t = build_estimated_loss(chan, loss)
        m = rng.integers(0, 60, size)
        rule = rule_estimated(m, t)
        for z in range(size):
            assert t.map_table[rule, z] == dude_rule_original(m, z, chan, loss)


def _reference_denoise(z, k, chan, loss):
    """Independent per-position pass using the original rule form."""
    table = collect_counts(z, k)
    out = z.data.copy()
    for i in range(k, len(z) - k):
        m = table.vector(extract_context(z, i, k))
        out[i] = dude_rule_original(m, int(z.data[i]), chan, loss)
    return out


def test_denoise_matches_reference_binary():
    rng = np.random.default_rng(14)
    chan = bsc(0.12)
    loss = hamming_loss(BINARY)
    for _ in range(8):
        n = int(rng.integers(20, 400))
        k = int(rng.integers(0, 4))
        if n <= 2 * k:
            continue
        z = Sequence(rng.integers(0, 2, n).astype(np.uint8), BINARY)
        got = dude_denoise(z, k, build_estimated_loss(chan, loss))
        assert np.array_equal(got.data, _reference_denoise(z, k, chan, loss))


def test_denoise_matches_reference_quaternary():
    rng = np.random.default_rng(15)
    chan = symmetric_channel(0.2, ALPHABETS[4])
    loss = hamming_loss(ALPHABETS[4])
    for _ in range(4):
        n = int(rng.integers(30, 200))
        k = int(rng.integers(0, 3))
        z = Sequence(rng.integers(0, 4, n).astype(np.uint8), ALPHABETS[4])
        got = dude_denoise(z, k, build_estimated_loss(chan, loss))
        assert np.array_equal(got.data, _reference_denoise(z, k, chan, loss))


def test_boundary_passthrough():
    rng = np.random.default_rng(16)
    z = Sequence(rng.integers(0, 2, 100).astype(np.uint8), BINARY)
    k = 4
    out = dude_denoise(z, k, tables=bsc01_tables())
    assert np.array_equal(out.data[:k], z.data[:k])
    assert np.array_equal(out.data[-k:], z.data[-k:])


def test_same_context_same_output():
    rng = np.random.default_rng(17)
    z = Sequence(rng.integers(0, 2, 500).astype(np.uint8), BINARY)
    k = 2
    t = bsc01_tables()
    s_idx = select_denoisers(group_contexts(z, k), t)
    seen = {}
    for i in range(k, 500 - k):
        key = tuple(z.data[i - k : i]) + tuple(z.data[i + 1 : i + k + 1])
        if key in seen:
            assert s_idx[i] == seen[key]
        else:
            seen[key] = s_idx[i]


def test_k0_balanced_histogram_is_identity():
    z = Sequence.from_text("01" * 50, BINARY)
    out = dude_denoise(z, 0, tables=bsc01_tables())
    assert out == z


def test_k0_skewed_histogram_collapses_to_majority():
    data = np.zeros(1000, dtype=np.uint8)
    data[:50] = 1
    z = Sequence(data, BINARY)
    out = dude_denoise(z, 0, tables=bsc01_tables())
    assert np.all(out.data == 0)


def test_unique_rows_fallback_matches_reference():
    # k large enough that packed keys overflow uint64 and the row-wise
    # grouping path runs instead
    rng = np.random.default_rng(18)
    chan = bsc(0.1)
    loss = hamming_loss(BINARY)
    z = Sequence(rng.integers(0, 2, 150).astype(np.uint8), BINARY)
    k = 33
    got = dude_denoise(z, k, build_estimated_loss(chan, loss))
    assert np.array_equal(got.data, _reference_denoise(z, k, chan, loss))


def test_denoise_determinism():
    rng = np.random.default_rng(19)
    z = Sequence(rng.integers(0, 2, 400).astype(np.uint8), BINARY)
    t = bsc01_tables()
    a = dude_denoise(z, 3, tables=t)
    b = dude_denoise(z, 3, tables=t)
    assert a == b


def test_alphabet_mismatch_raises():
    t = bsc01_tables()
    z = Sequence(np.zeros(20, dtype=np.uint8), ALPHABETS[4])
    with pytest.raises(DataError):
        select_denoisers(group_contexts(z, 1), t)


@pytest.mark.parametrize(
    "alphabet, chan, n, top",
    [(BINARY, bsc(0.12), 600, 12), (DNA, symmetric_channel(0.2, DNA), 400, 7)],
)
def test_walked_selection_matches_full_counts_and_original_form(alphabet, chan, n, top):
    # Settled groups take their center symbol's rule uncounted; that must be
    # the rule of the full count path, and reconstruct as the original form
    # does. The chain runs past the order where every group is alone, to
    # orders where every position has settled.
    rng = np.random.default_rng(23)
    z = Sequence(rng.integers(0, alphabet.size, n).astype(np.uint8), alphabet)
    loss = hamming_loss(alphabet)
    t = build_estimated_loss(chan, loss)
    all_alone = None
    for groups in context_groups(z, top):
        k = groups.k
        s_idx = select_denoisers(groups, t)
        assert s_idx.dtype == np.uint8
        flat = groups.inverse.astype(np.int64) * alphabet.size + z.data  # every position
        counts = np.bincount(flat, minlength=groups.n_groups * alphabet.size)
        full = _argmin_chunked(counts.reshape(-1, alphabet.size), t.estimated_loss)[groups.inverse]
        full[:k] = t.identity
        full[n - k :] = t.identity
        assert np.array_equal(s_idx, full)
        table = collect_counts(z, k)
        for i in rng.choice(np.arange(k, n - k), 25):
            m = table.vector(extract_context(z, i, k))
            assert t.map_table[s_idx[i], z.data[i]] == dude_rule_original(m, z.data[i], chan, loss)
        if all_alone is None and groups.n_groups == n:
            all_alone = k
    assert all_alone is not None and all_alone < top
    assert len(groups.centres) == n and len(groups.active) == 0


def test_rule_indices_take_the_narrowest_dtype_and_score_alike():
    rng = np.random.default_rng(24)
    five = Alphabet(tuple("abcde"))
    wide_family = build_estimated_loss(symmetric_channel(0.1, five), hamming_loss(five))
    assert wide_family.rule_dtype == np.uint16  # 3,125 rules
    for alphabet, chan in ((BINARY, bsc(0.1)), (DNA, symmetric_channel(0.2, DNA))):
        t = build_estimated_loss(chan, hamming_loss(alphabet))
        assert t.rule_dtype == np.uint8
        z = Sequence(rng.integers(0, alphabet.size, 500).astype(np.uint8), alphabet)
        wide = rng.integers(0, t.n_denoisers, 500)
        wide[:2] = 0, t.n_denoisers - 1
        narrow = wide.astype(np.uint8)
        assert estimated_loss(z, narrow, t) == estimated_loss(z, wide, t)
        assert apply_rules(z, narrow, t) == apply_rules(z, wide, t)
