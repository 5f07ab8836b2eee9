"""Alphabet, sequence, and context plumbing."""

import time

import numpy as np
import pytest

from dudekit import core
from dudekit.core import (
    BINARY,
    DNA,
    Alphabet,
    Sequence,
    _refine,
    context_columns,
    context_groups,
    context_windows,
    group_contexts,
    interior_slice,
    pack_context_keys,
)
from dudekit.errors import DataError, InvalidSymbol, SequenceTooShort
from oracles import Context, context_key, extract_context


def test_alphabet_basics():
    assert BINARY.size == 2
    assert BINARY.pad_index == 2
    assert DNA.size == 4
    assert BINARY.labels == ("0", "1")


def test_alphabet_validation():
    with pytest.raises(DataError):
        Alphabet(())
    with pytest.raises(DataError):
        Alphabet(("a", "a"))
    # each label is one latin-1 character, named when it is not
    for labels in (("a", ""), ("ab",), ("€",), ("0", "x0"), ("a", 1)):
        with pytest.raises(DataError, match="latin-1") as err:
            Alphabet(labels)
        assert repr(labels[-1]) in str(err.value)
    # sequence files strip whitespace (every line break is whitespace) and
    # read lines that start with '#' as comments
    for label in (" ", "\t", "\xa0", "\n", "\x1c", "\x85", "#"):
        with pytest.raises(DataError, match="whitespace, a line break or '#'") as err:
            Alphabet(("a", label))
        assert repr(label) in str(err.value)


def test_encode_decode_roundtrip():
    text = "ACGTTGCA"
    seq = Sequence.from_text(text, DNA)
    assert seq.to_text() == text
    assert list(seq.data) == [0, 1, 2, 3, 3, 2, 1, 0]


def test_decode_latin1_labels():
    # the 243 latin-1 characters that are neither whitespace nor '#', scrambled
    codes = [c for c in np.random.default_rng(3).permutation(256) if not chr(c).isspace()]
    alphabet = Alphabet(tuple(chr(c) for c in codes if c != ord("#")))
    assert alphabet.size == 243
    idx = np.random.default_rng(4).integers(0, 243, 2000).astype(np.uint8)
    text = alphabet.decode(idx)
    assert text == "".join(alphabet.labels[i] for i in idx)
    assert np.array_equal(alphabet.encode(text), idx)
    assert Sequence(idx, alphabet).to_text() == text


def test_encode_rejects_unknown_symbol():
    with pytest.raises(InvalidSymbol) as err:
        BINARY.encode("0102")
    assert "offset 3" in str(err.value)
    # a character beyond latin-1 is not replaced by a label such as '?'
    with pytest.raises(InvalidSymbol) as err:
        Alphabet(("0", "1", "?")).encode("0\u20ac1")
    assert "offset 1" in str(err.value)
    with pytest.raises(DataError):
        Alphabet(("0", "\u20ac")).encode("0")


def test_sequence_validation_and_immutability():
    with pytest.raises(InvalidSymbol):
        Sequence(np.array([0, 2], dtype=np.uint8), BINARY)
    with pytest.raises(DataError):
        Sequence(np.zeros((2, 2), dtype=np.uint8), BINARY)
    seq = Sequence(np.array([0, 1, 1], dtype=np.uint8), BINARY)
    assert len(seq) == 3
    with pytest.raises(ValueError):
        seq.data[0] = 1


def test_sequence_equality():
    a = Sequence(np.array([0, 1], dtype=np.uint8), BINARY)
    b = Sequence(np.array([0, 1], dtype=np.uint8), BINARY)
    c = Sequence(np.array([1, 1], dtype=np.uint8), BINARY)
    assert a == b
    assert a != c


def test_extract_context_interior():
    seq = Sequence.from_text("01010", BINARY)
    c = extract_context(seq, 2, 2)
    assert c.left == (0, 1)
    assert c.right == (1, 0)
    assert c.k == 2
    assert c.digits() == (0, 1, 1, 0)


def test_extract_context_padding():
    seq = Sequence.from_text("01", BINARY)
    pad = BINARY.pad_index
    c = extract_context(seq, 0, 2)
    assert c.left == (pad, pad)
    assert c.right == (1, pad)
    c = extract_context(seq, 1, 1)
    assert c.left == (0,)
    assert c.right == (pad,)


def test_extract_context_bounds():
    seq = Sequence.from_text("01", BINARY)
    with pytest.raises(DataError):
        extract_context(seq, 2, 1)
    with pytest.raises(DataError):
        extract_context(seq, 0, -1)


def test_context_requires_balanced_sides():
    with pytest.raises(DataError):
        Context((0,), (0, 1))


def test_context_key_padfree_formula():
    # little-endian base-|Z| over (left, right)
    key = context_key(Context((1, 0), (0, 1)), BINARY)
    assert key == 1 * 1 + 0 * 2 + 0 * 4 + 1 * 8
    assert context_key(Context((), ()), BINARY) == 0


def test_context_key_injective_and_partitioned():
    # injectivity holds within a fixed context order, which is how the
    # count tables use the keys
    size = BINARY.size
    pad = BINARY.pad_index
    for k in (1, 2):
        seen = {}
        for digits in np.ndindex(*([size + 1] * (2 * k))):
            c = Context(tuple(digits[:k]), tuple(digits[k:]))
            key = context_key(c, BINARY)
            assert key not in seen, f"collision at {digits}"
            seen[key] = digits
            if all(d < size for d in digits):
                assert key < size ** (2 * k)
            else:
                assert key >= size ** (2 * k)
    assert pad == size


def test_context_matrix_matches_extract(rng=None):
    # The order-k columns of a window view of any reach >= k are the context rows.
    rng = np.random.default_rng(42)
    for size, alphabet in ((2, BINARY), (4, DNA)):
        data = rng.integers(0, size, 50).astype(np.uint8)
        seq = Sequence(data, alphabet)
        for k, reach in ((0, 0), (1, 1), (3, 3), (1, 4), (3, 5)):
            windows = context_windows(data, reach, pad=alphabet.pad_index)
            assert windows.shape == (50, 2 * reach + 1) and not windows.flags.writeable
            mat = windows[:, context_columns(k, reach)]
            assert mat.shape == (50, 2 * k)
            for i in (0, 1, 25, 48, 49):
                assert tuple(mat[i]) == extract_context(seq, i, k).digits()


def test_pack_context_keys_matches_context_key():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 2, 40).astype(np.uint8)
    seq = Sequence(data, BINARY)
    k = 3
    windows = context_windows(data, k, pad=BINARY.pad_index)
    keys = pack_context_keys(windows, context_columns(k, k), BINARY.size, np.zeros(40, dtype=int))
    for i in range(k, 40 - k):
        assert int(keys[i]) == context_key(extract_context(seq, i, k), BINARY)


def _check_groups(seq, k):
    groups = group_contexts(seq, k)
    rows = groups.rows()
    digits = [extract_context(seq, i, k).digits() for i in range(len(seq))]
    assert groups.n_groups == rows.shape[0] == len(set(digits))
    for i, d in enumerate(digits):
        assert tuple(rows[groups.inverse[i]]) == d


def test_group_contexts_matches_extract():
    rng = np.random.default_rng(11)
    for alphabet in (BINARY, DNA):
        seq = Sequence(rng.integers(0, alphabet.size, 60).astype(np.uint8), alphabet)
        for k in range(4):
            _check_groups(seq, k)


def test_group_contexts_split_refinement(monkeypatch):
    # 3**82 and 5**28 overflow uint64, so grouping splits the orders over
    # several refinement steps, each of whose keys fits. 3**40 and 5**26
    # still fit: one step, numbered in the order of the packed keys.
    spans, grown = [], []

    def spy(inverse, n_groups, windows, columns, base):
        spans.append(n_groups * base ** len(columns))
        grown.append(n_groups * base ** (len(columns) + 2))
        return refine(inverse, n_groups, windows, columns, base)

    refine = core._refine
    monkeypatch.setattr(core, "_refine", spy)
    rng = np.random.default_rng(12)
    for alphabet, k, n in ((BINARY, 41, 120), (DNA, 14, 60)):
        seq = Sequence(rng.integers(0, alphabet.size, n).astype(np.uint8), alphabet)
        spans.clear()
        grown.clear()
        _check_groups(seq, k)
        assert len(spans) >= 2 and max(spans) <= 2**64
        # each step but the last takes as many orders as fit: one more overflows
        assert min(grown[:-1]) > 2**64
    for alphabet, k in ((BINARY, 20), (DNA, 13)):
        seq = Sequence(rng.integers(0, alphabet.size, 300).astype(np.uint8), alphabet)
        _check_groups(seq, k)
        windows = context_windows(seq.data, k, pad=alphabet.pad_index)
        keys = pack_context_keys(windows, context_columns(k, k), alphabet.size + 1, np.zeros(300))
        assert np.array_equal(group_contexts(seq, k).inverse, np.unique(keys, return_inverse=True)[1])


def _direct_partition(seq, k):
    """Group ids of every position by its extract_context digits, first seen first."""
    ids = {}
    return [ids.setdefault(extract_context(seq, i, k).digits(), len(ids)) for i in range(len(seq))]


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 40, 700, 3000])
@pytest.mark.parametrize("ks", [(0, 1, 2, 3), (0, 2, 3, 7), (1, 5, 6, 23)])
def test_context_groups_refine_like_direct_grouping(size, n, ks):
    # The chain covers k = 0, orders with gaps, n <= 2k, and sizes whose
    # steps take the dense relabel (few groups) and the sparse one (many,
    # some positions already alone). k = 23 over 3 and 4 symbols
    # overflows one key, so its step is split.
    alphabet = Alphabet(tuple("abcd"[:size]))
    rng = np.random.default_rng(size * 10_000 + n)
    seq = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
    for k, groups in zip(ks, context_groups(seq, ks)):
        direct = _direct_partition(seq, k)
        assert groups.n_groups == len(set(direct))
        # Same partition: the pairs (direct id, group) are one to one.
        assert len(set(zip(direct, groups.inverse.tolist()))) == groups.n_groups
        rows = groups.rows()
        assert rows.shape == (groups.n_groups, 2 * k)
        for i in range(0, n, max(1, n // 50)):
            assert tuple(rows[groups.inverse[i]]) == extract_context(seq, i, k).digits()


def test_refine_relabel_branches():
    # A dense step numbers groups in key order; a sparse step keeps
    # positions already alone in their group alone. Both give the
    # direct partition.
    seq = Sequence(np.array([0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1], dtype=np.uint8), BINARY)
    windows = context_windows(seq.data, 2, pad=BINARY.pad_index)
    inverse = np.zeros(len(seq), dtype=np.int32)
    inner = context_columns(1, 2)
    dense, n_dense = _refine(inverse, 1, windows, inner, 3)  # span 9 <= n = 11
    keys = pack_context_keys(windows, inner, 3, inverse)
    assert np.array_equal(dense, np.unique(keys, return_inverse=True)[1])
    assert n_dense == len(set(_direct_partition(seq, 1)))
    outer = np.array([0, 4])  # order 2's two new digits; span 9 * n_dense > n
    sparse, n_sparse = _refine(dense, n_dense, windows, outer, 3)
    assert n_sparse == len(set(_direct_partition(seq, 2)))
    assert len(set(zip(_direct_partition(seq, 2), sparse.tolist()))) == n_sparse
    alone = (np.bincount(dense, minlength=n_dense) == 1)[dense]
    assert alone.any() and (np.bincount(sparse)[sparse[alone]] == 1).all()


def test_context_groups_reject_descending_orders():
    seq = Sequence(np.zeros(5, dtype=np.uint8), BINARY)
    with pytest.raises(DataError):
        list(context_groups(seq, (2, 1)))


def test_context_groups_reject_negative_orders():
    seq = Sequence(np.zeros(5, dtype=np.uint8), BINARY)
    with pytest.raises(DataError, match="-1"):
        group_contexts(seq, -1)
    with pytest.raises(DataError):
        list(context_groups(seq, (-2, 1)))


def test_group_contexts_far_past_the_length():
    # Every context is distinct; the step search stops at the first
    # step that overflows instead of trying every remaining order.
    seq = Sequence(np.random.default_rng(13).integers(0, 4, 200).astype(np.uint8), DNA)
    start = time.perf_counter()
    groups = group_contexts(seq, 3000)
    assert time.perf_counter() - start < 1.0
    assert groups.n_groups == 200


def test_interior_slice():
    assert interior_slice(10, 3) == slice(3, 7)
    with pytest.raises(SequenceTooShort):
        interior_slice(6, 3)
