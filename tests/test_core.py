"""Alphabet, sequence, and context plumbing."""

import types

import numpy as np
import pytest

from conftest import ndude_apply
from dudekit import core
from dudekit.channel import bsc, build_estimated_loss, hamming_loss
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
from dudekit.dude import dude_denoise
from dudekit.errors import DataError
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
    with pytest.raises(DataError, match="symbol '2' at offset 3 not in alphabet"):
        BINARY.encode("0102")
    # a character beyond latin-1 is not replaced by a label such as '?'
    with pytest.raises(DataError, match="symbol '\u20ac' at offset 1 not in alphabet"):
        Alphabet(("0", "1", "?")).encode("0\u20ac1")
    with pytest.raises(DataError):
        Alphabet(("0", "\u20ac")).encode("0")


def test_sequence_validation_and_immutability():
    with pytest.raises(DataError, match="sequence contains indices outside the alphabet"):
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


def _group_rows(groups):
    """(n_groups, 2k) context digits, row g read at group g's member."""
    return groups.windows[groups.members()][:, groups.columns]


def _check_groups(seq, k):
    groups = group_contexts(seq, k)
    rows = _group_rows(groups)
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


@pytest.mark.parametrize("n", [1, 7, 70_000, 140_001])
def test_members_index_one_position_of_each_group(n):
    # Sizes past one slice of the fill (2**16 positions) and a ragged last slice.
    rng = np.random.default_rng(n)
    seq = Sequence(rng.integers(0, 3, n).astype(np.uint8), Alphabet(("a", "b", "c")))
    for groups in context_groups(seq, min(9, (n - 1) // 2)):
        if groups.k not in (0, 1, 4, 9):
            continue
        members = groups.members()
        assert members.dtype == groups.inverse.dtype
        assert np.array_equal(groups.inverse[members], np.arange(groups.n_groups))


def _direct_partition(seq, k):
    """Group ids of every position by its extract_context digits, first seen first."""
    ids = {}
    return [ids.setdefault(extract_context(seq, i, k).digits(), len(ids)) for i in range(len(seq))]


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 40, 700, 3000])
@pytest.mark.parametrize("ks", [(0, 1, 2, 3), (0, 2, 3, 7), (1, 5, 6, 23)])
def test_context_groups_refine_like_direct_grouping(size, n, ks):
    # The orders checked cover k = 0 and gaps, up to the largest with 2k < n,
    # and sizes whose steps take the dense relabel (few groups) and the
    # sparse one (many, some positions already alone).
    alphabet = Alphabet(tuple("abcd"[:size]))
    rng = np.random.default_rng(size * 10_000 + n)
    seq = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
    for groups in context_groups(seq, min(max(ks), (n - 1) // 2)):
        k = groups.k
        if k not in ks:
            continue
        direct = _direct_partition(seq, k)
        assert groups.n_groups == len(set(direct))
        # Same partition: the pairs (direct id, group) are one to one.
        assert len(set(zip(direct, groups.inverse.tolist()))) == groups.n_groups
        rows = _group_rows(groups)
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
    dense, n_dense, _ = _refine(inverse, 1, windows, inner, 3)  # span 9 <= n = 11
    keys = pack_context_keys(windows, inner, 3, inverse)
    assert np.array_equal(dense, np.unique(keys, return_inverse=True)[1])
    assert n_dense == len(set(_direct_partition(seq, 1)))
    outer = np.array([0, 4])  # order 2's two new digits; span 9 * n_dense > n
    sparse, n_sparse, _ = _refine(dense.copy(), n_dense, windows, outer, 3)  # relabels in place
    assert n_sparse == len(set(_direct_partition(seq, 2)))
    assert len(set(zip(_direct_partition(seq, 2), sparse.tolist()))) == n_sparse
    alone = (np.bincount(dense, minlength=n_dense) == 1)[dense]
    assert alone.any() and (np.bincount(sparse)[sparse[alone]] == 1).all()


def _refined_by_unique(inverse, n_groups, windows, columns, base, sparse=False):
    """_refine's numbering, by np.unique: a dense step in key order; a sparse
    one (where dense keys would not fit, or if sparse) with the groups alone
    first, by rank, then the shared keys ascending."""
    key = pack_context_keys(windows, columns, base, inverse)
    if not sparse and n_groups * base ** len(columns) <= inverse.size:
        uniq, ref = np.unique(key, return_inverse=True)
        return ref, len(uniq)
    alone = np.bincount(inverse, minlength=n_groups) == 1
    ref = (np.cumsum(alone) - 1)[inverse]
    shared = ~alone[inverse]
    uniq, sub = np.unique(key[shared], return_inverse=True)
    ref[shared] = sub + alone.sum()
    return ref, int(alone.sum()) + len(uniq)


def test_refine_numbering_on_every_branch():
    # Each case's sizes select the branch it names: dense (span <= n),
    # counted (shared span <= 4n) or sorted; its numbering must be the
    # reference's exactly.
    n, reach, base = 40, 4, 3
    rng = np.random.default_rng(21)
    seq = Sequence(rng.integers(0, 2, n).astype(np.uint8), BINARY)
    windows = context_windows(seq.data, reach, pad=BINARY.pad_index)

    def added(done, k):  # the columns of orders done+1..k
        cols = context_columns(k, reach)
        return cols[abs(cols - reach) > done]

    one = np.zeros(n, dtype=np.int32)
    order1, n1, _ = _refine(one, 1, windows, added(0, 1), base)
    cases = [  # (inverse, n_groups, columns, branch, groups alone)
        (one, 1, added(0, 1), "dense", 0),
        (order1, n1, added(1, 2), "counted", 2),  # the two edge contexts are alone
        (order1, n1, added(1, 4), "sorted", 2),  # three orders in one step
        (one, 1, added(0, 2), "counted", 0),
        (one, 1, added(0, 4), "sorted", 0),
        (rng.permutation(n).astype(np.int32), n, added(0, 1), "counted", n),
    ]
    for inverse, n_groups, cols, branch, n_alone in cases:
        sizes = np.bincount(inverse, minlength=n_groups)
        span, shared_span = n_groups * base ** len(cols), (sizes > 1).sum() * base ** len(cols)
        assert (sizes == 1).sum() == n_alone
        assert branch == ("dense" if span <= n else "counted" if shared_span <= 4 * n else "sorted")
        got, n_got, _ = _refine(inverse.copy(), n_groups, windows, cols, base)  # sparse: in place
        ref, n_ref = _refined_by_unique(inverse, n_groups, windows, cols, base)
        assert np.array_equal(got, ref) and n_got == n_ref
        assert got.dtype == inverse.dtype


def _check_settled(seq, groups):
    """The settled groups hold one position each, whose symbol centres
    records; active holds every other position, ascending."""
    settled, inverse = len(groups.centres), groups.inverse
    assert groups.centres.dtype == np.uint8
    assert (np.bincount(inverse, minlength=groups.n_groups)[:settled] == 1).all()
    at = np.flatnonzero(inverse < settled)
    assert np.array_equal(groups.centres[inverse[at]], seq.data[at])
    if settled == 0:
        assert groups.active is None
    else:
        assert groups.active.dtype == inverse.dtype
        assert np.array_equal(groups.active, np.flatnonzero(inverse >= settled))


def _walk_with_reference(monkeypatch, seq, ks):
    """Yield (groups, reference inverse, reference count, steps) at each of ks
    with 2k < n: the reference chains _refined_by_unique over the columns of
    the walk's own steps, and steps are those taken since the last yield."""
    steps, taken, refine = [], [], core._refine

    def spy(inverse, n_groups, windows, columns, base, settled=None):
        steps.append((columns, settled))
        return refine(inverse, n_groups, windows, columns, base, settled)

    monkeypatch.setattr(core, "_refine", spy)
    kmax = min(max(ks), (len(seq) - 1) // 2)
    windows = context_windows(seq.data, kmax, pad=seq.alphabet.pad_index)
    ref, n_ref = np.zeros(len(seq), dtype=np.int64), 1
    for groups in context_groups(seq, kmax):
        for cols, _ in steps:
            ref, n_ref = _refined_by_unique(ref, n_ref, windows, cols, seq.alphabet.size + 1)
        taken += steps
        steps.clear()
        if groups.k in ks:
            yield groups, ref, n_ref, taken
            taken = []


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 40, 700, 3000])
@pytest.mark.parametrize("ks", [tuple(range(9)), (0, 2, 3, 7, 8, 9), (1, 5, 6, 23, 24)])
def test_settled_walk_numbers_like_the_reference_chain(monkeypatch, size, n, ks):
    # Orders checked with gaps, up to the largest with 2k < n; from n = 700
    # on, groups settle and later sparse steps refine the active positions
    # alone.
    alphabet = Alphabet(tuple("abcd"[:size]))
    rng = np.random.default_rng(size * 10_000 + n)
    seq = Sequence(rng.integers(0, size, n).astype(np.uint8), alphabet)
    active_steps = 0
    for groups, ref, n_ref, steps in _walk_with_reference(monkeypatch, seq, ks):
        assert np.array_equal(groups.inverse, ref) and groups.n_groups == n_ref
        _check_settled(seq, groups)
        active_steps += sum(settled is not None for _, settled in steps)
    assert active_steps or n < 700


def test_step_after_settling_is_sparse_where_dense_keys_fit():
    # Once groups have settled, every step is sparse. Zeros with a few ones:
    # orders 1-5 in one sparse step settle nothing, orders 6-10 in another
    # settle the groups alone at order 5, and so few contexts occur that
    # dense keys would fit the step to order 11. That step still settles the
    # groups alone at order 10 first, relabelling inverse in place.
    data = np.zeros(3000, dtype=np.uint8)
    data[[500, 1200, 2100]] = 1
    seq, reach, base = Sequence(data, BINARY), 11, 3
    windows = context_windows(data, reach, pad=BINARY.pad_index)
    inverse, n_groups, settled = np.zeros(len(data), dtype=np.int32), 1, None
    ref, n_ref = np.zeros(len(data), dtype=np.int64), 1
    for done, k, fits in ((0, 5, False), (5, 10, False), (10, 11, True)):
        cols = context_columns(k, reach)
        cols = cols[abs(cols - reach) > done]  # the columns of orders done+1..k
        assert (n_groups * base ** len(cols) <= len(data)) == fits
        was, n_was = inverse, 0 if settled is None else settled[1]
        inverse, n_groups, settled = _refine(inverse, n_groups, windows, cols, base, settled)
        ref, n_ref = _refined_by_unique(ref, n_ref, windows, cols, base, sparse=True)
        assert inverse is was
        assert np.array_equal(inverse, ref) and n_groups == n_ref
    centres, n_settled, active = settled
    assert n_settled > n_was > 0
    groups = types.SimpleNamespace(
        inverse=inverse, n_groups=n_groups, centres=centres[:n_settled], active=active
    )
    _check_settled(seq, groups)


def test_context_groups_reject_negative_orders():
    seq = Sequence(np.zeros(5, dtype=np.uint8), BINARY)
    with pytest.raises(DataError, match="-1"):
        group_contexts(seq, -1)
    with pytest.raises(DataError):
        list(context_groups(seq, -2))


def test_context_groups_carry_their_order_and_reject_empty_sequences():
    seq = Sequence(np.zeros(15, dtype=np.uint8), BINARY)
    assert [g.k for g in context_groups(seq, 7)] == list(range(8))
    empty = Sequence(np.zeros(0, dtype=np.uint8), BINARY)
    for k in (0, 2):
        with pytest.raises(DataError, match="cannot group the contexts of an empty sequence"):
            group_contexts(empty, k)


def test_walk_groups_each_order_as_group_contexts_does():
    # The order-k groups a longer walk passes through are group_contexts(seq, k)'s:
    # the same numbering, settled groups and active positions.
    rng = np.random.default_rng(13)
    for alphabet, n in ((BINARY, 3000), (DNA, 800)):
        seq = Sequence(rng.integers(0, alphabet.size, n).astype(np.uint8), alphabet)
        for k in (0, 1, 3, 6, 9):
            want = group_contexts(seq, k)
            for kmax in (k + 1, k + 4, 40):
                groups = next(g for g in context_groups(seq, kmax) if g.k == k)
                assert np.array_equal(groups.inverse, want.inverse)
                assert groups.n_groups == want.n_groups
                assert np.array_equal(groups.centres, want.centres)
                assert (groups.active is None) == (want.active is None)
                assert want.active is None or np.array_equal(groups.active, want.active)
        assert len(want.centres) > 0  # settled groups at k = 9


@pytest.mark.parametrize("alphabet, n, top", [(BINARY, 600, 12), (DNA, 400, 7)])
def test_center_counts_are_the_shared_groups_rows_of_a_full_count(alphabet, n, top):
    # Orders past the one where every position has settled: center_counts()
    # counts the active positions alone, and its rows are those of a count
    # over all n positions from row len(centres) on.
    z = Sequence(np.random.default_rng(15).integers(0, alphabet.size, n).astype(np.uint8), alphabet)
    for groups in context_groups(z, top):
        flat = groups.inverse.astype(np.int64) * alphabet.size + z.data
        full = np.bincount(flat, minlength=groups.n_groups * alphabet.size)
        counts = groups.center_counts()
        assert counts.shape == (groups.n_groups - len(groups.centres), alphabet.size)
        assert np.array_equal(counts, full.reshape(-1, alphabet.size)[len(groups.centres) :])
    assert len(groups.centres) == n and counts.shape == (0, alphabet.size)


def test_order_far_past_the_length_fails_before_any_window(monkeypatch):
    # The walk applies 2k < n before it pads the sequence by k on each side.
    z = Sequence(np.random.default_rng(14).integers(0, 2, 50).astype(np.uint8), BINARY)
    tables = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))

    def forbidden(*args, **kwargs):
        raise AssertionError("context_windows called for an order too long")

    monkeypatch.setattr(core, "context_windows", forbidden)
    far = 10**12
    with pytest.raises(DataError, match=f"need length > 2k = {2 * far}, got 50"):
        group_contexts(z, far)
    with pytest.raises(DataError, match=f"need length > 2k = {2 * far}, got 50"):
        dude_denoise(z, far, tables)
    with pytest.raises(DataError, match=f"need length > 2k = {2 * far}, got 50"):
        ndude_apply(z, types.SimpleNamespace(k=far), tables)


def test_interior_slice():
    assert interior_slice(10, 3) == slice(3, 7)
    with pytest.raises(DataError, match="need length > 2k = 6, got 6"):
        interior_slice(6, 3)
