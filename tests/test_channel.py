"""Channels, losses, the rule mapping table, and the derived loss tables."""

import copy
import dataclasses
import importlib
import itertools
import pickle
import pkgutil

import numpy as np
import pytest

import dudekit
from conftest import ALPHABETS, random_invertible_channel, random_loss
from dudekit.baselines import HMMSpec, MarkovSource
from dudekit.channel import (
    ChannelMatrix,
    EstimatedLossTables,
    LossMatrix,
    bsc,
    build_estimated_loss,
    hamming_loss,
    mapping_table,
    parse_channel_spec,
    symmetric_channel,
)
from dudekit.core import BINARY, DNA, Alphabet, Rebuilt, Sequence
from dudekit.errors import DataError, NumericalError
from dudekit.io import ImageGrid


def test_channel_validation():
    with pytest.raises(DataError, match=r"channel must have shape \(2, 2\), got \(1, 3\)"):
        ChannelMatrix(np.array([[0.5, 0.5, 0.0]]), BINARY)
    with pytest.raises(DataError, match="channel rows must sum to 1"):
        ChannelMatrix(np.array([[0.7, 0.4], [0.5, 0.5]]), BINARY)
    with pytest.raises(DataError, match="channel entries must be finite and non-negative"):
        ChannelMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]), BINARY)
    with pytest.raises(DataError, match="channel entries must be finite and non-negative"):
        ChannelMatrix(np.array([[np.nan, 0.5], [0.5, 0.5]]), BINARY)


def test_bsc_entries_and_inverse():
    c = bsc(0.1)
    assert np.allclose(c.entries, [[0.9, 0.1], [0.1, 0.9]])
    expected_inv = np.array([[1.125, -0.125], [-0.125, 1.125]])
    assert np.allclose(c.inverse, expected_inv, atol=1e-14)


def test_symmetric_channel_rows():
    c = symmetric_channel(0.3, ALPHABETS[4])
    assert np.allclose(np.diag(c.entries), 0.7)
    assert np.allclose(c.entries.sum(axis=1), 1.0)
    off = c.entries[np.eye(4) == 0]
    assert np.allclose(off, 0.1)


def test_singular_channel_construction_ok_inverse_raises():
    c = bsc(0.5)  # rank one, still a valid channel
    with pytest.raises(NumericalError, match="channel matrix is singular to working precision"):
        _ = c.inverse
    with pytest.raises(NumericalError, match="channel matrix is singular to working precision"):
        build_estimated_loss(c, hamming_loss(BINARY))
    with pytest.raises(NumericalError, match="singular to working precision"):  # every read
        _ = c.inverse


def _assert_frozen_copy(back, value):
    """back holds value's fields, its arrays read-only and equal, recursively."""
    assert type(back) is type(value)
    for name, field in vars(value).items():
        got = getattr(back, name)
        if isinstance(field, np.ndarray):
            assert not got.flags.writeable and np.array_equal(got, field), name
        elif dataclasses.is_dataclass(field):
            _assert_frozen_copy(got, field)
        else:
            assert got == field, name


def _values():
    """One value of every type that holds arrays, c with its cached inverse read."""
    c = bsc(0.1)
    _ = c.inverse
    source = MarkovSource(np.array([[0.9, 0.1], [0.3, 0.7]]), BINARY, rng_seed=4)
    return (
        c,
        hamming_loss(DNA),
        build_estimated_loss(c, hamming_loss(BINARY)),
        source,
        HMMSpec(source, c),
        ImageGrid(3, 2, np.array([0, 1, 1, 0, 0, 1], dtype=np.uint8)),
        Sequence(np.array([0, 1, 1, 0], dtype=np.uint8), BINARY),
    )


def _one_entry_changed(value):
    """A copy of value whose first array, at any depth of its fields, has one
    entry changed; no constructor check runs on the change."""
    other = copy.copy(value)
    for f in dataclasses.fields(value):
        field = getattr(value, f.name)
        if isinstance(field, Rebuilt):
            changed = _one_entry_changed(field)
        elif isinstance(field, np.ndarray):
            changed = field.copy()
            changed.flat[-1] += 1
        else:
            continue
        object.__setattr__(other, f.name, changed)
        return other
    raise AssertionError(f"{type(value).__name__} holds no array")


def test_inverse_cached_read_only_and_picklable():
    c = bsc(0.1)
    inv = c.inverse
    assert c.inverse is inv and not inv.flags.writeable
    # every value type holding arrays unpickles through its constructor and compares by value
    for value in _values():
        back = pickle.loads(pickle.dumps(value))
        _assert_frozen_copy(back, value)
        assert back == value and not back != value
        other = _one_entry_changed(value)
        assert other != value and not other == value
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_every_value_type_is_in_the_round_trip():
    for info in pkgutil.iter_modules(dudekit.__path__):
        importlib.import_module(f"dudekit.{info.name}")
    todo, types = [Rebuilt], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("dudekit."):
                types.add(sub)
    assert types == {type(value) for value in _values()}


def test_tables_are_derived_from_the_pair():
    assert [f.name for f in dataclasses.fields(EstimatedLossTables)] == ["channel", "loss"]
    with pytest.raises(DataError, match="loss and channel alphabets differ"):
        build_estimated_loss(bsc(0.1), hamming_loss(DNA))


def test_value_types_hold_their_own_copy():
    for arr, held in (
        (np.array([0, 1, 1, 0], dtype=np.uint8), lambda a: Sequence(a, BINARY).data),
        (np.array([0, 1, 1, 0], dtype=np.uint8), lambda a: ImageGrid(2, 2, a).pixels),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), lambda a: LossMatrix(a, BINARY).entries),
    ):
        view = arr[:]
        stored = held(arr)
        assert arr.flags.writeable and not stored.flags.writeable
        view.flat[0] = 1
        assert stored.flat[0] == 0


def test_loss_validation():
    with pytest.raises(DataError):
        LossMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), BINARY)
    # the loss is square: no reconstruction outside the alphabet
    for shape in ((3, 2), (2, 3), (2,), (1, 1)):
        with pytest.raises(DataError, match=r"loss must have shape \(2, 2\)"):
            LossMatrix(np.zeros(shape), BINARY)
    assert np.allclose(hamming_loss(DNA).entries, 1 - np.eye(4))


def test_denoiser_enumeration_binary_order():
    table = mapping_table(2)
    assert table.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
    # row 2 is the identity, row 1 the flip
    assert table[2].tolist() == [0, 1] and table[1].tolist() == [1, 0]


def test_denoiser_index_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        mapping = tuple(int(v) for v in rng.integers(0, n, n))
        idx = sum(m * n**j for j, m in enumerate(mapping))
        table = mapping_table(n)
        assert table.shape == (n**n, n)
        assert tuple(table[idx]) == mapping


def test_identity_index_values():
    for size, want in ((2, 2), (4, 228)):
        t = build_estimated_loss(symmetric_channel(0.1, ALPHABETS[size]),
                                 hamming_loss(ALPHABETS[size]))
        assert t.identity == want
        assert t.map_table[t.identity].tolist() == list(range(size))


def test_enumeration_cap():
    assert mapping_table(6).shape == (6**6, 6)  # 46,656 rules, within the cap
    with pytest.raises(DataError, match="823543 denoisers exceed cap 65536"):
        mapping_table(7)
    seven = Alphabet(tuple("0123456"))  # 7**7 rules, past the cap
    with pytest.raises(DataError, match="823543 denoisers exceed cap 65536"):
        build_estimated_loss(symmetric_channel(0.1, seven), hamming_loss(seven))


def test_mapping_table_matches_enumeration():
    # itertools varies the last position fastest; rows are little-endian
    for n in (3, 4):
        want = [tuple(reversed(p)) for p in itertools.product(range(n), repeat=n)]
        assert [tuple(row) for row in mapping_table(n)] == want


# Frozen reference tables for the binary symmetric channel at 0.1 with
# symbol-error loss, derived once by hand from the defining formulas.
BSC01_EXPECTED = np.array([[0.0, 0.9, 0.1, 1.0], [1.0, 0.9, 0.1, 0.0]])
BSC01_ESTIMATED = np.array([[-0.125, 0.9, 0.1, 1.125], [1.125, 0.9, 0.1, -0.125]])


def test_tables_frozen_values_bsc01():
    t = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))
    assert np.allclose(t.expected_loss, BSC01_EXPECTED, atol=1e-12)
    assert np.allclose(t.estimated_loss, BSC01_ESTIMATED, atol=1e-12)
    assert t.estimated_loss.max() == pytest.approx(1.125, abs=1e-12)
    assert np.allclose(t.pseudo_labels[0], [1.25, 0.225, 1.025, 0.0], atol=1e-12)
    assert np.allclose(t.pseudo_labels[1], [0.0, 0.225, 1.025, 1.25], atol=1e-12)
    assert t.identity == 2
    assert t.n_denoisers == 4


def test_expected_loss_against_bruteforce_oracle():
    rng = np.random.default_rng(23)
    for _ in range(4):
        size = int(rng.integers(2, 5))
        chan = random_invertible_channel(rng, size)
        loss = random_loss(rng, size)
        rho = build_estimated_loss(chan, loss).expected_loss
        # independent enumeration: every map z -> mapping[z], indexed by the
        # little-endian formula, averaged with explicit python loops
        for mapping in itertools.product(range(size), repeat=size):
            idx = sum(m * size**j for j, m in enumerate(mapping))
            for x in range(size):
                want = sum(
                    chan.entries[x, z] * loss.entries[x, mapping[z]] for z in range(size)
                )
                assert rho[x, idx] == pytest.approx(want, abs=1e-12)


def test_unbiasedness_small_sample():
    rng = np.random.default_rng(37)
    for _ in range(30):
        size = int(rng.integers(2, 5))
        chan = random_invertible_channel(rng, size)
        loss = random_loss(rng, size)
        t = build_estimated_loss(chan, loss)
        residual = chan.entries @ t.estimated_loss - t.expected_loss
        assert np.max(np.abs(residual)) < 1e-10


def test_pseudo_labels_nonnegative_touch_zero():
    rng = np.random.default_rng(41)
    for _ in range(20):
        size = int(rng.integers(2, 5))
        t = build_estimated_loss(random_invertible_channel(rng, size), random_loss(rng, size))
        assert t.pseudo_labels.min() >= 0.0
        assert t.pseudo_labels.min() == pytest.approx(0.0, abs=1e-15)


def test_fingerprint_stability():
    a = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))
    b = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))
    c = build_estimated_loss(bsc(0.2), hamming_loss(BINARY))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_channel_spec_json(tmp_path):
    path = tmp_path / "chan.json"
    path.write_text(
        '{"alphabet": ["0", "1"], "channel": [[0.8, 0.2], [0.2, 0.8]],'
        ' "loss": [[0, 1], [2, 0]]}'
    )
    chan, loss = parse_channel_spec(str(path))
    assert np.allclose(chan.entries, [[0.8, 0.2], [0.2, 0.8]])
    assert loss.entries[1, 0] == 2.0


def test_channel_spec_json_defaults_and_errors(tmp_path):
    path = tmp_path / "chan.json"
    path.write_text('{"alphabet": ["0", "1"], "channel": [[0.8, 0.2], [0.2, 0.8]]}')
    _, loss = parse_channel_spec(str(path))
    assert np.allclose(loss.entries, 1 - np.eye(2))
    path.write_text('{"alphabet": ["0", "1"], "channel": [[0.8, 0.2, 0.0], [0.2, 0.8, 0.0]]}')
    with pytest.raises(DataError, match=r"channel must have shape \(2, 2\), got \(2, 3\)"):
        parse_channel_spec(str(path))
    # a loss with a third, "erase" column
    path.write_text('{"alphabet": ["0", "1"], "channel": [[0.7, 0.3], [0.3, 0.7]],'
                    ' "loss": [[0, 1, 0.2], [1, 0, 0.2]]}')
    with pytest.raises(DataError, match=r"loss must have shape \(2, 2\), got \(2, 3\)"):
        parse_channel_spec(str(path))
    path.write_text('{"alphabet": ["x0", "x1"], "channel": [[0.8, 0.2], [0.2, 0.8]]}')
    with pytest.raises(DataError, match="x0"):
        parse_channel_spec(str(path))
    path.write_text('{"channel": [[1.0]]}')
    with pytest.raises(DataError, match="channel file needs 'alphabet' and 'channel' keys"):
        parse_channel_spec(str(path))
    path.write_text("not json")
    with pytest.raises(DataError, match="cannot read channel file"):
        parse_channel_spec(str(path))
    # ragged, non-numeric, a non-list alphabet, a non-numeric loss, an overflow, bad UTF-8
    bad = "bad entries in channel file"
    for text, message in (
        (b'{"alphabet": ["0", "1"], "channel": [[0.9, 0.1], [1]]}', bad),
        (b'{"alphabet": ["0", "1"], "channel": [["a", "b"], [0.1, 0.9]]}', bad),
        (b'{"alphabet": 5, "channel": [[0.9, 0.1], [0.1, 0.9]]}', bad),
        (b'{"alphabet": ["0", "1"], "channel": [[0.9, 0.1], [0.1, 0.9]], "loss": {"a": 1}}', bad),
        (b'{"alphabet": ["0", "1"], "channel": [[1' + b"0" * 400 + b', 0], [0, 1]]}', bad),
        (b'{"alphabet": ["\xff", "1"], "channel": [[1, 0], [0, 1]]}', "cannot read channel file"),
    ):
        path.write_bytes(text)
        with pytest.raises(DataError, match=message):
            parse_channel_spec(str(path))


def test_parse_channel_spec():
    chan, loss = parse_channel_spec("bsc:0.15")
    assert chan.entries[0, 1] == pytest.approx(0.15)
    chan, _ = parse_channel_spec("dsc:ACGT:0.2")
    assert chan.alphabet.labels == ("A", "C", "G", "T")
    assert chan.entries[0, 0] == pytest.approx(0.8)
    with pytest.raises(DataError, match="bad bsc spec 'bsc:nope'"):
        parse_channel_spec("bsc:nope")
    with pytest.raises(DataError, match="bad dsc spec 'dsc:01', want dsc:<labels>:<delta>"):
        parse_channel_spec("dsc:01")
