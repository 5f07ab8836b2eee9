"""Bitmap, headed text and JSON formats."""

import re
from pathlib import Path

import numpy as np
import pytest

import dudekit
from conftest import plain_pbm
from dudekit.core import BINARY, DNA, Alphabet, Sequence
from dudekit.errors import DataError
from dudekit.io import (
    ImageGrid,
    derasterize,
    load_pbm,
    load_sequence,
    rasterize,
    read_headed,
    save_pbm,
    save_sequence,
    write_headed,
)


def random_grid(rng, width, height):
    return ImageGrid(width, height, rng.integers(0, 2, width * height).astype(np.uint8))


def test_image_grid_validation():
    with pytest.raises(DataError, match="expected 4 pixels, got"):
        ImageGrid(2, 2, np.zeros(3, dtype=np.uint8))
    with pytest.raises(DataError):
        ImageGrid(2, 1, np.array([0, 2], dtype=np.uint8))
    with pytest.raises(DataError):
        ImageGrid(0, 2, np.zeros(0, dtype=np.uint8))
    grid = ImageGrid(3, 2, np.array([0, 1, 0, 1, 1, 1], dtype=np.uint8))
    assert grid.rows().shape == (2, 3)


def test_rasterize_roundtrip():
    rng = np.random.default_rng(2)
    grid = random_grid(rng, 7, 5)
    seq = rasterize(grid)
    assert seq.alphabet == BINARY
    assert len(seq) == 35
    back = derasterize(seq, 7, 5)
    assert np.array_equal(back.pixels, grid.pixels)
    with pytest.raises(DataError, match="sequence length 35 != 6x5"):
        derasterize(seq, 6, 5)


@pytest.mark.parametrize("width,height", [(1, 1), (7, 3), (8, 4), (9, 2), (13, 11)])
def test_pbm_binary_roundtrip(tmp_path, width, height):
    rng = np.random.default_rng(width * 100 + height)
    grid = random_grid(rng, width, height)
    path = str(tmp_path / "img.pbm")
    save_pbm(grid, path)
    back = load_pbm(path)
    assert back.width == width and back.height == height
    assert np.array_equal(back.pixels, grid.pixels)


def test_pbm_plain_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    grid = random_grid(rng, 9, 4)
    path = tmp_path / "img.pbm"
    path.write_bytes(plain_pbm(grid))
    back = load_pbm(str(path))
    assert np.array_equal(back.pixels, grid.pixels)


def test_pbm_formats_agree(tmp_path):
    rng = np.random.default_rng(6)
    grid = random_grid(rng, 12, 7)
    p1 = tmp_path / "a.pbm"
    p4 = str(tmp_path / "b.pbm")
    p1.write_bytes(plain_pbm(grid))
    save_pbm(grid, p4)
    assert np.array_equal(load_pbm(str(p1)).pixels, load_pbm(p4).pixels)


def test_pbm_plain_parsing_flexibility(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_text("P1\n# a comment\n 3 # inline\n2\n1 0 1\n0 1 0\n")
    grid = load_pbm(str(path))
    assert grid.width == 3 and grid.height == 2
    assert np.array_equal(grid.pixels, [1, 0, 1, 0, 1, 0])
    # digits may run together
    path.write_text("P1\n3 2\n101010\n")
    assert np.array_equal(load_pbm(str(path)).pixels, [1, 0, 1, 0, 1, 0])
    # a comment may end a token, or come before the magic
    for text in ("P1#c\n3 2\n101010\n", "# made by hand\nP1\n3 2\n101010\n"):
        path.write_text(text)
        assert np.array_equal(load_pbm(str(path)).pixels, [1, 0, 1, 0, 1, 0])
    # A P4 payload starts one whitespace byte after the last token, or right
    # after it; a comment there belongs to the header, with its newline, as
    # Netpbm reads it.
    payload = np.packbits(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8), axis=1).tobytes()
    path.write_bytes(b"P4\n3 2#c\n" + payload)
    assert np.array_equal(load_pbm(str(path)).pixels, [1, 0, 1, 0, 1, 0])


def test_pbm_binary_with_header_comment(tmp_path):
    path = tmp_path / "img.pbm"
    payload = np.packbits(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8), axis=1)
    path.write_bytes(b"P4\n# made by hand\n3 2\n" + payload.tobytes())
    grid = load_pbm(str(path))
    assert np.array_equal(grid.pixels, [1, 0, 1, 0, 1, 0])


def test_pbm_errors(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="is empty"):
        load_pbm(str(path))
    path.write_bytes(b"P5\n3 2\nxxxxxx")
    with pytest.raises(DataError, match="unsupported magic b'P5'"):
        load_pbm(str(path))
    path.write_bytes(b"P4\n8 4\n" + b"\x00" * 3)
    with pytest.raises(DataError, match="expected 4 payload bytes, got 3"):
        load_pbm(str(path))
    path.write_text("P1\n3 2\n10101\n")
    with pytest.raises(DataError, match="expected 6 bits, got 5"):
        load_pbm(str(path))
    path.write_text("P1\n3 2\n1010101\n")
    with pytest.raises(DataError, match="trailing data after 6 bits"):
        load_pbm(str(path))
    path.write_text("P1\n3 2\n1010x1\n")
    with pytest.raises(DataError, match="plain bitmap contains non-bit characters"):
        load_pbm(str(path))
    path.write_text("P1\n3\n")
    with pytest.raises(DataError, match="bitmap header ended early"):
        load_pbm(str(path))
    path.write_text("P1\n0 2\n\n")
    with pytest.raises(DataError, match="bad bitmap dimensions 0x2"):
        load_pbm(str(path))


def test_sequence_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    seq = Sequence(rng.integers(0, 2, 333).astype(np.uint8), BINARY)
    path = str(tmp_path / "seq.txt")
    save_sequence(seq, path, meta={"channel": "bsc:0.1", "note": "a=b"})
    back, meta = load_sequence(path)
    assert back == seq
    assert meta["channel"] == "bsc:0.1"
    assert meta["note"] == "a=b"
    assert meta["alphabet"] == "01"
    assert meta["n"] == "333"


def test_sequence_file_explicit_alphabet(tmp_path):
    seq = Sequence.from_text("ACGT", DNA)
    path = str(tmp_path / "seq.txt")
    save_sequence(seq, path)
    back, _ = load_sequence(path, DNA)
    assert back == seq


def test_sequence_file_errors(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("0101\n")
    with pytest.raises(DataError, match="has no '# alphabet=' header and none was given"):
        load_sequence(str(path))  # no alphabet header, none given
    seq, _ = load_sequence(str(path), BINARY)
    assert seq.to_text() == "0101"
    path.write_text("# alphabet=01\n01021\n")
    with pytest.raises(DataError, match="symbol '2' at offset 3 not in alphabet"):
        load_sequence(str(path))
    seq = Sequence.from_text("01", BINARY)
    with pytest.raises(DataError):
        save_sequence(seq, str(path), meta={"bad=key": "v"})
    # the '# n=' header must match the body: a file cut to 200 of 240 symbols
    save_sequence(Sequence.from_text("01" * 120, BINARY), str(path))
    lines = path.read_text().splitlines()
    assert lines[1] == "# n=240" and len(lines[-1]) == 40
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError, match="header says n=240, body has 200 symbols"):
        load_sequence(str(path))
    path.write_text("# alphabet=01\n# n=x\n0101\n")
    with pytest.raises(DataError, match="header says n=x, body has 4 symbols"):
        load_sequence(str(path))
    path.write_text("# alphabet=01\n# n=4\n01\n\n01\n")
    assert load_sequence(str(path))[0].to_text() == "0101"


def test_text_readers_reject_bad_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# alphabet=01\n01\xe901\n")
    with pytest.raises(DataError):
        load_sequence(str(path))


def test_sequence_file_roundtrips_latin1_labels(tmp_path):
    # labels past ASCII are written as UTF-8 and read back from the header
    alpha = Alphabet(("é", "ß", "a", "\xff"))
    seq = Sequence(np.random.default_rng(8).integers(0, 4, 250).astype(np.uint8), alpha)
    path = str(tmp_path / "x.txt")
    save_sequence(seq, path)
    loaded, meta = load_sequence(path)
    assert loaded == seq and meta["alphabet"] == "éßa\xff"


def test_headed_roundtrip_and_key_check(tmp_path):
    path = str(tmp_path / "headed.txt")
    write_headed(path, [("a", 1), ("note", "x=y"), ("blank", "")], ["row 1", "", "  row 2 "])
    assert read_headed(path) == ({"a": "1", "note": "x=y", "blank": ""}, ["row 1", "row 2"])
    for pair in (("a=b", "v"), ("a\nb", "v"), ("a", "v\nw"), ("a", "v\rw")):
        with pytest.raises(DataError):
            write_headed(path, [pair], [])
    with pytest.raises(DataError):
        read_headed(str(tmp_path / "missing.txt"))


def test_json_files_go_through_io():
    # read_json and write_json are the one JSON codec; json.dumps (cli._fingerprint) is no file
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(dudekit.__file__).parent.glob("*.py"))
        if path.name != "io.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"json\.(load|dump)\(", line)
    ]
    assert hits == []
