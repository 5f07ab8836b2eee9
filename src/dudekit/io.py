"""File formats: portable bitmaps, sequence records, and plain text sequences.

Images are flattened row-major so a denoiser sees one long line; the
grid shape travels separately and restores the image afterwards.
Multi-record sequence files are merged the same way, with the record
boundaries kept for exact re-splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BINARY, DNA, Alphabet, Sequence
from .errors import (
    DataError,
    EmptyFile,
    InvalidBase,
    LengthMismatch,
    MalformedHeader,
    TruncatedPayload,
)

_WHITESPACE = b" \t\r\n\v\f"


@dataclass(frozen=True)
class ImageGrid:
    """Black-and-white image: row-major pixels, 1 = black (as in PBM)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DataError("image dimensions must be positive")
        arr = np.asarray(self.pixels)
        if arr.shape != (self.width * self.height,):
            raise LengthMismatch(
                f"expected {self.width * self.height} pixels, got {arr.shape}"
            )
        if arr.size and arr.max() > 1:
            raise DataError("pixels must be 0 or 1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    def rows(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)


def rasterize(grid: ImageGrid) -> Sequence:
    """Flatten an image to a binary sequence in raster (row-major) order."""
    return Sequence(grid.pixels, BINARY)


def derasterize(seq: Sequence, width: int, height: int) -> ImageGrid:
    """Reshape a binary sequence back into an image."""
    if len(seq) != width * height:
        raise LengthMismatch(f"sequence length {len(seq)} != {width}x{height}")
    return ImageGrid(width=width, height=height, pixels=seq.data)


def _tokenize_pbm_header(blob: bytes, count: int):
    """First `count` whitespace-separated tokens, honoring '#' comments.

    Returns the tokens and the offset one whitespace byte past the last
    token, which for binary bitmaps is where the payload starts.
    """
    tokens = []
    i = 0
    n = len(blob)
    while len(tokens) < count:
        while i < n:
            if blob[i] in _WHITESPACE:
                i += 1
            elif blob[i] == 0x23:  # '#' comment runs to end of line
                while i < n and blob[i] != 0x0A:
                    i += 1
            else:
                break
        if i >= n:
            raise MalformedHeader("bitmap header ended early")
        start = i
        while i < n and blob[i] not in _WHITESPACE and blob[i] != 0x23:
            i += 1
        tokens.append(blob[start:i])
    # exactly one whitespace byte separates the header from the payload
    if i < n and blob[i] in _WHITESPACE:
        i += 1
    return tokens, i


def load_pbm(path: str) -> ImageGrid:
    """Read a portable bitmap, plain (P1) or packed binary (P4)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read bitmap {path}: {exc}") from exc
    if len(blob) == 0:
        raise EmptyFile(f"{path} is empty")
    tokens, offset = _tokenize_pbm_header(blob, 3)
    magic = tokens[0]
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise MalformedHeader(f"bad bitmap dimensions in {path}") from exc
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad bitmap dimensions {width}x{height} in {path}")
    if magic == b"P4":
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        payload = blob[offset : offset + need]
        if len(payload) < need:
            raise TruncatedPayload(f"{path}: expected {need} payload bytes, got {len(payload)}")
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes), axis=1
        )[:, :width]
        return ImageGrid(width=width, height=height, pixels=bits.reshape(-1))
    if magic == b"P1":
        body = blob[offset:]
        # Strip comments, then every remaining non-whitespace char must be a bit.
        cleaned = []
        i = 0
        while i < len(body):
            if body[i] == 0x23:
                while i < len(body) and body[i] != 0x0A:
                    i += 1
            else:
                cleaned.append(body[i])
                i += 1
        digits = bytes(cleaned).split()
        flat = b"".join(digits)
        if any(c not in b"01" for c in flat):
            raise MalformedHeader(f"{path}: plain bitmap contains non-bit characters")
        if len(flat) < width * height:
            raise TruncatedPayload(
                f"{path}: expected {width * height} bits, got {len(flat)}"
            )
        if len(flat) > width * height:
            raise MalformedHeader(f"{path}: trailing data after {width * height} bits")
        pixels = np.frombuffer(flat, dtype=np.uint8) - ord("0")
        return ImageGrid(width=width, height=height, pixels=pixels)
    raise MalformedHeader(f"{path}: unsupported magic {magic!r}, expected P1 or P4")


def save_pbm(grid: ImageGrid, path: str, binary: bool = True) -> None:
    """Write a bitmap as P4 (packed) or P1 (plain text)."""
    rows = grid.rows()
    with open(path, "wb") as fh:
        if binary:
            fh.write(f"P4\n{grid.width} {grid.height}\n".encode("ascii"))
            fh.write(np.packbits(rows, axis=1).tobytes())
        else:
            fh.write(f"P1\n{grid.width} {grid.height}\n".encode("ascii"))
            for row in rows:
                fh.write("".join("1" if v else "0" for v in row).encode("ascii"))
                fh.write(b"\n")


@dataclass(frozen=True)
class ReadSet:
    """Named sequence records over one alphabet."""

    ids: tuple[str, ...]
    seqs: tuple[Sequence, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.seqs):
            raise LengthMismatch("one id per sequence required")
        if len(self.seqs) == 0:
            raise EmptyFile("a read set needs at least one record")
        first = self.seqs[0].alphabet
        if any(s.alphabet != first for s in self.seqs):
            raise DataError("all records must share one alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return self.seqs[0].alphabet

    def boundaries(self) -> tuple[int, ...]:
        """Cumulative end offsets of each record in the merged sequence."""
        ends = []
        total = 0
        for s in self.seqs:
            total += len(s)
            ends.append(total)
        return tuple(ends)


def merge_reads(reads: ReadSet) -> tuple[Sequence, tuple[int, ...]]:
    """Concatenate records into one sequence plus re-split boundaries."""
    data = np.concatenate([s.data for s in reads.seqs])
    return Sequence(data, reads.alphabet), reads.boundaries()


def split_reads(seq: Sequence, boundaries: tuple[int, ...], ids: tuple[str, ...]) -> ReadSet:
    """Inverse of merge_reads given the boundaries and record ids."""
    if len(boundaries) != len(ids):
        raise LengthMismatch("one boundary per id required")
    if list(boundaries) != sorted(boundaries) or (boundaries and boundaries[-1] != len(seq)):
        raise LengthMismatch("boundaries must be increasing and end at the sequence length")
    seqs = []
    start = 0
    for end in boundaries:
        seqs.append(Sequence(seq.data[start:end], seq.alphabet))
        start = end
    return ReadSet(ids=tuple(ids), seqs=tuple(seqs))


def _read_lines(path: str) -> list[str]:
    """Lines of a UTF-8 text file; unreadable or undecodable files raise DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_fasta(path: str, alphabet: Alphabet = DNA) -> ReadSet:
    """Read sequence records; every base must belong to the alphabet.

    Errors cite the record id and the offset within the record, since
    that is what one greps for in a large file.
    """
    lines = _read_lines(path)
    if not alphabet.single_char():
        raise DataError("record parsing requires single-character labels")
    lut = {lab: i for i, lab in enumerate(alphabet.labels)}
    ids: list[str] = []
    parts: list[list[int]] = []
    lengths: list[int] = []
    for line in lines:
        if line.startswith(">"):
            ids.append(line[1:].strip())
            parts.append([])
            lengths.append(0)
            continue
        stripped = line.strip()
        if not stripped:
            continue
        if not ids:
            raise MalformedHeader(f"{path}: sequence data before the first '>' header")
        for ch in stripped:
            code = lut.get(ch)
            if code is None:
                raise InvalidBase(
                    f"{path}: record {ids[-1]!r} offset {lengths[-1]}: "
                    f"base {ch!r} not in alphabet"
                )
            parts[-1].append(code)
            lengths[-1] += 1
    if not ids:
        raise EmptyFile(f"{path} contains no records")
    seqs = tuple(Sequence(np.asarray(p, dtype=np.uint8), alphabet) for p in parts)
    return ReadSet(ids=tuple(ids), seqs=seqs)


def save_fasta(reads: ReadSet, path: str, line_width: int = 70) -> None:
    if line_width < 1:
        raise DataError("line width must be positive")
    with open(path, "w", encoding="utf-8") as fh:
        for rid, seq in zip(reads.ids, reads.seqs):
            fh.write(f">{rid}\n")
            text = seq.to_text()
            for start in range(0, len(text), line_width):
                fh.write(text[start : start + line_width] + "\n")


def save_sequence(seq: Sequence, path: str, meta: dict[str, str] | None = None) -> None:
    """Write a sequence as commented headers plus wrapped symbol text."""
    if not seq.alphabet.single_char():
        raise DataError("text sequence files require single-character labels")
    lines = [f"# alphabet={''.join(seq.alphabet.labels)}", f"# n={len(seq)}"]
    for key, value in (meta or {}).items():
        if "=" in key or "\n" in key or "\n" in str(value):
            raise DataError(f"bad metadata key/value: {key!r}")
        lines.append(f"# {key}={value}")
    text = seq.to_text()
    width = 100
    body = [text[i : i + width] for i in range(0, len(text), width)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + body) + "\n")


def load_sequence(path: str, alphabet: Alphabet | None = None) -> tuple[Sequence, dict[str, str]]:
    """Read a text sequence; alphabet comes from the header unless given."""
    lines = _read_lines(path)
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in lines:
        if line.startswith("#"):
            stripped = line[1:].strip()
            if "=" in stripped:
                key, value = stripped.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        body.append(line.strip())
    if alphabet is None:
        if "alphabet" not in meta:
            raise MalformedHeader(f"{path} has no '# alphabet=' header and none was given")
        alphabet = Alphabet(tuple(meta["alphabet"]))
    return Sequence.from_text("".join(body), alphabet), meta
