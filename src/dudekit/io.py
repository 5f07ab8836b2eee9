"""File formats: portable bitmaps, headed text files and JSON.

Images are flattened row-major so a denoiser sees one long line; the
grid shape travels separately and restores the image afterwards.
Sequence files and sweep reports share one text layout: '# key=value'
header lines, then body lines, read and written by read_headed and
write_headed. read_json and write_json are the one JSON codec: channel
and source spec files, JSON sweep reports and `eval --json` go through it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .core import BINARY, Alphabet, Rebuilt, Sequence, frozen
from .errors import DataError

# '#' starts a comment that runs to the end of its line, in a bitmap's header and P1 body alike.
_COMMENT = rb"#[^\n]*"
# A bitmap header: three tokens, each after whitespace and comments, then at most
# one whitespace byte or comment line, as Netpbm reads it; a P4 payload follows.
# The lookaheads keep every token and comment whole, so fewer tokens cannot match.
_PBM_TOKEN = rb"(?:\s|%s(?![^\n]))*([^\s#]+)(?![^\s#])" % _COMMENT
_PBM_HEADER = re.compile(_PBM_TOKEN * 3 + rb"(?:\s|%s\n?)?" % _COMMENT)


@dataclass(frozen=True, eq=False)
class ImageGrid(Rebuilt):
    """Black-and-white image: row-major pixels, 1 = black (as in PBM)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DataError("image dimensions must be positive")
        arr = np.asarray(self.pixels)
        if arr.shape != (self.width * self.height,):
            raise DataError(f"expected {self.width * self.height} pixels, got {arr.shape}")
        if arr.size and arr.max() > 1:
            raise DataError("pixels must be 0 or 1")
        object.__setattr__(self, "pixels", frozen(arr, np.uint8))

    def rows(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)


def rasterize(grid: ImageGrid) -> Sequence:
    """Flatten an image to a binary sequence in raster (row-major) order."""
    return Sequence(grid.pixels, BINARY)


def derasterize(seq: Sequence, width: int, height: int) -> ImageGrid:
    """Reshape a binary sequence back into an image."""
    if len(seq) != width * height:
        raise DataError(f"sequence length {len(seq)} != {width}x{height}")
    return ImageGrid(width=width, height=height, pixels=seq.data)


def load_pbm(path: str) -> ImageGrid:
    """Read a portable bitmap, plain (P1) or packed binary (P4)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read bitmap {path}: {exc}") from exc
    if len(blob) == 0:
        raise DataError(f"{path} is empty")
    header = _PBM_HEADER.match(blob)
    if header is None:
        raise DataError("bitmap header ended early")
    (magic, width, height), offset = header.groups(), header.end()
    try:
        width, height = int(width), int(height)
    except ValueError as exc:
        raise DataError(f"bad bitmap dimensions in {path}") from exc
    if width < 1 or height < 1:
        raise DataError(f"bad bitmap dimensions {width}x{height} in {path}")
    if magic == b"P4":
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        payload = blob[offset : offset + need]
        if len(payload) < need:
            raise DataError(f"{path}: expected {need} payload bytes, got {len(payload)}")
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes), axis=1
        )[:, :width]
        return ImageGrid(width=width, height=height, pixels=bits.reshape(-1))
    if magic == b"P1":
        # Strip comments, then every remaining non-whitespace char must be a bit.
        flat = b"".join(re.sub(_COMMENT, b"", blob[offset:]).split())
        if flat.translate(None, b"01"):
            raise DataError(f"{path}: plain bitmap contains non-bit characters")
        if len(flat) < width * height:
            raise DataError(f"{path}: expected {width * height} bits, got {len(flat)}")
        if len(flat) > width * height:
            raise DataError(f"{path}: trailing data after {width * height} bits")
        pixels = np.frombuffer(flat, dtype=np.uint8) - ord("0")
        return ImageGrid(width=width, height=height, pixels=pixels)
    raise DataError(f"{path}: unsupported magic {magic!r}, expected P1 or P4")


def save_pbm(grid: ImageGrid, path: str) -> None:
    """Write a bitmap as P4 (packed binary)."""
    with open(path, "wb") as fh:
        fh.write(f"P4\n{grid.width} {grid.height}\n".encode("ascii"))
        fh.write(np.packbits(grid.rows(), axis=1).tobytes())


def read_headed(path: str) -> tuple[dict[str, str], list[str]]:
    """('# key=value' headers, stripped non-blank body lines) of a UTF-8 text file.

    Unreadable or undecodable files raise DataError; '#' lines without
    '=' are comments.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in lines:
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif line.strip():
            body.append(line.strip())
    return meta, body


def write_headed(path: str, pairs, body_lines) -> None:
    """Write '# key=value' lines for (key, value) pairs, then the body lines."""
    lines = []
    for key, value in pairs:
        line = f"# {key}={value}"
        if "=" in key or line.splitlines() != [line]:
            raise DataError(f"bad metadata key/value: {key!r}")
        lines.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + list(body_lines)) + "\n")


def save_sequence(seq: Sequence, path: str, meta: dict[str, str] | None = None) -> None:
    """Write a sequence as commented headers plus wrapped symbol text."""
    pairs = [("alphabet", "".join(seq.alphabet.labels)), ("n", len(seq)), *(meta or {}).items()]
    text = seq.to_text()
    write_headed(path, pairs, (text[i : i + 100] for i in range(0, len(text), 100)))


def load_sequence(path: str, alphabet: Alphabet | None = None) -> tuple[Sequence, dict[str, str]]:
    """Read a text sequence; alphabet comes from the header unless given.

    A '# n=' header, when present, must match the number of symbols read.
    """
    meta, body = read_headed(path)
    if alphabet is None:
        if "alphabet" not in meta:
            raise DataError(f"{path} has no '# alphabet=' header and none was given")
        alphabet = Alphabet(tuple(meta["alphabet"]))
    seq = Sequence.from_text("".join(body), alphabet)
    if meta.get("n", str(len(seq))) != str(len(seq)):
        raise DataError(f"{path}: header says n={meta['n']}, body has {len(seq)} symbols")
    return seq, meta


def read_json(path: str, what: str):
    """The document in a UTF-8 JSON file; a file that cannot be read raises DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def write_json(path: str, doc) -> None:
    """Write doc as JSON indented by 2, keys sorted, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
