"""Raster and tabular I/O: PGM (P2/P5), 8-bit uncompressed BMP, CSV curves.

Parsing is strict and deterministic.  Every malformed input raises
RasterFormatError with a message naming the offending header field; no
silent zero-fill, no partial images.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _round_half_away
from .transform2d import GrayImage

__all__ = ["RasterFormatError", "RasterFile", "probe", "load_gray", "save_pgm", "write_csv"]


class RasterFormatError(ValueError):
    """A raster file failed to parse; the message names the bad field."""


@dataclass(frozen=True)
class RasterFile:
    """Parsed header summary of a raster file."""

    path: str
    format: str  # "PGM-ascii", "PGM-binary", "BMP-8bit-grayscale"
    width: int
    height: int
    maxval: int


class _TokenReader:
    """Whitespace/comment-aware token scanner over PGM header bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_separators(self):
        while self.pos < len(self.data):
            c = self.data[self.pos : self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                nl = self.data.find(b"\n", self.pos)
                self.pos = len(self.data) if nl < 0 else nl + 1
            else:
                return

    def token(self, field: str) -> bytes:
        self._skip_separators()
        start = self.pos
        while self.pos < len(self.data) and not self.data[self.pos : self.pos + 1].isspace():
            self.pos += 1
        if self.pos == start:
            raise RasterFormatError(f"PGM header truncated while reading {field}")
        return self.data[start : self.pos]

    def integer(self, field: str) -> int:
        tok = self.token(field)
        try:
            return int(tok)
        except ValueError:
            raise RasterFormatError(f"PGM {field} is not an integer: {tok!r}") from None


def _parse_pgm(data: bytes, path: str):
    rd = _TokenReader(data)
    magic = rd.token("magic")
    if magic not in (b"P2", b"P5"):
        raise RasterFormatError(f"PGM magic must be P2 or P5, got {magic!r}")
    width = rd.integer("width")
    height = rd.integer("height")
    if width <= 0 or height <= 0:
        raise RasterFormatError(f"PGM width/height must be positive, got {width}x{height}")
    maxval = rd.integer("maxval")
    if maxval <= 0:
        raise RasterFormatError(f"PGM maxval must be positive, got {maxval}")
    if maxval > 255:
        raise RasterFormatError(f"PGM maxval {maxval} exceeds 255 (8-bit only)")
    count = width * height
    if magic == b"P5":
        # exactly one separator byte between maxval and the raw payload
        rd.pos += 1
        raw = data[rd.pos : rd.pos + count]
        if len(raw) < count:
            raise RasterFormatError(
                f"PGM pixel data truncated: expected {count} bytes, found {len(raw)}"
            )
        pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        fmt = "PGM-binary"
    else:
        values = []
        for _ in range(count):
            rd._skip_separators()
            if rd.pos >= len(rd.data):
                raise RasterFormatError(
                    f"PGM pixel data truncated: expected {count} samples, found {len(values)}"
                )
            values.append(rd.integer("sample"))
        pixels = np.array(values, dtype=np.float64)
        fmt = "PGM-ascii"
    if pixels.max(initial=0) > maxval:
        raise RasterFormatError(
            f"PGM sample value {int(pixels.max())} exceeds declared maxval {maxval}"
        )
    info = RasterFile(path, fmt, width, height, maxval)
    return info, pixels.reshape(height, width)


def _parse_bmp(data: bytes, path: str):
    if len(data) < 54:
        raise RasterFormatError(f"BMP header truncated: {len(data)} bytes")
    if data[:2] != b"BM":
        raise RasterFormatError(f"BMP magic must be BM, got {data[:2]!r}")
    data_offset = struct.unpack_from("<I", data, 10)[0]
    header_size = struct.unpack_from("<I", data, 14)[0]
    if header_size != 40:
        raise RasterFormatError(f"BMP info header size must be 40, got {header_size}")
    width, height = struct.unpack_from("<ii", data, 18)
    planes, bpp = struct.unpack_from("<HH", data, 26)
    compression, _img_size = struct.unpack_from("<II", data, 30)
    colors_used = struct.unpack_from("<I", data, 46)[0]
    if width <= 0 or height == 0:
        raise RasterFormatError(f"BMP width/height invalid: {width}x{height}")
    if planes != 1:
        raise RasterFormatError(f"BMP planes must be 1, got {planes}")
    if bpp != 8:
        raise RasterFormatError(f"BMP bit depth must be 8, got {bpp}")
    if compression != 0:
        raise RasterFormatError(f"BMP compression must be 0 (uncompressed), got {compression}")
    n_colors = colors_used or 256
    palette_end = 54 + 4 * n_colors
    if len(data) < palette_end:
        raise RasterFormatError("BMP palette truncated")
    palette = np.frombuffer(data[54:palette_end], dtype=np.uint8).reshape(-1, 4)
    b, g, r = palette[:, 0], palette[:, 1], palette[:, 2]
    if not (np.array_equal(b, g) and np.array_equal(g, r)):
        raise RasterFormatError("BMP palette is not grayscale (r, g, b entries differ)")
    top_down = height < 0
    rows = abs(height)
    stride = (width + 3) & ~3  # rows padded to 4-byte boundaries
    need = data_offset + stride * rows
    if len(data) < need:
        raise RasterFormatError(
            f"BMP pixel data truncated: expected {need} bytes, found {len(data)}"
        )
    raw = np.frombuffer(data[data_offset : data_offset + stride * rows], dtype=np.uint8)
    idx = raw.reshape(rows, stride)[:, :width]
    if idx.max(initial=0) >= n_colors:
        raise RasterFormatError(
            f"BMP pixel index {int(idx.max())} outside palette of {n_colors} colors"
        )
    gray = b[idx].astype(np.float64)
    if not top_down:
        gray = gray[::-1]  # stored bottom-up; row 0 of the result is the top
    info = RasterFile(path, "BMP-8bit-grayscale", width, rows, 255)
    return info, gray


def _parse(path) -> tuple:
    p = Path(path)
    data = p.read_bytes()
    if data[:2] in (b"P2", b"P5"):
        return _parse_pgm(data, str(p))
    if data[:2] == b"BM":
        return _parse_bmp(data, str(p))
    raise RasterFormatError(f"unrecognized raster magic {data[:2]!r} (want PGM or BMP)")


def probe(path) -> RasterFile:
    """Parse and validate a raster header without keeping the pixels."""
    return _parse(path)[0]


def load_gray(path) -> GrayImage:
    """Load a PGM or 8-bit BMP as a square grayscale image, top row first."""
    info, pixels = _parse(path)
    if info.width != info.height:
        raise RasterFormatError(
            f"image is {info.width}x{info.height}; the 2-D pipeline needs square input"
        )
    return GrayImage(pixels)


def save_pgm(img, path, quantize: bool = False) -> None:
    """Write a binary (P5) PGM.

    quantize clamps to [0, 255] and rounds half away from zero, for
    images already on the 8-bit scale.  Otherwise values are affinely
    rescaled min -> 0, max -> 255, which suits coefficient grids and
    diagrams whose range is arbitrary.
    """
    pixels = img.pixels if isinstance(img, GrayImage) else np.asarray(img, dtype=np.float64)
    if quantize:
        out = np.clip(_round_half_away(pixels), 0.0, 255.0)
    else:
        lo, hi = float(pixels.min()), float(pixels.max())
        if hi == lo:
            out = np.zeros_like(pixels)
        else:
            out = np.floor((pixels - lo) * (255.0 / (hi - lo)) + 0.5)
    h, w = out.shape
    payload = out.astype(np.uint8).tobytes()
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + payload)


def write_csv(curve, path) -> None:
    """Emit a norm curve as `n,mu` rows, 12 significant digits."""
    lines = ["n,mu"]
    for n, mu in curve.points:
        lines.append(f"{n},{mu:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
