"""Raster I/O: PGM (P2/P5) and 8-bit uncompressed BMP.

Parsing is strict and deterministic.  Every malformed input raises
RasterFormatError with a message naming the offending header field; no
silent zero-fill, no partial images.
"""

from __future__ import annotations

import itertools
import re
import struct
from pathlib import Path

import numpy as np

from .core import _round_half_away
from .transform2d import GrayImage

__all__ = ["RasterFormatError", "load_gray", "save_pgm"]


class RasterFormatError(ValueError):
    """A raster file failed to parse; the message names the bad field."""


# Every byte that is not whitespace starts a match, either a comment or a
# token (which cannot begin with "#"), so finditer skips only whitespace and
# a comment always runs to the end of its line or of the data.  A pattern
# that skips comments before a token would instead backtrack into an
# unterminated comment, or skip past it and read a token from inside it.
_TOKENS = re.compile(rb"#[^\n]*|([^\s#]\S*)")


def _integer(tok: bytes, field: str) -> int:
    # ASCII decimal digits only (bytes.isdigit is ASCII-only); int() alone
    # would also take "+3" and "2_55".  A leading "-" parses, so that the
    # range check of the field, which every negative value fails, names it.
    try:
        if tok.removeprefix(b"-").isdigit():
            return int(tok)
    except ValueError:  # more digits than int() converts
        pass
    raise RasterFormatError(f"PGM {field} is not an integer: {tok!r}")


def _parse_pgm(data: bytes) -> tuple:
    """(width, height, decode) of a PGM; decode() reads the samples."""
    # Lazy, so a P5 payload, which starts one byte after maxval, is never
    # tokenized, and P2 samples are checked one at a time as they arrive.
    # A comment match has no group 1, so lastindex is None.
    tokens = (m for m in _TOKENS.finditer(data) if m.lastindex)

    def token(field: str) -> re.Match:
        m = next(tokens, None)
        if m is None:
            raise RasterFormatError(f"PGM header truncated while reading {field}")
        return m

    magic = token("magic")[1]
    if magic not in (b"P2", b"P5"):
        raise RasterFormatError(f"PGM magic must be P2 or P5, got {magic!r}")
    width = _integer(token("width")[1], "width")
    height = _integer(token("height")[1], "height")
    if width <= 0 or height <= 0:
        raise RasterFormatError(f"PGM width/height must be positive, got {width}x{height}")
    maxval_token = token("maxval")
    maxval = _integer(maxval_token[1], "maxval")
    if maxval <= 0:
        raise RasterFormatError(f"PGM maxval must be positive, got {maxval}")
    if maxval > 255:
        raise RasterFormatError(f"PGM maxval {maxval} exceeds 255 (8-bit only)")
    count = width * height

    def sample(m: re.Match) -> int:
        value = _integer(m[1], "sample")
        if not 0 <= value <= maxval:
            raise RasterFormatError(f"PGM sample {value} outside 0..maxval={maxval}")
        return value

    def decode() -> np.ndarray:
        if magic == b"P5":
            # exactly one separator byte between maxval and the raw payload
            start = maxval_token.end() + 1
            raw = data[start : start + count]
            if len(raw) < count:
                raise RasterFormatError(
                    f"PGM pixel data truncated: expected {count} bytes, found {len(raw)}"
                )
            pixels = np.frombuffer(raw, dtype=np.uint8)
        else:
            # no more samples than bytes remain, and islice takes no stop
            # beyond sys.maxsize, which a many-digit width and height exceed
            found = itertools.islice(tokens, min(count, len(data)))
            pixels = np.fromiter(map(sample, found), dtype=np.uint8)
            if len(pixels) < count:
                raise RasterFormatError(
                    f"PGM pixel data truncated: expected {count} samples, found {len(pixels)}"
                )
        if pixels.max(initial=0) > maxval:
            raise RasterFormatError(
                f"PGM sample value {int(pixels.max())} exceeds declared maxval {maxval}"
            )
        return pixels.reshape(height, width)

    return width, height, decode


def _parse_bmp(data: bytes) -> tuple:
    """(width, height, decode) of an 8-bit BMP; decode() reads the samples."""
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

    def decode() -> np.ndarray:
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
        gray = b[idx]
        if not top_down:
            gray = gray[::-1]  # stored bottom-up; row 0 of the result is the top
        return gray

    return width, rows, decode


def _open(path) -> tuple:
    """The order of a square PGM or 8-bit BMP and a function that decodes
    its samples, top row first.  The header is parsed and checked, squareness
    included, before any sample is read, so a caller can bound the order
    first."""
    data = Path(path).read_bytes()
    if data[:2] in (b"P2", b"P5"):
        width, height, decode = _parse_pgm(data)
    elif data[:2] == b"BM":
        width, height, decode = _parse_bmp(data)
    else:
        raise RasterFormatError(f"unrecognized raster magic {data[:2]!r} (want PGM or BMP)")
    if width != height:
        raise RasterFormatError(
            f"image is {width}x{height}; the 2-D pipeline needs square input"
        )
    return width, decode


def load_gray(path) -> GrayImage:
    """Load a PGM or 8-bit BMP as a square grayscale image, top row first."""
    return GrayImage(_open(path)[1]())


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
            out = _round_half_away((pixels - lo) * (255.0 / (hi - lo)))
    h, w = out.shape
    payload = out.astype(np.uint8).tobytes()
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + payload)
