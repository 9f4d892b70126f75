import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rht import (
    GrayImage,
    RasterFormatError,
    build_rht_matrix,
    intensity_diagram,
    load_gray,
    save_pgm,
)


def make_bmp(pixels, bottom_up=True, palette=None, bpp=8, compression=0,
             header_size=40, magic=b"BM", pad_palette_to=256):
    """Assemble an 8-bit BMP from a 2-D uint8 array, knobs for corruption."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    if palette is None:
        palette = [(i, i, i) for i in range(pad_palette_to)]
    pal = b"".join(bytes([b, g, r, 0]) for (b, g, r) in palette)
    stride = (w + 3) & ~3
    rows = []
    order = range(h - 1, -1, -1) if bottom_up else range(h)
    for r in order:
        rows.append(pixels[r].tobytes() + b"\0" * (stride - w))
    payload = b"".join(rows)
    offset = 14 + 40 + len(pal)
    head = magic + struct.pack("<IHHI", offset + len(payload), 0, 0, offset)
    info = struct.pack(
        "<IiiHHIIiiII",
        header_size, w, h if bottom_up else -h, 1, bpp, compression,
        len(payload), 0, 0, len(palette), 0,
    )
    return head + info + pal + payload


class TestPgmLoad:
    def test_binary_pgm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_gray(p)
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_ascii_pgm_equals_binary(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n2 2\n255\n0 255\n128 64\n")
        img = load_gray(p)
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_comments_anywhere_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2 # format\n# a comment line\n2 # width\n2\n255\n1 2 3 4\n")
        assert load_gray(p).pixels.tolist() == [[1, 2], [3, 4]]

    def test_maxval_below_255_allowed(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n2 2\n64\n0 64 32 16\n")
        assert load_gray(p).pixels.max() == 64


class TestPgmErrors:
    def make(self, tmp_path, content):
        p = tmp_path / "bad.pgm"
        if isinstance(content, str):
            content = content.encode()
        p.write_bytes(content)
        return p

    def test_wrong_magic(self, tmp_path):
        with pytest.raises(RasterFormatError, match="magic"):
            load_gray(self.make(tmp_path, "P6\n2 2\n255\n"))

    def test_maxval_too_large(self, tmp_path):
        with pytest.raises(RasterFormatError, match="maxval"):
            load_gray(self.make(tmp_path, "P2\n2 2\n65535\n0 0 0 0"))

    def test_nonpositive_dimensions(self, tmp_path):
        with pytest.raises(RasterFormatError, match="width/height"):
            load_gray(self.make(tmp_path, "P2\n0 2\n255\n"))

    def test_non_integer_width(self, tmp_path):
        with pytest.raises(RasterFormatError, match="width"):
            load_gray(self.make(tmp_path, "P2\nwide 2\n255\n"))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(RasterFormatError, match="truncated"):
            load_gray(self.make(tmp_path, "P2\n2 2\n"))

    def test_truncated_binary_payload(self, tmp_path):
        with pytest.raises(RasterFormatError, match="truncated"):
            load_gray(self.make(tmp_path, b"P5\n2 2\n255\n\x01\x02"))

    def test_truncated_ascii_payload(self, tmp_path):
        with pytest.raises(RasterFormatError, match="truncated"):
            load_gray(self.make(tmp_path, "P2\n2 2\n255\n1 2 3"))

    def test_sample_exceeding_maxval(self, tmp_path):
        with pytest.raises(RasterFormatError, match="maxval"):
            load_gray(self.make(tmp_path, "P2\n2 2\n100\n0 0 0 101"))

    @pytest.mark.parametrize("sample", ["-1", "256", "99999999999999999999"])
    def test_ascii_sample_outside_byte_range(self, tmp_path, sample):
        with pytest.raises(RasterFormatError, match="maxval"):
            load_gray(self.make(tmp_path, f"P2\n2 2\n255\n0 {sample} 0 0"))

    def test_non_square_rejected_for_pipeline(self, tmp_path):
        with pytest.raises(RasterFormatError, match="square"):
            load_gray(self.make(tmp_path, "P2\n3 2\n255\n1 2 3 4 5 6"))

    def test_unknown_magic_entirely(self, tmp_path):
        with pytest.raises(RasterFormatError, match="magic"):
            load_gray(self.make(tmp_path, b"\x89PNG\r\n"))


class TestBmpLoad:
    def test_bottom_up_storage_is_unflipped(self, tmp_path):
        p = tmp_path / "a.bmp"
        p.write_bytes(make_bmp([[10, 20], [30, 40]]))
        assert load_gray(p).pixels.tolist() == [[10, 20], [30, 40]]

    def test_top_down_negative_height(self, tmp_path):
        p = tmp_path / "a.bmp"
        p.write_bytes(make_bmp([[10, 20], [30, 40]], bottom_up=False))
        assert load_gray(p).pixels.tolist() == [[10, 20], [30, 40]]

    def test_row_padding_handled(self, tmp_path):
        pix = np.arange(9, dtype=np.uint8).reshape(3, 3)  # stride 4, 1 pad byte
        p = tmp_path / "a.bmp"
        p.write_bytes(make_bmp(pix))
        assert np.array_equal(load_gray(p).pixels, pix)

    def test_palette_is_applied(self, tmp_path):
        palette = [(i, i, i) for i in range(255)] + [(7, 7, 7)]
        p = tmp_path / "a.bmp"
        p.write_bytes(make_bmp([[255, 0], [0, 255]], palette=palette))
        assert load_gray(p).pixels.tolist() == [[7, 0], [0, 7]]


class TestBmpErrors:
    def write(self, tmp_path, blob):
        p = tmp_path / "bad.bmp"
        p.write_bytes(blob)
        return p

    def test_wrong_bit_depth(self, tmp_path):
        blob = make_bmp(np.zeros((2, 2), dtype=np.uint8), bpp=24)
        with pytest.raises(RasterFormatError, match="bit depth"):
            load_gray(self.write(tmp_path, blob))

    def test_compressed_rejected(self, tmp_path):
        blob = make_bmp(np.zeros((2, 2), dtype=np.uint8), compression=1)
        with pytest.raises(RasterFormatError, match="compression"):
            load_gray(self.write(tmp_path, blob))

    def test_wrong_header_size(self, tmp_path):
        blob = make_bmp(np.zeros((2, 2), dtype=np.uint8), header_size=108)
        with pytest.raises(RasterFormatError, match="header size"):
            load_gray(self.write(tmp_path, blob))

    def test_color_palette_rejected(self, tmp_path):
        palette = [(i, i, i) for i in range(255)] + [(0, 0, 200)]
        blob = make_bmp(np.zeros((2, 2), dtype=np.uint8), palette=palette)
        with pytest.raises(RasterFormatError, match="palette"):
            load_gray(self.write(tmp_path, blob))

    def test_truncated_pixels(self, tmp_path):
        blob = make_bmp(np.zeros((4, 4), dtype=np.uint8))[:-8]
        with pytest.raises(RasterFormatError, match="truncated"):
            load_gray(self.write(tmp_path, blob))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(RasterFormatError, match="truncated"):
            load_gray(self.write(tmp_path, b"BM\x00\x00"))

    def test_corrupt_battery_never_crashes(self, tmp_path):
        good = make_bmp(np.zeros((4, 4), dtype=np.uint8))
        fixtures = [
            b"",
            b"BM",
            good[:20],
            good[:53],
            b"XX" + good[2:],
            good[:26] + b"\x03\x00" + good[28:],  # planes = 3
            good[:14] + b"\x0c\x00\x00\x00" + good[18:],  # core header size 12
        ]
        for i, blob in enumerate(fixtures):
            p = tmp_path / f"fix{i}.bin"
            p.write_bytes(blob)
            with pytest.raises(RasterFormatError):
                load_gray(p)


def mostly(common, rare):
    """common three times in four, else rare."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


@st.composite
def raster_bytes(draw):
    """Raw bytes; a PGM magic, random header fields and random payload
    bytes; or a BMP header with random fields and palette, then random bytes
    or zero pixels of the declared size, cut short half the time."""
    kind = draw(st.sampled_from(["raw", "pgm", "bmp"]))
    tail = draw(st.binary(max_size=80))
    if kind == "raw":
        return tail
    if kind == "pgm":
        junk = st.sampled_from([b"x", b"1e3", b"-", b""])

        def number(lo, hi):
            return mostly(st.integers(lo, hi).map(lambda v: str(v).encode()), junk)

        fields = [draw(number(-1, 5)), draw(number(-1, 5)), draw(number(0, 300))]
        fields += draw(st.lists(number(0, 300), max_size=30))
        if draw(st.booleans()):
            fields = fields[: draw(st.integers(0, len(fields)))]
        sep = draw(st.sampled_from([b" ", b"\n", b" #c\n"]))
        return draw(st.sampled_from([b"P2", b"P5"])) + sep + sep.join(fields) + sep + tail
    u32 = st.integers(0, 2**32 - 1)
    i32 = st.integers(-(2**31), 2**31 - 1)
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, 255), max_size=300))
        palette = b"".join(bytes([v, v, v, 0]) for v in levels)
    else:
        palette = draw(st.binary(max_size=1200))
    width = draw(mostly(st.integers(1, 6), i32))
    height = draw(mostly(st.integers(-6, 6), i32))
    colors = draw(mostly(st.sampled_from([0, len(palette) // 4]), u32))
    head = b"BM" + struct.pack("<IHHI", draw(u32), 0, 0, draw(mostly(st.just(54 + len(palette)), u32)))
    info = struct.pack(
        "<IiiHHIIiiII",
        draw(mostly(st.just(40), st.sampled_from([12, 108]))),
        width,
        height,
        draw(mostly(st.just(1), st.sampled_from([0, 3]))),
        draw(mostly(st.just(8), st.sampled_from([1, 24]))),
        draw(mostly(st.just(0), st.sampled_from([1, 3]))),
        draw(u32), 0, 0, colors, 0,
    )
    fits = 0 < width <= 6 and abs(height) <= 6
    pixels = draw(mostly(st.just(bytes(((width + 3) & ~3) * abs(height) if fits else 0)), st.just(tail)))
    blob = head + info + palette + pixels
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=raster_bytes())
def test_any_bytes_parse_or_raise_raster_format_error(tmp_path, blob):
    p = tmp_path / "fuzz.img"
    p.write_bytes(blob)
    try:
        load_gray(p)
    except RasterFormatError:
        pass


@pytest.mark.parametrize("fmt", ["pgm", "bmp"])
def test_megapixel_load_makes_one_float_copy(tmp_path, fmt):
    n = 1024
    pixels = (np.arange(n * n) % 251).astype(np.uint8).reshape(n, n)
    path = tmp_path / f"big.{fmt}"
    pgm = b"P5\n%d %d\n255\n" % (n, n) + pixels.tobytes()
    path.write_bytes(pgm if fmt == "pgm" else make_bmp(pixels))
    tracemalloc.start()
    try:
        img = load_gray(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(img.pixels, pixels)
    assert peak < 12 * 2**20  # 8 MiB of float64 pixels plus the file; two copies were 16 MiB


class TestSavePgm:
    def test_quantized_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (7, 7)).astype(float))
        out = tmp_path / "x.pgm"
        save_pgm(img, out, quantize=True)
        assert np.array_equal(load_gray(out).pixels, img.pixels)

    def test_quantize_clamps_and_rounds_half_away(self, tmp_path):
        img = np.array([[-3.0, 0.4], [254.5, 300.0]])
        out = tmp_path / "x.pgm"
        save_pgm(img, out, quantize=True)
        assert load_gray(out).pixels.tolist() == [[0, 0], [255, 255]]

    def test_rescale_mode_spans_full_range(self, tmp_path):
        img = np.array([[-1.0, 0.0], [0.0, 3.0]])
        out = tmp_path / "x.pgm"
        save_pgm(img, out)
        loaded = load_gray(out).pixels
        assert loaded.min() == 0 and loaded.max() == 255
        assert loaded[0, 1] == loaded[1, 0] == 64  # round((1/4)*255)

    def test_constant_image_saves_zeros(self, tmp_path):
        out = tmp_path / "x.pgm"
        save_pgm(np.zeros((3, 3)), out)
        assert (load_gray(out).pixels == 0).all()
        assert out.read_bytes().startswith(b"P5\n3 3\n255\n")

    def test_diagram_of_sixteen_point_matrix_is_three_level(self, tmp_path):
        img = intensity_diagram(build_rht_matrix(16).entries, mode="value")
        out = tmp_path / "p.pgm"
        save_pgm(img, out, quantize=True)
        assert set(np.unique(load_gray(out).pixels)) == {0.0, 128.0, 255.0}
