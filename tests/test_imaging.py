import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch.geometry import GridSpec, patch_cells
from corrmatch.imaging import (DescriptorWorkspace, MalformedHeaderError, PpmError, RgbImage,
                               TruncatedPayloadError, UnsupportedFormatError, decode_ppm,
                               extract_descriptors, load_image, rgb_to_lab, save_image,
                               scale_to_canonical)

import oracles
from blobs import mutated

CANONICAL = GridSpec(48, 128, 18, 24, 6, 8)


def make_image(pixels) -> RgbImage:
    return RgbImage(pixels=np.asarray(pixels, dtype=np.uint8))


# ---------------------------------------------------------------- PPM I/O

def test_decode_known_2x2_bytes():
    payload = bytes(range(12))
    img = decode_ppm(b"P6\n2 2\n255\n" + payload)
    assert img.width == 2 and img.height == 2
    assert img.pixels.tobytes() == payload


def test_decode_header_with_comments_and_padding():
    img = decode_ppm(b"P6\n# a comment\n 2\t1 \n255\n" + bytes(6))
    assert (img.width, img.height) == (2, 1)


def test_maxval_other_than_255_unsupported():
    with pytest.raises(UnsupportedFormatError):
        decode_ppm(b"P6\n1 1\n65535\n" + bytes(6))


def test_zero_byte_file_is_malformed():
    with pytest.raises(MalformedHeaderError):
        decode_ppm(b"")


def test_wrong_magic_is_malformed():
    with pytest.raises(MalformedHeaderError):
        decode_ppm(b"P5\n1 1\n255\n\x00")


@pytest.mark.parametrize("header", [b"P6 +1 1 255\n", b"P6 1 0_1 255\n", b"P6 1 1 2_55\n",
                                    b"P6 -1 1 255\n", b"P6 +1 0_1 2_55\n"])
def test_non_decimal_header_field_is_malformed(header):
    # int() would accept each of these fields; a PPM header takes decimals only.
    with pytest.raises(MalformedHeaderError):
        decode_ppm(header + bytes(3))


def test_truncated_payload():
    with pytest.raises(TruncatedPayloadError):
        decode_ppm(b"P6\n2 2\n255\n" + bytes(5))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=48).map(lambda tail: b"P6" + tail),
                 st.tuples(st.sampled_from([b"P6", b"P6 ", b"P6\n2 2\n", b"P6\n2 2\n255"]),
                           st.binary(max_size=24)).map(b"".join),
                 mutated(b"P6\n2 2\n255\n" + bytes(range(12)))))
def test_decode_raises_only_ppm_error(data):
    try:
        decode_ppm(data)
    except PpmError:
        pass


def reference_load(data: bytes):
    """The pixel shape and payload ``oracles.ppm_header`` reads from ``data``,
    or the error type and message it raises, truncation included."""
    try:
        width, height, offset = oracles.ppm_header(data)
    except PpmError as exc:
        return type(exc), str(exc)
    expected = width * height * 3
    payload = data[offset:offset + expected]
    if len(payload) < expected:
        return TruncatedPayloadError, f"payload has {len(payload)} bytes, expected {expected}"
    return (height, width, 3), payload


_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"#c\n", b"#\r",
               b"# x#y\r\n", b"#c\x0b\x0c\n", b"#"]
_FIELDS = [b"1", b"2", b"02", b"0", b"255", b"2550", b"25", b"256", b"+1", b"-1", b"a",
           b"1_0", b"2#5", b"255#c", b"\xef\xbc\x92", b"\x00", b"0" * 61 + b"255",
           b"0" * 63 + b"2", b"0" * 64 + b"2", b"9" * 40, b"x" * 17, b"x" * 70]


@st.composite
def ppm_files(draw):
    """Headers built from magics (P6, P5 and junk), fields (decimals, and
    non-digits and '#' inside a token, up to and past the 64 bytes a token
    may hold) and separators (whitespace of every kind and comments, before
    the magic, between tokens and right after the maxval), then a payload,
    and sometimes cut anywhere."""
    separator = st.lists(st.sampled_from(_SEPARATORS), max_size=3).map(b"".join)
    magic = draw(st.sampled_from([b"P6", b"P5", b"P3", b"P66", b"#P6", b"\xff", b"P" * 65])
                 | st.binary(min_size=1, max_size=3))
    data = draw(separator) + magic
    for _ in range(3):
        data += draw(st.sampled_from([b" ", b"\n", b"\r\n", b"\t"])) + draw(separator)
        data += draw(st.sampled_from(_FIELDS))
    data += draw(st.sampled_from([b"\n", b"\r", b" ", b"\x0c", b"#c\n", b""]))
    data += draw(st.binary(max_size=14))
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


def read_outcome(read, source):
    """The pixel shape and bytes ``read(source)`` decodes, or the type and
    message of the ``PpmError`` it raises."""
    try:
        img = read(source)
    except PpmError as exc:
        return type(exc), str(exc)
    return img.pixels.shape, img.pixels.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=ppm_files())
def test_decode_ppm_and_load_image_follow_the_reference_header_grammar(tmp_path_factory, data):
    expect = reference_load(data)
    assert read_outcome(decode_ppm, data) == expect
    path = tmp_path_factory.mktemp("ppm") / "x.ppm"
    path.write_bytes(data)
    if not isinstance(expect[0], tuple):
        expect = expect[0], f"{path}: {expect[1]}"
    assert read_outcome(load_image, path) == expect


def test_a_junk_file_fails_in_a_short_message_without_copying_it(tmp_path):
    # One 8 MB token: the header grammar stops 65 bytes in, and the message
    # quotes 16 of them.
    path = tmp_path / "junk.ppm"
    path.write_bytes(b"JUNK" + bytes(8 * 2**20 - 4))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedHeaderError) as caught:
            load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (f"{path}: PPM token {b'JUNK' + bytes(12)!r} "
                                 f"is over 64 bytes")
    assert len(str(caught.value)) < 200 and peak < 3 * 8 * 2**20


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "nope.ppm")


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = make_image(rng.integers(0, 256, size=(16, 9, 3)))
    path = tmp_path / "x.ppm"
    save_image(path, img)
    again = load_image(path)
    assert np.array_equal(img.pixels, again.pixels)


# ------------------------------------------------------------- rescaling

def test_identity_resample_is_bit_exact():
    rng = np.random.default_rng(1)
    img = make_image(rng.integers(0, 256, size=(128, 48, 3)))
    out = scale_to_canonical(img, CANONICAL)
    assert np.array_equal(out.pixels, img.pixels)


def test_constant_image_stays_constant():
    img = make_image(np.full((64, 100, 3), 137))
    out = scale_to_canonical(img, CANONICAL)
    assert (out.height, out.width) == (128, 48)
    assert np.all(out.pixels == 137)


def reference_bilinear(src: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Scalar bilinear resampler with the half-pixel convention."""
    in_h, in_w, _ = src.shape
    out = np.empty((out_h, out_w, 3), dtype=np.uint8)
    for y in range(out_h):
        sy = min(max((y + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, in_h - 1)
        fy = sy - y0
        for x in range(out_w):
            sx = min(max((x + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, in_w - 1)
            fx = sx - x0
            for c in range(3):
                top = src[y0, x0, c] * (1 - fx) + src[y0, x1, c] * fx
                bot = src[y1, x0, c] * (1 - fx) + src[y1, x1, c] * fx
                out[y, x, c] = min(255, int(math.floor(top * (1 - fy) + bot * fy + 0.5)))
    return out


def test_downscale_matches_scalar_reference():
    rng = np.random.default_rng(2)
    src = rng.integers(0, 256, size=(256, 96, 3)).astype(np.uint8)
    out = scale_to_canonical(make_image(src), CANONICAL)
    assert np.array_equal(out.pixels, reference_bilinear(src.astype(np.float64), 48, 128))


def test_upscale_matches_scalar_reference():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, size=(40, 20, 3)).astype(np.uint8)
    out = scale_to_canonical(make_image(src), CANONICAL)
    assert np.array_equal(out.pixels, reference_bilinear(src.astype(np.float64), 48, 128))


# ------------------------------------------------------------ descriptors

def test_descriptor_shape_and_range():
    rng = np.random.default_rng(4)
    img = make_image(rng.integers(0, 256, size=(128, 48, 3)))
    desc = extract_descriptors(img, CANONICAL, 8, 8)
    assert desc.shape == (84, 3 * 8 + 8)  # 3 color blocks and 1 gradient block
    assert np.all(desc >= 0.0) and np.all(desc <= 1.0)
    color = desc[:, :24].sum(axis=1)
    grad = desc[:, 24:].sum(axis=1)
    assert np.allclose(color, 1.0, atol=1e-9)
    assert np.all((np.abs(grad - 1.0) <= 1e-9) | (grad == 0.0))


def test_uniform_gray_patch_has_zero_gradient_block():
    img = make_image(np.full((128, 48, 3), 128))
    desc = extract_descriptors(img, CANONICAL, 8, 8)
    assert np.all(desc[:, 24:] == 0.0)
    # single color: mass confined to at most two adjacent bins per channel
    # (soft assignment splits values that sit between bin centers)
    for block in range(3):
        weights = desc[0, block * 8:(block + 1) * 8]
        occupied = np.flatnonzero(weights)
        assert 1 <= len(occupied) <= 2
        if len(occupied) == 2:
            assert occupied[1] - occupied[0] == 1
    assert np.allclose(desc[:, :24].sum(axis=1), 1.0, atol=1e-9)


def reference_orientation_histogram(y_plane: np.ndarray, x0, y0, w, h, bins=8):
    """Scalar soft-binned magnitude-weighted orientation histogram for a patch."""
    hist = np.zeros(bins)
    height, width = y_plane.shape
    for yy in range(y0, y0 + h):
        for xx in range(x0, x0 + w):
            if 0 < xx < width - 1:
                gx = (y_plane[yy, xx + 1] - y_plane[yy, xx - 1]) / 2.0
            elif xx == 0:
                gx = y_plane[yy, 1] - y_plane[yy, 0]
            else:
                gx = y_plane[yy, -1] - y_plane[yy, -2]
            if 0 < yy < height - 1:
                gy = (y_plane[yy + 1, xx] - y_plane[yy - 1, xx]) / 2.0
            elif yy == 0:
                gy = y_plane[1, xx] - y_plane[0, xx]
            else:
                gy = y_plane[-1, xx] - y_plane[-2, xx]
            mag = math.hypot(gx, gy)
            if mag == 0.0:
                continue
            pos = (math.atan2(gy, gx) + math.pi) / (2 * math.pi / bins)
            low = math.floor(pos)
            frac = pos - low
            hist[low % bins] += mag * (1.0 - frac)
            hist[(low + 1) % bins] += mag * frac
    total = hist.sum()
    return hist / total if total > 0 else hist


def reference_color_histogram(lab_patch: np.ndarray, bins=8):
    """Scalar soft-binned Lab histogram for one patch, all channels stacked."""
    ranges = ((0.0, 100.0), (-128.0, 128.0), (-128.0, 128.0))
    hist = np.zeros(3 * bins)
    for ch, (lo, hi) in enumerate(ranges):
        width = (hi - lo) / bins
        for value in lab_patch[..., ch].ravel():
            pos = min(max((value - lo) / width - 0.5, 0.0), bins - 1.0)
            low = min(math.floor(pos), bins - 2)
            frac = pos - low
            hist[ch * bins + low] += 1.0 - frac
            hist[ch * bins + low + 1] += frac
    return hist / hist.sum()


def test_vertical_step_edge_matches_reference_histogram():
    pixels = np.zeros((128, 48, 3), dtype=np.uint8)
    pixels[:, 24:, :] = 255  # vertical black/white edge at x = 24
    img = make_image(pixels)
    desc = extract_descriptors(img, CANONICAL, 8, 8)
    y_plane = oracles.luminance(pixels)
    # probe patch (row 0, col 3) covers x in [18, 36): the edge crosses it
    ref = reference_orientation_histogram(y_plane, 18, 0, 18, 24)
    assert np.allclose(desc[3, 24:], ref, atol=1e-12)
    # horizontal gradient angles are 0 -> bin 4 under [-pi, pi) binning
    assert ref[4] == 1.0


def test_descriptor_matches_scalar_reference_on_random_image():
    rng = np.random.default_rng(11)
    pixels = rng.integers(0, 256, size=(128, 48, 3)).astype(np.uint8)
    desc = extract_descriptors(make_image(pixels), CANONICAL, 8, 8)
    lab = rgb_to_lab(pixels)
    y_plane = oracles.luminance(pixels)
    for k in (0, 17, 42, 83):
        ref = patch_ref_origin(k)
        x0, y0 = ref
        color = reference_color_histogram(lab[y0:y0 + 24, x0:x0 + 18])
        grad = reference_orientation_histogram(y_plane, x0, y0, 18, 24)
        assert np.allclose(desc[k, :24], color, atol=1e-9)
        assert np.allclose(desc[k, 24:], grad, atol=1e-9)


def patch_ref_origin(ordinal):
    from corrmatch.geometry import patch_at
    return oracles.patch_origin(CANONICAL, patch_at(CANONICAL, ordinal))


def test_identical_content_identical_descriptors():
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(128, 48, 3)).astype(np.uint8)
    d1 = extract_descriptors(make_image(pixels), CANONICAL, 8, 8)
    d2 = extract_descriptors(make_image(pixels.copy()), CANONICAL, 8, 8)
    assert np.array_equal(d1, d2)


def test_hue_change_with_same_luminance_leaves_gradient_block():
    rng = np.random.default_rng(6)
    gray_vals = rng.integers(40, 216, size=(128, 48)).astype(np.uint8)
    gray = np.repeat(gray_vals[:, :, None], 3, axis=2)
    # same luminance plane, different chroma: scale R up, B down around Y
    colored = gray.astype(np.float64).copy()
    colored[..., 0] += 30.0 * 0.114 / 0.299
    colored[..., 2] -= 30.0
    colored = np.clip(colored, 0, 255)
    assert np.allclose(oracles.luminance(colored), oracles.luminance(gray), atol=0.5)
    d_gray = extract_descriptors(make_image(gray), CANONICAL, 8, 8)
    d_col = extract_descriptors(make_image(np.round(colored).astype(np.uint8)), CANONICAL, 8, 8)
    # gradient blocks nearly identical, color blocks clearly different
    assert np.allclose(d_gray[:, 24:], d_col[:, 24:], atol=0.02)
    assert np.abs(d_gray[:, :24] - d_col[:, :24]).max() > 0.05


def test_grid_size_mismatch_rejected():
    img = make_image(np.zeros((64, 48, 3)))
    with pytest.raises(ValueError):
        extract_descriptors(img, CANONICAL, 8, 8)


@st.composite
def canvases(draw):
    """A grid over a canvas of 2 to 40 pixels a side (np.gradient needs two)."""
    width, height = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    patch_w, patch_h = draw(st.integers(1, width)), draw(st.integers(1, height))

    def stride(extent):
        return draw(st.sampled_from([d for d in range(1, extent + 1) if extent % d == 0] or [1]))

    return GridSpec(width, height, patch_w, patch_h, stride(width - patch_w),
                    stride(height - patch_h))


@settings(max_examples=60, deadline=None)
@given(grid=canvases(), color_bins=st.integers(1, 9), gradient_bins=st.integers(1, 9),
       kinds=st.lists(st.sampled_from(["random", "blocks", "flat", "saturated"]),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_extraction_into_stack_rows_is_bit_for_bit(grid, color_bins, gradient_bins, kinds, seed):
    # As in a descriptor batch: one workspace serves the images back to back
    # and each lands in its row of one stack.  Every row must equal a call
    # that allocates everything itself.
    rng = np.random.default_rng(seed)
    h, w = grid.image_height, grid.image_width
    workspace = DescriptorWorkspace(h, w, color_bins, gradient_bins)
    stack = np.full((len(kinds), grid.n_patches, 3 * color_bins + gradient_bins), np.nan)
    images = []
    for row, kind in zip(stack, kinds):
        pixels = rng.integers(0, 256, size=(h, w, 3))
        if kind == "blocks":  # patches inside one block have no gradient
            pixels = np.repeat(np.repeat(pixels[::4, ::4], 4, axis=0), 4, axis=1)[:h, :w]
        elif kind == "flat":
            pixels[:] = pixels[0, 0]
        elif kind == "saturated":
            pixels = np.where(pixels < 128, 0, 255)
        images.append(make_image(pixels))
        got = extract_descriptors(images[-1], grid, color_bins, gradient_bins,
                                  workspace=workspace, out=row)
        assert got is row
    for row, img in zip(stack, images):
        assert np.array_equal(row, extract_descriptors(img, grid, color_bins, gradient_bins))


def test_flat_patches_beside_texture_have_an_all_zero_gradient_block():
    # Texture left of column 29, one color from there on: the summed-area
    # differences of the flat patches round to tiny values of either sign,
    # and a gradient block whose total is not positive must read all zeros.
    pixels = np.random.default_rng(3).integers(0, 256, size=(128, 48, 3))
    pixels[:, 29:] = pixels[0, 29]
    img, grid = make_image(pixels), GridSpec(48, 128, 12, 16, 6, 8)
    desc = extract_descriptors(img, grid, 8, 8)
    assert np.array_equal(desc, oracles.descriptors(img, grid, 8, 8))
    flat = patch_cells(grid)[1] * grid.stride_x >= 30  # no gradient past column 29
    assert flat.any() and np.all(desc[flat, 24:] == 0.0)


def test_extraction_rejects_a_bad_out():
    img = make_image(np.random.default_rng(7).integers(0, 256, size=(128, 48, 3)))
    read_only = np.empty((84, 32))
    read_only.flags.writeable = False
    for out in (np.empty((84, 31)), np.empty((297, 32)), np.empty((84, 32), dtype=np.float32),
                np.empty((32, 84)).T, np.empty((84, 64))[:, ::2], read_only):
        with pytest.raises(ValueError):
            extract_descriptors(img, CANONICAL, 8, 8, out=out)
    out = np.empty((84, 32))
    assert extract_descriptors(img, CANONICAL, 8, 8, out=out) is out
    assert np.array_equal(out, extract_descriptors(img, CANONICAL, 8, 8))


def test_lab_conversion_known_values():
    # white and black anchors of the Lab cube
    lab = rgb_to_lab(np.array([[[255, 255, 255]], [[0, 0, 0]]], dtype=np.uint8))
    assert lab[0, 0, 0] == pytest.approx(100.0, abs=0.01)
    assert np.allclose(lab[0, 0, 1:], 0.0, atol=0.01)
    assert lab[1, 0, 0] == pytest.approx(0.0, abs=0.01)


@pytest.mark.parametrize("shape", [(128, 48, 3), (1, 1, 3), (7, 5, 3)])
def test_lab_conversion_reads_each_byte_as_the_srgb_formula_does(shape):
    # The linear-light step is a 256-entry table; each entry must equal the
    # formula evaluated over a whole image, whatever the image's size.
    pixels = np.random.default_rng(2).integers(0, 256, size=shape, dtype=np.uint8)
    pixels.reshape(-1)[:256] = np.arange(256)[:pixels.size]  # every byte value, where it fits
    assert np.array_equal(rgb_to_lab(pixels), oracles.lab(pixels))
