"""Image loading, canonical rescaling, and per-patch descriptor extraction.

Images are 8-bit RGB held as numpy arrays of shape (height, width, 3).
Each patch yields a descriptor of 3 * color_bins + gradient_bins values (32
at the default 8 and 8): a CIELAB color block (marginal histograms, jointly
L1-normalized) followed by a magnitude-weighted gradient-orientation
histogram computed on luminance.  The gradient block is all-zero for
patches with no gradient energy, otherwise L1-normalized.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .geometry import GridSpec, patch_cells


class PpmError(ValueError):
    """Base class for PPM decoding problems."""


class MalformedHeaderError(PpmError):
    pass


class UnsupportedFormatError(PpmError):
    pass


class TruncatedPayloadError(PpmError):
    pass


@dataclass(frozen=True)
class RgbImage:
    """8-bit RGB raster; pixels has shape (height, width, 3), dtype uint8."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) pixel array, got {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {self.pixels.dtype}")
        if self.width < 1 or self.height < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def load_image(path) -> RgbImage:
    """Decode a binary PPM (P6, maxval 255) file bit-exactly.  A ``PpmError``
    keeps its type and names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return decode_ppm(data)
    except PpmError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# The header's four tokens (magic, width, height, maxval), each after any
# whitespace and comments; a comment runs from '#' to its line's end, and a
# token from a byte that is neither whitespace nor '#' to the next
# whitespace.  A token is matched up to one byte past the longest one a
# header may hold, and a later token only where the earlier ones are.
_TOKEN_BYTES = 64
_SPACE = rb"(?:\s|#[^\r\n]*(?![^\r\n]))*"
_TOKEN = rb"([^\s#]\S{0,%d})" % _TOKEN_BYTES
_PPM_HEADER = re.compile(_SPACE + _TOKEN + (rb"(?:\s" + _SPACE + _TOKEN) * 3 + b")?" * 3)


def _ppm_header(data: bytes) -> tuple[tuple[int, int, int], int]:
    """Pixel shape (height, width, 3) and payload offset of the PPM file
    ``data``; it must hold the whole payload.  Tokens are checked in order,
    and a message quotes at most a token's first 16 bytes."""
    match = _PPM_HEADER.match(data)
    tokens = [token for token in match.groups() if token] if match else []
    for k, token in enumerate(tokens):
        if len(token) > _TOKEN_BYTES:
            raise MalformedHeaderError(f"PPM token {token[:16]!r} is over {_TOKEN_BYTES} bytes")
        if k == 0 and token != b"P6":
            raise MalformedHeaderError(f"not a binary PPM (magic {token[:16]!r})")
    if len(tokens) < 4:
        raise MalformedHeaderError("unexpected end of PPM header")
    if not all(field.isdigit() for field in tokens[1:]):
        quoted = b" ".join(field[:16] for field in tokens[1:])
        raise MalformedHeaderError(f"non-decimal PPM header field in {quoted!r}")
    width, height, maxval = map(int, tokens[1:])
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormatError(f"only maxval 255 supported, got {maxval}")
    offset = match.end() + 1  # exactly one whitespace byte separates header and payload
    if len(data) - offset < width * height * 3:
        raise TruncatedPayloadError(f"payload has {max(len(data) - offset, 0)} bytes, "
                                    f"expected {width * height * 3}")
    return (height, width, 3), offset


def decode_ppm(data: bytes) -> RgbImage:
    shape, offset = _ppm_header(data)
    pixels = np.frombuffer(data, np.uint8, count=math.prod(shape), offset=offset)
    return RgbImage(pixels=pixels.reshape(shape).copy())


def save_image(path, img: RgbImage) -> None:
    """Write a binary PPM (P6, maxval 255)."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def scale_to_canonical(img: RgbImage, grid: GridSpec) -> RgbImage:
    """Bilinear resample to the grid's canonical image size.

    Identity when the image already has the canonical size.  Sample centers
    follow the half-pixel convention: output pixel x maps to source
    coordinate (x + 0.5) * (src / dst) - 0.5, clamped at the borders.
    Values are rounded half up before the uint8 cast.
    """
    out_w, out_h = grid.image_width, grid.image_height
    if img.width == out_w and img.height == out_h:
        return RgbImage(pixels=img.pixels.copy())

    src = img.pixels.astype(np.float64)

    def axis_coords(dst: int, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pos = (np.arange(dst, dtype=np.float64) + 0.5) * length / dst - 0.5
        pos = np.clip(pos, 0.0, length - 1.0)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, length - 1)
        return lo, hi, pos - lo

    x_lo, x_hi, wx = axis_coords(out_w, img.width)
    y_lo, y_hi, wy = axis_coords(out_h, img.height)

    top = src[y_lo][:, x_lo] * (1 - wx)[None, :, None] + src[y_lo][:, x_hi] * wx[None, :, None]
    bot = src[y_hi][:, x_lo] * (1 - wx)[None, :, None] + src[y_hi][:, x_hi] * wx[None, :, None]
    blended = top * (1 - wy)[:, None, None] + bot * wy[:, None, None]
    return RgbImage(pixels=np.floor(blended + 0.5).clip(0, 255).astype(np.uint8))


def _srgb_to_linear() -> np.ndarray:
    """Linear-light value of each sRGB byte, a read-only 256-entry table."""
    rgb = np.arange(256, dtype=np.float64) / 255.0
    table = np.where(rgb <= 0.04045, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4)
    table.setflags(write=False)
    return table


_SRGB_TO_LINEAR = _srgb_to_linear()
# Linear sRGB to XYZ, and the D65 white that scales XYZ for CIELAB.
_RGB_TO_XYZ = np.array([[0.4124564, 0.3575761, 0.1804375],
                        [0.2126729, 0.7151522, 0.0721750],
                        [0.0193339, 0.1191920, 0.9503041]])
_WHITE = np.array([0.95047, 1.0, 1.08883])
# Channel bin ranges for CIELAB histograms.
_LAB_RANGES = ((0.0, 100.0), (-128.0, 128.0), (-128.0, 128.0))


class DescriptorWorkspace:
    """Every array that ``extract_descriptors`` writes besides its output,
    for images of one size and plane count: the linear-RGB, XYZ, ``f``,
    Lab, luminance and gradient planes, the soft-bin positions, indices,
    weights and flat plane index, the histogram planes, a running column
    prefix and the summed-area rows of the patch corners.  Fresh arrays per
    image go back to the operating system between images and fault in again
    on the next one; one workspace per batch pays that once.  A workspace
    serves one extraction at a time."""

    def __init__(self, height: int, width: int, color_bins: int, gradient_bins: int):
        n_planes, n_pixels = 3 * color_bins + gradient_bins, height * width
        self.shape = (height, width, n_planes)
        self.linear, self.xyz, self.f = np.empty((3, height, width, 3))
        self.above = np.empty((height, width, 3), dtype=bool)
        self.lab = np.empty((3, height, width))
        self.luma, self.gy, self.gx, self.magnitude, self.angle = np.empty((5, height, width))
        self.pos, self.low, self.frac, self.weight = np.empty((4, n_pixels))
        self.index, self.flat = np.empty((2, n_pixels), dtype=np.int64)
        self.offsets = np.arange(n_pixels) * n_planes
        self.planes = np.empty(n_pixels * n_planes)
        self.column = np.empty((width, n_planes))
        # Corner rows only; the zero top row and left column are never written.
        self.table = np.zeros((height + 1, width + 1, n_planes))


def _lab(pixels: np.ndarray, ws: DescriptorWorkspace) -> np.ndarray:
    """CIELAB (D65) of sRGB bytes (h, w, 3) into the (3, h, w) ``ws.lab``.  The
    XYZ product keeps the formula's (h, w, 3) @ (3, 3) shape, whose bits BLAS sets."""
    np.take(_SRGB_TO_LINEAR, pixels, out=ws.linear, mode="clip")
    t = np.divide(np.matmul(ws.linear, _RGB_TO_XYZ.T, out=ws.xyz), _WHITE, out=ws.xyz)
    np.greater(t, (6 / 29) ** 3, out=ws.above)
    f = np.add(np.divide(t, 3 * (6 / 29) ** 2, out=ws.f), 4 / 29, out=ws.f)
    np.copyto(f, np.cbrt(t, out=ws.linear), where=ws.above)
    np.subtract(np.multiply(f[..., 1], 116.0, out=ws.lab[0]), 16.0, out=ws.lab[0])
    np.multiply(np.subtract(f[..., 0], f[..., 1], out=ws.lab[1]), 500.0, out=ws.lab[1])
    np.multiply(np.subtract(f[..., 1], f[..., 2], out=ws.lab[2]), 200.0, out=ws.lab[2])
    return ws.lab


def rgb_to_lab(pixels: np.ndarray) -> np.ndarray:
    """sRGB bytes (h, w, 3) to CIELAB (D65), float64, shape (h, w, 3)."""
    return np.stack(_lab(pixels, DescriptorWorkspace(*pixels.shape[:2], 1, 1)), axis=-1)


def _gradient(pixels: np.ndarray, ws: DescriptorWorkspace) -> None:
    """Luminance Y = 0.299 R + 0.587 G + 0.114 B of the bytes, its
    ``np.gradient`` (central differences inside, one-sided at the borders)
    and the gradient's magnitude and angle, into ``ws``."""
    luma = np.multiply(pixels[..., 0], 0.299, out=ws.luma)
    luma += np.multiply(pixels[..., 1], 0.587, out=ws.gx)
    luma += np.multiply(pixels[..., 2], 0.114, out=ws.gx)
    for y, g in ((luma, ws.gy), (luma.T, ws.gx.T)):  # down the rows, then the columns
        np.divide(np.subtract(y[2:], y[:-2], out=g[1:-1]), 2.0, out=g[1:-1])
        np.subtract(y[1], y[0], out=g[0])
        np.subtract(y[-1], y[-2], out=g[-1])
    np.hypot(ws.gx, ws.gy, out=ws.magnitude)
    np.arctan2(ws.gy, ws.gx, out=ws.angle)


def _add_soft_bins(ws: DescriptorWorkspace, first: int, bins: int, circular: bool) -> None:
    """Add each pixel's mass at bin position ``ws.pos`` to planes ``first`` on,
    low bin before high bin: it splits between bin floor(pos) and the next by
    pos's fraction past the low bin, which keeps descriptors stable under
    small perturbations.  Color bins clamp at the range ends, and one color
    bin takes all the mass; gradient bins, centered at -pi + k 2 pi / bins,
    wrap around the circle and weigh by the gradient's magnitude."""
    low, frac, index = ws.low, ws.frac, ws.index
    if bins > 1 or circular:
        np.floor(ws.pos, out=low)
        if not circular:
            np.minimum(low, bins - 2, out=low)
        np.subtract(ws.pos, low, out=frac)
    else:
        low.fill(0.0)
        frac.fill(0.0)
    np.copyto(index, low, casting="unsafe")
    for share in (np.subtract(1.0, frac, out=ws.weight), frac):
        if circular:
            np.remainder(index, bins, out=index)
            share *= ws.magnitude.ravel()
        np.add.at(ws.planes[first:], np.add(ws.offsets, index, out=ws.flat), share)
        if bins > 1 or circular:
            index += 1


def extract_descriptors(img: RgbImage, grid: GridSpec, color_bins: int,
                        gradient_bins: int, workspace: DescriptorWorkspace | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Per-patch descriptors in zig-zag order, shape (n_patches, dim), into
    ``out`` when given (C-contiguous float64 of that shape).

    Histograms are accumulated through per-bin summed-area tables so each
    patch costs a handful of lookups regardless of patch size.  Without a
    ``workspace`` the call builds its own for the one image.  Each value
    comes from the ufunc and operands of the fresh-array formula, and every
    add runs in the order of a ``bincount`` fill and two ``cumsum`` passes,
    so the descriptors depend on neither the workspace nor ``out``.
    """
    if img.width != grid.image_width or img.height != grid.image_height:
        raise ValueError(
            f"image {img.width}x{img.height} does not match grid canvas "
            f"{grid.image_width}x{grid.image_height}")
    if min(img.width, img.height) < 2:
        raise ValueError(f"a {img.width}x{img.height} image has no gradient")

    h, w = img.height, img.width
    n_color, n_planes = 3 * color_bins, 3 * color_bins + gradient_bins
    if workspace is None:
        workspace = DescriptorWorkspace(h, w, color_bins, gradient_bins)
    elif workspace.shape != (h, w, n_planes):
        raise ValueError(f"workspace of shape {workspace.shape} for images of "
                         f"shape {(h, w, n_planes)}")
    if out is None:
        out = np.empty((grid.n_patches, n_planes))
    elif (out.shape != (grid.n_patches, n_planes) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be C-contiguous float64 of shape "
                         f"{(grid.n_patches, n_planes)}, got {out.dtype} {out.shape}")

    ws = workspace
    lab = _lab(img.pixels, ws)
    _gradient(img.pixels, ws)
    # Planes last, added to zero in bincount's input order: a pixel whose low
    # and high bins coincide (a single bin) sums 0 + low weight + high weight.
    # Within one add every pixel hits its own plane entry.
    ws.planes.fill(0.0)
    for ch, (lo, hi) in enumerate(_LAB_RANGES):
        if color_bins > 1:
            pos = np.divide(np.subtract(lab[ch].ravel(), lo, out=ws.pos),
                            (hi - lo) / color_bins, out=ws.pos)
            np.clip(np.subtract(pos, 0.5, out=pos), 0.0, color_bins - 1.0, out=pos)
        _add_soft_bins(ws, ch * color_bins, color_bins, circular=False)
    pos = np.add(ws.angle.ravel(), np.pi, out=ws.pos)
    pos /= 2.0 * np.pi / gradient_bins
    _add_soft_bins(ws, n_color, gradient_bins, circular=True)

    # Summed-area rows with a zero top row and left column, only at the rows
    # that patch corners read: a running column prefix (cumsum over rows, one
    # row add at a time; its first add, 0 + x, is x, as no plane entry is
    # -0.0), copied out at each corner row, then cumsum over columns.  The
    # first corner row is 0, the zero row.
    rows, cols = patch_cells(grid)
    x0, y0 = cols * grid.stride_x, rows * grid.stride_y
    x1, y1 = x0 + grid.patch_width, y0 + grid.patch_height
    corners = np.flatnonzero(np.bincount(np.concatenate((y0, y1))))  # sorted distinct rows
    planes, column, table = ws.planes.reshape(h, w, n_planes), ws.column, ws.table
    column.fill(0.0)
    for k in range(1, len(corners)):
        for y in range(corners[k - 1], corners[k]):
            column += planes[y]
        table[k, 1:] = column
    np.cumsum(table[1:len(corners), 1:], axis=1, out=table[1:len(corners), 1:])

    # Patch sums t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0], the corners
    # gathered one at a time into the planes, which are spent.
    y0, y1 = (np.searchsorted(corners, y) * (w + 1) for y in (y0, y1))
    rows, gathered = table.reshape(-1, n_planes), ws.planes[:out.size].reshape(out.shape)
    np.take(rows, y1 + x1, axis=0, out=out, mode="clip")
    out -= np.take(rows, y0 + x1, axis=0, out=gathered, mode="clip")
    out -= np.take(rows, y1 + x0, axis=0, out=gathered, mode="clip")
    out += np.take(rows, y0 + x0, axis=0, out=gathered, mode="clip")
    color, grad = out[:, :n_color], out[:, n_color:]
    color /= color.sum(axis=1, keepdims=True)
    grad_total = grad.sum(axis=1, keepdims=True)
    np.divide(grad, grad_total, out=grad, where=grad_total > 0.0)
    np.copyto(grad, 0.0, where=grad_total <= 0.0)
    return out
