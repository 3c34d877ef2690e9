"""Image loading, canonical rescaling, and per-patch descriptor extraction.

Images are 8-bit RGB held as numpy arrays of shape (height, width, 3).
Each patch yields a descriptor of 3 * color_bins + gradient_bins values (32
at the default 8 and 8): a CIELAB color block (marginal histograms, jointly
L1-normalized) followed by a magnitude-weighted gradient-orientation
histogram computed on luminance.  The gradient block is all-zero for
patches with no gradient energy, otherwise L1-normalized.
"""
from __future__ import annotations

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
    """Decode a binary PPM (P6, maxval 255) file bit-exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_ppm(data)


def decode_ppm(data: bytes) -> RgbImage:
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeaderError("unexpected end of PPM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise MalformedHeaderError(f"not a binary PPM (magic {magic!r})")
    fields = [next_token() for _ in range(3)]
    if not all(field.isdigit() for field in fields):
        raise MalformedHeaderError(f"non-decimal PPM header field in {b' '.join(fields)!r}")
    width, height, maxval = map(int, fields)
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormatError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # exactly one whitespace byte separates header and payload
    expected = width * height * 3
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"payload has {len(payload)} bytes, expected {expected}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(pixels=pixels.copy())


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


def rgb_to_lab(pixels: np.ndarray) -> np.ndarray:
    """sRGB bytes (h, w, 3) to CIELAB (D65), float64."""
    linear = _SRGB_TO_LINEAR[pixels]
    m = np.array([[0.4124564, 0.3575761, 0.1804375],
                  [0.2126729, 0.7151522, 0.0721750],
                  [0.0193339, 0.1191920, 0.9503041]])
    xyz = linear @ m.T
    white = np.array([0.95047, 1.0, 1.08883])
    t = xyz / white
    f = np.where(t > (6 / 29) ** 3, np.cbrt(t), t / (3 * (6 / 29) ** 2) + 4 / 29)
    lab = np.empty_like(xyz)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def luminance(pixels: np.ndarray) -> np.ndarray:
    """Y = 0.299 R + 0.587 G + 0.114 B on byte values."""
    p = pixels.astype(np.float64)
    return 0.299 * p[..., 0] + 0.587 * p[..., 1] + 0.114 * p[..., 2]


# Channel bin ranges for CIELAB histograms.
_LAB_RANGES = ((0.0, 100.0), (-128.0, 128.0), (-128.0, 128.0))


def _soft_channel_weights(values: np.ndarray, lo: float, hi: float,
                          bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Linear soft assignment onto bin centers (clamped at the range ends).

    Returns (low bin, high bin, low weight, high weight) per pixel; weights
    sum to 1.  A value at a bin center puts all mass in that bin; between
    centers the mass splits proportionally, which keeps descriptors stable
    under small perturbations.
    """
    width = (hi - lo) / bins
    pos = np.clip((values - lo) / width - 0.5, 0.0, bins - 1.0)
    low = np.floor(pos).astype(np.int64)
    low = np.minimum(low, bins - 2) if bins > 1 else np.zeros_like(low)
    frac = pos - low if bins > 1 else np.zeros_like(pos)
    return low, low + 1 if bins > 1 else low, 1.0 - frac, frac


def _gradient_orientation(y_plane: np.ndarray, gradient_bins: int):
    """Soft circular orientation assignment and magnitude per pixel.

    Central differences in the interior, one-sided at borders (np.gradient).
    Bin centers sit at -pi + k * (2 pi / bins), so axis-aligned gradients
    land on a single bin; intermediate angles split between neighbors.
    """
    gy, gx = np.gradient(y_plane)
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)
    width = 2.0 * np.pi / gradient_bins
    pos = (angle + np.pi) / width
    low = np.floor(pos).astype(np.int64)
    frac = pos - low
    return low % gradient_bins, (low + 1) % gradient_bins, 1.0 - frac, frac, magnitude


class DescriptorWorkspace:
    """Scratch arrays that a batch of ``extract_descriptors`` calls reuses.

    Holds, for images of one size and one pair of bin counts, the per-pixel
    histogram planes, the running column prefix and the summed-area rows of
    the patch corners.  Fresh arrays of this size per image (about 3.6 MB
    at the default canvas) go back to the operating system between images
    and fault in again on the next one; one workspace per batch pays that
    once.  A workspace serves one extraction at a time.
    """

    def __init__(self, height: int, width: int, color_bins: int, gradient_bins: int):
        n_planes = 3 * color_bins + gradient_bins
        self.shape = (height, width, n_planes)
        self.planes = np.empty(height * width * n_planes)
        self.column = np.empty((width, n_planes))
        # Corner rows only; the zero top row and left column are never written.
        self.table = np.zeros((height + 1, width + 1, n_planes))
        self.offsets = np.arange(height * width) * n_planes


def extract_descriptors(img: RgbImage, grid: GridSpec, color_bins: int,
                        gradient_bins: int,
                        workspace: DescriptorWorkspace | None = None) -> np.ndarray:
    """Per-patch descriptors in zig-zag order, shape (n_patches, dim).

    Histograms are accumulated through per-bin summed-area tables so each
    patch costs a handful of lookups regardless of patch size.  Without a
    ``workspace`` the call builds its own for the one image.  Every add
    runs in the order of a ``bincount`` fill and two ``cumsum`` passes,
    so the descriptors do not depend on the workspace.
    """
    if img.width != grid.image_width or img.height != grid.image_height:
        raise ValueError(
            f"image {img.width}x{img.height} does not match grid canvas "
            f"{grid.image_width}x{grid.image_height}")

    h, w = img.height, img.width
    n_color = 3 * color_bins
    n_planes = n_color + gradient_bins
    if workspace is None:
        workspace = DescriptorWorkspace(h, w, color_bins, gradient_bins)
    elif workspace.shape != (h, w, n_planes):
        raise ValueError(f"workspace of shape {workspace.shape} for images of "
                         f"shape {(h, w, n_planes)}")

    lab = rgb_to_lab(img.pixels)
    g_lo, g_hi, g_wlo, g_whi, grad_mag = _gradient_orientation(luminance(img.pixels),
                                                               gradient_bins)
    bins, weights = [], []
    for ch, (lo, hi) in enumerate(_LAB_RANGES):
        b_lo, b_hi, w_lo, w_hi = _soft_channel_weights(lab[..., ch], lo, hi, color_bins)
        bins += [ch * color_bins + b_lo, ch * color_bins + b_hi]
        weights += [w_lo, w_hi]
    bins += [n_color + g_lo, n_color + g_hi]
    weights += [g_wlo * grad_mag, g_whi * grad_mag]
    # Planes last, added to zero in bincount's input order: a pixel whose low
    # and high bins coincide (a single bin) sums 0 + low weight + high weight.
    # Within one array every pixel hits its own plane entry.
    planes = workspace.planes
    planes.fill(0.0)
    for b, wt in zip(bins, weights):
        planes[workspace.offsets + b.ravel()] += wt.ravel()
    planes = planes.reshape(h, w, n_planes)

    # Summed-area rows with a zero top row and left column, only at the rows
    # that patch corners read: a running column prefix (cumsum over rows, one
    # row add at a time; its first add, 0 + x, is x, as no plane entry is
    # -0.0), copied out at each corner row, then cumsum over columns.  The
    # first corner row is 0, the zero row.
    rows, cols = patch_cells(grid)
    x0, y0 = cols * grid.stride_x, rows * grid.stride_y
    x1, y1 = x0 + grid.patch_width, y0 + grid.patch_height
    corners = np.flatnonzero(np.bincount(np.concatenate((y0, y1))))  # sorted distinct rows
    column, table = workspace.column, workspace.table
    column.fill(0.0)
    for k in range(1, len(corners)):
        for y in range(corners[k - 1], corners[k]):
            column += planes[y]
        table[k, 1:] = column
    np.cumsum(table[1:len(corners), 1:], axis=1, out=table[1:len(corners), 1:])
    y0, y1 = np.searchsorted(corners, y0), np.searchsorted(corners, y1)

    counts = table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]
    color, grad = counts[:, :n_color], counts[:, n_color:]
    grad_total = grad.sum(axis=1, keepdims=True)
    descriptors = np.empty((grid.n_patches, n_planes), dtype=np.float64)
    descriptors[:, :n_color] = color / color.sum(axis=1, keepdims=True)
    descriptors[:, n_color:] = np.divide(grad, grad_total, out=np.zeros_like(grad),
                                         where=grad_total > 0.0)
    return descriptors
