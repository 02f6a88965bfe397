"""Deterministic PPM rendering: escape-time images from classification grids
and phase portraits of the product function.

Output is P6 (binary) PPM only; bytes are a pure function of the inputs.
Phase portraits fold the argument to |arg|/pi for the hue, so the shader
reads only log|h| and |arg h|.

The mirror rule.  The ring product has real radii and integer degrees, so
h(conj z) = conj h(z).  For a rect with min(Im) == -max(Im), exactly,
`dynamics.axis_coords` gives exactly negated row coordinates, and
`render_phase` evaluates only the lower ``(ny + 1) // 2`` rows; the other
rows are copies of those in reverse order.  Each step of the kernel is
even or odd in y (numpy's hypot, arctan2, cos, sin and rint are, which the
tests check), except the wrap of an angle into (-pi, pi] where it meets
+-pi exactly, on the imaginary axis and on exact diagonals.  There log|h|
stays bitwise equal while |arg h| can differ from its mirror's in the last
bits, so a mirrored pixel can differ from its own h's shade only where
such a difference crosses a rounding edge of the shader.  Over 25,008,225
pixels (three profiles, 25 half-widths from 1e-6 to 1e6, sides 65, 257
and 513), 22,332 had |arg h| unequal to their mirror's and none had
unequal RGB bytes.  Every other rect evaluates every row, and grids are
never mirrored: a last-bit difference of h would feed later orbit steps.

A phase portrait is evaluated and shaded in chunks of at most
`_kernels.BATCH` points, the batch size of every numpy pass, each written
into one preallocated RGB array, so the kernel's temporaries are bounded by
the chunk, not the image; per-pixel results do not depend on the chunking.
The shader computes one colour channel at a time from per-channel hue
tables, so its temporaries are chunk-sized vectors, not ``(N, 3)`` arrays.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .dynamics import Grid, run_row_bands
from .params import ParamSeq


def _tri(i: np.ndarray) -> np.ndarray:
    # triangle wave on 0..255 -> 0..254..0, pure integer arithmetic
    i = i % 256
    return np.where(i < 128, 2 * i, 2 * (255 - i)).astype(np.int64)


def _palette_lut(name: str) -> np.ndarray:
    idx = np.arange(256, dtype=np.int64)
    if name == "ember":
        r = np.minimum(255, _tri(idx) + 64)
        g = (_tri(idx + 96) * 3) // 4
        b = _tri(idx + 176) // 3
    elif name == "gray":
        r = g = b = _tri(idx)
    else:
        raise ValueError(f"unknown palette {name!r}; available: ember, gray")
    lut = np.stack([r, g, b], axis=1)
    return lut.astype(np.uint8)


def ppm_bytes(pixels: np.ndarray) -> bytes:
    """Wrap an (ny, nx, 3) uint8 array as a binary P6 PPM."""
    ny, nx, depth = pixels.shape
    if depth != 3 or pixels.dtype != np.uint8:
        raise ValueError("pixels must be (ny, nx, 3) uint8")
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    return b"".join((header, np.ascontiguousarray(pixels)))


def render_escape(grid: Grid, palette: str = "ember") -> bytes:
    """Escape-time coloring: palette cycles on the escape step, bounded cells
    are black, near-zero-translation cells are overlaid white."""
    lut = _palette_lut(palette)
    pixels = np.zeros((grid.ny, grid.nx, 3), dtype=np.uint8)
    esc = grid.status == _kernels.STATUS_ESCAPED
    pixels[esc] = lut[grid.step[esc] % 256]
    pixels[(grid.status & _kernels.STATUS_NEAR_ZERO) != 0] = 255  # overlay
    return ppm_bytes(pixels)


# value-scaled HSV with full saturation: in hue sector s each channel c is
# base[c][s] + slope[c][s] * frac, one of 0, 1, frac and 1 - frac; one row
# per channel, so a channel gathers from a contiguous table of six
_HUE_BASE = np.array([[1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
_HUE_SLOPE = np.array([[0.0, -1.0, 0.0, 0.0, 1.0, 0.0],
                       [1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0, 0.0, -1.0]])


def phase_shade(logmod: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """RGB shading of a log-polar field: brightness squashes the log-modulus
    into (0, 1), hue runs over the folded argument."""
    v = 0.5 + np.arctan(logmod / 40.0) / math.pi  # -inf (a zero) -> 0
    hue = np.abs(arg) / math.pi  # folded: conjugate-symmetric
    h6 = np.clip(hue, 0.0, 1.0) * 5.0  # 5 sectors, red back to magenta-ish
    sector = np.floor(h6).astype(np.int64)
    frac = h6 - sector
    rgb = np.empty(v.shape + (3,), dtype=np.uint8)
    for c in range(3):
        # the channel and v lie in [0, 1], so the rounded values are
        # already in [0, 255]
        ch = _HUE_BASE[c].take(sector) + _HUE_SLOPE[c].take(sector) * frac
        ch *= v
        ch *= 255.0
        rgb[..., c] = np.rint(ch, out=ch)
    return rgb


def render_phase(rect: tuple[complex, complex], nx: int, ny: int,
                 p: ParamSeq, threads: int = 1) -> bytes:
    """Phase portrait of the product function over a rectangle (see
    `dynamics.run_row_bands` for the sampling).  A rect symmetric about the
    real axis is evaluated on its lower ``(ny + 1) // 2`` rows and the rest
    is their mirror image (module docstring)."""
    rgb = np.empty((ny, nx, 3), dtype=np.uint8)
    flat = rgb.reshape(ny * nx, 3)

    def chunk(zx, zy, sl):
        _, lm, ag = _kernels.h_field(zx, zy, p)
        flat[sl] = phase_shade(lm, ag)

    lo, hi = sorted((complex(rect[0]).imag, complex(rect[1]).imag))
    rows = (ny + 1) // 2 if lo == -hi else ny
    run_row_bands(rect, nx, ny, threads, _kernels.BATCH, chunk, rows)
    rgb[rows:] = rgb[:ny - rows][::-1]
    return ppm_bytes(rgb)
