"""Deterministic PPM rendering: escape-time images from classification grids
and phase portraits of the product function.

Output is P6 (binary) PPM only; bytes are a pure function of the inputs.
Phase portraits fold the argument to |arg|/pi for the hue so that images of
rectangles symmetric about the real axis are mirror-symmetric byte for byte
(the function commutes with conjugation).  A phase portrait is evaluated
and shaded in chunks of at most `PHASE_CHUNK` points, each written into one
preallocated RGB array, so the kernel's temporaries are bounded by the
chunk, not the image; per-pixel results do not depend on the chunking.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .dynamics import Grid, STATUS_ESCAPED, run_row_bands
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
    esc = grid.status == STATUS_ESCAPED
    pixels[esc] = lut[grid.step[esc] % 256]
    pixels[grid.status >= 2] = 255  # near-zero-translation overlay
    return ppm_bytes(pixels)


# value-scaled HSV with full saturation: in hue sector s each channel is
# base[s] + slope[s] * frac, one of 0, 1, frac and 1 - frac
_HUE_BASE = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
_HUE_SLOPE = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                       [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def phase_shade(logmod: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """RGB shading of a log-polar field: brightness squashes the log-modulus
    into (0, 1), hue runs over the folded argument."""
    v = 0.5 + np.arctan(logmod / 40.0) / math.pi  # -inf (a zero) -> 0
    hue = np.abs(arg) / math.pi  # folded: conjugate-symmetric
    h6 = np.clip(hue, 0.0, 1.0) * 5.0  # 5 sectors, red back to magenta-ish
    sector = np.floor(h6).astype(np.int64)
    frac = h6 - sector
    s = sector % 6
    rgb = (_HUE_BASE[s] + _HUE_SLOPE[s] * frac[..., None]) * v[..., None] * 255.0
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


# points per h_field call in a phase portrait: 64 KiB per float64
# temporary, below glibc's 128 KiB mmap threshold, so temporaries are
# reused from the heap instead of being mapped and faulted in afresh
PHASE_CHUNK = 8192


def render_phase(rect: tuple[complex, complex], nx: int, ny: int,
                 p: ParamSeq, threads: int = 1) -> bytes:
    """Phase portrait of the product function over a rectangle (see
    `dynamics.run_row_bands` for the sampling)."""
    rgb = np.empty((nx * ny, 3), dtype=np.uint8)

    def chunk(zx, zy, sl):
        _, lm, ag = _kernels.h_field(zx, zy, p)
        rgb[sl] = phase_shade(lm, ag)

    run_row_bands(rect, nx, ny, threads, PHASE_CHUNK, chunk)
    return ppm_bytes(rgb.reshape(ny, nx, 3))
