"""Orbit iteration of the map z -> z + e^h with escape classification, plus
batch grid classification and the binary grid file format.

Grid classification parallelizes over row bands; every pixel is an
independent pure computation, so output bytes are identical for any thread
count.  Scalar `iterate` and the batch kernels implement the same stepping
rule and are cross-checked in the tests.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .hfun import eval_f, eval_h
from .logc import LogComplex, Zero
from .params import ParamSeq, params_digest

GRID_MAGIC = b"BKGRID1"

STATUS_BOUNDED = 0
STATUS_ESCAPED = 1
STATUS_NEAR_ZERO = 2
STATUS_ESCAPED_AFTER_NEAR_ZERO = 3

_CELL_DTYPE = np.dtype([("status", "u1"), ("step", "<u4")])


@dataclass(frozen=True)
class OrbitRecord:
    """Iterate list with escape classification.

    points holds the orbit while it stays in cartesian range; tail is the
    first iterate that had to stay in log form.  status is "escaped",
    "near-zero-translation" (the orbit passed a unit-translation phase and
    never escaped), or "bounded-so-far".  step is the first escape index;
    nzt_step the first index where |h| < ln 2.
    """

    points: list
    tail: Optional[LogComplex]
    status: str
    step: Optional[int]
    nzt_step: Optional[int]
    max_steps: int


def default_escape_radius(p: ParamSeq) -> float:
    # heuristic: beyond the last ring the truncated product is dominated by
    # its top factor and orbits do not come back at desk scale
    return 4.0 * p.r[-1]


def iterate(z0: complex, p: ParamSeq, max_steps: int = 64,
            escape_radius: Optional[float] = None) -> OrbitRecord:
    """Iterate the map from z0 until escape or the step budget runs out."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if escape_radius is None:
        escape_radius = default_escape_radius(p)
    _kernels.check_escape_radius(p, escape_radius)
    points = [complex(z0)]
    tail = None
    step = None
    nzt_step = None
    for s in range(max_steps):
        z = points[-1]
        hres = eval_h(z, p)
        small = False
        if isinstance(hres.value, Zero):
            small = True
        elif isinstance(hres.value, complex):
            small = abs(hres.value) < math.log(2.0)
        if small and nzt_step is None:
            nzt_step = s
        fres = eval_f(z, p, hres=hres)
        if isinstance(fres.value, LogComplex):
            tail = fres.value
            step = s + 1
            break
        z1 = fres.value
        points.append(z1)
        if abs(z1) > escape_radius:
            step = s + 1
            break
    if step is not None:
        status = "escaped"
    elif nzt_step is not None:
        status = "near-zero-translation"
    else:
        status = "bounded-so-far"
    return OrbitRecord(points=points, tail=tail, status=status, step=step,
                       nzt_step=nzt_step, max_steps=max_steps)


@dataclass(frozen=True)
class Grid:
    """Classification raster with the parameter digest it was computed from."""

    nx: int
    ny: int
    status: np.ndarray  # (ny, nx) uint8
    step: np.ndarray  # (ny, nx) uint32
    digest: bytes  # sha256 of the canonical params JSON

    def counts(self) -> dict[int, int]:
        vals, cnts = np.unique(self.status, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, cnts)}


def check_axis_bounds(lo: float, hi: float) -> None:
    """Reject an axis whose ends, span or midpoint are not finite floats."""
    # a non-finite end makes the span inf or NaN
    if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise ValueError(f"axis [{lo!r}, {hi!r}] must be finite, with a "
                         "finite span and midpoint")


def axis_coords(lo: float, hi: float, n: int) -> np.ndarray:
    """n sample coordinates spanning [lo, hi] via a centered affine map.

    The offsets are exactly antisymmetric, so an axis symmetric about 0
    yields exactly negated coordinate pairs (this is what makes mirror
    symmetry of renders bit-exact).
    """
    if n < 1:
        raise ValueError("axis size must be >= 1")
    check_axis_bounds(lo, hi)
    center = 0.5 * (lo + hi)
    if n == 1:
        return np.array([center])
    i = np.arange(n, dtype=np.float64)
    t = (2.0 * i - (n - 1)) / (2.0 * (n - 1))
    return center + (hi - lo) * t


def resolve_threads(threads: Optional[int] = None) -> int:
    if threads is None:
        threads = min(os.cpu_count() or 1, 8)
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return threads


def _row_bands(ny: int, parts: int) -> list[tuple[int, int]]:
    parts = min(parts, ny)
    edges = np.linspace(0, ny, parts + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def run_row_bands(rect: tuple[complex, complex], nx: int, ny: int,
                  threads: Optional[int], band_fn) -> list:
    """Sample rect on an nx-by-ny pixel grid and evaluate it in row bands.

    rect is any two opposite corners; a degenerate rectangle collapses to a
    single sample at that point.  ``band_fn(zx, zy)`` receives one band's
    pixels as flat row-major coordinates; its results come back in band
    order, so concatenating them gives the grid row-major.  With more than
    one band each runs on its own pool thread.
    """
    z0, z1 = complex(rect[0]), complex(rect[1])
    xs = axis_coords(min(z0.real, z1.real), max(z0.real, z1.real), nx)
    ys = axis_coords(min(z0.imag, z1.imag), max(z0.imag, z1.imag), ny)

    def run_band(band):
        a, b = band
        gy, gx = np.meshgrid(ys[a:b], xs, indexing="ij")
        return band_fn(gx.ravel(), gy.ravel())

    bands = _row_bands(ny, resolve_threads(threads))
    if len(bands) == 1:
        return [run_band(bands[0])]
    with ThreadPoolExecutor(max_workers=len(bands)) as pool:
        return list(pool.map(run_band, bands))


def classify_grid(rect: tuple[complex, complex], nx: int, ny: int,
                  p: ParamSeq, max_steps: int = 64,
                  escape_radius: Optional[float] = None,
                  threads: Optional[int] = None) -> Grid:
    """Per-pixel orbit classification over a rectangle (see `run_row_bands`
    for the sampling)."""
    if escape_radius is None:
        escape_radius = default_escape_radius(p)

    def band(zx, zy):
        return _kernels.classify_field(zx, zy, p, max_steps, escape_radius)

    parts = run_row_bands(rect, nx, ny, threads, band)
    status = np.concatenate([st for st, _ in parts]).reshape(ny, nx)
    step = np.concatenate([sp for _, sp in parts]).reshape(ny, nx)
    return Grid(nx=nx, ny=ny, status=status, step=step,
                digest=params_digest(p))


def write_grid(path, grid: Grid) -> None:
    """Serialize a Grid: magic, dims, params digest, then (status, step)
    cells row-major, little-endian."""
    cells = np.empty(grid.nx * grid.ny, dtype=_CELL_DTYPE)
    cells["status"] = grid.status.ravel()
    cells["step"] = grid.step.ravel()
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<II", grid.nx, grid.ny))
        fh.write(grid.digest)
        fh.write(cells.tobytes())


def read_grid(path) -> Grid:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(GRID_MAGIC):
        raise ValueError("not a grid file: bad magic")
    off = len(GRID_MAGIC)
    if len(raw) < off + 8 + 32:
        raise ValueError("grid file truncated in header")
    nx, ny = struct.unpack_from("<II", raw, off)
    off += 8
    digest = raw[off:off + 32]
    off += 32
    expected = nx * ny * _CELL_DTYPE.itemsize
    body = raw[off:]
    if len(body) != expected:
        raise ValueError(
            f"grid file body is {len(body)} bytes, expected {expected}")
    cells = np.frombuffer(body, dtype=_CELL_DTYPE)
    return Grid(nx=nx, ny=ny,
                status=cells["status"].reshape(ny, nx).copy(),
                step=cells["step"].reshape(ny, nx).copy(),
                digest=digest)
