"""Orbit iteration of the map z -> z + e^h with escape classification, plus
batch grid classification and the binary grid file format.

`run_row_bands` samples a rectangle for both grid classification and phase
portraits: chunks of a bounded number of points, built from the two axis
vectors and written by the caller into arrays it owns, in one row band
unless more are asked for (at most `MAX_BANDS`), which then run in order on
one worker thread.  Every pixel is an independent pure computation, so
output bytes are identical for any band count and chunk size.  Scalar
`iterate` and the batch kernels implement the same stepping rule and are
cross-checked in the tests; `iterate` takes its near-zero test
(`hfun.EvalResult.near_zero`) and its budget check
(`_kernels.check_orbit_budget`) from the classifier's own.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .hfun import eval_f, eval_h
from .logc import LogComplex
from .params import ParamSeq, params_digest

GRID_MAGIC = b"BKGRID1"

# the grid's status flags, defined by the classifier that writes them
STATUS_BOUNDED = _kernels.STATUS_BOUNDED
STATUS_ESCAPED = _kernels.STATUS_ESCAPED
STATUS_NEAR_ZERO = _kernels.STATUS_NEAR_ZERO
STATUS_ESCAPED_AFTER_NEAR_ZERO = _kernels.STATUS_ESCAPED_AFTER_NEAR_ZERO

_CELL_DTYPE = np.dtype([("status", "u1"), ("step", "<u4")])


@dataclass(frozen=True)
class OrbitRecord:
    """Iterate list with escape classification.

    points holds the orbit while it stays in cartesian range; tail is the
    first iterate that had to stay in log form.  step is the first escape
    index; nzt_step the first index where |h| < ln 2, by the classifier's
    test (`hfun.EvalResult.near_zero`).  The status follows from the two.
    """

    points: list
    tail: Optional[LogComplex]
    step: Optional[int]
    nzt_step: Optional[int]
    max_steps: int

    @property
    def status(self) -> str:
        """"escaped" once step is set; else "near-zero-translation" (the
        orbit passed a unit-translation phase) once nzt_step is; else
        "bounded-so-far"."""
        if self.step is not None:
            return "escaped"
        return ("bounded-so-far" if self.nzt_step is None
                else "near-zero-translation")

    @property
    def cell(self) -> tuple[int, int]:
        """The grid's ``(status, step)`` for this orbit, as `classify_field`
        writes it: the near-zero flag, joined by the escaped flag and the
        escape step once step is set; else the near-zero step, or 0."""
        flags = STATUS_BOUNDED if self.nzt_step is None else STATUS_NEAR_ZERO
        if self.step is not None:
            return flags | STATUS_ESCAPED, self.step
        return flags, self.nzt_step or 0


def default_escape_radius(p: ParamSeq) -> float:
    # heuristic: beyond the last ring the truncated product is dominated by
    # its top factor and orbits do not come back at desk scale
    return 4.0 * p.r[-1]


def iterate(z0: complex, p: ParamSeq, max_steps: int = 64,
            escape_radius: Optional[float] = None) -> OrbitRecord:
    """Iterate the map from z0 until escape or the step budget runs out."""
    if escape_radius is None:
        escape_radius = default_escape_radius(p)
    _kernels.check_orbit_budget(p, max_steps, escape_radius)
    # the kernels' escape test, |z|^2 > R^2 with R^2 rounded once
    esc2 = escape_radius * escape_radius
    points = [complex(z0)]
    tail = None
    step = None
    nzt_step = None
    for s in range(max_steps):
        z = points[-1]
        fres = eval_f(z, p, hres=eval_h(z, p))
        if nzt_step is None and fres.near_zero:
            nzt_step = s
        if isinstance(fres.value, LogComplex):
            tail = fres.value
            step = s + 1
            break
        z1 = fres.value
        points.append(z1)
        if z1.real * z1.real + z1.imag * z1.imag > esc2:
            step = s + 1
            break
    return OrbitRecord(points=points, tail=tail, step=step,
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
        # the statuses present, in order, one pass each: np.unique sorts
        # every cell, and np.bincount casts the uint8 cells to intp, a
        # temporary eight times the raster
        cnts = [np.count_nonzero(self.status == v) for v in range(4)]
        return {v: int(c) for v, c in enumerate(cnts) if c}


def check_axis_bounds(lo: float, hi: float) -> None:
    """Reject an axis whose ends, span or midpoint are not finite floats."""
    # a non-finite end makes the span inf or NaN
    if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise ValueError(f"axis [{lo!r}, {hi!r}] must be finite, with a "
                         "finite span and midpoint")


def axis_coords(lo: float, hi: float, n: int) -> np.ndarray:
    """n sample coordinates spanning [lo, hi] via a centered affine map.

    The offsets are exactly antisymmetric, so an axis symmetric about 0
    yields exactly negated coordinate pairs (and 0.0 in the middle of an
    odd count).  `render.render_phase` mirrors the rows of such an axis
    instead of evaluating them; the `render` module docstring gives the
    rule and where |arg h| is not exactly odd.
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


# a large thread request must not cut the grid into one band per row: each
# band makes kernel calls of its own, and each call pays its per-step cost
MAX_BANDS = 8
# points per classify_field call: each step pays a fixed cost per call that
# all of the call's survivors share, so smaller chunks lose; one call per
# band on a 256x256 grid.  Memory is bounded inside the call, whose steps
# run on slices of `_kernels.BATCH` orbits
CLASSIFY_CHUNK = 65536


def run_row_bands(rect: tuple[complex, complex], nx: int, ny: int,
                  threads: int, chunk: int, chunk_fn,
                  rows: Optional[int] = None) -> None:
    """Sample rect on an nx-by-ny pixel grid and evaluate it in chunks.

    rect is any two opposite corners; a degenerate rectangle collapses to a
    single sample at that point.  ``chunk_fn(zx, zy, sl)`` receives at most
    ``chunk`` points as flat row-major coordinates, and ``sl``, their slice
    of the flat row-major grid, where the caller writes its results; slices
    never overlap.  The coordinates are cut from the rows the chunk touches,
    so beyond the chunk they cost at most two rows.  Only the row prefix
    ``0 .. rows - 1`` is evaluated (every row by default); the sampling is
    still that of the whole ny-row grid, from the lowest imaginary part up.
    The evaluated rows split into ``min(threads, rows, MAX_BANDS)`` bands;
    with more than one, the bands run one after another on a single pool
    thread, whatever their number.  Concurrent bands never paid: numpy
    releases the interpreter lock around each loop over about 500 elements
    or more, so they handed it over on nearly every numpy call, and each
    thread brought a malloc arena of its own that raised the peak heap
    (README, "Backends and threads").
    """
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    z0, z1 = complex(rect[0]), complex(rect[1])
    xs = axis_coords(min(z0.real, z1.real), max(z0.real, z1.real), nx)
    ys = axis_coords(min(z0.imag, z1.imag), max(z0.imag, z1.imag), ny)

    def run_band(band):
        end = band[1] * nx
        for a in range(band[0] * nx, end, chunk):
            b = min(a + chunk, end)
            # the rows the chunk touches, cut to the chunk's points
            r0, r1 = a // nx, (b - 1) // nx + 1
            cut = slice(a - r0 * nx, b - r0 * nx)
            chunk_fn(np.tile(xs, r1 - r0)[cut],
                     np.repeat(ys[r0:r1], nx)[cut], slice(a, b))

    rows = ny if rows is None else rows
    edges = np.linspace(0, rows, min(threads, rows, MAX_BANDS) + 1)
    edges = edges.astype(int)
    bands = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    if len(bands) == 1:
        run_band(bands[0])
        return
    # submit, not map: map cancels the bands not yet started once one
    # fails; here every band runs and the first failure is raised
    with ThreadPoolExecutor(max_workers=1) as pool:
        done = [pool.submit(run_band, band) for band in bands]
    for future in done:
        future.result()


def classify_grid(rect: tuple[complex, complex], nx: int, ny: int,
                  p: ParamSeq, max_steps: int = 64,
                  escape_radius: Optional[float] = None,
                  threads: int = 1) -> Grid:
    """Per-pixel orbit classification over a rectangle (see `run_row_bands`
    for the sampling and the bands), one `_kernels.classify_field` call per
    chunk of a band."""
    if escape_radius is None:
        escape_radius = default_escape_radius(p)
    status = np.empty(nx * ny, dtype=np.uint8)
    step = np.empty(nx * ny, dtype=np.uint32)

    def chunk(zx, zy, sl):
        status[sl], step[sl] = _kernels.classify_field(
            zx, zy, p, max_steps, escape_radius)

    run_row_bands(rect, nx, ny, threads, CLASSIFY_CHUNK, chunk)
    return Grid(nx=nx, ny=ny, status=status.reshape(ny, nx),
                step=step.reshape(ny, nx), digest=params_digest(p))


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
        fh.write(cells)


def read_grid(path) -> Grid:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(GRID_MAGIC):
        raise ValueError("not a grid file: bad magic")
    off = len(GRID_MAGIC)
    if len(raw) < off + 8 + 32:
        raise ValueError("grid file truncated in header")
    nx, ny = struct.unpack_from("<II", raw, off)
    if nx == 0 or ny == 0:
        raise ValueError(f"grid file has no cells: nx = {nx}, ny = {ny}")
    off += 8
    digest = raw[off:off + 32]
    off += 32
    expected = nx * ny * _CELL_DTYPE.itemsize
    if len(raw) - off != expected:
        raise ValueError(
            f"grid file body is {len(raw) - off} bytes, expected {expected}")
    cells = np.frombuffer(raw, dtype=_CELL_DTYPE, offset=off)
    status, step = cells["status"], cells["step"]
    if status.max() > STATUS_ESCAPED_AFTER_NEAR_ZERO:
        raise ValueError("grid file holds a status byte above "
                         f"{STATUS_ESCAPED_AFTER_NEAR_ZERO}")
    # a bounded cell has step 0, an escaped one the step on which it left,
    # at least 1; the file records no step budget to bound the rest
    if (step[status == STATUS_BOUNDED] != 0).any():
        raise ValueError("grid file holds a bounded cell with a nonzero step")
    if (step[(status & STATUS_ESCAPED) != 0] == 0).any():
        raise ValueError("grid file holds an escaped cell with step 0")
    return Grid(nx=nx, ny=ny, status=status.reshape(ny, nx).copy(),
                step=step.reshape(ny, nx).copy(), digest=digest)
