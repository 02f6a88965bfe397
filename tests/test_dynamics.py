"""Orbit iteration, grid classification, grid file IO, determinism."""

import cmath
import math

import numpy as np
import pytest

from bakerlab import _kernels, cli, dynamics
from bakerlab.dynamics import (
    GRID_MAGIC,
    STATUS_BOUNDED,
    STATUS_ESCAPED,
    STATUS_ESCAPED_AFTER_NEAR_ZERO,
    STATUS_NEAR_ZERO,
    axis_coords,
    classify_grid,
    default_escape_radius,
    iterate,
    read_grid,
    write_grid,
)
from bakerlab.hfun import eval_f
from bakerlab.params import ParamSeq, make_toy, params_digest
from bakerlab.render import render_phase

DOUBLING = make_toy("doubling")
STEEP = make_toy("steep")
# 140 factors whose product at TINY_H_Z is far below e^-700
TINY_H = ParamSeq(r=tuple(1 + k * 2.0 ** -40 for k in range(1, 141)),
                  n=tuple(range(1, 141)))
TINY_H_Z = complex(-0.9999999999)


def _stored_zero(p, k, nu):
    return cmath.rect(p.r[k - 1], (2 * nu + 1) * math.pi / p.n[k - 1])


class TestIterate:
    def test_origin_escapes_in_three_steps(self):
        rec = iterate(0.0, DOUBLING, max_steps=10)
        assert rec.status == "escaped"
        assert rec.step == 3
        assert rec.points[0] == 0.0
        # h(0) = 1 exactly (every factor is 1), so z_1 = e
        assert rec.points[1] == math.e
        assert rec.points[2] == pytest.approx(34.380536700334886, rel=1e-13)
        # z_3 only exists in log form: Re h(z_2) ~ 3.9e16
        assert rec.tail is not None
        assert rec.tail.logmod == pytest.approx(3.890384917673305e16,
                                                rel=1e-12)

    def test_zero_of_product_translates_then_stays(self):
        rec = iterate(2j, DOUBLING, max_steps=8)
        assert rec.status == "near-zero-translation"
        assert rec.nzt_step == 0
        assert rec.points[1] == 1 + 2j  # exact unit translation
        assert rec.step is None

    def test_bounded_so_far_with_tiny_budget(self):
        rec = iterate(0.0, DOUBLING, max_steps=2)
        assert rec.status == "bounded-so-far"
        assert rec.step is None
        assert len(rec.points) == 3

    def test_default_escape_radius(self):
        assert default_escape_radius(DOUBLING) == 64.0


def _kernel_cell(rec):
    # the (status, step) cell the batch kernels give the orbit iterate found
    if rec.status == "escaped":
        nzt_before = rec.nzt_step is not None and rec.nzt_step < rec.step
        return (STATUS_ESCAPED_AFTER_NEAR_ZERO if nzt_before
                else STATUS_ESCAPED), rec.step
    if rec.status == "near-zero-translation":
        return STATUS_NEAR_ZERO, rec.nzt_step
    return STATUS_BOUNDED, 0


class TestScalarKernelParity:
    def test_statuses_and_steps_match_the_kernel(self):
        rng = np.random.default_rng(9)
        zx = rng.uniform(-20, 20, 120)
        zy = rng.uniform(-20, 20, 120)
        status, step = _kernels.classify_field(zx, zy, DOUBLING, 30, 64.0)
        for x, y, s, t in zip(zx, zy, status, step):
            rec = iterate(complex(x, y), DOUBLING, max_steps=30,
                          escape_radius=64.0)
            assert (s, t) == _kernel_cell(rec), (x, y)

    @pytest.mark.parametrize("name", ["doubling", "steep", "paper2"])
    def test_every_profile_matches_the_kernel(self, name):
        p = make_toy(name)
        rng = np.random.default_rng(5)
        zx = rng.uniform(-20, 20, 400)
        zy = rng.uniform(-20, 20, 400)
        status, step = _kernels.classify_field(zx, zy, p, 40, 64.0)
        for x, y, s, t in zip(zx, zy, status, step):
            rec = iterate(complex(x, y), p, max_steps=40, escape_radius=64.0)
            assert (s, t) == _kernel_cell(rec), (x, y)

    @pytest.mark.parametrize("p, z, steps, radius, cell", [
        pytest.param(TINY_H, TINY_H_Z, 2, 10.0, (STATUS_NEAR_ZERO, 0),
                     id="tiny-h"),
        # zeros whose first step lands within an ulp of the escape radius,
        # where |z| > R and |z|^2 > R^2 disagree
        pytest.param(DOUBLING, _stored_zero(DOUBLING, 4, 2), 1,
                     16.576436512611124,
                     (STATUS_ESCAPED_AFTER_NEAR_ZERO, 1), id="doubling-4-2"),
        pytest.param(STEEP, _stored_zero(STEEP, 4, 2), 1, 16.999557093054953,
                     (STATUS_ESCAPED_AFTER_NEAR_ZERO, 1), id="steep-4-2"),
        pytest.param(STEEP, _stored_zero(STEEP, 4, 5), 1, 16.997856868811848,
                     (STATUS_ESCAPED_AFTER_NEAR_ZERO, 1), id="steep-4-5"),
        pytest.param(STEEP, _stored_zero(STEEP, 4, 8), 1, 16.994883531919132,
                     (STATUS_ESCAPED_AFTER_NEAR_ZERO, 1), id="steep-4-8"),
    ])
    def test_edge_orbits_match_the_kernel(self, p, z, steps, radius, cell):
        status, step = _kernels.classify_field([z.real], [z.imag], p, steps,
                                               radius)
        assert (status[0], step[0]) == cell
        rec = iterate(z, p, max_steps=steps, escape_radius=radius)
        assert _kernel_cell(rec) == cell

    def test_tiny_h_is_a_unit_translation(self):
        # |h| < e^-700 is cartesian (here it underflows to 0), not log-polar
        res = eval_f(TINY_H_Z, TINY_H)
        assert res.value == TINY_H_Z + 1
        assert res.regime == "exact-ish"

    def test_grid_matches_iterate_pixel_by_pixel(self):
        # iterate runs every step; the kernels stop at a frozen orbit
        g = classify_grid((-8 - 8j, 8 + 8j), 16, 16, DOUBLING, max_steps=40,
                          escape_radius=64.0)
        xs = axis_coords(-8.0, 8.0, 16)
        frozen_flagged = 0
        for j, y in enumerate(xs):
            for i, x in enumerate(xs):
                rec = iterate(complex(x, y), DOUBLING, max_steps=40,
                              escape_radius=64.0)
                assert (g.status[j, i], g.step[j, i]) == _kernel_cell(rec), (x, y)
                pts = rec.points
                frozen_flagged += (rec.status == "near-zero-translation"
                                   and pts[-1] == pts[-2])
        assert frozen_flagged > 0


class TestGrid:
    def test_counts_and_digest(self):
        g = classify_grid((-8 - 8j, 8 + 8j), 41, 41, DOUBLING, max_steps=40)
        c = g.counts()
        assert sum(c.values()) == 41 * 41
        assert set(c) <= {0, 1, 2, 3}
        assert g.digest == params_digest(DOUBLING)

    def test_file_roundtrip(self, tmp_path):
        g = classify_grid((-4 - 4j, 4 + 4j), 17, 13, DOUBLING, max_steps=20)
        path = tmp_path / "a.bkg"
        write_grid(path, g)
        raw = path.read_bytes()
        assert raw.startswith(GRID_MAGIC)
        assert len(raw) == len(GRID_MAGIC) + 8 + 32 + 17 * 13 * 5
        back = read_grid(path)
        assert back.nx == 17 and back.ny == 13
        assert np.array_equal(back.status, g.status)
        assert np.array_equal(back.step, g.step)
        assert back.digest == g.digest

    def test_read_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bkg"
        path.write_bytes(b"NOTGRID" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_grid(path)

    def test_read_rejects_truncated_body(self, tmp_path):
        g = classify_grid((-2 - 2j, 2 + 2j), 5, 5, DOUBLING, max_steps=5)
        path = tmp_path / "t.bkg"
        write_grid(path, g)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError):
            read_grid(path)

    def test_thread_count_does_not_change_bytes(self):
        grids = [classify_grid((-8 - 8j, 8 + 8j), 64, 64, DOUBLING,
                               max_steps=25, threads=t) for t in (1, 3, 7)]
        for g in grids[1:]:
            assert np.array_equal(g.status, grids[0].status)
            assert np.array_equal(g.step, grids[0].step)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_is_batching_invariant(self, threads):
        # 300x300 is more than CLASSIFY_CHUNK points: one band takes two
        # chunks (65536 points, then 24464), two bands one each; the bytes
        # are those of one classify_field call over every pixel
        nx = ny = 300
        assert nx * ny > dynamics.CLASSIFY_CHUNK
        g = classify_grid((-8 - 8j, 8 + 8j), nx, ny, DOUBLING, max_steps=3,
                          escape_radius=64.0, threads=threads)
        status, step = _kernels.classify_field(
            np.tile(axis_coords(-8.0, 8.0, nx), ny),
            np.repeat(axis_coords(-8.0, 8.0, ny), nx), DOUBLING, 3, 64.0)
        assert np.array_equal(g.status.ravel(), status)
        assert np.array_equal(g.step.ravel(), step)

    def test_corner_order_is_irrelevant(self):
        a = classify_grid((-3 - 3j, 3 + 3j), 9, 9, DOUBLING, max_steps=10)
        b = classify_grid((3 + 3j, -3 - 3j), 9, 9, DOUBLING, max_steps=10)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.step, b.step)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_grid((-1 - 1j, 1 + 1j), 0, 8, DOUBLING)


class TestAxisCoords:
    def test_endpoints_and_monotone(self):
        xs = axis_coords(-8.0, 8.0, 41)
        assert xs[0] == -8.0 and xs[-1] == 8.0
        assert np.all(np.diff(xs) > 0)

    def test_symmetric_range_is_exactly_antisymmetric(self):
        xs = axis_coords(-8.0, 8.0, 64)
        assert np.array_equal(xs, -xs[::-1])
        assert axis_coords(-1.0, 1.0, 7)[3] == 0.0

    def test_single_sample_is_midpoint(self):
        assert axis_coords(2.0, 4.0, 1)[0] == 3.0

    @pytest.mark.parametrize("lo, hi", [
        (-8.0, float("inf")), (float("-inf"), 8.0), (-8.0, float("nan")),
        (-1e308, 1e308),  # the span overflows
        (1e308, 1.5e308),  # the midpoint overflows
    ])
    def test_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            axis_coords(lo, hi, 4)


class _FakePool:
    """Stands in for ThreadPoolExecutor: records the pool size and runs the
    bands in order on the calling thread, so no thread is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestThreads:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr(_FakePool, "sizes", [])
        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", _FakePool)

    @staticmethod
    def _bands(ny, threads):
        rows = []
        dynamics.run_row_bands((-1 - 1j, 1 + 1j), 2, ny, threads, 2,
                               lambda zx, zy, sl: rows.append(sl))
        assert sorted(sl.start for sl in rows) == list(range(0, 2 * ny, 2))
        return _FakePool.sizes

    def test_default_runs_without_a_pool(self):
        classify_grid((-1 - 1j, 1 + 1j), 4, 4, DOUBLING, max_steps=2)
        render_phase((-1 - 1j, 1 + 1j), 4, 4, DOUBLING)
        assert _FakePool.sizes == []

    def test_explicit_wins(self):
        assert self._bands(16, 3) == [3]

    def test_bands_are_capped(self):
        # 4096 rows of two points, one row per call
        assert self._bands(4096, 10**6) == [dynamics.MAX_BANDS]

    def test_no_more_bands_than_rows(self):
        assert self._bands(2, 3) == [2]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="thread count"):
            self._bands(4, 0)
        assert _FakePool.sizes == []

    def test_cli_threads(self, tmp_path, capsys):
        out = tmp_path / "g.bkg"
        argv = ["grid", "--profile", "doubling", "--rect=-1,-1,1,1",
                "--nx", "1", "--ny", "4096", "--steps", "1", "--out", str(out)]
        assert cli.main(argv + ["--threads", "0"]) == 2
        assert not out.exists() and "thread count" in capsys.readouterr().err
        assert cli.main(argv + ["--threads", "1000000"]) == 0
        assert _FakePool.sizes == [dynamics.MAX_BANDS]
