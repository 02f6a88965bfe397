"""Orbit iteration, grid classification, grid file IO, determinism."""

import math

import numpy as np
import pytest

from bakerlab import _kernels
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
    resolve_threads,
    write_grid,
)
from bakerlab.params import make_toy, params_digest

DOUBLING = make_toy("doubling")


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


class TestThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_default_is_positive(self):
        assert resolve_threads() >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_threads(0)
