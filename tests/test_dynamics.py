"""Orbit iteration, grid classification, grid file IO, determinism."""

import cmath
import hashlib
import math
import struct
import threading
import time
from types import SimpleNamespace

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

from _oracles import rect_points

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

    @pytest.mark.parametrize("run", [
        lambda: iterate(0.0, DOUBLING, max_steps=0, escape_radius=1.0),
        lambda: _kernels.classify_field([0.0], [0.0], DOUBLING, 0, 1.0),
    ], ids=["iterate", "classify_field"])
    def test_budget_is_checked_before_the_radius(self, run):
        with pytest.raises(ValueError, match="^max_steps must be >= 1$"):
            run()

    def test_default_escape_radius(self):
        assert default_escape_radius(DOUBLING) == 64.0

    # sha256 over repr((points, tail, status, step, nzt_step)) of each orbit
    # from 200 seeded uniform starts in [-20, 20]^2, 40 steps, default radius
    ORBIT_DIGESTS = {
        "doubling":
            "0bbc2c3875d234236a1b3712dfa67526257956c7d2a0eb7219e2608e0af5b11d",
        "steep":
            "ae81e38bfd4aa14156faf618e844f7afa54c7e105a5ed8123d4a038d7b0ecf54",
        "paper2":
            "a6c3dcf6a9d2a5aef18c1ff2cd3054dbdc8012fff4e5621b1f69458914737cea",
    }

    @pytest.mark.parametrize("name", sorted(ORBIT_DIGESTS))
    def test_orbits_are_pinned(self, name):
        p = make_toy(name)
        digest = hashlib.sha256()
        for x, y in np.random.default_rng(20).uniform(-20, 20, (200, 2)):
            rec = iterate(complex(x, y), p, max_steps=40)
            digest.update(repr((rec.points, rec.tail, rec.status, rec.step,
                                rec.nzt_step)).encode())
        assert digest.hexdigest() == self.ORBIT_DIGESTS[name]

    @pytest.mark.parametrize("step, nzt_step, cell", [
        (None, None, (STATUS_BOUNDED, 0)),
        (None, 3, (STATUS_NEAR_ZERO, 3)),
        (5, None, (STATUS_ESCAPED, 5)),
        (5, 0, (STATUS_ESCAPED_AFTER_NEAR_ZERO, 5)),
    ], ids=["bounded", "near-zero", "escaped", "escaped-after-near-zero"])
    def test_cell_is_the_grid_encoding(self, step, nzt_step, cell):
        rec = dynamics.OrbitRecord(points=[0j], tail=None, step=step,
                                   nzt_step=nzt_step, max_steps=8)
        assert rec.cell == cell


def _level_set_starts(p, rng, rays):
    # both ends of a bisection, from a stored zero along a seeded ray, onto
    # the scalar core's |h| = ln 2 (its log|h| = LOG_LN2)
    factors = _kernels.prepared(p)
    below = (lambda z: _kernels._h_point(z.real, z.imag, factors)[1]
             < _kernels.LOG_LN2)
    starts = []
    for _ in range(rays):
        k = int(rng.integers(1, p.K + 1))
        a = _stored_zero(p, k, int(rng.integers(0, p.n[k - 1])))
        d = cmath.rect(p.r[k - 1] / p.n[k - 1], rng.uniform(0, 2 * math.pi))
        while below(a + d):
            d *= 2
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if below(a + mid * d) else (lo, mid)
        starts += [a + lo * d, a + hi * d]
    return starts


class TestScalarKernelParity:
    @pytest.mark.parametrize("name", ["doubling", "steep", "paper2"])
    def test_near_zero_flag_matches_the_kernel_at_ln2(self, name):
        # where the scalar core and h_field round log|h| alike, iterate sets
        # the near-zero flag exactly where classify_field does
        p = make_toy(name)
        starts = _level_set_starts(p, np.random.default_rng(3), 200)
        zx = np.array([z.real for z in starts])
        zy = np.array([z.imag for z in starts])
        _, lm, _ = _kernels.h_field(zx, zy, p)
        factors = _kernels.prepared(p)
        kept = [i for i, z in enumerate(starts)
                if _kernels._h_point(z.real, z.imag, factors)[1] == lm[i]]
        assert len(kept) > 250
        status, _ = _kernels.classify_field(
            zx[kept], zy[kept], p, 1, default_escape_radius(p))
        flags = [iterate(starts[i], p, max_steps=1).nzt_step == 0
                 for i in kept]
        assert flags == (status & STATUS_NEAR_ZERO != 0).tolist()

    @pytest.mark.parametrize("name", ["doubling", "steep", "paper2"])
    def test_every_profile_matches_the_kernel(self, name):
        p = make_toy(name)
        rng = np.random.default_rng(5)
        zx = rng.uniform(-20, 20, 400)
        zy = rng.uniform(-20, 20, 400)
        status, step = _kernels.classify_field(zx, zy, p, 40, 64.0)
        for x, y, s, t in zip(zx, zy, status, step):
            rec = iterate(complex(x, y), p, max_steps=40, escape_radius=64.0)
            assert (s, t) == rec.cell, (x, y)

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
        assert rec.cell == cell

    @pytest.mark.parametrize("rect, p, steps", [
        ((-8 - 8j, 8 + 8j), DOUBLING, 40),  # the canonical grid
        ((-11 - 10j, 13 + 14j), STEEP, 70),
    ], ids=["canonical-doubling", "steep-70"])
    def test_retired_orbits_match_iterate(self, monkeypatch, rect, p, steps):
        # every state the certificate retires on the grid, without the
        # near-zero flag, is a start it retires at step 0 with the steps left.
        # The grid tests candidates on every step, where steep-70 retires 124
        # such states (110 on the steps SETTLED_STRIDE names)
        monkeypatch.setattr(_kernels, "SETTLED_STRIDE", 1)
        states = []
        real = _kernels._settled

        def recording(x, y, hlm, re_h, flagged, m, *args):
            ok, q = real(x, y, hlm, re_h, flagged, m, *args)
            pick = ok & ~flagged
            states.extend((complex(a, b), m)
                          for a, b in zip(x[pick], y[pick]))
            return ok, q

        monkeypatch.setattr(_kernels, "_settled", recording)
        classify_grid(rect, 64, 64, p, max_steps=steps, escape_radius=64.0)
        rng = np.random.default_rng(17)
        starts = [states[i] for i in rng.choice(len(states), 120, False)]
        states.clear()
        for z, m in starts:
            cell = _kernels.classify_field([z.real], [z.imag], p, m, 64.0)
            rec = iterate(z, p, max_steps=m, escape_radius=64.0)
            assert (cell[0][0], cell[1][0]) == rec.cell, (z, m)
        assert states == starts  # each one retired at its step 0

    def test_tiny_h_is_a_unit_translation(self):
        # |h| < e^-700 is cartesian (here it underflows to 0), not log-polar
        res = eval_f(TINY_H_Z, TINY_H)
        assert res.value == TINY_H_Z + 1
        assert res.regime == "exact-ish"

    def test_grid_matches_iterate_pixel_by_pixel(self):
        # iterate runs every step; the kernels stop at a frozen orbit
        rect = (-8 - 8j, 8 + 8j)
        g = classify_grid(rect, 16, 16, DOUBLING, max_steps=40,
                          escape_radius=64.0)
        frozen_flagged = 0
        for x, y, s, t in zip(*rect_points(rect, 16, 16), g.status.ravel(),
                              g.step.ravel()):
            rec = iterate(complex(x, y), DOUBLING, max_steps=40,
                          escape_radius=64.0)
            assert (s, t) == rec.cell, (x, y)
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
        # the statuses present, in order, each with its cell count
        assert list(c.items()) == [(int(v), int(np.count_nonzero(
            g.status == v))) for v in np.unique(g.status)]
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

    @pytest.mark.parametrize("case, match", [
        ("empty", "no cells"), ("bad-status", "status byte"),
        ("short-header", "truncated in header"),
        ("steps-contradict", "bounded cell"),
        ("bounded-step", "bounded cell with a nonzero step"),
        ("escaped-step-0", "escaped cell with step 0")])
    def test_malformed_grid_files_exit_2(self, tmp_path, capsys, case,
                                         match):
        # a header with nx = 0 and no cells, status bytes outside 0..3, a
        # header cut short and a step that contradicts its status (a bounded
        # cell has step 0, an escaped one a step >= 1) are rejected, so
        # `render escape` writes no image
        digest = bytes(32)
        head = GRID_MAGIC + struct.pack("<II", 2, 2) + digest
        cells = np.zeros(4, dtype=dynamics._CELL_DTYPE)

        def body(status, step):
            cells["status"], cells["step"] = status, step
            return cells.tobytes()

        raw = {"empty": GRID_MAGIC + struct.pack("<II", 0, 5) + digest,
               "bad-status": head + body((0, 7, 255, 3), 0),
               "short-header": head[:-1],
               "steps-contradict": head + body((0, 1, 2, 3),
                                               (7, 0, 5, 4_000_000_000)),
               # one bad cell each among cells that keep both rules
               "bounded-step": head + body((0, 1, 2, 3), (7, 1, 0, 2)),
               "escaped-step-0": head + body((0, 1, 2, 3), (0, 1, 5, 0)),
               }[case]
        path, out = tmp_path / "m.bkg", tmp_path / "m.ppm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=match):
            read_grid(path)
        assert cli.main(["render", "escape", "--grid", str(path),
                         "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    def test_grid_is_batching_invariant(self, threads):
        # 300x300 is more than CLASSIFY_CHUNK points: one band takes two
        # chunks (65536 points, then 24464), two, three and seven bands one
        # each; the bytes are those of one classify_field call over every
        # pixel
        nx = ny = 300
        rect = (-8 - 8j, 8 + 8j)
        assert nx * ny > dynamics.CLASSIFY_CHUNK
        g = classify_grid(rect, nx, ny, DOUBLING, max_steps=3,
                          escape_radius=64.0, threads=threads)
        status, step = _kernels.classify_field(*rect_points(rect, nx, ny),
                                               DOUBLING, 3, 64.0)
        assert np.array_equal(g.status.ravel(), status)
        assert np.array_equal(g.step.ravel(), step)

    def test_bands_run_in_order_on_one_worker_thread(self, monkeypatch):
        # two bands of a grid and of a portrait: their kernel calls run on
        # one thread, not the caller's, the lower band first and without
        # overlap, and give the bytes of one band
        spans = []

        def timed(fn):
            def call(zx, zy, *args):
                t0 = time.perf_counter()
                out = fn(zx, zy, *args)
                spans.append((threading.get_ident(), zy[0], t0,
                              time.perf_counter()))
                return out
            return call

        def grid(threads):
            g = classify_grid((-8 - 8j, 8 + 8j), 64, 64, DOUBLING,
                              max_steps=40, threads=threads)
            return g.status.tobytes() + g.step.tobytes()

        def portrait(threads):
            return render_phase((-2 - 1j, 2 + 3j), 16, 16, DOUBLING,
                                threads=threads)

        for run, name in ((grid, "classify_field"), (portrait, "h_field")):
            one = run(1)
            spans.clear()
            with monkeypatch.context() as m:
                m.setattr(_kernels, name, timed(getattr(_kernels, name)))
                assert run(2) == one
            assert len(spans) == 2
            (first, y0, _, end0), (second, y1, start1, _) = spans
            assert first == second != threading.get_ident()
            assert y0 < y1 and end0 <= start1

    def test_a_failed_classify_call_lets_the_other_band_run(self,
                                                            monkeypatch):
        # the first band's call fails; the second band's call still runs,
        # and the error reaches the caller
        calls = []
        inner = _kernels.classify_field

        def first_fails(*args):
            calls.append(None)
            if len(calls) == 1:
                raise MemoryError("Unable to allocate")
            return inner(*args)

        monkeypatch.setattr(_kernels, "classify_field", first_fails)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            classify_grid((-2 - 2j, 2 + 2j), 8, 8, DOUBLING, max_steps=5,
                          threads=2)
        assert len(calls) == 2

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
    """Stands in for ThreadPoolExecutor: checks that it has one worker,
    counts the bands submitted to it and runs each at once on the calling
    thread, so no thread is started."""

    bands: list = []

    def __init__(self, max_workers):
        assert max_workers == 1
        self.bands.append(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, band):
        self.bands[-1] += 1
        fn(band)
        return SimpleNamespace(result=lambda: None)


class TestThreads:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        monkeypatch.setattr(_FakePool, "bands", [])
        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", _FakePool)

    @staticmethod
    def _bands(ny, threads):
        rows = []
        dynamics.run_row_bands((-1 - 1j, 1 + 1j), 2, ny, threads, 2,
                               lambda zx, zy, sl: rows.append(sl))
        assert sorted(sl.start for sl in rows) == list(range(0, 2 * ny, 2))
        return _FakePool.bands

    def test_default_runs_without_a_pool(self):
        classify_grid((-1 - 1j, 1 + 1j), 4, 4, DOUBLING, max_steps=2)
        render_phase((-1 - 1j, 1 + 1j), 4, 4, DOUBLING)
        assert _FakePool.bands == []

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
        assert _FakePool.bands == []

    def test_cli_threads(self, tmp_path, capsys):
        out = tmp_path / "g.bkg"
        argv = ["grid", "--profile", "doubling", "--rect=-1,-1,1,1",
                "--nx", "1", "--ny", "4096", "--steps", "1", "--out", str(out)]
        assert cli.main(argv + ["--threads", "0"]) == 2
        assert not out.exists() and "thread count" in capsys.readouterr().err
        assert cli.main(argv + ["--threads", "1000000"]) == 0
        assert _FakePool.bands == [dynamics.MAX_BANDS]
