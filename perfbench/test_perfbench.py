"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import report  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bakerlab import dynamics, hfun, render  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_overlapping_band_spans():
    # 0: client span [0, 100]; 1, 2: band spans on two threads, overlapping
    # on [30, 60]; 3: a call inside band 1; 4: a second client span whose
    # two children do not overlap.
    start = np.array([0, 10, 30, 20, 200, 210, 250])
    end = np.array([100, 60, 90, 30, 300, 220, 260])
    parent = np.array([-1, 0, 0, 1, -1, 4, 4])
    self_ns, overlap = tracing.self_times(start, end, parent)
    assert self_ns.tolist() == [20, 40, 60, 10, 80, 10, 10]
    assert overlap.tolist() == [30, 0, 0, 0, 0, 0, 0]
    roots = parent < 0
    assert (self_ns.sum() - overlap.sum()
            == (end[roots] - start[roots]).sum())


def test_traced_grid_has_band_children_and_closes_the_accounting():
    from bakerlab import make_toy

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the name dynamics looks up is wrapped, not only the definition
        assert dynamics.eval_h is hfun.eval_h
        assert hasattr(dynamics.eval_h, "__wrapped__")
        dynamics.classify_grid((-8 - 8j, 8 + 8j), 16, 16,
                               make_toy("doubling"), 4, 64.0, threads=2)
    finally:
        tracer.remove()
    assert not hasattr(dynamics.eval_h, "__wrapped__")
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    grid = names.index("dynamics.classify_grid")
    bands = [i for i, n in enumerate(names) if n == "kernels.classify_field"]
    assert len(bands) == 2
    assert all(spans.parent[i] == grid for i in bands)
    assert spans.thread[grid] not in spans.thread[bands]  # pool threads
    wall = int(spans.end[grid] - spans.start[grid])
    acct = report.accounting(spans, wall)
    assert acct["residual_ns"] == 0 and acct["unattributed_s"] == 0
    values = report.layer_values(spans, rounds=1)
    assert values["kernels.classify_field.points"] == 256
    assert values["dynamics.band_imbalance"] >= 1.0
    listed = {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead_s"}
    assert listed <= set(values)


def test_every_listed_layer_metric_says_what_it_should_move():
    assert [m["name"] for m in BENCH["per_layer"]] == list(
        report.LAYER_TARGETS)


@pytest.mark.parametrize("n, index, percentile", [
    (100, 89, 90.0), (16, 5, 37.5), (11, 0, 100 / 11), (5, 0, 20.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        n, index, percentile):
    values = [float(i) for i in range(n)][::-1]  # order must not matter
    value, pct, count = report.tail(values)
    assert (value, count) == (index, n)
    assert pct == pytest.approx(percentile)
    assert sum(v > value for v in values) == min(10, n - 1)


def test_point_steps_are_read_off_a_hand_made_grid():
    status = np.array([[0, 1, 2], [3, 1, 0]], dtype=np.uint8)
    step = np.array([[0, 7, 3], [12, 1, 0]], dtype=np.uint32)
    counts = tracing.point_step_counts(status, step, 40)
    # escaped cells took 7 + 12 + 1 steps; three cells ran all 40
    assert counts == {"points": 6, "point_steps": 20 + 3 * 40, "bounded": 3}


def _one_phase_job(tmp_path, seed):
    wl = workloads.PhasePortrait(seed, tmp_path, 1)
    wl.jobs = wl.jobs[:1]  # small-doubling, mirror-symmetric
    return wl


def test_corrupted_phase_output_counts_as_a_failure(tmp_path, monkeypatch):
    wl = _one_phase_job(tmp_path, workloads.DEFAULT_SEED)
    clean = run.timed_phase(wl, 0.0)
    assert [r.error for r in clean.records] == [""]

    real = render.ppm_bytes

    def corrupted(pixels):
        pixels = pixels.copy()
        pixels[0, 0, 0] ^= 1
        return real(pixels)

    monkeypatch.setattr(render, "ppm_bytes", corrupted)
    wl = _one_phase_job(tmp_path, workloads.DEFAULT_SEED)
    bad = run.timed_phase(wl, 0.0)
    assert "differ from the recorded" in bad.records[0].error
    assert [c.ok for c in wl.post_checks()] == [False]


def test_corrupted_grid_fails_the_parity_check(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ESCAPE_SIDE", 24)
    wl = workloads.EscapeGrid(3, tmp_path, 2)
    job = wl.jobs[0]
    wl.check(job, wl.execute(job))
    rng = lambda: np.random.default_rng(5)  # noqa: E731
    assert wl.parity_check(job, rng()).ok
    grid = dynamics.read_grid(wl.path(job, ".bkg"))
    dynamics.write_grid(wl.path(job, ".bkg"), dynamics.Grid(
        grid.nx, grid.ny, grid.status, grid.step + 1, grid.digest))
    assert not wl.parity_check(job, rng()).ok


def test_a_failing_command_counts_as_a_failure(tmp_path):
    wl = _one_phase_job(tmp_path, 1)
    wl.jobs[0].spec["profile"] = "no-such-profile"
    phase = run.timed_phase(wl, 0.0)
    assert "exited 2" in phase.records[0].error


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_rects_are_dominated_by_their_regime(seed):
    for job in workloads.PhasePortrait(seed, Path("."), 1).jobs:
        shares = workloads.regime_shares(job.spec["profile"],
                                         job.spec["rect"])
        regime = job.spec["regime"]
        assert max(shares, key=shares.get) == regime, (job.name, shares)
        if regime != "mid":
            assert shares[regime] == 1.0


@pytest.mark.parametrize("new, expected", [
    ([0.80, 0.81, 0.79, 0.80], "better"),
    ([1.30, 1.31, 1.29, 1.30], "worse"),
    ([1.01, 1.00, 0.99, 1.00], "same"),
    ([0.60, 1.40, 1.00, 0.70, 1.30], "unresolved"),
])
def test_compare_verdicts(new, expected):
    base = [1.00, 1.01, 0.99, 1.00]
    assert report.verdict(base, new, "lower", 0.15) == expected
