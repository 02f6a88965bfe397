"""Acceptance gate: the eleven end-to-end criteria, one test each, checks
that criteria 1, 2, 6, 7 and 9 fail on a broken formula, that criterion 2
gives a verdict at the origin, that a criterion over its time budget fails,
and a check that `run_all` runs each criterion once, in order.

Each test runs its criterion under the runtime budget baked into
bakerlab.acceptance and prints a single PASS/FAIL line with the measured
detail (visible with `pytest -rA` or `-s`).
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bakerlab import acceptance, hfun, hyperbolic, verify


def _run(index: int) -> None:
    res = acceptance.run_criterion(index)
    tag = "PASS" if res.passed else "FAIL"
    budget = "no budget" if res.limit is None else f"budget {res.limit:.0f}s"
    print(f"{tag} criterion {res.index:2d} [{res.name}] "
          f"{res.seconds:.2f}s ({budget}): {res.detail}")
    assert res.passed, f"criterion {res.index} [{res.name}]: {res.detail}"


def test_criterion_01_zeros_translate_by_one():
    _run(1)


def test_criterion_02_truncation_bound_holds():
    _run(2)


def test_criterion_03_ring_growth_bound():
    _run(3)


def test_criterion_04_ring_asymptotic_model():
    _run(4)


def test_criterion_05_probe_point_estimate():
    _run(5)


def test_criterion_06_angle_solver_and_probe_values():
    _run(6)


def test_criterion_07_hyperbolic_metric_suite():
    _run(7)


def _few_samples(monkeypatch):
    # the failure tests run criterion 7's families on 200 samples each, so
    # that tier-1 draws its 5 x 10000 samples once
    run_check = acceptance.run_check
    monkeypatch.setattr(acceptance, "run_check",
                        lambda name, rng, samples: run_check(name, rng, 200))


def test_criterion_07_fails_on_a_wrong_distance(monkeypatch):
    _few_samples(monkeypatch)
    true_distance = hyperbolic.disk_distance
    monkeypatch.setattr(hyperbolic, "disk_distance",
                        lambda a, b, d=hyperbolic.UNIT_DISK:
                        0.25 * true_distance(a, b, d))
    passed, detail = acceptance.criterion_7()
    assert not passed
    assert detail == "failed: lemma1"


@pytest.mark.parametrize("index, name, broken, detail", [
    # no stored zero is tagged exact, or none translates by exactly 1
    (1, "Zero", type("NotZero", (), {}), "30 zeros checked, 30 failures"),
    (1, "eval_f", lambda z, p: SimpleNamespace(value=z),
     "30 zeros checked, 30 failures"),
    # a thousandth of the truncation bound is exceeded
    (2, "eval_h", lambda z, p: replace(
        res := hfun.eval_h(z, p), trunc_bound=1e-3 * res.trunc_bound),
     "over the bound or without one"),
    (6, "theta", lambda phi: hfun.theta(phi) + 0.01, "violations 10000"),
    (7, "disk_distance", lambda a, b: 0.0, "failed: unit value"),
], ids=["1-not-exact", "1-not-unit", "2-tight-bound", "6-off-angle",
        "7-unit-value"])
def test_criterion_fails_on_a_broken_input(monkeypatch, index, name, broken,
                                           detail):
    # each criterion reads the name from `acceptance`'s own namespace; the
    # broken ones call the originals through `hfun`
    _few_samples(monkeypatch)
    monkeypatch.setattr(acceptance, name, broken)
    passed, got = getattr(acceptance, f"criterion_{index}")()
    assert not passed
    assert detail in got


def test_criterion_02_holds_at_the_origin(monkeypatch):
    # eval_h's truncation bound is exactly 0 at z = 0, where the K-1 -> K
    # jump is 0 too: a verdict, not a division by zero
    sample = acceptance.sample_disk
    monkeypatch.setattr(acceptance, "sample_disk", lambda rng, count, radius:
                        np.concatenate(([0j], sample(rng, count, radius))))
    passed, detail = acceptance.criterion_2()
    assert passed
    assert detail.startswith("1001 points, 0 over the bound or without one")


def test_criterion_over_its_budget_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA",
                        [("instant", lambda: (True, "ok"), 0.0)])
    res = acceptance.run_criterion(1)
    assert (res.passed, res.detail) == (False, "ok; OVER TIME BUDGET 0s")


def test_criterion_08_newton_identity():
    _run(8)


def test_criterion_09_obstruction_chain():
    _run(9)


def test_criterion_09_fails_on_a_broken_link(monkeypatch):
    # a distance 10x too large puts some a, b pairs beyond 2 log 3
    true_distance = verify.disk_distance
    monkeypatch.setattr(verify, "disk_distance",
                        lambda a, b, d: 10.0 * true_distance(a, b, d))
    passed, detail = acceptance.criterion_9()
    assert not passed
    assert detail.endswith("failed: rho_3b at every angle")


def test_criterion_10_thread_determinism():
    _run(10)


def test_criterion_11_validation_gate():
    _run(11)


def test_run_all_runs_each_criterion_once_in_order(monkeypatch):
    # each criterion already has its own test above; this checks the wiring
    calls = []
    monkeypatch.setattr(acceptance, "run_criterion",
                        lambda index: calls.append(index) or index)
    assert acceptance.run_all() == list(range(1, 12))
    assert calls == list(range(1, 12))
