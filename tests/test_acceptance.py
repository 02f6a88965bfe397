"""Acceptance gate: the eleven end-to-end criteria, one test each, plus a
check that criterion 7 fails on a wrong distance formula.

Each test runs its criterion under the runtime budget baked into
bakerlab.acceptance and prints a single PASS/FAIL line with the measured
detail (visible with `pytest -rA` or `-s`).
"""

from bakerlab import acceptance, hyperbolic, verify


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


def test_criterion_07_fails_on_a_wrong_distance(monkeypatch):
    true_distance = hyperbolic.disk_distance
    monkeypatch.setattr(hyperbolic, "disk_distance",
                        lambda a, b, d=hyperbolic.UNIT_DISK:
                        0.25 * true_distance(a, b, d))
    passed, detail = acceptance.criterion_7()
    assert not passed
    assert detail == "failed: lemma1"


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


def test_suite_summary_all_green():
    results = acceptance.run_all()
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.index:2d} {r.name}: {r.detail}")
    failed = [r.index for r in results if not r.passed]
    assert not failed, f"criteria failed: {failed}"
