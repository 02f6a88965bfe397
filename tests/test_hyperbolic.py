"""Hyperbolic metric toolbox on round disks."""

import cmath
import math

import numpy as np
import pytest

from bakerlab import hyperbolic
from bakerlab.hyperbolic import (
    CHECKS,
    MAP_CATALOG,
    PointOutsideDomain,
    TWO_LOG3,
    UNIT_DISK,
    DiskSpec,
    disk_distance,
    lemma1_lower_bound,
    run_check,
    sample_disk,
    schwarz_check,
)


def test_unit_disk_distance_closed_form():
    # dist(0, x) = log((1+x)/(1-x)); at x = 1/2 that is log 3
    assert disk_distance(0.0, 0.5) == pytest.approx(math.log(3.0), abs=1e-14)
    assert disk_distance(0.0, 0.0) == 0.0


def test_distance_is_mobius_invariant_under_rotation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        b = complex(*rng.uniform(-0.6, 0.6, 2))
        rot = cmath.exp(1j * 1.234)
        assert disk_distance(rot * a, rot * b) == pytest.approx(
            disk_distance(a, b), rel=1e-12, abs=1e-12)


def test_distance_scales_to_general_disks():
    # the metric only sees the normalized coordinate (z - c)/r
    big = DiskSpec(3.0 + 4.0j, 10.0)
    a, b = 3.0 + 4.0j, 3.0 + 4.0j + 5.0
    assert disk_distance(a, b, big) == pytest.approx(
        disk_distance(0.0, 0.5), abs=1e-13)


def test_points_outside_domain_rejected():
    with pytest.raises(PointOutsideDomain):
        disk_distance(0.0, 1.5)
    with pytest.raises(PointOutsideDomain):
        disk_distance(3.1 + 1.0j, 1.0 + 1.0j, DiskSpec(1.0 + 1.0j, 2.0))


def test_omitted_point_lower_bound_formula_and_cap():
    got = lemma1_lower_bound(0.1, 0.4, 1.0)
    da, db = abs(0.1 - 1.0), abs(0.4 - 1.0)
    assert got.bound == pytest.approx(0.5 * abs(math.log(db / da)), abs=1e-14)
    # the bound never exceeds the actual distance in the smaller domain
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = complex(*rng.uniform(-0.65, 0.65, 2))
        b = complex(*rng.uniform(-0.65, 0.65, 2))
        c = cmath.exp(2j * math.pi * rng.uniform())
        assert lemma1_lower_bound(a, b, c).bound <= (
            disk_distance(a, b) + 1e-12)


def test_half_radius_subdisk_diameter_cap():
    # both points within r/2 of the center: distance at most 2 log 3
    rng = np.random.default_rng(3)
    centre, r = -2.0 + 1.0j, 5.0
    disk = DiskSpec(centre, r)
    worst = 0.0
    for _ in range(500):
        rr = 0.5 * r * math.sqrt(rng.uniform())
        a = centre + rr * cmath.exp(2j * math.pi * rng.uniform())
        rr = 0.5 * r * math.sqrt(rng.uniform())
        b = centre + rr * cmath.exp(2j * math.pi * rng.uniform())
        worst = max(worst, disk_distance(a, b, disk))
    assert worst <= TWO_LOG3 + 1e-12
    assert TWO_LOG3 == pytest.approx(2.0 * math.log(3.0), abs=1e-15)


def test_half_radius_cap_is_sharp():
    # diametrically opposite points at exactly r/2 realize it
    assert disk_distance(-0.5, 0.5) == pytest.approx(TWO_LOG3, rel=1e-8)


def test_schwarz_pick_catalog():
    rng = np.random.default_rng(4)
    for name in MAP_CATALOG:
        for _ in range(100):
            a = 0.9 * complex(*rng.uniform(-0.7, 0.7, 2))
            b = 0.9 * complex(*rng.uniform(-0.7, 0.7, 2))
            lhs, rhs, ok = schwarz_check(name, a, b)
            assert ok
            assert lhs <= rhs + 1e-12


def test_schwarz_rotation_is_isometry():
    a, b = 0.3 + 0.1j, -0.2 + 0.45j
    lhs, rhs, ok = schwarz_check("rotate", a, b)
    assert ok
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_schwarz_unknown_map():
    with pytest.raises(ValueError):
        schwarz_check("cubic", 0.1, 0.2)


def test_sample_disk_is_seeded_and_inside_radius():
    z = sample_disk(np.random.default_rng(3), 500, 2.5)
    assert z.shape == (500,)
    assert np.all(np.abs(z) < 2.5)
    assert np.array_equal(z, sample_disk(np.random.default_rng(3), 500, 2.5))


# a wrong distance formula that each family must catch
_BROKEN = {
    "metric": lambda d0: lambda a, b, d=UNIT_DISK: d0(a, b, d) + 0.1 * abs(a),
    "lemma1": lambda d0: lambda a, b, d=UNIT_DISK: 0.25 * d0(a, b, d),
    "lemma2": lambda d0: lambda a, b, d=UNIT_DISK: 2.0 * d0(a, b, d),
    "schwarz": lambda d0: lambda a, b, d=UNIT_DISK: abs(a - b),
    "monotone": lambda d0: lambda a, b, d=UNIT_DISK: d.r ** 2 * d0(a, b, d),
}


@pytest.mark.parametrize("name", CHECKS)
def test_every_check_can_fail(name, monkeypatch):
    monkeypatch.setattr(hyperbolic, "disk_distance",
                        _BROKEN[name](disk_distance))
    failures, worst = run_check(name, np.random.default_rng(0), 200)
    assert failures > 0
    assert worst > 1e-12


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("cubic", np.random.default_rng(0), 10)
