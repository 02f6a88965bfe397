"""Hyperbolic-metric toolkit on disks: distance, the omitted-point lower
bound, and Schwarz contraction checks.

Everything is closed-form.  General simply connected domains appear only
through disks and Mobius images; the distance uses the unit-disk normalization
with density 2/(1-|z|^2).

`run_check` draws one randomized family of these estimates (names in
`CHECKS`) from a seeded generator; `bakerlab hyp` runs one family and
selftest criterion 7 runs them all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_LOG3 = 2.0 * math.log(3.0)
CHECKS = ("metric", "lemma1", "lemma2", "schwarz", "monotone")


class PointOutsideDomain(ValueError):
    """A point fell outside the open disk it was asserted to be in."""


@dataclass(frozen=True)
class DiskSpec:
    """Open disk of radius r around center c."""

    c: complex
    r: float

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError("disk radius must be positive and finite")


UNIT_DISK = DiskSpec(0j, 1.0)


@dataclass(frozen=True)
class OmittedPointBound:
    """Lower bound for the hyperbolic distance of a, b in any simply connected
    domain that contains both and omits c."""

    a: complex
    b: complex
    c: complex
    bound: float


def _normalize(z: complex, d: DiskSpec) -> complex:
    w = (z - d.c) / d.r
    if abs(w) >= 1.0:
        raise PointOutsideDomain(f"{z} not inside {d}")
    return w


def disk_distance(a: complex, b: complex, d: DiskSpec = UNIT_DISK) -> float:
    """Hyperbolic distance between a and b in the disk d."""
    u = _normalize(a, d)
    v = _normalize(b, d)
    t = abs(u - v) / abs(1.0 - u * v.conjugate())
    if t >= 1.0:
        # t rounds to 1 for two points near opposite edges of the disk:
        # sinh(d/2) = |u - v| / sqrt((1 - |u|^2)(1 - |v|^2)) does not cancel
        au, av = abs(u), abs(v)
        return 2.0 * math.asinh(abs(u - v) / math.sqrt(
            (1.0 - au) * (1.0 + au) * (1.0 - av) * (1.0 + av)))
    # log((1+t)/(1-t)) in a cancellation-free form
    return 2.0 * math.atanh(t)


def lemma1_lower_bound(a: complex, b: complex, c: complex) -> OmittedPointBound:
    """Omitted-point bound: half the absolute log-ratio of distances to c."""
    da = abs(a - c)
    db = abs(b - c)
    if da == 0.0 or db == 0.0:
        raise ValueError("a and b must differ from the omitted point c")
    bound = 0.5 * abs(math.log(db) - math.log(da))
    return OmittedPointBound(a=a, b=b, c=c, bound=bound)


_MOBIUS_W = 0.3 + 0.4j


def _mobius(z: complex) -> complex:
    return (z + _MOBIUS_W) / (1.0 + _MOBIUS_W.conjugate() * z)


MAP_CATALOG = {
    "square": lambda z: z * z,
    "half": lambda z: 0.5 * z,
    "rotate": lambda z: cmath.exp(0.6j) * z,
    "identity": lambda z: z,
    "mobius": _mobius,
}


def schwarz_check(map_id: str, a: complex, b: complex) -> tuple[float, float, bool]:
    """Contraction check for a built-in holomorphic self-map of the unit disk.

    Returns (distance after mapping, distance before, ok); automorphisms in
    the catalog realize equality.
    """
    try:
        f = MAP_CATALOG[map_id]
    except KeyError:
        raise ValueError(f"unknown map {map_id!r}; catalog: "
                         f"{sorted(MAP_CATALOG)}") from None
    rhs = disk_distance(a, b)
    lhs = disk_distance(f(a), f(b))
    return lhs, rhs, lhs <= rhs + 1e-12


def sample_disk(rng: np.random.Generator, count: int,
                radius: float = 1.0) -> np.ndarray:
    """Draw count points uniformly distributed in the disk |z| < radius."""
    rr = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    tt = rng.uniform(0.0, 2.0 * math.pi, count)
    return rr * np.exp(1j * tt)


def run_check(name: str, rng: np.random.Generator,
              samples: int) -> tuple[int, float]:
    """Run one randomized family of `CHECKS` on samples draws from rng.

    Returns (failures, worst_gap): worst_gap is the most positive violation
    margin seen, so a clean run has worst_gap <= 0 (up to the 1e-12 slack).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = samples
    # one violation margin per sample: positive where an estimate fails
    if name == "metric":
        # symmetry and triangle inequality on random triples
        a, b, c = sample_disk(rng, n), sample_disk(rng, n), sample_disk(rng, n)
        gaps = [max(abs(disk_distance(ai, bi) - disk_distance(bi, ai)),
                    disk_distance(ai, ci) - disk_distance(ai, bi)
                    - disk_distance(bi, ci))
                for ai, bi, ci in zip(a, b, c)]
    elif name == "lemma1":
        a, b = sample_disk(rng, n), sample_disk(rng, n)
        c = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))
        gaps = [lemma1_lower_bound(ai, bi, ci).bound - disk_distance(ai, bi)
                for ai, bi, ci in zip(a, b, c)]
    elif name == "lemma2":
        centre, r = 1.0 + 2.0j, 3.0
        big = DiskSpec(centre, r)
        a = centre + sample_disk(rng, n, r / 2.0)
        b = centre + sample_disk(rng, n, r / 2.0)
        gaps = [disk_distance(ai, bi, big) - TWO_LOG3 for ai, bi in zip(a, b)]
    elif name == "schwarz":
        a, b = 0.97 * sample_disk(rng, n), 0.97 * sample_disk(rng, n)
        checks = (schwarz_check(map_id, ai, bi)
                  for map_id in MAP_CATALOG for ai, bi in zip(a, b))
        gaps = [lhs - rhs for lhs, rhs, _ in checks]
    elif name == "monotone":
        small = DiskSpec(0j, 1.0)
        large = DiskSpec(0j, 1.0 + 3.0 * rng.uniform(0.0, 1.0))
        a, b = sample_disk(rng, n, 0.999), sample_disk(rng, n, 0.999)
        gaps = [disk_distance(ai, bi, large) - disk_distance(ai, bi, small)
                for ai, bi in zip(a, b)]
    else:
        raise ValueError(f"unknown check {name!r}; choose from {CHECKS}")
    return sum(gap > 1e-12 for gap in gaps), max(gaps)
