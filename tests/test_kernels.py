"""Batch kernels: accuracy against the 200-bit route, exact zero detection,
and parity of the scalar core `_h_point` with the numpy vector path."""

import hashlib
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from bakerlab import _kernels
from bakerlab.dynamics import classify_grid, iterate
from bakerlab.params import make_toy

from _oracles import h_ref

DOUBLING = make_toy("doubling")


PROFILES = [make_toy(name) for name in ("doubling", "steep", "paper2")]


def _loop_field(zx, zy, p):
    # the scalar core called point by point, in the vector path's layout
    factors = _kernels.prepared(p)
    rows = (_kernels._h_point(x, y, factors) for x, y in zip(zx, zy))
    is0, lm, ag = zip(*rows)
    return np.array(is0, dtype=np.uint8), np.array(lm), np.array(ag)


def _field_at(points, p, path=None):
    # "loop" is the scalar core per point; None is the public entry point
    zx = np.array([z.real for z in points], dtype=np.float64)
    zy = np.array([z.imag for z in points], dtype=np.float64)
    if path == "loop":
        return _loop_field(zx, zy, p)
    if path == "numpy":
        return _kernels._h_field_numpy(zx, zy, _kernels.prepared(p))
    return _kernels.h_field(zx, zy, p)


@pytest.mark.parametrize("path", ["loop", "numpy"])
def test_h_field_matches_high_precision(path):
    rng = np.random.default_rng(11)
    pts = [complex(x, y) for x, y in rng.uniform(-10, 10, (25, 2))]
    code, lm, ag = _field_at(pts, DOUBLING, path)
    for z, c, l, a in zip(pts, code, lm, ag):
        ref = h_ref(z, DOUBLING.r, DOUBLING.n)
        assert c == 0
        assert l == pytest.approx(float(mp.log(abs(ref))), abs=5e-14)
        assert a == pytest.approx(float(mp.arg(ref)), abs=5e-13)


@pytest.mark.parametrize("z", [2j, -2j, 4 * np.exp(1j * math.pi / 4),
                               8 * np.exp(3j * math.pi / 8),
                               16 * np.exp(1j * math.pi / 16)])
def test_exact_ring_zeros_are_flagged(z):
    z = complex(z)
    code, lm, ag = _field_at([z], DOUBLING)
    assert code[0] == 1
    assert lm[0] == -np.inf


def test_near_zero_is_not_snapped():
    # 1e-9 off the ring: tiny but valid value, must not be flagged
    z = (2.0 + 1e-9) * 1j
    code, lm, ag = _field_at([z], DOUBLING)
    assert code[0] == 0
    assert np.isfinite(lm[0])


def test_snap_eps_scales_with_degree():
    e1 = _kernels.factor_snap_eps(2)
    e2 = _kernels.factor_snap_eps(10 ** 9)
    assert e1 == 1e-13  # floor
    assert e2 > 1e-8  # grows ~ n * eps
    assert e2 == pytest.approx(64 * 2.220446049250313e-16 * 1e9, rel=1e-12)


def test_classify_known_points():
    status, step = _kernels.classify_field(
        np.array([0.0, 0.0]), np.array([0.0, 2.0]), DOUBLING, 40, 64.0)
    # the origin escapes on step 3 (0 -> e -> 34.4 -> huge)
    assert (status[0], step[0]) == (1, 3)
    # 2i is a zero of the product: unit translation, |h|=1 < ln 2 boundary..
    # h(2i)=0 means |h| < ln 2 immediately: near-zero-translation at step 0
    assert (status[1], step[1]) == (2, 0)


@pytest.mark.parametrize("p", PROFILES, ids=lambda p: str(p.n))
def test_loop_and_numpy_agree_on_field(p):
    rng = np.random.default_rng(6)
    zx = rng.uniform(-20, 20, 500)
    zy = rng.uniform(-20, 20, 500)
    c0, l0, a0 = _loop_field(zx, zy, p)
    c1, l1, a1 = _kernels._h_field_numpy(zx, zy, _kernels.prepared(p))
    assert np.array_equal(c0, c1)
    m = np.isfinite(l0)
    assert np.array_equal(m, np.isfinite(l1))
    # libm and numpy may round arg z an ulp apart, and n_k multiplies that
    tol = 1e-12 + 8.0 * math.pi * sys.float_info.epsilon * sum(p.n)
    assert np.max(np.abs(l0[m] - l1[m]) / np.maximum(1.0, np.abs(l0[m]))) < tol
    da = np.abs(np.remainder(a0 - a1 + math.pi, 2.0 * math.pi) - math.pi)
    assert np.max(da) < tol


def test_max_steps_must_be_positive():
    with pytest.raises(ValueError):
        _kernels.classify_field(np.zeros(1), np.zeros(1), DOUBLING, 0, 64.0)


def test_active_backend_names_the_path_in_use():
    # perfbench/run.py records this value with every benchmark result
    assert _kernels.active_backend() == "numpy"


def test_prepared_is_built_once_per_profile_and_read_only():
    p = make_toy("steep")
    factors = _kernels.prepared(p)
    assert _kernels.prepared(make_toy("steep")) is factors
    # an immutable table of (n, log r, snap_eps) built-in float triples
    assert type(factors) is tuple and len(factors) == p.K
    for row in factors:
        assert type(row) is tuple
        assert [type(v) for v in row] == [float, float, float]
    assert [row[0] for row in factors] == [float(n) for n in p.n]


@pytest.mark.parametrize("profile, z", [
    ("doubling", 1e-12 + 1e-12j),  # every factor small: |w| <= e^-50
    ("doubling", 1.5 + 0.7j),  # every factor mid
    ("steep", 40.0 + 1.0j),  # large-modulus branch: |w| >= e^50
    ("doubling", 2j),  # a snapped zero
], ids=["small", "mid", "large", "zero"])
def test_scalar_core_returns_builtin_floats(profile, z):
    is0, lm, ag = _kernels._h_point(z.real, z.imag,
                                    _kernels.prepared(make_toy(profile)))
    assert type(is0) is bool
    # np.float64 is a float subclass, so compare the exact type
    assert (type(lm), type(ag)) == (float, float)


# ---------------------------------------------------------------------------
# pinned output bytes of the numpy path, and the stall exit
# ---------------------------------------------------------------------------

# SHA-256 of the numpy path's output bytes, recorded before the stall exit
# and the per-regime evaluation were added.  Both changes must leave every
# byte as it was.  A libm that rounds differently from the recording
# machine (x86-64, numpy 2.4) would also change them.
GRID_DIGESTS = {
    "canonical-doubling":
        "ca4f32225a410ceed8efbfc3aa74aa2c4050af60d88e8057a301cc5979feaddf",
    "steep-off-axis":
        "1c8cc316a20bd712f139ca7ea998680305c89a5044fef1ed1be0305baa064d7b",
}
GRID_CASES = {
    "canonical-doubling": ((-8 - 8j, 8 + 8j), "doubling", 40),
    "steep-off-axis": ((-11 - 9j, 13 + 15j), "steep", 80),
}
FIELD_DIGESTS = {
    "doubling":
        "bf8de83c4341fff7ba97b5811353a3cb600574366563a19d0132e77b2d25027f",
    "steep":
        "71f1980c248bdd0003ba73d4f70e7cd0f4449572dfa81e0ce1994b19f01eaa3a",
    "paper2":
        "483081c5e07b69a51ea6b568cbfbb0cc7020ba92158fc2eb2575218034a1bcec",
}


def _sha(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _pinned_grid(case):
    rect, profile, steps = GRID_CASES[case]
    return classify_grid(rect, 64, 64, make_toy(profile), max_steps=steps,
                         escape_radius=64.0, threads=1)


def _regime_points(p):
    # log-uniform in |z| over e^-60..e^60, plus a dense band around each
    # factor's regime edges |(z/r_k)^n_k| = e^(+-50), then the origin and two
    # zeros of the first factor
    rng = np.random.default_rng(2024)
    logs = [rng.uniform(-60.0, 60.0, 600)]
    for r, n in zip(p.r, p.n):
        logs.append(math.log(r) + (50.0 / n) * rng.uniform(-1.5, 1.5, 200))
    lm = np.concatenate(logs)
    ag = rng.uniform(-math.pi, math.pi, lm.size)
    zeros = p.r[0] * np.exp(1j * math.pi * np.array([1.0, -1.0]) / p.n[0])
    z = np.concatenate([np.exp(lm) * np.exp(1j * ag), [0.0], zeros])
    return z.real.copy(), z.imag.copy()


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_bytes_are_pinned(case):
    g = _pinned_grid(case)
    assert _sha(g.status, g.step) == GRID_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(FIELD_DIGESTS))
def test_field_bytes_are_pinned(name):
    p = make_toy(name)
    zx, zy = _regime_points(p)
    code, lm, ag = _kernels._h_field_numpy(zx, zy, _kernels.prepared(p))
    assert code[-3:].tolist() == [0, 1, 1]
    assert _sha(code, lm, ag) == FIELD_DIGESTS[name]


def _count_points(monkeypatch, name):
    # count the points each call of a kernel function evaluates
    seen = []
    inner = getattr(_kernels, name)

    def counting(zx, *args):
        seen.append(np.size(zx))
        return inner(zx, *args)

    monkeypatch.setattr(_kernels, name, counting)
    return seen


def test_stall_exit_skips_frozen_orbits(monkeypatch):
    seen = _count_points(monkeypatch, "_h_field_numpy")
    g = _pinned_grid("canonical-doubling")
    budget = g.nx * g.ny * 40
    # about half the pixels stay bounded; without the exit each of them
    # would be evaluated on all 40 steps
    assert np.count_nonzero(np.isin(g.status, (0, 2))) > 0.4 * g.nx * g.ny
    assert sum(seen) < budget // 4


# (z, step at which |h| < ln 2 first holds, step whose image equals its input)
FROZEN_AFTER_NZT = (complex(-0.6929133858267716, -3.0866141732283463), 3, 6)


def test_frozen_orbit_keeps_its_near_zero_flag(monkeypatch):
    z, nzt_step, frozen_at = FROZEN_AFTER_NZT
    rec = iterate(z, DOUBLING, max_steps=40, escape_radius=64.0)
    assert rec.status == "near-zero-translation"
    assert rec.nzt_step == nzt_step
    assert rec.points[frozen_at + 1] == rec.points[frozen_at]
    assert rec.points[frozen_at] != rec.points[frozen_at - 1]

    zx, zy = np.array([z.real]), np.array([z.imag])
    seen = _count_points(monkeypatch, "_h_field_numpy")
    status, step = _kernels._classify_numpy(zx, zy, _kernels.prepared(DOUBLING),
                                            40, 64.0)
    assert (status[0], step[0]) == (2, nzt_step)
    assert len(seen) == frozen_at + 1  # one evaluation per step up to the freeze
