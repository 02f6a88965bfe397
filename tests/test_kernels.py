"""Batch kernels: accuracy against the 200-bit route, exact zero detection,
and parity of the scalar core `_h_point` with the numpy vector path."""

import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from bakerlab import _kernels
from bakerlab.dynamics import classify_grid, iterate
from bakerlab.hfun import eval_h
from bakerlab.logc import ZERO
from bakerlab.params import ParamSeq, make_toy
from bakerlab.verify import obstruction_chain

from _oracles import PREC, condition_sum_ref, h_ref, orbit_ref, rect_points

DOUBLING = make_toy("doubling")
# |log|w|| at which a factor 1 + w leaves the near regime
FAR = _kernels.FAR_EDGE


PROFILE_NAMES = ("doubling", "steep", "paper2")
PROFILES = [make_toy(name) for name in PROFILE_NAMES]


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


# degree 2**52: here |log|w|| = 60 is in the far field, while the snap
# tolerance 64 eps n is about 64, so a snap test there would fire
HUGE_DEGREE = ParamSeq((1.0,), (2 ** 52,))
HUGE_DEGREE_Z = complex(1.0000000000000133, 6.975736996017356e-16)


def _oracle_points(name, k):
    # 150 seeded points about ring k: within 3 r_k/n_k of it on a built-in
    # profile; on "huge", z = (1 + j eps) + i y with j in [70, 400) and y in
    # [1e-9, 1e-8], where log|w| = 70 to 400
    if name == "huge":
        rng = np.random.default_rng(0)
        eps = np.finfo(np.float64).eps
        return HUGE_DEGREE, 1.0 + rng.integers(70, 400, 150) * eps, (
            rng.uniform(1e-9, 1e-8, 150))
    p = make_toy(name)
    r_k, n_k = p.r[k - 1], p.n[k - 1]
    rng = np.random.default_rng(3)
    rad = r_k + 3.0 * r_k / n_k * rng.uniform(-1.0, 1.0, 150)
    ang = rng.uniform(-math.pi, math.pi, 150)
    return p, rad * np.cos(ang), rad * np.sin(ang)


def _term_and_sum(zx, zy, p):
    # the first-order rounding term T (`_kernels._first_order_term`) and its
    # condition sum S at the points, from the kernels' own pieces
    n, logr, _ = _kernels._factor_columns(_kernels.prepared(p))
    with np.errstate(divide="ignore"):  # log 0 at the origin
        _, tau, _, cond, _ = _kernels._factor_bounds(zx, zy, n, logr, 0.0)
    return _kernels._first_order_term(n, cond, tau), (n * cond).sum(axis=0)


def _angle_gap(a, b):
    # |a - b| mod 2 pi, in [0, pi]
    return np.abs(np.remainder(a - b + math.pi, 2.0 * math.pi) - math.pi)


@pytest.mark.parametrize("name, k", [(name, k) for name in PROFILE_NAMES
                                     for k in range(1, make_toy(name).K + 1)]
                         + [("huge", 1)])
def test_scalar_core_within_first_order_term_of_oracle(name, k):
    # the scalar core and the vector path each within the first-order
    # rounding term T of the 200-bit oracle, in log|h| and in arg h; the
    # worst ratio to T over the ten built-in rings is 0.26 (steep ring 3),
    # and 0.054 on "huge", whose error of up to 0.22 is the rounding of |z|
    # times n = 2**52
    p, xs, ys = _oracle_points(name, k)
    term, _ = _term_and_sum(xs, ys, p)
    ref = [h_ref(complex(x, y), p.r, p.n) for x, y in zip(xs, ys)]
    ref_lm = np.array([float(mp.log(abs(v))) for v in ref])
    ref_ag = np.array([float(mp.arg(v)) for v in ref])
    for path in ("loop", "numpy"):
        code, lm, ag = _field_at(list(map(complex, xs, ys)), p, path)
        assert not code.any()
        assert (np.abs(lm - ref_lm) <= term).all(), path
        assert (_angle_gap(ag, ref_ag) <= term).all(), path


# paper2 beyond r_2 = 4 with log|w_2| = 730, where e^{log|w_2|} overflows
# but the factor is not dead; then a dead small and a dead big w_2
PAPER2_EDGES = (complex(4.0 * math.exp(730.0 / 2844000000), 0.5e-9), 1 + 1j,
                12 - 9j)


def test_condition_sum_matches_the_oracle():
    # S = sum n_k |w_k|/|1 + w_k| against 200 bits, and a finite T, on
    # seeded points of every built-in profile, on PAPER2_EDGES and at the
    # origin: a wrong or NaN term would make the oracle and parity checks
    # vacuous
    rng = np.random.default_rng(8)
    cases = [(p, [complex(x, y) for x, y in rng.uniform(-20, 20, (40, 2))])
             for p in PROFILES]
    cases.append((make_toy("paper2"), list(PAPER2_EDGES)))
    n2, logr2, _ = _kernels.prepared(make_toy("paper2"))[1]
    lw = [n2 * (math.log(abs(z)) - logr2) for z in PAPER2_EDGES]
    # dead: e^-|log|w_2|| underflows to exactly 0
    assert math.log(np.finfo(np.float64).max) < lw[0]
    assert math.exp(-lw[0]) > 0.0
    assert lw[1] < 0.0 < lw[2]
    assert math.exp(-abs(lw[1])) == math.exp(-lw[2]) == 0.0
    for p, pts in cases:
        term, s = _term_and_sum(np.real(pts), np.imag(pts), p)
        assert np.isfinite(term).all()
        for z, got in zip(pts, s):
            want = condition_sum_ref(z, p.r, p.n)
            assert abs(got - want) <= 1e-9 * want, (p.n, z)
    # at the origin every w_k is 0 and h is exactly 1
    for p in PROFILES:
        term, s = _term_and_sum(np.zeros(1), np.zeros(1), p)
        assert s[0] == condition_sum_ref(0j, p.r, p.n) == 0
        assert term[0] == 8 * p.K * np.finfo(np.float64).eps


@pytest.mark.parametrize("z", [2j, -2j, 4 * np.exp(1j * math.pi / 4),
                               8 * np.exp(3j * math.pi / 8),
                               16 * np.exp(1j * math.pi / 16)])
def test_exact_ring_zeros_are_flagged(z):
    z = complex(z)
    code, lm, ag = _field_at([z], DOUBLING)
    assert code.dtype == np.uint8
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
    # the dtypes a grid file stores
    assert (status.dtype, step.dtype) == (np.uint8, np.uint32)
    # the origin escapes on step 3 (0 -> e -> 34.4 -> huge)
    assert (status[0], step[0]) == (1, 3)
    # 2i is a zero of the product: unit translation, |h|=1 < ln 2 boundary..
    # h(2i)=0 means |h| < ln 2 immediately: near-zero-translation at step 0
    assert (status[1], step[1]) == (2, 0)


def _assert_paths_agree(zx, zy, p):
    # each path is within the first-order term T of the 200-bit oracle, so
    # the two are within 2 T of each other
    c0, l0, a0 = _loop_field(zx, zy, p)
    c1, l1, a1 = _kernels._h_field_numpy(zx, zy, _kernels.prepared(p))
    tol = 2.0 * _term_and_sum(zx, zy, p)[0]
    assert np.array_equal(c0, c1)
    m = np.isfinite(l0)
    assert np.array_equal(m, np.isfinite(l1))
    assert (np.abs(l0[m] - l1[m]) <= tol[m]).all()
    assert (_angle_gap(a0, a1) <= tol).all()


@pytest.mark.parametrize("p", PROFILES, ids=lambda p: str(p.n))
def test_loop_and_numpy_agree_on_field(p):
    rng = np.random.default_rng(6)
    zx, zy = rng.uniform(-20, 20, (2, 500))
    _assert_paths_agree(zx, zy, p)


def test_far_field_factor_is_never_snapped():
    zx, zy = np.array([HUGE_DEGREE_Z.real]), np.array([HUGE_DEGREE_Z.imag])
    factors = _kernels.prepared(HUGE_DEGREE)
    assert not _kernels._h_point(zx[0], zy[0], factors)[0]
    code, field_lm, _ = _kernels.h_field(zx, zy, HUGE_DEGREE)
    assert code[0] == 0
    assert field_lm[0] == pytest.approx(60.0, rel=1e-12)
    _assert_paths_agree(zx, zy, HUGE_DEGREE)
    assert eval_h(HUGE_DEGREE_Z, HUGE_DEGREE).value is not ZERO


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
    ("doubling", 1e-12 + 1e-12j),  # every factor far, w small: |w| <= e^-50
    ("doubling", 1.5 + 0.7j),  # every factor near
    ("steep", 40.0 + 1.0j),  # every factor far, w big: |w| >= e^50
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


# SHA-256 of the canonical-doubling grid at 256x256, one classify_field
# call, recorded before the classifier stepped its active orbits in slices.
# Steps 0 to 4 hold 65536, 19074, 13044, 9950 and 8418 active orbits, so
# more than one step is wider than a slice.
GRID_256_DIGEST = (
    "f679c2accc28d3753cac04884ab29a0ed8c91157e0fb6b5fca295a7432e9e373")


def _pinned_grid(case, nx=64, ny=64):
    rect, profile, steps = GRID_CASES[case]
    return classify_grid(rect, nx, ny, make_toy(profile), max_steps=steps,
                         escape_radius=64.0, threads=1)


def _regime_points(p):
    # log-uniform in |z| over e^-60..e^60, plus a dense band around each
    # factor's regime edges |(z/r_k)^n_k| = e^(+-50), then the origin and two
    # zeros of the first factor
    rng = np.random.default_rng(2024)
    logs = [rng.uniform(-60.0, 60.0, 600)]
    for r, n in zip(p.r, p.n):
        logs.append(math.log(r) + (FAR / n) * rng.uniform(-1.5, 1.5, 200))
    lm = np.concatenate(logs)
    ag = rng.uniform(-math.pi, math.pi, lm.size)
    zeros = p.r[0] * np.exp(1j * math.pi * np.array([1.0, -1.0]) / p.n[0])
    z = np.concatenate([np.exp(lm) * np.exp(1j * ag), [0.0], zeros])
    return z.real.copy(), z.imag.copy()


# SHA-256 of the numpy path on inputs where every factor sees one magnitude
# regime on every point, so each factor evaluates that regime on the whole
# array (the mixed `_regime_points` always split it).  Recorded before the
# regimes were applied through a shared selector.
SINGLE_REGIME_DIGESTS = {
    "doubling-small":
        "1d09d4ff15c75fd4ab094a970e007d676ffa62b17ba47d4acf55b23ade62207c",
    "doubling-mid":
        "d7bbcf0bfc8d3f25465d30e7fd20a0c8bb4c13aa66a6f09dfeaefbbf8b62c544",
    "doubling-big":
        "bf5ec1b280e23e6b0dcd1143d9a2c31c84a7b5dbf42bc16133051b5294016974",
    "steep-small":
        "3658e7f293cb1eabc9ddccfd401175be9f56011b0f79c0a2f3f345aedc189e8e",
    "steep-mid":
        "339fba1432bf8f0e9f926c7639138f0e28d74af17ae4815f6d5f37748d3def14",
    "steep-big":
        "932f9805ec938d89e6882f58e67cea350fcc528b2182afef4dbecb85c13d74c4",
    "paper2-small":
        "dd5035ad04a29cd8a1b155fceb9e1d2c0fa5c58dc224c2ddf85893232cf1cde6",
    "paper2-mid":
        "f98cba27407d2324b07a1755990aa64762f87f392c96e2b915433429c188c4c5",
    "paper2-big":
        "f181ea3335946cce17ff6838bbf2185b989089911f4cd1bbb4fb73defa088ddf",
}


def _single_regime_points(p, regime):
    # "small" lies below every factor's e^-50 edge (plus the origin), "big"
    # above every e^50 edge, both in the far field; "mid" is a thin annulus
    # about the last ring, inside every factor's near band, plus two zeros
    # of the last factor
    rng = np.random.default_rng(p.n[-1])
    span = rng.uniform(0.1, 5.0, 500)
    if regime == "small":
        lm = min(math.log(r) - FAR / n for r, n in zip(p.r, p.n)) - span
    elif regime == "big":
        lm = max(math.log(r) + FAR / n for r, n in zip(p.r, p.n)) + span
    else:
        half = 0.5 * FAR / p.n[-1]
        lm = math.log(p.r[-1]) + half * rng.uniform(-1, 1, 500)
    ag = rng.uniform(-math.pi, math.pi, lm.size)
    z = np.exp(lm) * np.exp(1j * ag)
    if regime == "small":
        z = np.concatenate([z, [0.0]])
    elif regime == "mid":
        turns = np.array([1.0, -3.0]) / p.n[-1]
        z = np.concatenate([z, p.r[-1] * np.exp(1j * math.pi * turns)])
    return z.real.copy(), z.imag.copy()


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_bytes_are_pinned(case):
    g = _pinned_grid(case)
    assert _sha(g.status, g.step) == GRID_DIGESTS[case]


def test_large_grid_bytes_are_pinned():
    g = _pinned_grid("canonical-doubling", 256, 256)
    assert _sha(g.status, g.step) == GRID_256_DIGEST


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
    # frozen orbits alone leave 38166 point-steps; slow orbits retired by
    # `_settled` bring them to 21720
    assert sum(seen) < 24000


@pytest.mark.parametrize("batch", [_kernels.BATCH, 1000, 257])
def test_classify_is_batching_invariant(monkeypatch, batch):
    # each step evaluates its active orbits in slices of at most BATCH
    # points; the 4096 orbits of a 64x64 grid fill one slice by default,
    # and at 1000 or 257 every early step is cut, most with a ragged last
    # slice.  The bytes and the point-steps stay those of one slice
    monkeypatch.setattr(_kernels, "BATCH", batch)
    seen = _count_points(monkeypatch, "_h_field_numpy")
    for case in sorted(GRID_CASES):
        g = _pinned_grid(case)
        assert _sha(g.status, g.step) == GRID_DIGESTS[case]
    assert max(seen) == min(batch, 64 * 64)
    # two steep-off-axis orbits retire on the step whose e^{Re h}
    # underflows to 0, as `test_orbit_whose_step_underflows_freezes_at_once`
    assert sum(seen) == 37065


def test_classify_memory_is_bounded():
    # one band of 65536 orbits, as a square grid and as one row; stepped
    # whole, the first step's call-sized temporaries peak near 11 MiB
    for nx, ny in ((256, 256), (65536, 1)):
        tracemalloc.start()
        try:
            _pinned_grid("canonical-doubling", nx, ny)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, (nx, ny, peak)


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


# on steep, log|h| = 695.1 and Re h = -6.2e301 here: e^{Re h} is exactly 0,
# and Im h = -4.4e301 is past where its reduction's split overflows to NaN
UNDERFLOW_START = complex(26.69808938436292, 39.07587349790384)


def test_orbit_whose_step_underflows_freezes_at_once(monkeypatch):
    p = make_toy("steep")
    rec = iterate(UNDERFLOW_START, p, max_steps=70, escape_radius=64.0)
    assert set(rec.points) == {UNDERFLOW_START} and rec.cell == (0, 0)
    seen = _count_points(monkeypatch, "_h_field_numpy")
    status, step = _kernels.classify_field([UNDERFLOW_START.real],
                                           [UNDERFLOW_START.imag], p, 70,
                                           64.0)
    assert (status[0], step[0]) == (0, 0)
    assert seen == [1]


@pytest.mark.parametrize("case", sorted(SINGLE_REGIME_DIGESTS))
def test_single_regime_field_bytes_are_pinned(case):
    name, regime = case.split("-")
    p = make_toy(name)
    factors = _kernels.prepared(p)
    zx, zy = _single_regime_points(p, regime)
    with np.errstate(divide="ignore", invalid="ignore"):
        lmz = np.log(np.hypot(zx, zy))  # -inf at the origin: small
        for n, logr, _ in factors:
            wlm = n * (lmz - logr)
            small, big = wlm <= -FAR, wlm >= FAR
            expected = {"small": small, "big": big, "mid": ~(small | big)}
            assert expected[regime].all()
    code, lm, ag = _kernels._h_field_numpy(zx, zy, factors)
    assert code.sum() == (2 if regime == "mid" else 0)
    assert _sha(code, lm, ag) == SINGLE_REGIME_DIGESTS[case]


# ---------------------------------------------------------------------------
# dead factors, where e^-|log|w|| underflows to exactly 0
# ---------------------------------------------------------------------------

# SHA-256 of the numpy path on rects where paper2's second factor is dead
# on every pixel, plus one (canonical doubling) where no factor is dead
# anywhere.  Recorded before dead factors were skipped.
DEAD_FACTOR_DIGESTS = {
    "paper2-dead-small":
        "6d0b3324f210a89292a954f478f22030ac9d5d1ee09659472a8a7a0641d7f6a6",
    "paper2-dead-big":
        "76d0b707ad4e994054e35d48ace0f9c5dc9082f0540707954ba2013e7be49bbb",
    "paper2-dead-mixed":
        "ae2e6c55bd4422fefef00cc259c6e35886fdde4a07a03dc4fd75ff632a2bc141",
    "doubling-none":
        "e2acbc8045e0bb0367745d5b9b8e63bff4c173ee8561f2ca17ac23ea4b085bc7",
}
_P2_SMALL = 2.0 * math.exp(-FAR) * 0.2  # inside paper2's small-regime edge
_P2_BIG = 2.0 * math.exp(FAR) * 3.0  # outside its big-regime edge
DEAD_FACTOR_CASES = {
    # 63 samples a side put one on the origin, where log|z| is -inf
    "paper2-dead-small": ("paper2", (-1 - 1j) * _P2_SMALL,
                          (1 + 1j) * _P2_SMALL, 63),
    "paper2-dead-big": ("paper2", (0.75 - 0.25j) * _P2_BIG,
                        (1.25 + 0.25j) * _P2_BIG, 64),
    # straddles ring 2 (|z| = 4) with no pixel inside its dead-free annulus
    "paper2-dead-mixed": ("paper2", -4.6 - 5.3j, 5.4 + 4.7j, 64),
    "doubling-none": ("doubling", -8 - 8j, 8 + 8j, 64),
}


def _dead_factor_points(case):
    profile, z0, z1, side = DEAD_FACTOR_CASES[case]
    return make_toy(profile), *rect_points((z0, z1), side, side)


@pytest.mark.parametrize("case", sorted(DEAD_FACTOR_CASES))
def test_dead_factor_field_bytes_are_pinned(case):
    p, zx, zy = _dead_factor_points(case)
    factors = _kernels.prepared(p)
    with np.errstate(divide="ignore"):
        lmz = np.log(np.hypot(zx, zy))  # -inf at the origin
    wlm = [n * (lmz - logr) for n, logr, _ in factors]
    if case == "doubling-none":
        assert all((np.exp(-np.abs(w)) > 0.0).all() for w in wlm)
    else:
        last = wlm[-1]
        assert (np.exp(-np.abs(last)) == 0.0).all()
        signs = {"small": [True], "big": [False], "mixed": [False, True]}
        assert np.unique(last < 0.0).tolist() == signs[case.split("-")[-1]]
    code, lm, ag = _kernels._h_field_numpy(zx, zy, factors)
    assert _sha(code, lm, ag) == DEAD_FACTOR_DIGESTS[case]
    _assert_paths_agree(zx, zy, p)


def test_dead_small_factor_skips_its_reduction(monkeypatch):
    # paper2's second factor is dead and small on every pixel of the chunk,
    # so only the first factor's n*arg z is reduced
    seen = _count_points(monkeypatch, "_reduce_np")
    p, zx, zy = _dead_factor_points("paper2-dead-small")
    _kernels._h_field_numpy(zx, zy, _kernels.prepared(p))
    assert seen == [zx.size]


def _level_points(p, rng, rings=8, angles=512):
    # points bisected onto log|h| = 0 on seeded circles where the last factor
    # has a small w with e^{log|w|} in [e^-70, e^-50]: there the sums before
    # it are near 0, so its terms do not round away, while on the rest of
    # the circle they do.  Angles start at -pi, where paper2's sign change
    # lies within 2e-4 rad
    n, logr, _ = _kernels.prepared(p)[-1]
    rad = np.repeat(np.exp(logr + rng.uniform(-70.0, -50.0, rings) / n),
                    angles)
    lo = np.tile(-math.pi + 2.0 * math.pi * np.arange(angles) / angles, rings)
    hi = lo + 2.0 * math.pi / angles

    def below(t):
        return _kernels.h_field(rad * np.cos(t), rad * np.sin(t), p)[1] < 0.0

    cross = below(lo) != below(hi)
    rad, lo, hi = rad[cross], lo[cross], hi[cross]
    start = below(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = below(mid) == start
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    t, rad = np.concatenate([lo, hi]), np.tile(rad, 2)
    return rad * np.cos(t), rad * np.sin(t)


def _split_points(p, rng):
    # first, mixed in seeded order, the last factor's small annulus of
    # `_level_points` with its level points; then log|z| uniform in [-60,
    # 60], then log|w_k| uniform in [-900, 900] about each ring (dead, far
    # and near factors), and the origin with both signs of zero
    n, logr, _ = _kernels.prepared(p)[-1]
    rad = np.exp(logr + rng.uniform(-70.0, -50.0, 256) / n)
    ang = rng.uniform(-math.pi, math.pi, 256)
    lx, ly = _level_points(p, rng)
    order = rng.permutation(rad.size + lx.size)
    xs = [np.concatenate([rad * np.cos(ang), lx])[order]]
    ys = [np.concatenate([rad * np.sin(ang), ly])[order]]
    rad = np.concatenate(
        [np.exp(rng.uniform(-60.0, 60.0, 256))]
        + [r * np.exp(np.clip(rng.uniform(-900.0, 900.0, 64) / k, -60, 60))
           for r, k in zip(p.r, p.n)])
    ang = rng.uniform(-math.pi, math.pi, rad.size)
    xs += [rad * np.cos(ang), [0.0, -0.0, 0.0, -0.0]]
    ys += [rad * np.sin(ang), [0.0, 0.0, -0.0, -0.0]]
    return np.concatenate(xs), np.concatenate(ys)


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_h_field_bytes_do_not_depend_on_the_split(name):
    # regimes, `_ALL` views and the whole-batch skip of a small factor are
    # decided per batch; one batch, seeded cuts and single points must give
    # the same bytes
    p = make_toy(name)
    rng = np.random.default_rng(37)
    zx, zy = _split_points(p, rng)
    whole = _sha(*_kernels.h_field(zx, zy, p))
    cuts = np.unique(rng.integers(1, zx.size, 16))
    parts = [_kernels.h_field(x, y, p)
             for x, y in zip(np.split(zx, cuts), np.split(zy, cuts))]
    assert _sha(*map(np.concatenate, zip(*parts))) == whole
    points = [_kernels.h_field(zx[i:i + 1], zy[i:i + 1], p)
              for i in range(zx.size)]
    assert _sha(*map(np.concatenate, zip(*points))) == whole


# ---------------------------------------------------------------------------
# slow orbits retired by the certificate `_settled`
# ---------------------------------------------------------------------------

# the five escape templates of perfbench, without its seeded jitter:
# profile, half-width, centre, step budget
ESCAPE_TEMPLATES = {
    "canonical-doubling": ("doubling", 8.0, 0j, 40),
    "steep-70": ("steep", 12.0, 1 + 2j, 70),
    "steep-80": ("steep", 12.0, 1 + 3j, 80),
    "doubling-90": ("doubling", 13.0, 1.5 + 3j, 90),
    "wide-doubling-200": ("doubling", 18.0, 1 + 2j, 200),
}


def _template_points(name, side=64):
    profile, half, c, steps = ESCAPE_TEMPLATES[name]
    corner = complex(half, half)
    return make_toy(profile), *rect_points((c - corner, c + corner), side,
                                           side), steps


def _screened(x, y, re_h, m, n):
    # `_classify_numpy`'s screen, `_settled`'s precondition N delta <= 1/2,
    # on the same floats: N is the degree column n's sum
    return ((_kernels.RHO_PER_STEP * m) * np.exp(re_h) * (2.0 * n.sum())
            <= np.hypot(x, y))


def test_screen_and_escape_circle_bound_re_h():
    # `_settled` does not test Re h + 1 <= 700.  With m = 1 and N = 1 the
    # screen asks for |z| >= 2 rho, rho = 3 e e^{Re h}, and the escape-circle
    # test for (|z| + rho)^2 (1 + 2^-30)^2 < R^2, which needs a finite R^2.
    # At the largest such R both pass at Re h = 351 and at no Re h >= 353:
    # each gets harder as Re h grows
    radius = math.sqrt(np.finfo(float).max)
    while math.isfinite((up := math.nextafter(radius, math.inf)) * up):
        radius = up
    assert math.isfinite(radius * radius)
    # |z| across the whole disk: the screen passes from some |z| up, the
    # circle below some |z|
    az = radius * np.linspace(0.001, 1.0, 1000)
    for re_h, passes in ((351.0, True), (353.0, False)):
        edge = (az + _kernels.RHO_PER_STEP * math.exp(re_h)) * (
            1.0 + 2.0 ** -30)
        with np.errstate(over="ignore"):
            circle = edge * edge < radius * radius
        screen = _screened(az, 0.0, re_h, 1, np.ones((1, 1)))
        assert (screen & circle).any() == passes


@pytest.mark.parametrize("name", sorted(ESCAPE_TEMPLATES))
def test_certificate_moves_no_byte(monkeypatch, name):
    p, zx, zy, steps = _template_points(name)
    factors = _kernels.prepared(p)
    retired, screened = [], []
    real = _kernels._settled

    def counting(x, y, hlm, re_h, flagged, m, columns, esc2):
        # `_settled` does not test its precondition itself
        screened.append(_screened(x, y, re_h, m, columns[0]).all())
        ok = real(x, y, hlm, re_h, flagged, m, columns, esc2)
        retired.append(np.count_nonzero(ok))
        return ok

    monkeypatch.setattr(_kernels, "_settled", counting)
    cells = _kernels._classify_numpy(zx, zy, factors, steps, 64.0)
    assert sum(retired) > 0 and all(screened)
    monkeypatch.setattr(_kernels, "_settled",
                        lambda x, *args: np.zeros(x.shape, dtype=bool))
    assert _sha(*cells) == _sha(*_kernels._classify_numpy(zx, zy, factors,
                                                           steps, 64.0))


def test_appended_factor_moves_only_cells_that_pass_2_r_k():
    # a grid classifies the stored prefix, and `eval`'s tail bound covers
    # every admissible continuation only inside |z| < 2 r_K.  Append a
    # fifth factor at r_5 = 2 r_4 = 32 with n_5 = 1024: every cell it moves
    # (44 at 64x64) is one whose (status, step) differs between escape
    # radius 2 r_K and 64 (82 cells), an orbit that left |z| < 2 r_K before
    # it was decided.  Lower degrees move cells inside it too: of the cells
    # moved by n_5 = 5 (34) and n_5 = 32 (48), 8 and 2 lie outside that set
    # (at 256x256: 270 of 766 and 20 of 572, against 0 of 614 for 1024)
    p, zx, zy, steps = _template_points("canonical-doubling")

    def cells(q, radius):
        return np.rec.fromarrays(
            _kernels.classify_field(zx, zy, q, steps, radius))

    prefix = cells(p, 64.0)
    crossed = prefix != cells(p, 2.0 * p.r[-1])
    longer = ParamSeq(p.r + (2.0 * p.r[-1],), p.n + (1024,))
    moved = cells(longer, 64.0) != prefix
    assert moved.any()
    assert not (moved & ~crossed).any()


@pytest.mark.parametrize("name", ["canonical-doubling", "steep-70",
                                  "wide-doubling-200"])
def test_classification_matches_the_full_precision_orbit(name):
    # status and step of seeded pixels against orbits iterated at 200 bits
    # with no log-polar form, no snapping and no slow-orbit exit
    p, zx, zy, steps = _template_points(name)
    pick = np.random.default_rng(19).choice(zx.size, 30, replace=False)
    status, step = _kernels.classify_field(zx[pick], zy[pick], p, steps, 64.0)
    got = list(zip(status.tolist(), step.tolist()))
    assert got == [orbit_ref(complex(x, y), p.r, p.n, steps, 64.0)
                   for x, y in zip(zx[pick], zy[pick])]
    # the sample holds both escaped and unescaped orbits
    assert {s & _kernels.STATUS_ESCAPED for s, _ in got} == {
        0, _kernels.STATUS_ESCAPED}


def test_paper2_disk_square_matches_the_full_precision_orbit():
    # seeded pixels of the 256x256 grid over z_k +- 2 radius_10 at ring 2 of
    # paper2 (t = 0.37), 20 steps, escape radius 4 r_K; three of the twelve
    # orbits land where Re h < -745, which the oracle's artefact rule
    # freezes as the kernel does.  Past the first step the kernel's orbits
    # carry h's rounding error times n_2 = 2.844e9, so this checks the rule
    # and the first step: on 200 pixels of this grid, 28 that survive the
    # first step disagree
    p = make_toy("paper2")
    rep = obstruction_chain(p, 2, 0.37, complex(5.0), 5.0)
    corner = complex(2.0 * rep.radius_10, 2.0 * rep.radius_10)
    zx, zy = rect_points((rep.z_k - corner, rep.z_k + corner), 256, 256)
    pick = np.random.default_rng(22).choice(zx.size, 12, replace=False)
    radius = 4.0 * p.r[-1]
    status, step = _kernels.classify_field(zx[pick], zy[pick], p, 20, radius)
    got = list(zip(status.tolist(), step.tolist()))
    assert got == [orbit_ref(complex(x, y), p.r, p.n, 20, radius)
                   for x, y in zip(zx[pick], zy[pick])]


def test_frozen_orbits_move_less_than_half_an_ulp():
    # where the floating-point map fixes a point, f(z) == z bitwise, the
    # 200-bit e^h at that z is at most half an ulp of z in each coordinate,
    # so rounding, not the map, holds the orbit still; 65 of these 200
    # seeded canonical-doubling orbits freeze, the largest ratio 0.25
    p, zx, zy, steps = _template_points("canonical-doubling")
    pick = np.random.default_rng(5).choice(zx.size, 200, replace=False)
    frozen, ratios = [], []
    for x, y in zip(zx[pick], zy[pick]):
        pts = iterate(complex(x, y), p, steps, 64.0).points
        fixed = [a for a, b in zip(pts, pts[1:]) if a == b]
        if fixed:
            frozen.append(complex(x, y))
            with mp.workprec(PREC):
                e = mp.exp(h_ref(fixed[0], p.r, p.n))
            ratios.append(max(abs(e.real) / math.ulp(fixed[0].real),
                              abs(e.imag) / math.ulp(fixed[0].imag)))
    assert len(frozen) > 50
    assert max(ratios) <= 0.5
    # and the classifier stops each of them unescaped
    status, _ = _kernels.classify_field(np.real(frozen), np.imag(frozen), p,
                                        steps, 64.0)
    assert not (status & _kernels.STATUS_ESCAPED).any()


# on doubling, Re h = -28.57 here: the orbit creeps by about e^-28.6 a step
SLOW_START = complex(-6.898342038351103, 3.348078243721183)


def _slow_state():
    # (log|h|, Re h) at SLOW_START
    zx, zy = np.array([SLOW_START.real]), np.array([SLOW_START.imag])
    _, lm, ag = _kernels.h_field(zx, zy, DOUBLING)
    return float(lm[0]), float(_kernels.h_cartesian(lm, ag)[0][0])


def test_slow_start_costs_one_evaluation(monkeypatch):
    assert _slow_state()[1] <= -25.0
    seen = _count_points(monkeypatch, "_h_field_numpy")
    status, step = _kernels.classify_field([SLOW_START.real],
                                           [SLOW_START.imag], DOUBLING, 40,
                                           64.0)
    assert (status[0], step[0]) == (0, 0)
    assert seen == [1]
    rec = iterate(SLOW_START, DOUBLING, max_steps=40, escape_radius=64.0)
    assert rec.status == "bounded-so-far" and rec.nzt_step is None


def _settled_at(profile, z, hlm, re_h, flagged, m, radius=64.0):
    # the certificate on one hand-made orbit state, which meets its
    # precondition
    x, y, lm, re = (np.array([v]) for v in (z.real, z.imag, hlm, re_h))
    columns = _kernels._factor_columns(_kernels.prepared(make_toy(profile)))
    assert _screened(x, y, re, m, columns[0]).all()
    return bool(_kernels._settled(x, y, lm, re, np.array([flagged]), m,
                                  columns, radius * radius)[0])


# a hand-made state at SLOW_START with Re h = -12 and |h| = 20: over 40
# steps the disk has radius rho = 3 e 40 e^-12 = 2.0e-3, far above the
# escape test's relative margin of 2^-30
CREEP = (math.log(20.0), -12.0, True, 40)


def test_certificate_refuses_a_disk_reaching_the_escape_circle():
    _, re_h, _, m = CREEP
    edge = abs(SLOW_START) + _kernels.RHO_PER_STEP * m * math.exp(re_h)
    assert _settled_at("doubling", SLOW_START, *CREEP)
    # the disk crosses the circle, or comes within its margin
    for radius in (0.5 * (abs(SLOW_START) + edge), edge * (1.0 + 2.0 ** -31)):
        assert not _settled_at("doubling", SLOW_START, *CREEP, radius)
    assert _settled_at("doubling", SLOW_START, *CREEP,
                       edge * (1.0 + 2.0 ** -29))


def test_certificate_refuses_a_disk_where_re_h_may_grow():
    # with |h| = 200 instead of 20 the same disk may see Re h rise by more
    # than 1 (|h| expm1(Lambda*) > 1/2), so steps could leave it
    _, re_h, flagged, m = CREEP
    assert _settled_at("doubling", SLOW_START, math.log(50.0), re_h,
                       flagged, m)
    assert not _settled_at("doubling", SLOW_START, math.log(200.0), re_h,
                           flagged, m)


def test_certificate_refuses_an_unflagged_orbit_near_ln2():
    _, re_h = _slow_state()
    # |h| a hair above ln 2: the next steps could set the near-zero flag
    hlm = _kernels.LOG_LN2 + 1e-12
    assert not _settled_at("doubling", SLOW_START, hlm, re_h, False, 40)
    assert _settled_at("doubling", SLOW_START, hlm, re_h, True, 40)


def test_certificate_refuses_an_orbit_near_a_factor_zero():
    # 2i is a zero of doubling's first factor; a hand-made tiny |h| and
    # step isolate the snap-window condition: 6e-13 off the zero is within
    # it, 1e-10 off is not
    near, off = 2j * (1.0 + 6e-13), 2j * (1.0 + 1e-10)
    assert not _settled_at("doubling", near, -14.0, -600.0, True, 40)
    assert _settled_at("doubling", off, -14.0, -600.0, True, 40)


def test_certificate_charges_the_rounding_of_h():
    # on paper2's ring 2 (n_2 = 2844000000) one ulp of arg z moves h by
    # about 3e-6 relative; with a hand-made step of e^-600 the bound on D is
    # the charged rounding term alone, so it decides between |h| = 300
    # (300 T' |h| = 0.15) and |h| = 1500 (0.77, above the 1/2 allowed)
    assert _settled_at("paper2", 4 + 0j, math.log(300.0), -600.0, True, 1)
    assert not _settled_at("paper2", 4 + 0j, math.log(1500.0), -600.0, True, 1)


# ---------------------------------------------------------------------------
# exact shortcuts of the factor step: each premise bitwise against the full
# formula, on built-in floats and on numpy arrays
# ---------------------------------------------------------------------------

TWO_PI = _kernels.TWO_PI
# a profile whose every degree needs the general compensated product
ODD_DEGREES = ParamSeq(r=(2.0, 4.0, 8.0), n=(3, 6, 40))
# SHA-256 of both h paths on `_regime_points(ODD_DEGREES)`, recorded before
# the shortcuts were added
ODD_DEGREE_DIGESTS = {
    "numpy": "f9713ae1e5dd2a0d90bfa756f23d16d987217a4b9f2e30eca2d3fa483239a751",
    "loop": "eac01dcdd6925886114d23649bea17f1444f6afc223cf4709c6165659bfca745",
}


def _bits(*values):
    # the float64 bit patterns, so that -0.0 and +0.0 differ
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


_SPLIT_PROD = _kernels._split_prod


def _full_reduce(hi, lo):
    # `_reduce_dd`'s formula with the general product for every q
    q = round(hi / TWO_PI)
    ph, pl = _SPLIT_PROD(q, TWO_PI, *_kernels._split(TWO_PI))
    return _kernels.wrap_angle(((hi - ph) + lo) - pl - q * _kernels._TWO_PI_LO)


def test_pow2_degrees_have_a_plus_zero_low_part():
    tiny = [5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]
    rng = np.random.default_rng(5)
    angles = ([0.0, -0.0, math.pi, -math.pi] + tiny
              + rng.uniform(-math.pi, math.pi, 200).tolist())
    arr = np.array(angles)
    assert len(_kernels._POW2) == 53
    for n in sorted(_kernels._POW2):
        assert math.frexp(n)[0] == 0.5  # a power of two
        for a in angles:
            hi, lo = _kernels._split_prod(n, a, *_kernels._split(a))
            assert _bits(hi, lo) == _bits(n * a, 0.0)
        hi, lo = _kernels._split_prod(n, arr, *_kernels._split(arr))
        assert _bits(hi, lo) == _bits(n * arr, np.zeros_like(arr))
    # doubling and steep take the shortcut on every factor, paper2 on n_1
    assert {float(n) for name in ("doubling", "steep")
            for n in make_toy(name).n} <= _kernels._POW2
    assert [float(n) in _kernels._POW2 for n in make_toy("paper2").n] == [
        True, False]


@pytest.mark.parametrize("q", [0.0, -0.0, 1.0, -3.0, 2.0 ** 26, -2.0 ** 26])
def test_short_two_pi_product_matches_split_prod(q):
    # `_reduce_dd` holds q as an int, `_reduce_np` as a float array
    for held in (q, int(q), np.array([q])):
        full = _kernels._split_prod(held, TWO_PI, *_kernels._split(TWO_PI))
        assert _bits(*_kernels._times_two_pi(held, True)) == _bits(*full)


def test_short_two_pi_product_needs_its_bound():
    # past 2**26 the split of q has a low part; at 2**28 - 1 the short
    # product is off
    q = 2.0 ** 28 - 1.0
    full = _kernels._split_prod(q, TWO_PI, *_kernels._split(TWO_PI))
    assert _bits(*_kernels._times_two_pi(q, True)) != _bits(*full)


def test_reduction_falls_back_past_the_short_quotient(monkeypatch):
    general = []

    def spying(a, *args):
        general.append(np.abs(a).max())
        return _SPLIT_PROD(a, *args)

    monkeypatch.setattr(_kernels, "_split_prod", spying)
    for q in (2 ** 26, 2 ** 26 + 1):
        for hi in (q * TWO_PI + 0.25, -q * TWO_PI - 3.0):
            want = _full_reduce(hi, 1e-9)
            assert _bits(_kernels._reduce_dd(hi, 1e-9)) == _bits(want)
            assert _bits(_kernels._reduce_np(np.array([hi]), 1e-9)) == _bits(
                [want])
    assert general == [2 ** 26 + 1] * 4
    # NaN fails the bound, so the whole array takes the general product
    _kernels._reduce_np(np.array([1.0, math.nan]))
    assert len(general) == 5 and math.isnan(general[-1])


def test_far_field_log1p_and_atan2_return_their_argument():
    # with v = e^-|log|w|| and x = v (2 cos + v), log1p(x) rounds to x and
    # atan2(v sin, 1 + v cos) to v sin, in libm and in numpy, up to and past
    # the underflow of v near 745
    rng = np.random.default_rng(23)
    wlm = np.concatenate([[FAR, 760.0], rng.uniform(FAR, 760.0, 20000)])
    wag = np.concatenate([[0.0, -0.0, math.pi, -math.pi],
                          rng.uniform(-math.pi, math.pi, wlm.size - 4)])
    v, c, s = np.exp(-wlm), np.cos(wag), np.sin(wag)
    x, y = v * (2.0 * c + v), v * s
    assert _bits(np.log1p(x)) == _bits(x)
    assert _bits(np.arctan2(y, 1.0 + v * c)) == _bits(y)
    for w, a in zip(wlm.tolist(), wag.tolist()):
        v, c, s = math.exp(-w), math.cos(a), math.sin(a)
        x, y = v * (2.0 * c + v), v * s
        assert _bits(math.log1p(x), math.atan2(y, 1.0 + v * c)) == _bits(x, y)


def test_far_edge_keeps_the_dropped_terms_below_half_an_ulp():
    # |x| < 3v and |v cos| < 3v: below 2**-54, 1 + v cos rounds to 1 and
    # log1p(x) = x (1 - x/2 + ...) and atan(y) = y (1 - y^2/3 + ...) round
    # to their first term
    assert 3.0 * math.exp(-FAR) < 2.0 ** -54


def _far_angles(rng, size):
    # reduced angles, in (-pi, pi]: zeros, both ends, tiny and subnormal
    # ones, then seeded ones
    fixed = [0.0, -0.0, math.pi, math.nextafter(-math.pi, 0.0), 1e-300,
             -5e-324, 3e-9]
    return np.concatenate([fixed, rng.uniform(-math.pi, math.pi,
                                              size - len(fixed))])


def test_big_far_factor_adds_exactly_w():
    # log(1 + w) = log|w| + L' with L' = (0.5 log1p(x), -atan2(y, 1 + v c)):
    # both parts round away against log|w| >= FAR_EDGE and arg w, which
    # keeps its bits up to the sign of a zero, lost in the +0.0 sums
    rng = np.random.default_rng(29)
    wlm = np.concatenate([[FAR, 760.0], rng.uniform(FAR, 810.0, 20000)])
    wag = _far_angles(rng, wlm.size)
    v, c, s = np.exp(-wlm), np.cos(wag), np.sin(wag)
    lm = 0.5 * np.log1p(v * (2.0 * c + v)) + wlm
    ag = _kernels._wrap_np(wag - np.arctan2(v * s, 1.0 + v * c))
    assert _bits(lm, 0.0 + ag) == _bits(wlm, 0.0 + wag)
    assert _bits(ag[wag != 0.0]) == _bits(wag[wag != 0.0])
    for w, a in zip(wlm.tolist(), wag.tolist()):
        v, c, s = math.exp(-w), math.cos(a), math.sin(a)
        lm = 0.5 * math.log1p(v * (2.0 * c + v)) + w
        ag = _kernels.wrap_angle(a - math.atan2(v * s, 1.0 + v * c))
        assert _bits(lm, 0.0 + ag) == _bits(w, 0.0 + a)


def test_small_far_terms_round_away_against_large_sums():
    # with |sum| >= _ROUND_AWAY v both terms of a small w leave the sum's
    # bits, also at a power of two, where half an ulp below is smallest
    rng = np.random.default_rng(31)
    wlm = rng.uniform(-740.0, -FAR, 20000)  # v stays nonzero
    wag = _far_angles(rng, wlm.size)
    v = np.exp(wlm)
    lm, ag = 0.5 * (v * (2.0 * np.cos(wag) + v)), v * np.sin(wag)
    floor = _kernels._ROUND_AWAY * v
    sign = rng.choice([-1.0, 1.0], v.size)
    for total in (floor, 2.0 ** np.ceil(np.log2(floor)),
                  floor * rng.uniform(1.0, 1e6, v.size)):
        total = sign * total
        assert _bits(total + lm, total + ag) == _bits(total, total)
        for t, a, b in zip(total[:2000].tolist(), lm.tolist(), ag.tolist()):
            assert _bits(t + a, t + b) == _bits(t, t)
    # far below the bound the terms do move the sums
    near = sign * 2.0 ** np.floor(np.log2(floor / 2.0 ** 6))
    assert (near + lm != near).any() and (near + ag != near).any()


def test_empty_batches_evaluate():
    empty = np.array([])
    for p in PROFILES:
        assert [a.size for a in _kernels.h_field(empty, empty, p)] == [0] * 3
    assert _kernels._reduce_np(empty).size == 0


def test_nan_angle_leaves_logmod_nan():
    # hypot(inf, nan) is inf, so log|w| is +inf and w big on every factor,
    # while arg z is NaN: log|h| is NaN as the full far formula made it
    inf, nan = math.inf, math.nan
    zx, zy = np.array([inf, nan, -inf]), np.array([nan, -inf, nan])
    for p in PROFILES:
        with np.errstate(invalid="ignore"):
            code, lm, ag = _kernels.h_field(zx, zy, p)
        assert np.isnan(lm).all() and np.isnan(ag).all() and not code.any()


@pytest.mark.parametrize("path", sorted(ODD_DEGREE_DIGESTS))
def test_odd_degree_field_bytes_are_pinned(path):
    zx, zy = _regime_points(ODD_DEGREES)
    if path == "loop":
        field = _loop_field(zx, zy, ODD_DEGREES)
    else:
        field = _kernels._h_field_numpy(zx, zy,
                                        _kernels.prepared(ODD_DEGREES))
    assert field[0][-3:].tolist() == [0, 1, 1]
    assert _sha(*field) == ODD_DEGREE_DIGESTS[path]
