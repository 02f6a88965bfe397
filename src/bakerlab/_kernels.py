"""The one arithmetic core: the truncated product h, batch evaluation of it
and orbit classification.

`_h_point` is the only scalar definition of h; `hfun.eval_h` wraps it for
single points.  Batches go through one vectorized numpy path,
`_h_field_numpy` and `_classify_numpy`.  Both paths read the same factor
table, `prepared(p)`, of built-in floats, so the scalar core computes on
floats and returns them.  Per-pixel results are independent of how the
input is batched, which is what makes row-parallel and chunked callers
deterministic across thread counts and chunk sizes.

`_h_field_numpy` splits ``arg z`` once per call for every factor's
compensated product, and evaluates each factor's magnitude regimes
(small, mid, big) on their own points; a regime that holds every point is
evaluated on whole-array views, without gathers or scatters.

The compensated angle multiplication is exact only for degrees
``n_k < 2**53``; `ParamSeq` enforces that bound.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .logc import TWO_PI, wrap_angle
from .params import ParamSeq

_TWO_PI_LO = 2.4492935982947064e-16  # TWO_PI + _TWO_PI_LO is 2*pi to ~1e-32
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split
_EPS = 2.220446049250313e-16

# |h| < ln 2 marks the near-zero-translation regime (e^h has modulus in [1/2, 2])
LOG_LN2 = math.log(math.log(2.0))
# a value whose log-modulus stays within this band is written in cartesian form
CARTESIAN_BAND = 700.0


def factor_snap_eps(n: int) -> float:
    """Tolerance for snapping a factor value to its exact zero.

    Rounding in ``(z/r)^n`` scales with n; anything this close to -1 snaps.
    The window is wider than the resolution of the cartesian input z: for
    paper2's n_2 the tolerance is 4.0e-5, about 64 input ulps (along Re z
    around three sampled zeros of ring 2, 129 to 259 consecutive doubles
    give the exact zero), where the true |h| reaches about 1.2e-4.
    """
    return max(1e-13, 64.0 * _EPS * n)


@functools.lru_cache(maxsize=64)
def prepared(p: ParamSeq) -> tuple[tuple[float, float, float], ...]:
    """The factor table: one ``(n, log r, snap_eps)`` float triple per factor.

    Built once per profile and shared between callers, so it is immutable.
    ``log r`` is numpy's log, the one the pinned output digests were
    recorded with; libm's may differ from it by an ulp.
    """
    logr = np.log(np.array(p.r, dtype=np.float64)).tolist()
    return tuple((float(n), lr, factor_snap_eps(n))
                 for n, lr in zip(p.n, logr))


def _split(a):
    # Veltkamp split: a == hi + lo exactly, each half of at most 26 bits
    hi = _SPLITTER * a
    hi = hi - (hi - a)
    return hi, a - hi


def _split_prod(a, b, bh, bl):
    # two_prod(a, b) for a b already split into (bh, bl), so a caller that
    # multiplies one b by many a splits it once
    hi = a * b
    ah, al = _split(a)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def two_prod(a, b):
    """Veltkamp/Dekker product: ``(hi, lo)`` with ``hi + lo == a * b`` exactly.

    Works elementwise on arrays too.  Kernel output bytes depend on the
    order of these operations.
    """
    bh, bl = _split(b)
    return _split_prod(a, b, bh, bl)


# the Veltkamp halves of the double TWO_PI (its double-double tail is
# _TWO_PI_LO), for every q * TWO_PI of the angle reductions
_TWO_PI_SPLIT = _split(TWO_PI)


# ---------------------------------------------------------------------------
# scalar core
# ---------------------------------------------------------------------------


def _reduce_dd(hi: float, lo: float) -> float:
    # reduce hi+lo mod 2*pi into (-pi, pi]; valid while |hi| < 2**53 * 2*pi
    q = round(hi / TWO_PI)
    ph, pl = _split_prod(q, TWO_PI, *_TWO_PI_SPLIT)
    return wrap_angle(((hi - ph) + lo) - pl - q * _TWO_PI_LO)


def _h_point(zx, zy, factors):
    # returns (is_zero, logmod, arg) of the truncated product at zx+i*zy
    if zx == 0.0 and zy == 0.0:
        return False, 0.0, 0.0
    lmz = math.log(math.hypot(zx, zy))
    agz = math.atan2(zy, zx)
    agh, agl = _split(agz)
    acc_lm = 0.0
    acc_ag = 0.0
    for n, logr, eps in factors:
        wlm = n * (lmz - logr)
        # compensated n*arg, then mod 2*pi
        hi, lo = _split_prod(n, agz, agh, agl)
        wag = _reduce_dd(hi, lo)
        if abs(wlm) <= eps and (math.pi - abs(wag)) <= eps:
            return True, -math.inf, 0.0
        if wlm <= -50.0:
            t = math.exp(wlm)
            flm = 0.5 * math.log1p(t * (2.0 * math.cos(wag) + t))
            fag = math.atan2(t * math.sin(wag), 1.0 + t * math.cos(wag))
        elif wlm >= 50.0:
            u = math.exp(-wlm)
            flm = wlm + 0.5 * math.log1p(u * (2.0 * math.cos(wag) + u))
            fag = wrap_angle(
                wag + math.atan2(-u * math.sin(wag), 1.0 + u * math.cos(wag)))
        else:
            m = math.exp(wlm)
            x = 1.0 + m * math.cos(wag)
            y = m * math.sin(wag)
            if x == 0.0 and y == 0.0:
                return True, -math.inf, 0.0
            flm = math.log(math.hypot(x, y))
            fag = math.atan2(y, x)
        acc_lm += flm
        acc_ag = wrap_angle(acc_ag + fag)
    return False, acc_lm, acc_ag


# ---------------------------------------------------------------------------
# vectorized numpy implementations
# ---------------------------------------------------------------------------


def _wrap_np(a):
    # in place: values just past +-pi back into (-pi, pi]
    a[a > math.pi] -= TWO_PI
    a[a <= -math.pi] += TWO_PI


def _reduce_np(x, lo=0.0):
    q = np.rint(x / TWO_PI)
    ph, pl = _split_prod(q, TWO_PI, *_TWO_PI_SPLIT)
    r = ((x - ph) + lo) - pl - q * _TWO_PI_LO
    _wrap_np(r)
    return r


def _select(mask):
    # the points of a regime: None if there are none, a slice if it holds
    # all of them (views, no gathers or scatters), else their indices
    count = np.count_nonzero(mask)
    if count == 0:
        return None
    return slice(None) if count == mask.size else np.flatnonzero(mask)


def _h_field_numpy(zx, zy, factors):
    # each factor's three magnitude regimes are evaluated on their own points
    flm = np.empty_like(zx)
    fag = np.empty_like(zx)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # -inf at the origin, where every factor is in the small regime
        # and adds +-0.0 to the +0.0 accumulators, so h(0) is +0.0
        lmz = np.log(np.hypot(zx, zy))
        agz = np.arctan2(zy, zx)
        agh, agl = _split(agz)
        acc_lm = np.zeros_like(zx)
        acc_ag = np.zeros_like(zx)
        zero = np.zeros(zx.shape, dtype=bool)
        for n, logr, eps in factors:
            wlm = n * (lmz - logr)
            hi, lo = _split_prod(n, agz, agh, agl)
            wag = _reduce_np(hi, lo)
            cw = np.cos(wag)
            sw = np.sin(wag)
            small = wlm <= -50.0
            big = wlm >= 50.0
            sel = _select(small)
            if sel is not None:
                t = np.exp(wlm[sel])
                c, sn = cw[sel], sw[sel]
                flm[sel] = 0.5 * np.log1p(t * (2.0 * c + t))
                fag[sel] = np.arctan2(t * sn, 1.0 + t * c)
            sel = _select(big)
            if sel is not None:
                w = wlm[sel]
                u = np.exp(-w)
                c, sn = cw[sel], sw[sel]
                flm[sel] = w + 0.5 * np.log1p(u * (2.0 * c + u))
                a = wag[sel] + np.arctan2(-u * sn, 1.0 + u * c)
                _wrap_np(a)
                fag[sel] = a
            sel = _select(~(small | big))
            if sel is not None:
                w = wlm[sel]
                m = np.exp(w)
                x = 1.0 + m * cw[sel]
                y = m * sw[sel]
                # snapped to the factor's zero, or exactly zero in floating point
                zero[sel] |= (((np.abs(w) <= eps)
                               & ((math.pi - np.abs(wag[sel])) <= eps))
                              | ((x == 0.0) & (y == 0.0)))
                flm[sel] = np.log(np.hypot(x, y))
                fag[sel] = np.arctan2(y, x)
            acc_lm += flm
            acc_ag += fag
            _wrap_np(acc_ag)

    acc_lm[zero] = -np.inf
    acc_ag[zero] = 0.0
    return zero.astype(np.uint8), acc_lm, acc_ag


def h_cartesian(lm, ag):
    """``(Re h, Im h)`` of the log-polar ``h = exp(lm + i*ag)``, elementwise.

    Within ``lm <= CARTESIAN_BAND`` this is ``exp(lm) (cos ag, sin ag)``,
    so a snapped zero (lm = -inf, ag = 0) gives exactly 0 and a tiny h may
    underflow to 0.  Beyond the band it is ``(+-inf, 0)``, the sign taken
    from ``cos(ag)``: there ``e^h`` overflows or vanishes.
    """
    big = lm > CARTESIAN_BAND
    c = np.cos(ag)
    mod = np.exp(np.where(big, 0.0, lm))
    re_h = np.where(big, np.where(c >= 0.0, np.inf, -np.inf), mod * c)
    return re_h, np.where(big, 0.0, mod * np.sin(ag))


def _classify_numpy(zx, zy, factors, max_steps, escape_radius):
    npts = zx.shape[0]
    # per start point, by global index: escape step (0 while bounded) and
    # the first near-zero-translation step
    esc_step = np.zeros(npts, dtype=np.uint32)
    nzt = np.zeros(npts, dtype=bool)
    nzt_step = np.zeros(npts, dtype=np.uint32)
    # the active orbits, compacted after every step
    idx = np.arange(npts)
    x, y = zx, zy
    esc2 = escape_radius * escape_radius
    for s in range(max_steps):
        if idx.size == 0:
            break
        code, hlm, hag = _h_field_numpy(x, y, factors)
        fresh = idx[(hlm < LOG_LN2) & ~nzt[idx]]
        nzt[fresh] = True
        nzt_step[fresh] = s
        re_h, im_h = h_cartesian(hlm, hag)
        with np.errstate(over="ignore", invalid="ignore"):
            esc_log = re_h > CARTESIAN_BAND
            emod = np.exp(np.where(esc_log, 0.0, re_h))
            ia = _reduce_np(np.where(esc_log, 0.0, im_h))
            nx = x + emod * np.cos(ia)
            # at a snapped zero the step is exactly +1; adding sin(0) to y
            # would turn a -0.0 into +0.0
            ny = np.where(code == 1, y, y + emod * np.sin(ia))
            out = esc_log | (nx * nx + ny * ny > esc2)
        esc_step[idx[out]] = s + 1
        # frozen at a floating-point fixed point: every later step repeats
        # this one, so the orbit never escapes and its flag is final
        frozen = (nx == x) & (ny == y)
        keep = ~(out | frozen)
        idx, x, y = idx[keep], nx[keep], ny[keep]
    escaped = esc_step > 0
    status = (escaped + 2 * nzt).astype(np.uint8)
    step = np.where(escaped, esc_step, nzt_step)
    return status, step


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def active_backend() -> str:
    """The batch path in use, recorded with benchmark results: always "numpy"."""
    return "numpy"


def h_field(zx, zy, p: ParamSeq):
    """Evaluate the truncated product at each point ``zx[i] + i*zy[i]``.

    Returns ``(code, logmod, arg)``: code 1 flags exact (snapped) zeros,
    where logmod is -inf and arg 0.
    """
    zx = np.ascontiguousarray(zx, dtype=np.float64)
    zy = np.ascontiguousarray(zy, dtype=np.float64)
    return _h_field_numpy(zx, zy, prepared(p))


def check_escape_radius(p: ParamSeq, escape_radius: float) -> None:
    """Reject an escape radius that is not beyond the last ring (NaN too)."""
    if not escape_radius > p.r[-1]:
        raise ValueError("escape_radius must exceed the last stored radius")


def classify_field(zx, zy, p: ParamSeq, max_steps: int, escape_radius: float):
    """Orbit classification for each start point.

    Status codes: 0 bounded-so-far, 1 escaped, 2 near-zero-translation seen
    (still bounded), 3 escaped after a near-zero-translation phase.  ``step``
    is the first escape index for 1/3, the first flag index for 2, else 0.

    An orbit that lands on a floating-point fixed point (``f(z) == z``
    bitwise) stops there with its final status, 0 or 2.  That is an artefact
    of rounding: the map has no fixed points.  Such pixels are reported as
    bounded until the grid format gets a status of its own for them.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    check_escape_radius(p, escape_radius)
    zx = np.ascontiguousarray(zx, dtype=np.float64)
    zy = np.ascontiguousarray(zy, dtype=np.float64)
    return _classify_numpy(zx, zy, prepared(p), max_steps, escape_radius)


def warmup() -> None:
    """Run both batch entry points once on a tiny input.

    The library needs no warm-up; the benchmark harness calls this before
    its clock starts.
    """
    from .params import make_toy

    p = make_toy("doubling")
    z = np.array([0.25])
    h_field(z, z, p)
    classify_field(z, z, p, 2, 64.0)
