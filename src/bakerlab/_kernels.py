"""The one arithmetic core: the truncated product h, batch evaluation of it
and orbit classification.

`_h_point` is the only scalar definition of h; `hfun.eval_h` wraps it for
single points.  Batches go through one vectorized numpy path,
`_h_field_numpy` and `_classify_numpy`.  Both paths read the same factor
table, `prepared(p)`, of built-in floats, so the scalar core computes on
floats and returns them.  Per-pixel results are independent of how the
input is batched, which is what makes row-parallel and chunked callers
deterministic across thread counts and chunk sizes.

Each factor ``1 + w``, ``w = (z/r)^n``, has two regimes, split at
``|log|w|| = FAR_EDGE``.  Near the ring, ``1 + w`` is summed in cartesian
form, and only there is it tested for a snap to its exact zero
(`factor_snap_eps`).  In the far field ``|w|`` or ``1/|w|`` is at most
e^-50, so the factor cannot vanish; with ``v = e^{-|log|w||}`` one
``L = log(1 + v e^{i arg w})`` serves both sides: it is ``log(1 + w)`` for
a small w, and since ``1 + w = w (1 + 1/w)``, ``log(1 + w)`` is
``log|w| + Re L + i (arg w - Im L)`` for a big one.

`_classify_numpy` writes the grid's encoding as its step loop decides it,
into the two per-point arrays a grid stores: ``status``, two flags
(escaped = `STATUS_ESCAPED` = 1, near-zero translation = `STATUS_NEAR_ZERO`
= 2), and ``step``.

`_h_field_numpy` splits ``arg z`` once per call for every factor's
compensated product, and evaluates each regime on its own points; a
regime that holds every point is evaluated on whole-array views, without
gathers or scatters.

The compensated angle multiplication is exact only for degrees
``n_k < 2**53``; `ParamSeq` enforces that bound.  `_reduce_dd` is the
package's one angle reduction: `logc.reduce_angle` and `logc.lc_pow_int`
call it too, for angles below `ANGLE_MAX` = 2**53.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .params import ParamSeq

TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # TWO_PI + _TWO_PI_LO is 2*pi to ~1e-32
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp split
_EPS = 2.220446049250313e-16
# angles are reduced only below this magnitude: a double at or past 2**53
# has an ulp of 2 or more, and a computed Im h that large carries an
# absolute error above 1 rad, so its angle is unknown
ANGLE_MAX = 2.0 ** 53

# |h| < ln 2 marks the near-zero-translation regime (e^h has modulus in [1/2, 2])
LOG_LN2 = math.log(math.log(2.0))
# a value whose log-modulus stays within this band is written in cartesian form
CARTESIAN_BAND = 700.0
# the orbit classifier's status flags, stored per pixel in grid files
STATUS_BOUNDED = 0
STATUS_ESCAPED = 1
STATUS_NEAR_ZERO = 2
STATUS_ESCAPED_AFTER_NEAR_ZERO = STATUS_ESCAPED | STATUS_NEAR_ZERO
# a factor 1 + w with |log|w|| >= FAR_EDGE is in the far field: |w| or 1/|w|
# is at most e^-50, so 1 + w cannot vanish there
FAR_EDGE = 50.0


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
    # Veltkamp/Dekker product (hi, lo) with hi + lo == a * b exactly, for a b
    # already split into (bh, bl), so a caller that multiplies one b by many
    # a splits it once; works elementwise on arrays too.  Kernel output bytes
    # depend on the order of these operations.  For n*arg z the product is
    # exact only for the rounded atan2 output, and it stays for three
    # reasons: on 150 seed-3 points within 3 r_2/n_2 of paper2's ring 2 it
    # halves the worst angle error against the mpmath oracle (3.7e-7
    # against 7.5e-7 for a plain n*arg z); for power-of-two degrees
    # (doubling, steep) n*arg z is exact, lo is 0 and the time is not
    # measurably different; and without it the mid and big paper2 phase
    # portraits that perfbench/digests.json pins change bytes.
    hi = a * b
    ah, al = _split(a)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


# the Veltkamp halves of the double TWO_PI (its double-double tail is
# _TWO_PI_LO), for every q * TWO_PI of the angle reductions
_TWO_PI_SPLIT = _split(TWO_PI)


# ---------------------------------------------------------------------------
# scalar core
# ---------------------------------------------------------------------------


def wrap_angle(a: float) -> float:
    """Move an angle already within (-3pi, 3pi] into (-pi, pi]."""
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


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
        if abs(wlm) >= FAR_EDGE:
            v = math.exp(-abs(wlm))
            flm = 0.5 * math.log1p(v * (2.0 * math.cos(wag) + v))
            fag = math.atan2(v * math.sin(wag), 1.0 + v * math.cos(wag))
            if wlm > 0.0:
                # 1 + w = w (1 + 1/w)
                flm += wlm
                fag = wrap_angle(wag - fag)
        elif abs(wlm) <= eps and (math.pi - abs(wag)) <= eps:
            return True, -math.inf, 0.0
        else:
            m = math.exp(wlm)
            x = 1.0 + m * math.cos(wag)
            y = m * math.sin(wag)
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
    # each factor's two regimes are evaluated on their own points
    flm = np.empty_like(zx)
    fag = np.empty_like(zx)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # -inf at the origin, where every factor is in the far field with
        # a small w and adds +-0.0 to the +0.0 accumulators, so h(0) is +0.0
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
            awlm = np.abs(wlm)
            far = awlm >= FAR_EDGE
            sel = _select(far)
            if sel is not None:
                v = np.exp(-awlm[sel])
                c = cw[sel]
                lm = 0.5 * np.log1p(v * (2.0 * c + v))
                ag = np.arctan2(v * sw[sel], 1.0 + v * c)
                w = wlm[sel]
                big = _select(w > 0.0)
                if big is not None:
                    # 1 + w = w (1 + 1/w)
                    lm[big] += w[big]
                    a = wag[sel][big] - ag[big]
                    _wrap_np(a)
                    ag[big] = a
                flm[sel] = lm
                fag[sel] = ag
            sel = _select(~far)
            if sel is not None:
                m = np.exp(wlm[sel])
                x = 1.0 + m * cw[sel]
                y = m * sw[sel]
                # snapped to the factor's zero
                zero[sel] |= ((awlm[sel] <= eps)
                              & ((math.pi - np.abs(wag[sel])) <= eps))
                flm[sel] = np.log(np.hypot(x, y))
                fag[sel] = np.arctan2(y, x)
            acc_lm += flm
            acc_ag += fag
            _wrap_np(acc_ag)

    acc_lm[zero] = -np.inf
    acc_ag[zero] = 0.0
    return zero, acc_lm, acc_ag


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
    # per start point, by global index: the grid's status flags and step,
    # each written on the step that decides it
    status = np.zeros(npts, dtype=np.uint8)
    step = np.zeros(npts, dtype=np.uint32)
    # the active orbits, compacted after every step
    idx = np.arange(npts)
    x, y = zx, zy
    esc2 = escape_radius * escape_radius
    for s in range(max_steps):
        if idx.size == 0:
            break
        zero, hlm, hag = _h_field_numpy(x, y, factors)
        # an active orbit has not escaped, so its status is 0 or the flag
        fresh = idx[(hlm < LOG_LN2) & (status[idx] == STATUS_BOUNDED)]
        status[fresh] = STATUS_NEAR_ZERO
        step[fresh] = s
        re_h, im_h = h_cartesian(hlm, hag)
        with np.errstate(over="ignore", invalid="ignore"):
            # an orbit with Re h beyond the band escapes whatever its step
            # computes, so that step may overflow or be NaN: it is dropped
            # and nothing computed for it is read
            emod = np.exp(re_h)
            ia = _reduce_np(im_h)
            nx = x + emod * np.cos(ia)
            # at a snapped zero the step is exactly +1; adding sin(0) to y
            # would turn a -0.0 into +0.0
            ny = np.where(zero, y, y + emod * np.sin(ia))
            out = (re_h > CARTESIAN_BAND) | (nx * nx + ny * ny > esc2)
        gone = idx[out]
        status[gone] |= STATUS_ESCAPED
        step[gone] = s + 1
        # frozen at a floating-point fixed point: every later step repeats
        # this one, so the orbit never escapes and its flag is final
        frozen = (nx == x) & (ny == y)
        keep = ~(out | frozen)
        idx, x, y = idx[keep], nx[keep], ny[keep]
    return status, step


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def active_backend() -> str:
    """The batch path in use, recorded with benchmark results: always "numpy"."""
    return "numpy"


def h_field(zx, zy, p: ParamSeq):
    """Evaluate the truncated product at each point ``zx[i] + i*zy[i]``.

    Returns ``(code, logmod, arg)``: uint8 code 1 flags exact (snapped) zeros,
    where logmod is -inf and arg 0.
    """
    zx = np.ascontiguousarray(zx, dtype=np.float64)
    zy = np.ascontiguousarray(zy, dtype=np.float64)
    zero, lm, ag = _h_field_numpy(zx, zy, prepared(p))
    return zero.view(np.uint8), lm, ag


def check_escape_radius(p: ParamSeq, escape_radius: float) -> None:
    """Reject an escape radius that is not beyond the last ring (NaN too)."""
    if not escape_radius > p.r[-1]:
        raise ValueError("escape_radius must exceed the last stored radius")


def classify_field(zx, zy, p: ParamSeq, max_steps: int, escape_radius: float):
    """Orbit classification for each start point.

    Returns ``(status, step)``, uint8 and uint32.  Status is two flags,
    each written on the step that decides it: near-zero translation
    (`STATUS_NEAR_ZERO` = 2) on the first step with ``|h| < ln 2``, with
    ``step`` set to that step's index s; escaped (`STATUS_ESCAPED` = 1) on
    the step that leaves the escape radius, with ``step`` set to s + 1.  So
    0 is bounded so far, 3 escaped after a near-zero-translation phase.

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
