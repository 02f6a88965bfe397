"""The one arithmetic core: the truncated product h, batch evaluation of it
and orbit classification.

`_h_point` is the only scalar definition of h; `hfun.eval_h` wraps it for
single points.  Batches go through one vectorized numpy path,
`_h_field_numpy` and `_classify_numpy`.  Both paths read the same factor
table, `prepared(p)`, of built-in floats, so the scalar core computes on
floats and returns them.  Per-pixel results are independent of how the
input is batched, which is what makes row-parallel and chunked callers
deterministic across thread counts and chunk sizes.

Each factor ``1 + w``, ``w = (z/r)^n``, has three regimes, split at
``log|w| = +-FAR_EDGE``.  Near the ring, ``1 + w`` is summed in cartesian
form, and only there is it tested for a snap to its exact zero
(`factor_snap_eps`).  In the far field ``|w|`` or ``1/|w|`` is at most
e^-50, so the factor cannot vanish; with ``v = e^{-|log|w||}`` one
``L = log(1 + v e^{i arg w})`` serves both sides: it is ``log(1 + w)`` for
a small w, and since ``1 + w = w (1 + 1/w)``, ``log(1 + w)`` is
``log|w| + Re L + i (arg w - Im L)`` for a big one.

The factor step leaves out every term that provably rounds away, so each
path writes the bytes its full formulas would:
- the compensated product ``n arg z``: for a power-of-two n, ``n bh``,
  ``n bl`` and ``n arg z`` are exact, so the low part ``(n bh - n arg z) +
  n bl`` is exactly +0.0 (`_POW2`).  The reduction's ``q 2 pi``: an integral
  ``|q| <= 2**26`` splits exactly as ``(q, +0.0)``, so the terms of its zero
  half add +-0.0 to a sum that is never -0.0 (`_times_two_pi`);
- the far field: ``|v (2 cos + v)| < 3 e^-50 < 2**-54``, so ``1 + v cos``
  rounds to 1, ``log1p(x)`` to x and ``atan(y)`` to y, and ``L`` is ``(v
  (cos + v/2), v sin)``.  Against ``log|w| >= 50``, whose half ulp is
  2**-48, and ``arg w``, with ``|v sin| <= v |arg w| < 2**-54 |arg w|``,
  ``L`` rounds away too: a big w adds exactly ``(log|w|, arg w)``.  A small
  w's terms round away against sums at least ``_ROUND_AWAY v`` in size; the
  vector path tests that for a whole batch, the scalar core per point;
- a dead factor, ``|log|w|| > DEAD_EDGE``, is the extreme case: ``v``
  underflows to exactly 0, so ``L`` is ``+-0.0 + i (+-0.0)``.  The vector
  path leaves such points out of a small w's evaluation.
The accumulators start at +0.0 and never hold -0.0 (in round-to-nearest a
sum is -0.0 only when both terms are), and ``x + (+-0.0)`` is ``x`` for
every other x, so a skipped factor, or a big w's ``arg w`` whose zero has
the other sign, leaves every output bit as the full evaluation would.

`_classify_numpy` writes the grid's encoding as its step loop decides it,
into the two per-point arrays a grid stores: ``status``, two flags
(escaped = `STATUS_ESCAPED` = 1, near-zero translation = `STATUS_NEAR_ZERO`
= 2), and ``step``.  It stops stepping an orbit whose status can no longer
change, so the orbit keeps its flags: 0 with step 0, or 2 with the
near-zero step.  An orbit is frozen when a step leaves it bitwise where it
was, so every later step repeats that one.  An orbit is settled when
`_settled` proves, from a disk bound on h, that its remaining steps stay
inside a disk where none escapes, none sets the near-zero flag and no
factor snaps to its zero; wherever Re h << 0 an orbit creeps by about
e^{Re h} a step and is settled long before its budget runs out.  Both
exits are exact: every byte is what the full step loop would write.

`_h_field_numpy` splits ``arg z`` once per call if some degree needs the
general compensated product, and evaluates each regime on its own points;
a regime that holds every point is evaluated on whole-array views, without
gathers or scatters.

The compensated angle multiplication is exact only for degrees
``n_k < 2**53``; `ParamSeq` enforces that bound.  `_reduce_dd` is the
package's one angle reduction: `hfun.eval_f` and `logc.lc_pow_int` call it
too, for angles below `ANGLE_MAX` = 2**53, and hand the reduced angle to
`logc.LogComplex`, which only checks its range.
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
# a far factor with |log|w|| > DEAD_EDGE is dead: e^-|log|w|| underflows to
# exactly 0 in libm and in numpy, so the factor is exactly 1 or exactly w
DEAD_EDGE = 760.0
# a far factor with a small w adds terms below 1.01 v, v = e^log|w|, to the
# sums; they round away against a sum s with |s| >= _ROUND_AWAY v, since half
# an ulp of s exceeds 2**-54 |s| >= 2 v, and the 2 also covers an ulp of exp
_ROUND_AWAY = 2.0 ** 55


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
    # exact only for the rounded atan2 output, and it stays for two reasons:
    # on 150 seed-3 points within 3 r_2/n_2 of paper2's ring 2 it halves the
    # worst angle error against the mpmath oracle (3.7e-7 against 7.5e-7 for
    # a plain n*arg z); and without it the mid and big paper2 phase portraits
    # that perfbench/digests.json pins change bytes.  For power-of-two degrees
    # (doubling, steep) lo is exactly +0.0, and the kernels skip the product
    # there (`_POW2`): that cut h_field's CPU time on the six seed-0 doubling
    # and steep phase jobs by 16 to 20 % (0.302 to 0.255 s and 0.346 to
    # 0.278 s, medians of two sessions of 7 alternating rounds, x86-64,
    # numpy 2.4; BENCH_exact_factor_step.json).
    hi = a * b
    ah, al = _split(a)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


# the Veltkamp halves of the double TWO_PI (its double-double tail is
# _TWO_PI_LO), for every q * TWO_PI of the angle reductions
_TWO_PI_BH, _TWO_PI_BL = _split(TWO_PI)
# degrees whose compensated product with arg z has a low part of exactly +0.0
_POW2 = frozenset(2.0 ** k for k in range(53))
# a reduction quotient with |q| <= 2**26 splits exactly as (q, +0.0)
_Q_SPLIT_EXACT = 2 ** 26


def _times_two_pi(q, small):
    # `_split_prod(q, TWO_PI, ...)` for an integral q; when ``small`` says
    # |q| <= _Q_SPLIT_EXACT its al terms add +-0.0 to a sum that is never
    # -0.0, so they are left out
    if small:
        ph = q * TWO_PI
        return ph, (q * _TWO_PI_BH - ph) + q * _TWO_PI_BL
    return _split_prod(q, TWO_PI, _TWO_PI_BH, _TWO_PI_BL)


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
    ph, pl = _times_two_pi(q, -_Q_SPLIT_EXACT <= q <= _Q_SPLIT_EXACT)
    return wrap_angle(((hi - ph) + lo) - pl - q * _TWO_PI_LO)


def _h_point(zx, zy, factors):
    # returns (is_zero, logmod, arg) of the truncated product at zx+i*zy
    if zx == 0.0 and zy == 0.0:
        return False, 0.0, 0.0
    lmz = math.log(math.hypot(zx, zy))
    agz = math.atan2(zy, zx)
    acc_lm = 0.0
    acc_ag = 0.0
    for n, logr, eps in factors:
        wlm = n * (lmz - logr)
        if wlm <= -FAR_EDGE:
            # the factor is exactly 1 where its terms round away
            bound = _ROUND_AWAY * math.exp(wlm)
            if bound <= abs(acc_lm) and bound <= abs(acc_ag):
                continue
        # compensated n*arg, then mod 2*pi
        hi, lo = ((n * agz, 0.0) if n in _POW2
                  else _split_prod(n, agz, *_split(agz)))
        wag = _reduce_dd(hi, lo)
        if wlm >= FAR_EDGE:
            lm, ag = wlm, wag  # the factor is exactly w
        elif wlm <= -FAR_EDGE:
            v = math.exp(wlm)
            # log1p(x) == x and atan2(y, 1 + v cos) == y this far out
            lm = 0.5 * (v * (2.0 * math.cos(wag) + v))
            ag = v * math.sin(wag)
        elif abs(wlm) <= eps and (math.pi - abs(wag)) <= eps:
            return True, -math.inf, 0.0
        else:
            m = math.exp(wlm)
            x = 1.0 + m * math.cos(wag)
            y = m * math.sin(wag)
            lm = math.log(math.hypot(x, y))
            ag = math.atan2(y, x)
        acc_lm += lm
        acc_ag = wrap_angle(acc_ag + ag)
    return False, acc_lm, acc_ag


# ---------------------------------------------------------------------------
# vectorized numpy implementations
# ---------------------------------------------------------------------------


def _wrap_np(a):
    # values just past +-pi back into (-pi, pi], as a new array or ``a``
    # itself; a side runs only if some value needs it (fmax and fmin skip
    # NaN), and branch-free, since the sums of two angles need it often
    if np.fmax.reduce(a, initial=-math.inf) > math.pi:
        a = np.where(a > math.pi, a - TWO_PI, a)
    if np.fmin.reduce(a, initial=math.inf) <= -math.pi:
        a = np.where(a <= -math.pi, a + TWO_PI, a)
    return a


def _reduce_np(x, lo=None):
    # `_reduce_dd` on arrays; no ``lo`` stands for +0.0, whose sum with
    # x - ph, never -0.0, is x - ph
    q = x / TWO_PI
    np.rint(q, out=q)
    # NaN fails the bound and takes the general product
    ph, pl = _times_two_pi(q, (q.max(initial=0.0) <= _Q_SPLIT_EXACT
                               and q.min(initial=0.0) >= -_Q_SPLIT_EXACT))
    r = x - ph
    if lo is not None:
        r += lo
    r -= pl
    r -= q * _TWO_PI_LO
    return _wrap_np(r)


_ALL = slice(None)


def _select(mask):
    # the points of a regime: None if there are none, `_ALL` if it holds
    # all of them (views, no gathers or scatters), else their indices
    count = np.count_nonzero(mask)
    if count == 0:
        return None
    return _ALL if count == mask.size else np.flatnonzero(mask)


def _h_field_numpy(zx, zy, factors):
    # each factor's three regimes are evaluated on their own points and
    # added to the sums there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # -inf at the origin, where every factor is in the far field with
        # a small w and adds +-0.0 to the +0.0 accumulators, so h(0) is +0.0
        lmz = np.log(np.hypot(zx, zy))
        agz = np.arctan2(zy, zx)
        split = (None if all(row[0] in _POW2 for row in factors)
                 else _split(agz))
        acc_lm = np.zeros_like(zx)
        acc_ag = np.zeros_like(zx)
        zero = np.zeros(zx.shape, dtype=bool)
        for n, logr, eps in factors:
            wlm = n * (lmz - logr)
            top = wlm.max(initial=-math.inf)
            if top <= -FAR_EDGE:
                # small w on every point (none NaN): the factor is exactly 1
                # if its terms round away on all of them (or there are none)
                bound = _ROUND_AWAY * math.exp(top)
                if bound == 0.0 or (bound <= np.abs(acc_lm).min()
                                    and bound <= np.abs(acc_ag).min()):
                    continue
            # compensated n*arg, then mod 2*pi
            wag = (_reduce_np(n * agz) if n in _POW2
                   else _reduce_np(*_split_prod(n, agz, *split)))
            sel = _select(wlm >= FAR_EDGE)
            if sel is not None:
                # big w: the factor is exactly w
                acc_lm[sel] += wlm[sel]
                acc_ag[sel] += wag[sel]
            # small w, dead points left out: the factor is exactly 1 there
            sel = _select((wlm <= -FAR_EDGE) & (wlm >= -DEAD_EDGE))
            if sel is not None:
                v = np.exp(wlm[sel])
                a = wag[sel]
                # log1p(x) == x and atan2(y, 1 + v cos) == y this far out
                acc_lm[sel] += 0.5 * (v * (2.0 * np.cos(a) + v))
                acc_ag[sel] += v * np.sin(a)
            awlm = np.abs(wlm)
            sel = _select(~(awlm >= FAR_EDGE))  # NaN too
            if sel is not None:
                m = np.exp(wlm[sel])
                a = wag[sel]
                x = 1.0 + m * np.cos(a)
                y = m * np.sin(a)
                # snapped to the factor's zero
                zero[sel] |= ((awlm[sel] <= eps)
                              & ((math.pi - np.abs(a)) <= eps))
                acc_lm[sel] += np.log(np.hypot(x, y))
                acc_ag[sel] += np.arctan2(y, x)
            acc_ag = _wrap_np(acc_ag)

    # a NaN angle, from a NaN coordinate, makes log|h| NaN too: the step of
    # a big w, exactly w, does not read the angle
    acc_lm[np.isnan(acc_ag)] = np.nan
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


# the disk of `_settled` has radius RHO_PER_STEP * m * e^{Re h}: each
# floating-point step moves by at most 2 sqrt(2) (1 + 2 eps) e^{Re h} < 3
# e^{Re h}, and Re h stays below Re h(z_s) + 1 on the disk
RHO_PER_STEP = 3.0 * math.e
# the multiple of the first-order rounding terms that `_settled` charges
ROUNDING_CHARGE = 100.0


def _factor_columns(factors):
    # the factor table as (K, 1) columns n, log r and snap_eps, so that
    # `_settled` works on all factors at once in (K, points) arrays
    return tuple(np.array(col)[:, None] for col in zip(*factors))


def _settled(x, y, hlm, re_h, flagged, m, columns, esc2):
    """Which orbits at ``z_s = x + i y`` provably keep their (status, step)
    through the ``m`` steps that start at z_s.

    ``hlm`` and ``re_h`` are the kernel's log|h| and Re h at z_s, ``flagged``
    marks orbits whose near-zero flag is set, ``columns`` is
    `_factor_columns` of the factor table and ``esc2`` the squared escape
    radius R^2.  A certified orbit keeps its status, 0 or 2, and its step,
    like a frozen one.

    The disk.  Let ``L = Re h(z_s) + 1`` and let D be the closed disk of
    radius ``rho = 3 e m e^{Re h(z_s)} = 3 m e^L`` about z_s.  If the
    computed Re h is at most L on D, each computed step from a point of D is
    shorter than ``3 e^L``: per coordinate ``fl(x + d)`` is within ``|d|``
    of ``x + d``, so within ``2 |d|`` of x, and ``|d| <= (1 + eps)^2 e^L``
    while ``Re h >= -700`` keeps exp a normal double; ``2 sqrt(2) (1 +
    eps)^2 < 3``.  By induction the m steps from z_s stay in D.  So the
    status is final once, on all of D, no step escapes and no near-zero
    flag or snapped zero appears.

    The bound on D.  With ``N = sum n_k`` and ``delta = rho/|z_s|``, the
    first condition is ``N delta <= 1/2``; it needs no factor, and the
    caller screens every orbit with it.  For w in D, ``|w/z_s - 1| <=
    delta``, so ``w_k = (w/r_k)^{n_k}`` is within ``|u_k| ((1 + delta)^{n_k}
    - 1)`` of ``u_k = w_k(z_s)``, and ``(1 + w_k)/(1 + u_k) = 1 + t_k`` with
    ``|t_k| <= a_k = cond_k expm1(n_k delta)``, where ``cond_k = |u_k|/|1 +
    u_k|`` is the factor's condition weight.  For ``a_k < 1``, ``|log(1 +
    t)| <= -log(1 - |t|)``, so ``|log h(w) - log h(z_s)| <= Lambda = sum_k
    -log1p(-a_k)`` (imaginary part mod 2 pi).  ``cond_k`` is bounded with
    ``|u_k| <= exp(l_k + e_k)`` and ``|1 + u_k| >= g_k = |1 + e^{l_k + i
    theta_k}| - (1 + e^{l_k + e_k}) expm1(2 e_k)``, from ``l_k = n_k
    (log|z_s| - log r_k)`` and ``theta_k = n_k arg z_s`` as computed.  Each
    is off by less than ``3 n_k eps (|log|z_s|| + |log r_k| + 1 + pi)``;
    ``e_k = 100 n_k eps (|log|z_s|| + |log r_k| + 1 + pi)`` charges that
    more than 30 times, and the ``expm1(2 e_k)`` in g_k also covers the few
    ulps of the cartesian sum.

    Rounding of h.  The error of the computed log|h| and arg h at a point w
    is first order in the rounding of log|w| and arg w: ``T(w) = sum_k n_k
    cond_k(w) (ulp(log|w|) + ulp(arg w)) + 8 K eps``, the term of
    ``tests/test_kernels.py::test_scalar_core_within_first_order_term_of_oracle``.
    That test holds the scalar core within 4 T of a 200-bit oracle on every
    built-in ring (worst 1.1 T over 40 seeds), and the vector path evaluates
    the same formulas.  On D, ``cond_k(w) <= cond_k e^{n_k delta}/(1 -
    a_k)`` and ``ulp(log|w|) + ulp(arg w) <= eps (|log|z_s|| + 1 + pi)`` (as
    ``delta <= 1/2``), which bounds T(w) by T'.  Charging 100 T' to the
    computed log|h| and arg h, at z_s and at w, gives ``|log h_c(w) - log
    h_c(z_s)| <= Lambda* = Lambda + 300 T'`` (``2 sqrt(2) 100 < 300``), so
    ``Re h_c(w) <= Re h_c(z_s) + |h_c(z_s)| expm1(Lambda*)``.

    The orbit is certified when, besides ``N delta <= 1/2``:
    - ``|h(z_s)| expm1(Lambda*) <= 1/2``: Re h stays below L.  The other
      half of the margin 1 covers the rounding of ``Re h = |h| cos(arg h)``
      (4 eps |h|, while ``Lambda* >= 2400 eps``) and of this test;
    - ``-700 <= Re h(z_s)``, ``L <= 700`` and ``log|h(z_s)| + 2 Lambda* <=
      700``: the step is a normal double, no step escapes through Re h and h
      stays cartesian on D;
    - ``(|z_s| + rho)^2 (1 + 2^-30)^2 < R^2``: no point of D passes the
      escape radius.  The margin is far above the few ulps by which
      ``|z_s|``, rho, R^2 and a later ``x*x + y*y`` are rounded;
    - ``flagged`` or ``log|h(z_s)| - 2 Lambda* > log ln 2``: no new
      near-zero flag;
    - ``g_k (1 - a_k) > 2 expm1(2 (snap_eps_k + e_k))`` for every factor,
      which also needs ``g_k > 0`` and ``a_k < 1``: on D, ``|1 + w_k| >=
      g_k (1 - a_k)``, while a factor the kernel snaps has log-modulus and
      angle within ``snap_eps_k + e_k`` of those of -1, so ``|1 + w_k| <=
      expm1(sqrt(2) (snap_eps_k + e_k))``.

    Every quantity here is evaluated in floating point with a few roundings,
    far inside the factors of 2 above, and a NaN fails its comparison.  No
    margin is tuned: rho's 3 is the first integer above ``2 sqrt(2)``; the
    1 in L admits the largest |h|, since Lambda grows like e^mu with the
    margin mu and ``|h| Lambda <~ mu`` then holds for the largest |h| where
    ``mu e^-mu`` peaks, at mu = 1; the halves and the factors of 2 absorb
    the rounding of the tests themselves; and the rounding of h is charged
    100 times.
    """
    n, logr, snap = columns
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        az = np.hypot(x, y)
        rho = (RHO_PER_STEP * m) * np.exp(re_h)
        lmz = np.log(az)
        tau = _EPS * (np.abs(lmz) + (1.0 + math.pi))
        lw = n * (lmz - logr)
        e = (ROUNDING_CHARGE * n) * (tau + _EPS * np.abs(logr))
        theta = n * np.arctan2(y, x)
        mod = np.exp(lw)
        big = mod * np.exp(e)
        gap = (np.hypot(1.0 + mod * np.cos(theta), mod * np.sin(theta))
               - (1.0 + big) * np.expm1(2.0 * e))
        cond = big / gap
        grow = n * (rho / az)
        a = cond * np.expm1(grow)
        room = 1.0 - a
        lam = (3.0 * ROUNDING_CHARGE) * (
            (n * cond * np.exp(grow) / room).sum(axis=0) * tau
            + 8.0 * n.size * _EPS) - np.log1p(-a).sum(axis=0)
        edge = (az + rho) * (1.0 + 2.0 ** -30)
        lam2 = 2.0 * lam
        return ((rho * (2.0 * n.sum()) <= az)
                & (gap * room > 2.0 * np.expm1(2.0 * (snap + e))).all(axis=0)
                & (np.exp(hlm) * np.expm1(lam) <= 0.5)
                & (re_h >= -CARTESIAN_BAND) & (re_h + 1.0 <= CARTESIAN_BAND)
                & (hlm + lam2 <= CARTESIAN_BAND) & (edge * edge < esc2)
                & (flagged | (hlm - lam2 > LOG_LN2)))


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
    columns = _factor_columns(factors)
    two_n = 2.0 * columns[0].sum()
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
            # the first condition of `_settled`, N delta <= 1/2, screens
            # every orbit, so each one it would certify is a candidate
            m = max_steps - s
            slow = (RHO_PER_STEP * m) * emod * two_n <= np.hypot(x, y)
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
        # orbits certified final for the m steps left retire like frozen ones
        cand = np.flatnonzero(keep & slow)
        if cand.size:
            keep[cand[_settled(x[cand], y[cand], hlm[cand], re_h[cand],
                               status[idx[cand]] != STATUS_BOUNDED, m,
                               columns, esc2)]] = False
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


def check_orbit_budget(p: ParamSeq, max_steps: int,
                       escape_radius: float) -> None:
    """Reject a step budget below 1, then an escape radius that is not
    beyond the last ring (NaN too) or whose square overflows: from about
    1.34e154 on, R*R is inf and the escape test ``x*x + y*y > R*R`` could
    never fire.  `classify_field` and `dynamics.iterate` both check here."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not (escape_radius > p.r[-1]
            and escape_radius * escape_radius < math.inf):
        raise ValueError("escape_radius must exceed the last stored radius "
                         "and have a finite square (below 1.34e154)")


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
    bounded until the grid format gets a status of its own for them.  An
    orbit so slow that `_settled` proves it cannot escape, set the near-zero
    flag or meet a snapped zero in the steps left stops too, with the same
    status and step the remaining steps would have left it: 0 with step 0,
    or 2 with its near-zero step.
    """
    check_orbit_budget(p, max_steps, escape_radius)
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
