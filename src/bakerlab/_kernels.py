"""The one arithmetic core: the truncated product h, batch evaluation of it
and orbit classification.

`_h_point` is the only scalar definition of h; `hfun.eval_h` wraps it for
single points.  Batches go through one vectorized numpy path,
`_h_field_numpy` and `_classify_numpy`.  Both paths read the same factor
table, `prepared(p)`, of built-in floats, so the scalar core computes on
floats and returns them.  Per-pixel results are independent of how the
input is batched, which is what makes row-parallel and chunked callers
deterministic across thread counts, chunk sizes and `BATCH`.

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
  vector path tests that for a whole batch, the scalar core per point.
  Where ``v`` underflows to exactly 0 (a dead factor) that bound is 0 and
  the terms are +-0.0, so neither path splits a factor at a third edge;
- dead terms: when every small w of a batch has ``v`` exactly 0, the
  vector path adds ``v``'s own +0.0 as both terms and takes no cos or sin
  (`_small_terms`).  The full terms are +-0.0 there (a v of 0 comes from
  non-NaN coordinates, whose angle is never NaN), and by the rule below
  either sign leaves the sums as they are.  On the benchmark's mid-paper2
  portrait, where paper2's second factor is dead small inside |z| = 4 and
  dead big outside, that cut the job from 31.0 to 27.0 ms of CPU time
  (`BENCH_lazy_imports.json`).
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

A step has a fixed cost per slice of about a hundred numpy calls, so a
step pays only for work that can change its outcome.  It computes |z|
once, for the factor pass and for `_settled`'s screen, and skips every
mask, `where` and concatenation that no point of its slice needs.
`_settled` tests candidates only on the steps `SETTLED_STRIDE` names, each
of the first four and every 4th after, and an orbit only from the step
that its last failure scheduled (`_retry_step`): after a margin on Re h
missed by the ratio q > 1, about half way to where it would pass; after
any other failure, on the next step tested.  The certificate is an
optional exit, so no schedule can move a byte: an orbit tested later runs
the full steps meanwhile.  A late test can only cost point-steps.  On the
five escape templates of the benchmark at 256x256, the retry schedule cut
`_settled`'s candidates from 163,887 to 65,953 and left the point-steps
(1,506,643) as they were with a test on every step; the stride then cut
the calls from 960 to 296 at two row bands (512 to 168 at one), each worth
about 300 point-steps, for 0.91 % more point-steps (1,520,281).

Grid steps and phase portraits share one batch size, `BATCH` = 8192
points, so their float64 temporaries are 64 KiB each, whatever the size of
the grid.  `_classify_numpy` takes each step on the active orbits in slices
of at most `BATCH`, writes flags and steps by global index and concatenates
the survivors in order; a step with fewer active orbits is one slice.  On the
five escape templates of the benchmark at 256x256, one call each, that cut
the traced peak of `dynamics.classify_grid` from 10.2-11.3 MiB to 3.8-4.2
MiB.  Phase portraits evaluate chunks of `BATCH` points
(`render.render_phase`).

`_h_field_numpy` takes the factors in blocks of ``g = BATCH // points``
of them (at least 1, at most K) as ``(g, points)`` arrays, so a batch of a
few points pays numpy's fixed cost per call once per block, not once per
factor: log|w|, the reduction of ``n arg z`` and each regime's
transcendental pass are one call per block, on at most `BATCH` elements.
The sums still add the factors one by one, in order: ``acc_lm += lm_k``,
then ``acc_ag + ag_k`` wrapped.  Every term is an elementwise function of
its point and factor, so each output bit is that of the loop over factors,
which is the block of one factor that a batch of `BATCH` points (a
phase-portrait chunk, a full classifier slice) runs.  A factor whose w is
small on every point waits for its turn in the sums, is tested against
them as they stand, as that loop tests it, and is skipped or evaluated
alone.  At K = 4 (doubling) this cut a call on 16 points from 113 to 54
µs and on 1000 points from 415 to 361 µs.

Within a block each regime is evaluated on its own elements; a regime that
holds every element is evaluated on whole-array views, without gathers or
scatters.  The regimes come from the block's least and largest log|w|, so
a block inside one regime builds no mask; `_h_field_numpy` splits ``arg
z`` once per call if some degree needs the general compensated product;
the snap test reads the angle only where the modulus is within the
block's widest window; and the reduction of ``n arg z`` for power-of-two
degrees ``n <= 2**26`` does not test its quotient's bound, which ``|arg
z| <= pi`` proves.

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

from .params import ParamSeq, make_toy

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
# a far factor with a small w adds terms below 1.01 v, v = e^log|w|, to the
# sums; they round away against a sum s with |s| >= _ROUND_AWAY v, since half
# an ulp of s exceeds 2**-54 |s| >= 2 v, and the 2 also covers an ulp of exp
_ROUND_AWAY = 2.0 ** 55
# elements per numpy pass, in each classifier step, phase-portrait chunk and
# block of factors: 64 KiB per float64 temporary, below glibc's 128 KiB mmap
# threshold, so temporaries are reused from the heap instead of being mapped
# and faulted in afresh
BATCH = 8192


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
    # values just past +-pi back into (-pi, pi], in place; a side runs only
    # if some value needs it (fmax and fmin skip NaN), and branch-free,
    # since the sums of two angles need it often
    if np.fmax.reduce(a, axis=None, initial=-math.inf) > math.pi:
        np.subtract(a, TWO_PI, out=a, where=a > math.pi)
    if np.fmin.reduce(a, axis=None, initial=math.inf) <= -math.pi:
        np.add(a, TWO_PI, out=a, where=a <= -math.pi)
    return a


def _reduce_np(x, lo=None, small=False):
    # `_reduce_dd` on arrays; no ``lo`` stands for +0.0, whose sum with
    # x - ph, never -0.0, is x - ph.  ``small`` says the caller has proved
    # |q| <= _Q_SPLIT_EXACT, else the batch is tested
    q = x / TWO_PI
    np.rint(q, out=q)
    # NaN fails the bound and takes the general product
    ph, pl = _times_two_pi(q, small or (
        np.maximum.reduce(q, axis=None, initial=0.0) <= _Q_SPLIT_EXACT
        and np.minimum.reduce(q, axis=None, initial=0.0) >= -_Q_SPLIT_EXACT))
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
    return _ALL if count == mask.size else mask.nonzero()[0]


def _regimes(wlm, lo, hi):
    # the small and near elements of log|w| ``wlm``, as `_select` gives
    # them, from their least and largest value: the others are big, and
    # elements inside one regime build no mask.  A NaN, in the near regime,
    # makes lo and hi NaN
    if -FAR_EDGE < lo and hi < FAR_EDGE:
        return None, _ALL
    if lo >= FAR_EDGE:
        return None, None
    if hi <= -FAR_EDGE:
        return _ALL, None
    small = wlm <= -FAR_EDGE
    return _select(small), _select(~(small | (wlm >= FAR_EDGE)))


@functools.lru_cache(maxsize=256)
def _factor_blocks(factors, g):
    # the factor table in blocks of at most g factors: per block the
    # `_factor_columns`, its snap windows flat and their largest, and its
    # degrees as floats; shared between callers, so read-only
    blocks = []
    for i in range(0, len(factors), g):
        rows = factors[i:i + g]
        n, logr, eps = _factor_columns(rows)
        for col in (n, logr, eps):
            col.flags.writeable = False
        blocks.append((n, logr, eps.ravel(), max(row[2] for row in rows),
                       tuple(row[0] for row in rows)))
    return tuple(blocks)


def _angles(n, agz, split, degrees):
    # arg w = n arg z for the degree column n: the compensated product, then
    # mod 2*pi.  If every degree is a power of two, the product is exact and,
    # up to _Q_SPLIT_EXACT, |n arg z| <= n pi bounds the quotient
    if all(d in _POW2 for d in degrees):
        return _reduce_np(n * agz, small=max(degrees) <= _Q_SPLIT_EXACT)
    return _reduce_np(*_split_prod(n, agz, *split))


def _small_terms(wlm, wag):
    # small w: log1p(x) == x and atan2(y, 1 + v cos) == y this far out;
    # where v underflows to 0 the terms are +-0.0, so a batch dead on every
    # element adds v's own +0.0 as both terms and takes no cos or sin
    v = np.exp(wlm)
    if not v.any():
        return v, v
    return 0.5 * (v * (2.0 * np.cos(wag) + v)), v * np.sin(wag)


def _h_field_numpy(zx, zy, factors, az=None):
    # the factors in blocks of g = BATCH // points, as (g, points) arrays:
    # each regime takes one pass per block, and the sums add the block's
    # factors one by one, in order; ``az`` is |z| if the caller has it
    size = zx.size
    g = min(len(factors), max(1, BATCH // max(size, 1)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # -inf at the origin, where every factor is in the far field with
        # a small w and adds +-0.0 to the +0.0 accumulators, so h(0) is +0.0
        lmz = np.log(np.hypot(zx, zy) if az is None else az)
        agz = np.arctan2(zy, zx)
        split = (None if all(row[0] in _POW2 for row in factors)
                 else _split(agz))
        acc_lm = np.zeros(zx.shape)
        acc_ag = np.zeros(zx.shape)
        zero = np.zeros(zx.shape, dtype=bool)
        for n, logr, eps, eps_max, degrees in _factor_blocks(factors, g):
            wlm = n * (lmz - logr)
            tops = np.maximum.reduce(wlm, axis=1, initial=-math.inf).tolist()
            # a factor with a small w on every point (none NaN) waits for
            # its turn in the sums; the others take the block's passes
            rest = [k for k, hi in enumerate(tops) if not hi <= -FAR_EDGE]
            if len(rest) == len(tops):
                lm, ag = _block_terms(wlm, n, eps, eps_max, degrees, agz,
                                      split, zero)
            elif rest:
                lm, ag = _block_terms(wlm[rest], n[rest], eps[rest], eps_max,
                                      [degrees[k] for k in rest], agz, split,
                                      zero)
            done = 0
            for k, hi in enumerate(tops):
                if hi <= -FAR_EDGE:
                    # the factor is exactly 1 if its terms round away on
                    # every point (or there are none)
                    bound = _ROUND_AWAY * math.exp(hi)
                    if bound == 0.0 or (bound <= np.abs(acc_lm).min()
                                        and bound <= np.abs(acc_ag).min()):
                        continue
                    t_lm, t_ag = _small_terms(
                        wlm[k], _angles(n[k], agz, split, degrees[k:k + 1]))
                else:
                    t_lm = lm[done:done + size]
                    t_ag = ag[done:done + size]
                    done += size
                acc_lm += t_lm
                acc_ag += t_ag
                _wrap_np(acc_ag)

    # a NaN angle, from a NaN coordinate, makes log|h| NaN too: the step of
    # a big w, exactly w, does not read the angle
    acc_lm[np.isnan(acc_ag)] = np.nan
    if zero.any():
        acc_lm[zero] = -np.inf
        acc_ag[zero] = 0.0
    return zero, acc_lm, acc_ag


def _block_terms(wlm, n, eps, eps_max, degrees, agz, split, zero):
    # the terms (log-modulus, angle) of the factors of (g, points) log|w|
    # ``wlm``, flat, factor after factor, each regime evaluated on its own
    # elements, which may overwrite wlm; marks in ``zero`` the points where a
    # factor snaps to its zero
    size = agz.size
    wlm = wlm.reshape(-1)
    wag = _angles(n, agz, split, degrees).reshape(-1)
    small, near = _regimes(
        wlm, np.minimum.reduce(wlm, initial=math.inf),
        np.maximum.reduce(wlm, initial=-math.inf))
    # big w: the factor is exactly w, so its terms are wlm and wag, arrays
    # of this block's own, which the other regimes overwrite at theirs
    lm, ag = wlm, wag
    if small is not None:
        t_lm, t_ag = _small_terms(wlm[small], wag[small])
        if small is _ALL:
            return t_lm, t_ag
        lm[small], ag[small] = t_lm, t_ag
    if near is not None:
        wn = wlm[near]
        m = np.exp(wn)
        a = wag[near]
        x = 1.0 + m * np.cos(a)
        y = m * np.sin(a)
        # snapped to the factor's zero: the angle is read only where the
        # modulus is within the block's widest window, and each element is
        # then held to its own factor's
        close = (np.abs(wn) <= eps_max).nonzero()[0]
        if close.size:
            at = close if near is _ALL else near[close]
            e = eps[at // size]
            hit = ((np.abs(wn[close]) <= e)
                   & ((math.pi - np.abs(a[close])) <= e))
            zero[at[hit] % size] = True
        t_lm = np.log(np.hypot(x, y))
        t_ag = np.arctan2(y, x)
        if near is _ALL:
            return t_lm, t_ag
        lm[near], ag[near] = t_lm, t_ag
    return lm, ag


def h_cartesian(lm, ag):
    """``(Re h, Im h)`` of the log-polar ``h = exp(lm + i*ag)``, elementwise.

    Within ``lm <= CARTESIAN_BAND`` this is ``exp(lm) (cos ag, sin ag)``,
    so a snapped zero (lm = -inf, ag = 0) gives exactly 0 and a tiny h may
    underflow to 0.  Beyond the band it is ``(+-inf, 0)``, the sign taken
    from ``cos(ag)``: there ``e^h`` overflows or vanishes.
    """
    c = np.cos(ag)
    # fmax skips NaN, which is not beyond the band
    if not np.fmax.reduce(lm, initial=-math.inf) > CARTESIAN_BAND:
        mod = np.exp(lm)
        return mod * c, mod * np.sin(ag)
    big = lm > CARTESIAN_BAND
    mod = np.exp(np.where(big, 0.0, lm))
    re_h = np.where(big, np.where(c >= 0.0, np.inf, -np.inf), mod * c)
    return re_h, np.where(big, 0.0, mod * np.sin(ag))


# the disk of `_settled` has radius RHO_PER_STEP * m * e^{Re h}: each
# floating-point step moves by at most 2 sqrt(2) (1 + 2 eps) e^{Re h} < 3
# e^{Re h}, and Re h stays below Re h(z_s) + 1 on the disk
RHO_PER_STEP = 3.0 * math.e
# the multiple of the first-order rounding term that `_settled` charges
ROUNDING_CHARGE = 100.0


def _factor_columns(factors):
    # the factor table as (K, 1) columns n, log r and snap_eps, so that
    # `_settled` works on all factors at once in (K, points) arrays
    return tuple(np.array(col)[:, None] for col in zip(*factors))


def _factor_bounds(x, y, n, logr, charge):
    # per point: |z| and tau = eps (|log|z|| + 1 + pi), the rounding of
    # |z|, log|z| and arg z (|log|z|| capped at 745, above that of every
    # nonzero double, so that tau is finite at the origin).  Per factor, for
    # w = (z/r)^n with log-modulus l = n (log|z| - log r) and angle theta =
    # n arg z, each charged e = charge n (tau + eps |log r|): e, and (cond,
    # gap) for every u within e of (l, theta).  With c = e^-|l|, |1 + c
    # e^{i theta}| is |1 + w| for l <= 0 and |1 + 1/w| for l > 0, and moves
    # by at most c expm1(2 e) to u's, so gap bounds |1 + u| or |1 + 1/u|
    # from below and cond = e^{min(l, 0) + e}/gap bounds the condition
    # weight |u|/|1 + u| from above; neither overflows where e^l does.  At
    # charge 0 they are |1 + w| or |1 + 1/w|, and the weight
    az = np.hypot(x, y)
    lmz = np.log(az)
    tau = _EPS * (np.fmin(np.abs(lmz), 745.0) + (1.0 + math.pi))
    e = (charge * n) * (tau + _EPS * np.abs(logr))
    l = n * (lmz - logr)
    theta = n * np.arctan2(y, x)
    c = np.exp(-np.abs(l))
    gap = (np.hypot(1.0 + c * np.cos(theta), c * np.sin(theta))
           - (1.0 + c * np.exp(e)) * np.expm1(2.0 * e))
    return az, tau, e, np.exp(np.minimum(l, 0.0) + e) / gap, gap


def _first_order_term(n, weight, tau):
    """The first-order rounding term ``T = sum_k n_k cond_k tau + 8 K eps``
    of the computed log|h| and arg h, for the condition weights ``weight``
    (K, points) and the rounding unit tau of `_factor_bounds`.

    ``cond_k = |w_k|/|1 + w_k|`` is `_factor_bounds` at charge 0: 1/|1 +
    1/w_k| for a big w_k, 0 for a dead small factor and 1 for a dead big
    one.  Each degree multiplies the rounding of log|z| and arg z, each
    condition weight carries it into log h, and ``8 K eps`` is a few
    roundings per factor.  It is an estimate, not a bound.  The scalar core
    and the vector path are each within T of a 200-bit oracle and within
    2 T of each other at the tests' points of every built-in profile (worst
    0.26 T and 0.36 T).  `_settled` charges 100 times its bound T' on a
    disk, with larger weights.  At the origin T is ``8 K eps``, and h(0) =
    1 exactly.
    """
    return (n * weight).sum(axis=0) * tau + 8.0 * n.size * _EPS


def _settled(x, y, hlm, re_h, flagged, m, columns, esc2):
    """Which orbits at ``z_s = x + i y`` provably keep their (status, step)
    through the ``m`` steps that start at z_s, and by how much each missed
    the margin on Re h.

    ``hlm`` and ``re_h`` are the kernel's log|h| and Re h at z_s, ``flagged``
    marks orbits whose near-zero flag is set, ``columns`` is
    `_factor_columns` of the factor table and ``esc2`` the squared escape
    radius R^2.  Returns ``(ok, q)`` per orbit: ``ok`` marks the certified
    orbits, and ``q = |h(z_s)| expm1(Lambda*) / (1/2)`` is the first
    condition below as a ratio, at most 1 where it holds (NaN where
    Lambda* is).  A certified orbit keeps its status, 0 or 2, and its step,
    like a frozen one.

    Precondition: every orbit passed to `_settled` passes the caller's
    screen ``3 e m e^{Re h(z_s)} 2 N <= |z_s|``, with ``N = sum n_k``, on
    the same floats.  With ``delta = rho/|z_s|`` (rho below) that is ``N
    delta <= 1/2``, the first condition of the certificate; `_settled`
    does not test it again.

    The disk.  Let ``L = Re h(z_s) + 1`` and let D be the closed disk of
    radius ``rho = 3 e m e^{Re h(z_s)} = 3 m e^L`` about z_s.  If the
    computed Re h is at most L on D, each computed step from a point of D is
    shorter than ``3 e^L``: per coordinate ``fl(x + d)`` is within ``|d|``
    of ``x + d``, so within ``2 |d|`` of x, and ``|d| <= (1 + eps)^2 e^L``
    while ``Re h >= -700`` keeps exp a normal double; ``2 sqrt(2) (1 +
    eps)^2 < 3``.  By induction the m steps from z_s stay in D.  So the
    status is final once, on all of D, no step escapes and no near-zero
    flag or snapped zero appears.

    The bound on D.  The precondition gives ``N delta <= 1/2``.  For w in
    D, ``|w/z_s - 1| <= delta``, so ``w_k = (w/r_k)^{n_k}`` is within
    ``|u_k| ((1 + delta)^{n_k} - 1)`` of ``u_k = w_k(z_s)``, and ``(1 +
    w_k)/(1 + u_k) = 1 + t_k`` with ``|t_k| <= a_k = cond_k expm1(n_k
    delta)``, where ``cond_k = |u_k|/|1 + u_k|`` is the factor's condition
    weight.  For ``a_k < 1``, ``|log(1 + t)| <= -log(1 - |t|)``, so ``|log
    h(w) - log h(z_s)| <= Lambda = sum_k -log1p(-a_k)`` (imaginary part
    mod 2 pi).  `_factor_bounds` bounds
    ``cond_k`` from ``l_k = n_k (log|z_s| - log r_k)`` and ``theta_k = n_k
    arg z_s`` as computed: with ``c_k = e^-|l_k|``, ``g_k = |1 + c_k e^{i
    theta_k}| - (1 + c_k e^{e_k}) expm1(2 e_k)`` is at most ``|1 + u_k|``
    for ``l_k <= 0`` and ``|1 + 1/u_k|`` for ``l_k > 0``, and ``cond_k <=
    e^{min(l_k, 0) + e_k}/g_k``.  Each of l_k and theta_k is off by less
    than ``3 n_k eps (|log|z_s|| + |log r_k| + 1 + pi)``; ``e_k = 100 n_k
    eps (|log|z_s|| + |log r_k| + 1 + pi)`` charges that more than 30
    times, and the ``expm1(2 e_k)`` in g_k also covers the few ulps of the
    cartesian sum.

    Rounding of h.  The error of the computed log|h| and arg h at a point w
    is first order in the rounding of log|w| and arg w: the term ``T(w) =
    sum_k n_k cond_k(w) tau(w) + 8 K eps`` of `_first_order_term`, with
    ``tau(w) = eps (|log|w|| + 1 + pi)``.  The tests hold both paths within
    T of a 200-bit oracle on every built-in ring (worst 0.26 T).  On D,
    ``cond_k(w) <= cond_k e^{n_k delta}/(1 - a_k)`` and, as ``delta <=
    1/2``, ``tau(w) <= tau(z_s) + eps log 2 < 1.2 tau(z_s)``, so T(w) is
    below 1.2 T', where T' is `_first_order_term` with those weights and
    tau(z_s).  Charging 100 T', over 80 T(w), to the computed log|h| and
    arg h, at z_s and at w, gives ``|log h_c(w) - log h_c(z_s)| <= Lambda*
    = Lambda + 300 T'`` (``2 sqrt(2) 100 < 300``), so ``Re h_c(w) <= Re
    h_c(z_s) + |h_c(z_s)| expm1(Lambda*)``.

    Given the precondition, the orbit is certified when these six hold:
    - ``|h(z_s)| expm1(Lambda*) <= 1/2``: Re h stays below L.  The other
      half of the margin 1 covers the rounding of ``Re h = |h| cos(arg h)``
      (4 eps |h|, while ``Lambda* >= 2400 eps``) and of this test;
    - ``-700 <= Re h(z_s)`` and ``log|h(z_s)| + 2 Lambda* <= 700``: the
      step is a normal double and h stays cartesian on D.  ``L <= 700``,
      so that no step escapes through Re h, needs no test: the next
      condition asks for a finite ``(|z_s| + rho)^2``, so ``|z_s| <
      1.34e154``, and then the precondition, with m >= 1 and N >= 1, gives
      ``e^{Re h(z_s)} <= |z_s|/(6 e)``, so ``Re h(z_s) < 352.1``;
    - ``(|z_s| + rho)^2 (1 + 2^-30)^2 < R^2``: no point of D passes the
      escape radius.  The margin is far above the few ulps by which
      ``|z_s|``, rho, R^2 and a later ``x*x + y*y`` are rounded;
    - ``flagged`` or ``log|h(z_s)| - 2 Lambda* > log ln 2``: no new
      near-zero flag;
    - ``g_k (1 - a_k) > 2 expm1(2 (snap_eps_k + e_k))`` for every factor,
      which also needs ``g_k > 0`` and ``a_k < 1``: on D, ``|1 + w_k| >=
      |1 + u_k| (1 - a_k)``, and ``|1 + u_k|`` is at least g_k, or ``e^-e_k
      g_k`` for ``l_k > 0`` (there ``|u_k| >= e^-e_k``), while a factor the
      kernel snaps has log-modulus and angle within ``snap_eps_k + e_k`` of
      those of -1, so ``|1 + w_k| <= expm1(sqrt(2) (snap_eps_k + e_k))``.
      ``g_k > 0`` needs ``expm1(2 e_k) < 1``, so ``e^-e_k > 1/(2 sqrt(2))``
      and ``2 e^-e_k expm1(2 x) > expm1(sqrt(2) x)``.

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
        az, tau, e, cond, gap = _factor_bounds(x, y, n, logr, ROUNDING_CHARGE)
        rho = (RHO_PER_STEP * m) * np.exp(re_h)
        grow = n * (rho / az)
        a = cond * np.expm1(grow)
        room = 1.0 - a
        lam = (3.0 * ROUNDING_CHARGE) * _first_order_term(
            n, cond * np.exp(grow) / room, tau) - np.log1p(-a).sum(axis=0)
        edge = (az + rho) * (1.0 + 2.0 ** -30)
        lam2 = 2.0 * lam
        # doubling is exact, so q <= 1 is |h| expm1(Lambda*) <= 1/2
        q = 2.0 * (np.exp(hlm) * np.expm1(lam))
        return ((gap * room > 2.0 * np.expm1(2.0 * (snap + e))).all(axis=0)
                & (q <= 1.0)
                & (re_h >= -CARTESIAN_BAND) & (hlm + lam2 <= CARTESIAN_BAND)
                & (edge * edge < esc2)
                & (flagged | (hlm - lam2 > LOG_LN2))), q


# `_classify_numpy` tests certificate candidates on each of the first
# SETTLED_STRIDE steps, then on every SETTLED_STRIDE-th step (its price is in
# the module docstring).  With a test on every step, the first four steps
# certify 12,417 of the 25,907 orbits on the benchmark's escape templates and
# a later call a few dozen.  Every 4th step from step 0 alone cost 1.20 %
# more point-steps (264 calls at two bands), every 3rd 0.84 % (344 calls)
SETTLED_STRIDE = 4


def _retry_step(s, m, q):
    # the step from which candidates that `_settled` tested at step s, with
    # m steps left and margin ratios q, are tested again, on the first step
    # that `SETTLED_STRIDE` names.  The disk's radius is proportional to the
    # steps left and Lambda* is convex in it, so at the same z_s and h a
    # margin missed by q > 1 passes, but for the rounding charge, once m/q
    # steps are left; the retry comes half way there.  Any other failure
    # (q <= 1, or NaN) is retried from the next step
    wait = np.where(q > 1.0, (0.5 * m) * (1.0 - 1.0 / q), 1.0)
    return (s + np.fmax(wait, 1.0)).astype(np.uint32)


def _classify_numpy(zx, zy, factors, max_steps, escape_radius):
    # per start point, by global index: the grid's status flags and step,
    # each written on the step that decides it
    status = np.zeros(zx.size, dtype=np.uint8)
    step = np.zeros(zx.size, dtype=np.uint32)
    # the active orbits' global indices, positions and the first step at
    # which `_settled` tests them, compacted in order after every step
    active = np.arange(zx.size), zx, zy, np.zeros(zx.size, dtype=np.uint32)
    esc2 = escape_radius * escape_radius
    columns = _factor_columns(factors)
    two_n = 2.0 * columns[0].sum()
    # an orbit with Re h beyond the band escapes whatever its step computes,
    # so that step may overflow or be NaN: it is dropped and nothing computed
    # for it is read
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(max_steps):
            if active[0].size == 0:
                break
            kept = []
            # each slice of at most BATCH active orbits takes the step on its
            # own, so the step's temporaries are bounded by the slice
            for a in range(0, active[0].size, BATCH):
                kept.append(_step(s, max_steps, *(v[a:a + BATCH]
                                                  for v in active),
                                  status, step, factors, columns, two_n,
                                  esc2))
            active = (kept[0] if len(kept) == 1
                      else tuple(np.concatenate(v) for v in zip(*kept)))
    return status, step


def _step(s, max_steps, idx, x, y, due, status, step, factors, columns,
          two_n, esc2):
    # step s of `_classify_numpy` on one slice of active orbits: writes the
    # flags and steps it decides, returns the slice's survivors
    az = np.hypot(x, y)
    zero, hlm, hag = _h_field_numpy(x, y, factors, az)
    # an active orbit has not escaped, so its status is 0 or the flag
    near = hlm < LOG_LN2
    if near.any():
        fresh = idx[near & (status[idx] == STATUS_BOUNDED)]
        status[fresh] = STATUS_NEAR_ZERO
        step[fresh] = s
    re_h, im_h = h_cartesian(hlm, hag)
    emod = np.exp(re_h)
    # a step that underflows to 0 leaves the orbit where it is, so it
    # freezes, whatever its angle: past |Im h| ~ 1.3e300 the reduction's
    # split overflows and the angle is NaN
    ia = _reduce_np(im_h if emod.all() else np.where(emod == 0.0, 0.0, im_h))
    nx = x + emod * np.cos(ia)
    # at a snapped zero the step is exactly +1; adding sin(0) to y would
    # turn a -0.0 into +0.0
    ny = y + emod * np.sin(ia)
    if zero.any():
        ny = np.where(zero, y, ny)
    out = (re_h > CARTESIAN_BAND) | (nx * nx + ny * ny > esc2)
    gone = idx[out]
    status[gone] |= STATUS_ESCAPED
    step[gone] = s + 1
    # frozen at a floating-point fixed point: every later step repeats this
    # one, so the orbit never escapes and its flag is final
    keep = ~(out | ((nx == x) & (ny == y)))
    # on the steps `SETTLED_STRIDE` names, orbits certified final for the m
    # steps left retire like frozen ones; the others wait for their retry
    # step
    if s < SETTLED_STRIDE or s % SETTLED_STRIDE == 0:
        m = max_steps - s
        # `_settled`'s precondition, N delta <= 1/2: only orbits that pass
        # this screen are candidates
        slow = (RHO_PER_STEP * m) * emod * two_n <= az
        cand = (keep & slow & (due <= s)).nonzero()[0]
        if cand.size:
            ok, q = _settled(x[cand], y[cand], hlm[cand], re_h[cand],
                             status[idx[cand]] != STATUS_BOUNDED, m, columns,
                             esc2)
            keep[cand[ok]] = False
            due[cand] = _retry_step(s, m, q)
    return idx[keep], nx[keep], ny[keep], due[keep]


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
    p = make_toy("doubling")
    z = np.array([0.25])
    h_field(z, z, p)
    classify_field(z, z, p, 2, 64.0)
