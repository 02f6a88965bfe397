"""Independent high-precision reference implementations (mpmath, 200 bits).

These recompute the same quantities as the package by a different route:
plain product formulas at extended precision, no log-polar bookkeeping, no
compensated reductions.  Frozen constants in the tests were produced with
these helpers; a handful of tests also call them live to keep the two
routes honestly coupled.  `rect_points` is the reference sampler of a
whole rect, against which banded and batched evaluation is compared.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from bakerlab.dynamics import axis_coords

PREC = 200


def _ctx():
    ctx = mp.mp.clone()
    ctx.prec = PREC
    return ctx


def _ring(ctx, z, r, n):
    # prod_k (1 + (z/r_k)^n_k) for an mpmath number z of ctx
    acc = ctx.mpf(1)
    for rk, nk in zip(r, n):
        acc *= 1 + (z / rk) ** int(nk)
    return acc


def h_ref(z, r, n):
    """The ring product at slow full precision."""
    ctx = _ctx()
    return _ring(ctx, ctx.mpc(complex(z).real, complex(z).imag), r, n)


def condition_sum_ref(z, r, n):
    """sum_k n_k |w_k|/|1 + w_k| for w_k = (z/r_k)^n_k at full precision."""
    ctx = _ctx()
    zz = ctx.mpc(complex(z).real, complex(z).imag)
    acc = ctx.mpf(0)
    for rk, nk in zip(r, n):
        w = (zz / rk) ** int(nk)
        acc += int(nk) * abs(w) / abs(1 + w)
    return acc


def f_ref(z, r, n):
    ctx = _ctx()
    zz = ctx.mpc(complex(z).real, complex(z).imag)
    return zz + ctx.exp(h_ref(z, r, n))


def orbit_ref(z0, r, n, max_steps, escape_radius):
    """(status, step) of the orbit of z0 under z + e^{h(z)}, the ring
    product iterated at full precision with no snapping.

    The grid's rules: the near-zero flag 2 on the first step s with
    |h| < ln 2, with step s; escape (flag 1) on the first step s whose h has
    Re h > 700 or whose image lies beyond the escape radius, with step s + 1.

    The artefact rule: once Re h < -745, e^h lies below the least subnormal
    double, so the kernel's step leaves z unchanged (|h| > 745 only far
    from 0) and its orbit freezes; the current (status, step) is returned.
    The true orbit then moves by less than e^-745 a step, and e^h is never
    evaluated at an astronomically large |Im h|.
    """
    ctx = _ctx()
    z = ctx.mpc(complex(z0).real, complex(z0).imag)
    ln2 = ctx.log(2)
    status, step = 0, 0
    for s in range(max_steps):
        h = _ring(ctx, z, r, n)
        if status == 0 and abs(h) < ln2:
            status, step = 2, s
        if h.real > 700:
            return status | 1, s + 1
        if h.real < -745:
            return status, step
        z += ctx.exp(h)
        if abs(z) > escape_radius:
            return status | 1, s + 1
    return status, step


def reduce_angle_ref(x: float) -> float:
    """x mod 2*pi into (-pi, pi], treating x as the exact double.

    The precision grows by the binary exponent of x (to over 1100 bits near
    1e308), so the quotient times the error of 2*pi stays far below an ulp
    of the result.
    """
    ctx = _ctx()
    ctx.prec = PREC + max(0, math.frexp(x)[1])
    v = ctx.mpf(x)
    tp = 2 * ctx.pi
    w = ctx.fmod(v, tp)
    if w > ctx.pi:
        w -= tp
    elif w <= -ctx.pi:
        w += tp
    return float(w)


def theta_ref(phi: float) -> float:
    """Smallest t in [0, 1) with e^{2 pi i phi} (1 + e e^{2 pi i t}) positive
    real, by bisection on the lifted argument at full precision."""
    ctx = _ctx()
    e = ctx.exp(1)
    two_pi = 2 * ctx.pi
    frac = ctx.mpf(phi) - ctx.floor(ctx.mpf(phi))

    def lifted(t):
        # continuous argument of 1 + e e^{2 pi i t}, increasing from 0 to 2 pi
        w = 1 + e * ctx.expj(two_pi * t)
        a = ctx.arg(w)
        if t > ctx.mpf(1) / 2 and a < 0:
            a += two_pi
        elif t > ctx.mpf(1) / 2 and a == 0:
            a = two_pi
        return a

    target = ctx.fmod(-two_pi * frac, two_pi)
    if target < 0:
        target += two_pi
    if target == 0:
        return 0.0
    lo, hi = ctx.mpf(0), ctx.mpf(1)
    for _ in range(300):
        mid = (lo + hi) / 2
        if lifted(mid) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def integral_exp_neg_h_ref(a: float, b: float, r, n) -> complex:
    """Real-axis integral of e^{-h} at full precision via mp.quad."""
    ctx = _ctx()
    return complex(ctx.quad(lambda t: ctx.exp(-_ring(ctx, t, r, n)), [a, b]))


def rect_points(rect, nx, ny):
    """The nx x ny pixel centres of the rect with opposite corners rect[0]
    and rect[1], in either order, as flat row-major (x, y) arrays: every
    pixel of the rect in one batch."""
    z0, z1 = complex(rect[0]), complex(rect[1])
    xs = axis_coords(min(z0.real, z1.real), max(z0.real, z1.real), nx)
    ys = axis_coords(min(z0.imag, z1.imag), max(z0.imag, z1.imag), ny)
    return np.tile(xs, ny), np.repeat(ys, nx)
