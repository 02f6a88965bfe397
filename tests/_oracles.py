"""Independent high-precision reference implementations (mpmath, 200 bits).

These recompute the same quantities as the package by a different route:
plain product formulas at extended precision, no log-polar bookkeeping, no
compensated reductions.  Frozen constants in the tests were produced with
these helpers; a handful of tests also call them live to keep the two
routes honestly coupled.
"""

from __future__ import annotations

import math

import mpmath as mp

PREC = 200


def _ctx():
    ctx = mp.mp.clone()
    ctx.prec = PREC
    return ctx


def h_ref(z, r, n):
    """The ring product at slow full precision."""
    ctx = _ctx()
    zz = ctx.mpc(complex(z).real, complex(z).imag)
    acc = ctx.mpf(1)
    for rk, nk in zip(r, n):
        acc *= 1 + (zz / rk) ** int(nk)
    return acc


def f_ref(z, r, n):
    ctx = _ctx()
    zz = ctx.mpc(complex(z).real, complex(z).imag)
    return zz + ctx.exp(h_ref(z, r, n))


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

    def fn(t):
        acc = ctx.mpf(1)
        for rk, nk in zip(r, n):
            acc *= 1 + (t / rk) ** int(nk)
        return ctx.exp(-acc)

    return complex(ctx.quad(fn, [a, b]))
