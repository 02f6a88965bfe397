"""Evaluation of the truncated product h, the map f = z + e^h, its zeros and
probe points, the angle function theta, and the Newton companion g.

`eval_h` wraps the scalar core `_kernels._h_point`, which works in log-polar
form.  Its error is the first-order rounding of log|z| and arg z times the
degree: about 1e-6 in angle on paper2's ring 2 (n_2 = 2844000000).  The
compensated n*arg z product is exact only for the rounded `atan2` output,
not for z.  Results leave cartesian range as `logc.LogComplex`, so values
like e^{h} with Re h ~ 10^16 stay representable.  Each such value is built
from an angle already in (-pi, pi]: the scalar core's arg h, or for f the
angle Im h mod 2 pi, reduced here by the kernels' `_reduce_dd`; from
|Im h| = 2^53 (`_kernels.ANGLE_MAX`) on, a computed Im h is off by more
than 1 rad, and the angle is None: unknown.  The quadrature behind g
batches integrand evaluations through `_kernels.h_field`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernels
from ._kernels import ANGLE_MAX, CARTESIAN_BAND, TWO_PI
from .logc import ZERO, LogComplex, Zero
from .params import ParamSeq, derive, require_ring_index

E = math.e


class NonConvergence(ArithmeticError):
    """Adaptive quadrature failed: a panel's integral left double range or
    the subdivision depth limit was reached."""


@dataclass(frozen=True)
class EvalResult:
    """Value of h or f with its truncation-error bound.

    value is the Zero marker at exact zeros, a LogComplex once the magnitude
    passes e^700 (`CARTESIAN_BAND`), and a cartesian complex otherwise, so a
    tiny value is cartesian and may underflow to 0.
    trunc_bound bounds the relative error of the omitted product tail for
    every continuation r_{K+i} >= 2^i r_K, n_{K+i} >= K+i (`ring_log_max`);
    from |z| >= 2 r_K it is +inf.  `regime` and `unbounded_tail` (the keys
    of `bakerlab eval`'s output) follow from value and trunc_bound.
    near_zero says that h at z is in the near-zero-translation regime,
    |h| < ln 2, by the orbit classifier's test on the scalar core's
    log-modulus (`_kernels.LOG_LN2`); f's result carries h's flag, since
    f(z) - z = e^h.
    """

    value: Union[complex, Zero, LogComplex]
    trunc_bound: float
    near_zero: bool

    def __post_init__(self):
        if not (self.trunc_bound >= 0.0):
            raise ValueError("trunc_bound must be >= 0")

    @property
    def regime(self) -> str:
        """"escaped" when value is a LogComplex (for h: |h| > e^700), else
        "exact-ish"."""
        return "escaped" if isinstance(self.value, LogComplex) else "exact-ish"

    @property
    def unbounded_tail(self) -> bool:
        """No tail bound is claimed here: |z| >= 2 r_K."""
        return self.trunc_bound == math.inf


@dataclass(frozen=True)
class ProbePoint:
    """The zero a and probe point b on ring k at sector nu, with theta and p.

    p is the real value of e^{2 pi i phi}(1 + e e^{2 pi i theta}) at
    phi = nu m_k / n_k mod 1: the rho of `theta`'s closed form, at least
    e - 1, with h(b) about T_k p.
    """

    theta: float
    a: complex
    b: complex
    p: float


def ring_log_max(p: ParamSeq, R: float) -> tuple[float, float]:
    """Growth of h on the disk |z| <= R in closed form: (stored, tail).

    stored = log max |h_K| for the stored product h_K: on the disk
    |h_K| <= prod_j (1 + (R/r_j)^{n_j}), with equality at z = R.  Each
    log(1 + e^x), x = n_j log(R/r_j), is summed as x + log1p(e^-x) for
    x > 0, so steep degrees cannot overflow.

    tail bounds sum_i |w_i| over the omitted factors w_i = (z/r_{K+i})^n
    of every continuation with r_{K+i} >= 2^i r_K and n = n_{K+i} >= K+i.
    For rho = R/r_K < 2 each base |z|/r_{K+i} <= rho 2^-i is at most 1, so
    |w_i| <= (rho 2^-i)^{K+i}.  Their sum S(rho) has term ratios
    rho 2^-(K+2i+1) <= q = rho 2^-(K+3) < 1, so S <= (rho/2)^{K+1} / (1-q),
    the tail returned (1.3 % above S at K = 1, 0.3 % for K >= 2); from
    rho >= 2 it is inf.  For the infinite product h on the disk this gives
    |h/h_K - 1| <= prod_i (1 + |w_i|) - 1 <= expm1(tail),
    log |h| <= stored + tail, and a displacement bound for f:
    log |f(z) - z| = Re h >= -|h| >= -exp(stored + tail).
    """
    logR = math.log(R) if R > 0.0 else -math.inf
    terms = []
    for r_j, n_j in zip(p.r, p.n):
        x = n_j * (logR - math.log(r_j))
        terms.append(x + math.log1p(math.exp(-x)) if x > 0.0
                     else math.log1p(math.exp(x)))
    return math.fsum(terms), _ring_tail(p, R)


def _ring_tail(p: ParamSeq, R: float) -> float:
    # the tail term of `ring_log_max`, S(rho) <= (rho/2)^{K+1} / (1 - q)
    rho = R / p.r[-1]
    return (math.inf if rho >= 2.0 else
            (0.5 * rho) ** (p.K + 1) / (1.0 - rho * 2.0 ** -(p.K + 3)))


def eval_h(z: complex, p: ParamSeq) -> EvalResult:
    """Truncated product over the stored factors, with tail bound.

    The value comes from the scalar core `_kernels._h_point`.  Factors whose
    power lands within the snap tolerance of -1 yield the exact Zero; this is
    what makes the downstream identity f(a) = a + 1 bitwise.  The value is
    cartesian while log|h| <= `CARTESIAN_BAND`, as in the batch kernels.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite input ({z.real}, {z.imag})")
    bound = math.expm1(_ring_tail(p, abs(z)))
    is0, lm, ag = _kernels._h_point(z.real, z.imag, _kernels.prepared(p))
    if is0:
        value = ZERO
    elif lm <= CARTESIAN_BAND:
        mod = math.exp(lm)
        value = complex(mod * math.cos(ag), mod * math.sin(ag))
    else:
        value = LogComplex(lm, ag)
    # a snapped zero has lm = -inf
    return EvalResult(value, bound, lm < _kernels.LOG_LN2)


def eval_f(z: complex, p: ParamSeq,
           hres: "EvalResult | None" = None) -> EvalResult:
    """z + e^{h(z)}, escaping to log form when e^h leaves cartesian range.

    A log-polar h has |h| > e^700: then e^h overflows (f is returned as
    LogComplex(inf, 0)) or vanishes (f = z), by the sign of cos(arg h).  For
    a cartesian h, f is log-polar once Re h > `CARTESIAN_BAND`, with angle
    Im h mod 2 pi, or None (unknown) once |Im h| >= `ANGLE_MAX` = 2^53.
    hres may pass in a precomputed eval_h(z, p) result to avoid recomputing.
    """
    z = complex(z)
    if hres is None:
        hres = eval_h(z, p)
    h = hres.value
    if isinstance(h, Zero):
        value = z + 1.0  # e^0 = 1: exact unit translation
    elif isinstance(h, LogComplex):
        value = LogComplex(math.inf, 0.0) if math.cos(h.arg) >= 0.0 else z
    elif h.real > CARTESIAN_BAND:
        value = LogComplex(h.real, _kernels._reduce_dd(h.imag, 0.0)
                           if abs(h.imag) < ANGLE_MAX else None)
    else:
        value = z + cmath.exp(h)  # exp may underflow to 0, leaving f = z
    return EvalResult(value, hres.trunc_bound, hres.near_zero)


# the most zeros `stored_zeros` lists, over 100 times steep's 586; paper2's
# 2844000001 would need hundreds of GB
STORED_ZEROS_MAX = 2 ** 16


def stored_zeros(p: ParamSeq) -> list[tuple[int, int, complex]]:
    """All zeros of the stored factors: (k, nu, r_k e^{(2nu+1) pi i / n_k}).

    Raises ValueError when there are more than `STORED_ZEROS_MAX` of them.
    """
    if sum(p.n) > STORED_ZEROS_MAX:
        raise ValueError(f"more than {STORED_ZEROS_MAX} stored zeros")
    out = []
    for k, (r_k, n_k) in enumerate(zip(p.r, p.n), start=1):
        for nu in range(n_k):
            a = cmath.rect(r_k, (2 * nu + 1) * math.pi / n_k)
            out.append((k, nu, a))
    return out


def _theta_rho(phi: float) -> tuple[float, float]:
    # theta's closed form; rho is also the value of the product there
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    frac = phi - math.floor(phi)
    if frac == 0.0 or frac == 1.0:
        return 0.0, 1.0 + E
    alpha = -TWO_PI * frac
    c = math.cos(alpha)
    rho = c + math.sqrt(c * c + E * E - 1.0)
    t = math.atan2(rho * math.sin(alpha), rho * c - 1.0) / TWO_PI
    if t < 0.0:
        t += 1.0
    return (t if t < 1.0 else 0.0), rho


def theta(phi: float) -> float:
    """Angle theta in [0,1) making e^{2 pi i phi} (1 + e * e^{2 pi i theta})
    real and positive.

    With alpha = -2 pi frac(phi) the condition puts u = 1 + e e^{2 pi i theta}
    on the ray at angle alpha.  That ray meets the circle |u - 1| = e at
    u = rho e^{i alpha}, rho = cos(alpha) + sqrt(cos^2(alpha) + e^2 - 1); the
    other root is negative because the product of the roots is 1 - e^2 < 0.
    So theta = arg(rho e^{i alpha} - 1) / 2 pi mod 1, and the product is
    e^{2 pi i phi} rho e^{i alpha} = rho, the probe value p >= e - 1 of
    `probe_point`.  A phase whose fractional part rounds to 0 or to 1
    resolves to theta = 0, where the product is 1 + e.
    """
    return _theta_rho(phi)[0]


def _probe_b(nu: int, n_k: int, m_k: int, s_k: float):
    """theta(phi) and rho at phi = nu*m_k/n_k mod 1 (reduced in exact integer
    arithmetic; `_theta_rho`), and the probe b at sector nu of a ring with
    degree n_k and probe radius s_k."""
    th, rho = _theta_rho(((nu * m_k) % n_k) / n_k)
    return th, rho, cmath.rect(s_k, TWO_PI * ((nu + th) / n_k))


def probe_point(k: int, nu: int, p: ParamSeq) -> ProbePoint:
    """Zero a and probe b on ring k (1-indexed, k >= 2) at sector nu."""
    require_ring_index(p, k)
    n_k = p.n[k - 1]
    if not 0 <= nu < n_k:
        raise ValueError(f"nu must be in [0, {n_k})")
    d = derive(p)
    th, rho, b = _probe_b(nu, n_k, d.m[k - 1], d.s[k - 1])
    a = cmath.rect(p.r[k - 1], (2 * nu + 1) * math.pi / n_k)
    return ProbePoint(theta=th, a=a, b=b, p=rho)


# ---------------------------------------------------------------------------
# Newton companion g via adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (positive half)
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 15 ascending nodes
_KW = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))

_MAX_DEPTH = 30


def _gk_panels(panels: list, p: ParamSeq) -> list[tuple[complex, float]]:
    """Kronrod value and error estimate of each panel ``(z0, dz, ua, ub)``,
    the part ``u in [ua, ub]`` of the segment ``z0 + u dz``.

    All nodes go through one `_kernels.h_field` call; each point's value
    does not depend on the batch, so each panel's sums are those of a
    panel evaluated alone.  Exact zeros of h give e^{-h} = 1 exactly.  A
    Kronrod value that is not finite marks an overflow: e^{-h} overflows
    once Re h passes about -709.8, and a sum of finite values may overflow
    too.

    The estimate cannot see mass between a panel's ends and its outer
    nodes, 0.43 % of the panel in from each end, where e^{-h} may fall from
    order 1 to an underflowed 0.  So a panel whose estimate does not resolve
    its own value (as when all 15 values are 0, or only an outer node
    counts) also has e^{-h} evaluated at its ends, in one more batch, and
    its estimate is at least its length times the larger of the two.  A
    panel that is 0 at its nodes and ends comes back as exactly (0, 0).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ts = np.concatenate([z0 + (0.5 * (ua + ub) + 0.5 * (ub - ua) * _NODES)
                             * dz for z0, dz, ua, ub in panels])
        vals = _exp_neg_h(ts, p).reshape(len(panels), _NODES.size)
        out = []
        for (_, dz, ua, ub), v in zip(panels, vals):
            scale = 0.5 * (ub - ua) * dz
            kron = scale * np.sum(_KW * v)
            gauss = scale * np.sum(_GW * v)
            out.append((complex(kron), abs(kron - gauss)))
        weak = [i for i, (kron, err) in enumerate(out)
                if not err < 0.5 * abs(kron)]
        if weak:
            ends = np.array([z0 + u * dz for z0, dz, ua, ub in
                             (panels[i] for i in weak) for u in (ua, ub)])
            peaks = np.abs(_exp_neg_h(ends, p)).reshape(-1, 2).max(axis=1)
            for i, peak in zip(weak, peaks):
                _, dz, ua, ub = panels[i]
                kron, err = out[i]
                out[i] = (kron, max(err, peak * (ub - ua) * abs(dz)))
    return out


def _exp_neg_h(ts: np.ndarray, p: ParamSeq) -> np.ndarray:
    # e^{-h} at the points ts, by one `_kernels.h_field` call
    _, lm, ag = _kernels.h_field(ts.real, ts.imag, p)
    re_h, im_h = _kernels.h_cartesian(lm, ag)
    return np.exp(-(re_h + 1j * im_h))


def _check_positive(name: str, x: float) -> None:
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def _integrate_segments(segments: list, p: ParamSeq) -> list[complex]:
    """Integrals of e^{-h} along straight segments ``(z0, z1, tol)``.

    The root panels of all segments share one h_field call.  Then each
    segment in turn is refined from a stack of panels, each with its share
    of tol and its depth: the left half is popped first, and a panel's two
    halves are evaluated together.  Panels, sums and `NonConvergence` are
    those of a depth-first adaptive run per segment.

    A split with a half that is exactly 0 (`_gk_panels`' ``(0, 0)``)
    peels off empty integrand: it keeps the depth of its panel, so a
    segment far longer than the support of e^{-h} reaches that support.
    Such a split needs a midpoint strictly inside its panel, so the peel
    ends within the exponent and mantissa range of u.  A run of r peels
    is likely to go on, so its next split is evaluated together with the
    ``2**min(r, 6) - 1`` splits after it on the run's side, and each split
    takes its halves from those evaluated, which a panel's batch does not
    change: ``eval_g(1e300)`` on doubling peels 993 times in 22
    `_gk_panels` calls in all, against 999 one split at a time.  A split
    that is not a peel ends the run, so a segment that never peels
    evaluates one split per call, and only a run's last call may evaluate
    splits that are never taken.
    """
    for _, _, tol in segments:
        _check_positive("tol", tol)
    segs = [(complex(z0), complex(z1) - complex(z0), tol)
            for z0, z1, tol in segments]
    live = [(z0, dz, 0.0, 1.0) for z0, dz, _ in segs if dz != 0]
    roots = iter(_gk_panels(live, p) if live else [])
    out = []
    for z0, dz, tol in segs:
        total = 0j
        # the (val, err) of evaluated halves not yet split off, by (ua, ub)
        halves = {}
        # per panel: its part of u, tol, depth, the peels that led to it
        # and whether their empty halves lay toward ub
        stack = ([(0.0, 1.0, tol, 0, 0, True, next(roots))] if dz != 0
                 else [])
        while stack:
            ua, ub, tol_loc, depth, peels, low, (val, err) = stack.pop()
            if not cmath.isfinite(val):
                raise NonConvergence(
                    f"integrand overflow on u in [{ua}, {ub}]")
            if err <= tol_loc:
                total += val
                continue
            um = 0.5 * (ua + ub)
            if depth == _MAX_DEPTH:
                raise NonConvergence(
                    f"quadrature depth limit at u in [{ua}, {um}]")
            if (ua, um) not in halves:
                ahead = _split_run(ua, ub, low, 2 ** min(peels, 6))
                halves.update(zip(ahead, _gk_panels(
                    [(z0, dz, a, b) for a, b in ahead], p)))
            left, right = halves.pop((ua, um)), halves.pop((um, ub))
            # a half that is 0 at its nodes and ends needs no share of tol,
            # and peeling it off a panel keeps the panel's depth
            empty = (0j, 0.0) in (left, right)
            share = tol_loc if empty else 0.5 * tol_loc
            peel = empty and ua < um < ub
            depth += not peel
            peels = peels + 1 if peel else 0
            low = right == (0j, 0.0)
            stack += [(um, ub, share, depth, peels, low, right),
                      (ua, um, share, depth, peels, low, left)]
        out.append(total)
    return out


def _split_run(ua, ub, low, count):
    # the halves of ``count`` successive splits of [ua, ub], each of the
    # half before it toward ua (``low``) or toward ub
    halves = []
    for _ in range(count):
        um = 0.5 * (ua + ub)
        halves += [(ua, um), (um, ub)]
        ua, ub = (ua, um) if low else (um, ub)
    return halves


def integrate_exp_neg_h(z0: complex, z1: complex, p: ParamSeq,
                        tol: float = 1e-10) -> complex:
    """Integral of e^{-h} along the straight segment from z0 to z1."""
    return _integrate_segments([(z0, z1, tol)], p)[0]


def eval_g(z: complex, p: ParamSeq, tol: float = 1e-10) -> complex:
    """exp(-integral of e^{-h} from 0 to z along the straight segment).

    Raises OverflowError naming g and z when the exponential leaves double
    range (the integral itself raises `NonConvergence`).
    """
    _check_positive("tol", tol)
    if z == 0:
        return complex(1.0)
    integral = integrate_exp_neg_h(0.0, z, p, tol)
    try:
        return cmath.exp(-integral)
    except OverflowError:
        raise OverflowError(f"g = exp(-integral) overflows at z = "
                            f"({z.real!r}, {z.imag!r})") from None


def newton_residual(z: complex, p: ParamSeq, step: float = 1e-5,
                    tol: float = 1e-10) -> float:
    """|f(z) - (z - g(z)/g'(z))| with g' by central differences.

    The three g evaluations share the base integral to z - step so the
    quadrature error cancels in the difference quotient instead of being
    amplified by 1/(2 step).
    """
    _check_positive("step", step)
    z = complex(z)
    base, d_mid, d_full = _integrate_segments(
        [(0.0, z - step, tol), (z - step, z, tol * 1e-2),
         (z - step, z + step, tol * 1e-2)], p)
    g_minus = cmath.exp(-base)
    g_mid = cmath.exp(-(base + d_mid))
    g_plus = cmath.exp(-(base + d_full))
    dg = (g_plus - g_minus) / (2.0 * step)
    if abs(dg) < 1e-300:
        raise ZeroDivisionError("g' vanishes to working precision at z")
    newton = z - g_mid / dg
    fres = eval_f(z, p)
    if not isinstance(fres.value, complex):
        raise ValueError("f(z) not representable in cartesian form at z")
    return abs(fres.value - newton)
