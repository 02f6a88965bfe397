"""Numeric verification of the growth estimates on the product rings and the
replay of the obstruction inequality chain at a chosen ring index.

2a is exact (`hfun.ring_log_max`); 2b and 2c batch through
`_kernels.h_field`.  Reports carry raw numbers and per-inequality flags
rather than asserting, since several estimates are asymptotic in k and a
desk-scale profile may sit outside the regime where they kick in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from ._kernels import TWO_PI
from .hfun import E, _probe_b, eval_f, probe_point, ring_log_max
from .hyperbolic import TWO_LOG3, DiskSpec, disk_distance
from .logc import LogComplex
from .params import ParamSeq, derive, require_ring_index


@dataclass(frozen=True)
class GrowthReport:
    k: int
    max_log_abs_h: float  # exact, for the stored product
    tail: float  # log-bound of the omitted factors (hfun.ring_log_max)
    bound_log: float  # ln 4 + m_k ln r_k
    margin: float
    passed: bool


@dataclass(frozen=True)
class AsymptoticReport:
    k: int
    samples: int
    max_rel_err: float


class ProbeRatio(NamedTuple):
    nu: int
    re_h: float
    logT: float
    ratio: float


@dataclass(frozen=True)
class ObstructionReport:
    """The chain's numbers; its eight link verdicts live only in link_flags
    (rho_3b compares rho_ab with the cap 2 log 3, `hyperbolic.TWO_LOG3`)."""

    k: int
    t_k: float
    nu: int
    delta: float
    z_k: complex
    a_k: complex
    b_k: complex
    dist_a: float
    dist_b: float
    radius_10: float
    rho_ab: float
    log_f_a: float
    log_f_b: float
    rho_lower_3d: Optional[float]
    pinch_lower: float  # 1/2 log(r_k - 1)
    K_bound: float
    link_flags: dict


def _require_doubling_radii(p: ParamSeq) -> None:
    # the growth estimate needs r_1 >= 2 and doubling radii, not full validity
    if p.r[0] < 2.0 or any(p.r[j] < 2.0 * p.r[j - 1] for j in range(1, p.K)):
        raise ValueError("growth check requires r_1 >= 2 and r_k >= 2 r_(k-1)")


def ring_field(radius: float, samples: int, p: ParamSeq):
    """(angles, logmod, arg) of the product on |z| = radius at equispaced
    angles."""
    t = TWO_PI * np.arange(samples) / samples
    zx = radius * np.cos(t)
    zy = radius * np.sin(t)
    code, lm, ag = _kernels.h_field(zx, zy, p)
    return t, lm, ag


def verify_2a(p: ParamSeq, k: int, samples: int = 4096) -> GrowthReport:
    """Max of log|h| on the ring |z| = r_k against ln 4 + m_k ln r_k.

    Exact (`hfun.ring_log_max`): max_log_abs_h is the stored product's
    maximum, and passed gates on max_log_abs_h + tail, a bound for the
    infinite product.  samples is unused but still validated >= 1; the
    benchmark passes it positionally until the benchmark change drops it.
    """
    require_ring_index(p, k)
    _require_doubling_radii(p)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    r_k = p.r[k - 1]
    stored, tail = ring_log_max(p, r_k)
    bound = math.log(4.0) + derive(p).m[k - 1] * math.log(r_k)
    return GrowthReport(k=k, max_log_abs_h=stored, tail=tail,
                        bound_log=bound, margin=bound - (stored + tail),
                        passed=stored + tail <= bound)


def asymptotic_deviation(p: ParamSeq, k: int, samples: int):
    """Per-angle relative deviation of h on |z| = s_k from the dominant-ring
    model T_k e^{i m_k t}(1 + e * e^{i n_k t}), scaled by the model's minimum
    modulus T_k (e-1).  Returns (angles, deviations)."""
    require_ring_index(p, k)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = derive(p)
    s_k = d.s[k - 1]
    m_k = d.m[k - 1]
    n_k = p.n[k - 1]
    logT = d.logT[k - 1]
    t, lm, ag = ring_field(s_k, samples, p)
    scaled = np.exp(lm - logT + 1j * ag)  # h / T_k
    model = np.exp(1j * m_k * t) * (1.0 + E * np.exp(1j * n_k * t))
    rel = np.abs(scaled - model) / (E - 1.0)
    return t, rel


def verify_2b(p: ParamSeq, k: int, samples: int = 8192) -> AsymptoticReport:
    """Max relative deviation of h on |z| = s_k from its dominant-ring model.

    Report-only: smallness is an asymptotic claim and small k need not
    comply; it should shrink as the degree ratio n_k/m_k grows.
    """
    _, rel = asymptotic_deviation(p, k, samples)
    return AsymptoticReport(k=k, samples=samples, max_rel_err=float(np.max(rel)))


def verify_2c(p: ParamSeq, k: int, max_probes: int = 4096) -> list[ProbeRatio]:
    """Re h at the probe points b_(k,nu) against T_k, per sampled nu.

    Ratios >= 1 realize the probe estimate; advisory for small k.  When n_k
    exceeds max_probes the nu range is subsampled evenly (always including 0).
    """
    require_ring_index(p, k)
    if max_probes < 1:
        raise ValueError("samples must be >= 1")
    d = derive(p)
    n_k = p.n[k - 1]
    logT = d.logT[k - 1]
    if n_k <= max_probes:
        nus = np.arange(n_k, dtype=np.int64)
    else:
        nus = np.unique(np.linspace(0, n_k - 1, max_probes).astype(np.int64))
    m_k, s_k = d.m[k - 1], d.s[k - 1]
    b = np.array([_probe_b(int(nu), n_k, m_k, s_k)[2] for nu in nus])
    _, lm, ag = _kernels.h_field(b.real, b.imag, p)
    re_h, _ = _kernels.h_cartesian(lm, ag)
    ratio = np.exp(lm - logT) * np.cos(ag)
    return [ProbeRatio(int(nu), float(rh), logT, float(ra))
            for nu, rh, ra in zip(nus, re_h, ratio)]


def split_sector(n_k: int, t_k: float) -> tuple[int, float]:
    """nu and delta with n_k t_k = nu + delta, in exact integer arithmetic.

    With the double t_k = num/den, divmod(n_k num, den) gives nu and the
    remainder exactly, and rem/den is delta correctly rounded, so no degree
    washes delta out.  For 0 <= t_k < 1, nu <= n_k - 1.  delta lies in
    [0, 1): a remainder within 2^-54 of 1, which rounds to 1.0, is the
    start (nu + 1, 0.0) of the next sector.  That takes den >= 2^54, so
    t_k < 1/2, and nu + 1 stays below n_k.
    """
    num, den = t_k.as_integer_ratio()
    nu, rem = divmod(n_k * num, den)
    delta = rem / den
    return (nu + 1, 0.0) if delta == 1.0 else (nu, delta)


def obstruction_chain(p: ParamSeq, k: int, t_k: float, c: complex,
                      K_bound: float) -> ObstructionReport:
    """Replay of the inequality chain at ring k for target angle t_k.

    c plays a hypothetical boundary point and K_bound the orbit-distance cap;
    every inequality is evaluated numerically and reported as an independent
    flag, so the report quantifies the squeeze rather than asserting it.
    """
    require_ring_index(p, k)
    if not 0.0 <= t_k < 1.0:
        raise ValueError("t_k must lie in [0, 1)")
    if not K_bound > 0.0:
        raise ValueError("K_bound must be positive")
    d = derive(p)
    r_k = p.r[k - 1]
    s_k = d.s[k - 1]
    n_k = p.n[k - 1]
    logT = d.logT[k - 1]

    nu, delta = split_sector(n_k, t_k)
    z_k = cmath.rect(r_k, TWO_PI * t_k)
    pp = probe_point(k, nu, p)
    a_k, b_k = pp.a, pp.b

    # chord lengths from exact angle differences (the cartesian difference
    # cancels catastrophically when n_k ~ 10^9)
    dist_a = 2.0 * r_k * abs(math.sin((1.0 - 2.0 * delta) * math.pi / (2 * n_k)))
    phi_d = TWO_PI * (pp.theta - delta) / n_k
    dist_b = math.sqrt((s_k - r_k) ** 2
                       + 4.0 * s_k * r_k * math.sin(0.5 * phi_d) ** 2)
    radius_10 = 10.0 * r_k / n_k

    rho_ab = disk_distance(a_k, b_k, DiskSpec(z_k, 2.0 * radius_10))

    log_f_a = math.log(abs(a_k + 1.0))  # f(a_k) = a_k + 1 exactly
    fres = eval_f(b_k, p)
    if isinstance(fres.value, LogComplex):
        log_f_b = fres.value.logmod
    else:
        log_f_b = math.log(abs(fres.value))

    mc = abs(c)
    if r_k * r_k > mc:
        rho_3d: Optional[float] = 0.5 * math.log((r_k * r_k - mc)
                                                 / (r_k + 1.0 + mc))
    else:
        rho_3d = None
    pinch = 0.5 * math.log(r_k - 1.0)

    links = {
        "in_disk_a": dist_a <= radius_10,
        "in_disk_b": dist_b <= radius_10,
        "rho_3b": rho_ab <= TWO_LOG3 + 1e-12,
        "f_a_bounded": abs(a_k + 1.0) <= r_k + 1.0 + 1e-9,
        "bound_3c": logT >= 2.0 * math.log(s_k) + math.log(2.0),
        "f_b_large": log_f_b >= 2.0 * math.log(s_k),
        "bound_3d_defined": rho_3d is not None,
        "pinch_exceeds_K": pinch > K_bound,
    }
    return ObstructionReport(
        k=k, t_k=t_k, nu=nu, delta=delta, z_k=z_k, a_k=a_k, b_k=b_k,
        dist_a=dist_a, dist_b=dist_b, radius_10=radius_10, rho_ab=rho_ab,
        log_f_a=log_f_a, log_f_b=log_f_b, rho_lower_3d=rho_3d,
        pinch_lower=pinch, K_bound=K_bound, link_flags=links,
    )
