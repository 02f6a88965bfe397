"""Acceptance suite: eleven end-to-end checks with frozen reference values
and runtime budgets, runnable from `bakerlab selftest` or pytest.

Reference constants below were computed with an independent 200-bit
evaluation (see tests/_oracles.py for the generators) and frozen here;
tolerances are part of each check, and so is each runtime budget.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import classify_grid
from .hfun import (
    E,
    eval_f,
    eval_g,
    eval_h,
    integrate_exp_neg_h,
    newton_residual,
    probe_point,
    stored_zeros,
    theta,
)
from .hyperbolic import CHECKS, disk_distance, run_check, sample_disk
from .logc import Zero
from .params import ParamSeq, make_toy, validate_1b
from .render import render_escape
from .verify import obstruction_chain, verify_2a, verify_2b, verify_2c

# frozen 200-bit reference values
MAX_ABS_H_DOUBLING_K3 = 578.008819580078125  # max |h| on the k=3 ring
RATIO_DOUBLING_K2_NU0 = 4.0849780043325320  # Re h(b_{2,0}) / T_2
G_AT_ONE = 0.71240485121370046  # g(1) for the doubling profile
REL_2B_TOL = 0.15  # cap for the k=4 steep deviation (measured 0.0352)
THREAD_COUNTS = (1, 4, 8)  # criterion 10's row-band thread counts


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: Optional[float]


def criterion_1() -> tuple[bool, str]:
    """Exact zeros and unit translation at every stored zero."""
    p = make_toy("doubling")
    zs = stored_zeros(p)
    bad = 0
    for _, _, a in zs:
        if not isinstance(eval_h(a, p).value, Zero):
            bad += 1
            continue
        if eval_f(a, p).value != a + 1.0:
            bad += 1
    return bad == 0, f"{len(zs)} zeros checked, {bad} failures"


def criterion_2() -> tuple[bool, str]:
    """Truncation bound dominates the K-1 -> K factor jump.

    The K=3 prefix claims a bound on the whole disk |z| < 2 r_3, and the
    fourth factor (r_4 = 2 r_3, n_4 >= 4) is a continuation it covers, so
    every sampled point must have a finite bound and stay under it.
    """
    p4 = make_toy("doubling")
    p3 = ParamSeq(r=p4.r[:3], n=p4.n[:3])
    rng = np.random.default_rng(42)
    zs = sample_disk(rng, 1000, 2.0 * p3.r[-1])
    fails = 0
    worst = 0.0
    for z in zs:
        h3 = eval_h(z, p3)
        rel = abs(eval_h(z, p4).value - h3.value) / abs(h3.value)
        # the bound is exactly 0 at z = 0, where rel is 0 too (0/0 counts
        # as 0); a positive rel over a zero bound fails below
        if h3.trunc_bound > 0:
            worst = max(worst, rel / h3.trunc_bound)
        if h3.unbounded_tail or rel > h3.trunc_bound:
            fails += 1
    return fails == 0, (f"{len(zs)} points, {fails} over the bound or "
                        f"without one, worst ratio to bound {worst:.3g}")


def criterion_3() -> tuple[bool, str]:
    """Ring growth bound in closed form, with the k=3 maximum pinned to the
    reference."""
    p = make_toy("doubling")
    reports = [verify_2a(p, k) for k in (2, 3, 4)]
    all_pass = all(r.passed for r in reports)
    max_k3 = math.exp(reports[1].max_log_abs_h)
    pinned = abs(max_k3 - MAX_ABS_H_DOUBLING_K3) <= 0.5
    return all_pass and pinned, (
        f"pass at k=2,3,4: {all_pass}; max|h| at k=3 = {max_k3:.4f} "
        f"(ref {MAX_ABS_H_DOUBLING_K3:.4f} +- 0.5)")


def criterion_4() -> tuple[bool, str]:
    """Ring asymptotic deviation small at k=4 and shrinking from k=3."""
    p = make_toy("steep")
    e3 = verify_2b(p, 3, 8192).max_rel_err
    e4 = verify_2b(p, 4, 8192).max_rel_err
    ok = e4 <= REL_2B_TOL and e4 < e3
    return ok, f"max_rel_err k=3: {e3:.6f}, k=4: {e4:.6f} (cap {REL_2B_TOL})"


def criterion_5() -> tuple[bool, str]:
    """Probe-point ratios: above 1 in the steep regime, pinned at the
    doubling desk value."""
    steep = make_toy("steep")
    rows = verify_2c(steep, 4)
    min_ratio = min(r.ratio for r in rows)
    dbl = make_toy("doubling")
    r0 = next(r for r in verify_2c(dbl, 2) if r.nu == 0)
    pinned = abs(r0.ratio - RATIO_DOUBLING_K2_NU0) <= 0.05
    ok = min_ratio >= 1.0 and pinned
    return ok, (f"steep k=4 min ratio {min_ratio:.4f}; doubling k=2 nu=0 "
                f"ratio {r0.ratio:.6f} (ref {RATIO_DOUBLING_K2_NU0:.6f} +- 0.05)")


def criterion_6() -> tuple[bool, str]:
    """Angle solver residuals and probe values above e-1."""
    rng = np.random.default_rng(6)
    worst = 0.0
    bad = 0
    for phi in rng.uniform(-5.0, 5.0, 10000):
        th = theta(float(phi))
        val = cmath.exp(2j * math.pi * phi) * (
            1.0 + E * cmath.exp(2j * math.pi * th))
        worst = max(worst, abs(val.imag))
        if not (abs(val.imag) <= 1e-12 and val.real > 0.0):
            bad += 1
    p = make_toy("doubling")
    min_p = math.inf
    for k in (2, 3, 4):
        for nu in range(p.n[k - 1]):
            min_p = min(min_p, probe_point(k, nu, p).p)
    ok = bad == 0 and min_p >= E - 1.0 - 1e-12
    return ok, (f"worst residual {worst:.3g}, violations {bad}; "
                f"min p {min_p:.12f} vs e-1 = {E - 1.0:.12f}")


def criterion_7() -> tuple[bool, str]:
    """The exact unit value d(0, 1/2) = log 3, then every randomized family
    of `hyperbolic.CHECKS` on 10000 samples each."""
    probs = []
    if abs(disk_distance(0.0, 0.5) - math.log(3.0)) > 1e-12:
        probs.append("unit value")
    rng = np.random.default_rng(7)
    probs += [name for name in CHECKS if run_check(name, rng, 10000)[0]]
    return not probs, "all five families hold" if not probs else \
        "failed: " + ", ".join(probs)


def criterion_8() -> tuple[bool, str]:
    """Newton identity residual, path independence, and the g(1) value."""
    p = make_toy("doubling")
    rng = np.random.default_rng(8)
    worst_res = 0.0
    for z in sample_disk(rng, 100):
        worst_res = max(worst_res, newton_residual(z, p, 1e-5, 1e-10))
    worst_path = 0.0
    for z in sample_disk(rng, 20):
        direct = eval_g(z, p, 1e-10)
        legs = cmath.exp(-(integrate_exp_neg_h(0.0, z.real, p, 1e-10)
                           + integrate_exp_neg_h(z.real, z, p, 1e-10)))
        worst_path = max(worst_path, abs(direct - legs))
    g1 = eval_g(1.0, p, 1e-10)
    ok = (worst_res <= 1e-6 and worst_path <= 2e-10
          and abs(g1 - G_AT_ONE) <= 1e-3)
    return ok, (f"max residual {worst_res:.3g}, max path gap "
                f"{worst_path:.3g}, g(1) = {g1.real:.8f} "
                f"(ref {G_AT_ONE:.8f} +- 1e-3)")


def criterion_9() -> tuple[bool, str]:
    """Obstruction chain at the genuinely valid two-ring profile, replayed
    at ring 2 over 2000 seeded angles.

    Every desk-scale link must hold at every angle, and the scale, pinch
    and 3d values must match.  f_b_large is reported as a share, not
    gated: with T_2 = 2, e^{Re h(b)} can stay below s_2^2 ~ 16.
    """
    p = make_toy("paper2")
    ts = np.random.default_rng(9).uniform(0.0, 1.0, 2000)
    reps = [obstruction_chain(p, 2, float(t), c=5.0 + 0j, K_bound=5.0)
            for t in ts]
    rep = reps[0]
    checks = {f"{name} at every angle": all(r.link_flags[name] for r in reps)
              for name in ("in_disk_a", "in_disk_b", "rho_3b", "f_a_bounded",
                           "bound_3d_defined")}
    checks.update({
        "scale 1.41e-8": rep.radius_10 < 1.5e-8,
        "pinch = half log 3": abs(rep.pinch_lower
                                  - 0.5 * math.log(3.0)) <= 1e-12,
        "3d = half log 1.1": rep.rho_lower_3d is not None
        and abs(rep.rho_lower_3d - 0.5 * math.log(1.1)) <= 1e-12,
    })
    share = sum(r.link_flags["f_b_large"] for r in reps) / len(reps)
    bad = [k for k, v in checks.items() if not v]
    return not bad, (f"{len(reps)} angles; f_b_large holds at {share:.3f} "
                     "of them; " + ("desk-scale links hold" if not bad
                                    else "failed: " + ", ".join(bad)))


def criterion_10() -> tuple[bool, str]:
    """Grid classification and rendering byte-identical across thread counts."""
    p = make_toy("doubling")
    outputs = []
    for threads in THREAD_COUNTS:
        g = classify_grid((-8.0 - 8.0j, 8.0 + 8.0j), 256, 256, p,
                          max_steps=40, escape_radius=64.0, threads=threads)
        img = render_escape(g, "ember")
        outputs.append(g.status.tobytes() + g.step.tobytes() + img)
    ok = all(o == outputs[0] for o in outputs[1:])
    return ok, (f"threads {list(THREAD_COUNTS)}: "
                + ("identical" if ok else "DIFFER"))


def criterion_11() -> tuple[bool, str]:
    """Validation gate accepts the true two-ring profile, rejects the toys."""
    acc = validate_1b(make_toy("paper2"))
    rej1 = validate_1b(make_toy("doubling"))
    rej2 = validate_1b(make_toy("steep"))
    diagnosed = all(
        c.ok or c.unrepresentable or math.isfinite(c.lhs)
        for rep in (acc, rej1, rej2) for c in rep.clauses)
    ok = acc.overall and not rej1.overall and not rej2.overall and diagnosed
    return ok, (f"paper2 {acc.overall}, doubling {rej1.overall}, "
                f"steep {rej2.overall}; per-clause diagnostics present")


_CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]], Optional[float]]] = [
    ("zero/translation mechanism", criterion_1, 1.0),
    ("truncation bound", criterion_2, 5.0),
    ("ring growth bound", criterion_3, 10.0),
    ("ring asymptotic model", criterion_4, 30.0),
    ("probe-point estimate", criterion_5, 30.0),
    ("angle solver and probe values", criterion_6, 5.0),
    ("hyperbolic metric suite", criterion_7, 10.0),
    ("Newton identity", criterion_8, 30.0),
    ("obstruction chain", criterion_9, 1.0),
    ("thread determinism", criterion_10, 60.0),
    ("validation gate", criterion_11, None),
]


def run_criterion(index: int) -> CriterionResult:
    """Run a single criterion (1-based index) under its runtime budget."""
    if not 1 <= index <= len(_CRITERIA):
        raise ValueError(f"criterion index must be in 1..{len(_CRITERIA)}")
    name, fn, limit = _CRITERIA[index - 1]
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        passed = False
        detail += f"; OVER TIME BUDGET {limit:.0f}s"
    return CriterionResult(index, name, passed, detail, elapsed, limit)


def run_all() -> list[CriterionResult]:
    """Run the full suite."""
    return [run_criterion(i) for i in range(1, len(_CRITERIA) + 1)]
