"""Statistics, per-layer metrics and the compare mode of the benchmark."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

from tracing import Spans, self_times

# For every per-layer metric: the end-to-end metric and workload it should
# move.  The names and units themselves are listed in BENCHMARK.json.
LAYER_TARGETS = {
    "kernels.h_field.calls": "items_per_s on phase_portrait",
    "kernels.h_field.points": "items_per_s on phase_portrait",
    "kernels.h_field.self_s": "items_per_s on phase_portrait",
    "kernels.h_field.mpts_per_s": "items_per_s on phase_portrait",
    "kernels.h_field.us_per_call": "items_per_s on verify_suite",
    "kernels.prepared.calls": "items_per_s on verify_suite",
    "kernels.prepared.self_s": "items_per_s on verify_suite",
    "kernels.classify_field.calls": "job_p50_s, items_per_s on escape_grid",
    "kernels.classify_field.points": "job_p50_s, items_per_s on escape_grid",
    "kernels.classify_field.self_s": "job_p50_s, items_per_s on escape_grid",
    "kernels.classify_field.point_steps": "items_per_s on escape_grid",
    "kernels.classify_field.point_steps_per_s": "items_per_s on escape_grid",
    "kernels.classify_field.bounded_share": "items_per_s on escape_grid",
    "dynamics.classify_grid.self_s": "job_tail_s, wall_s on escape_grid",
    "dynamics.band_imbalance": "job_tail_s, wall_s on escape_grid",
    "dynamics.write_grid.bytes": "wall_s on escape_grid",
    "dynamics.write_grid.self_s": "wall_s on escape_grid",
    "dynamics.read_grid.bytes": "wall_s on escape_grid",
    "dynamics.read_grid.self_s": "wall_s on escape_grid",
    "dynamics.iterate.calls": "items_per_s on verify_suite",
    "dynamics.iterate.steps": "items_per_s on verify_suite",
    "dynamics.iterate.self_s": "items_per_s on verify_suite",
    "render.render_phase.self_s": "items_per_s on phase_portrait",
    "render.phase_shade.pixels": "items_per_s on phase_portrait",
    "render.phase_shade.self_s": "items_per_s on phase_portrait",
    "render.ppm_bytes.bytes": "items_per_s on phase_portrait",
    "render.ppm_bytes.self_s": "items_per_s on phase_portrait",
    "render.render_escape.self_s": "wall_s on escape_grid",
    "hfun.eval_h.calls": "items_per_s on verify_suite",
    "hfun.eval_h.self_s": "items_per_s on verify_suite",
    "hfun.eval_h.us_per_call": "items_per_s on verify_suite",
    "hfun.eval_f.calls": "items_per_s on verify_suite",
    "hfun.eval_f.self_s": "items_per_s on verify_suite",
    "hfun.integrate_exp_neg_h.calls": "items_per_s on verify_suite",
    "hfun.integrate_exp_neg_h.self_s": "items_per_s on verify_suite",
    "hfun.quadrature.panels": "items_per_s on verify_suite",
    "hfun.theta.calls": "items_per_s on verify_suite",
    "hfun.theta.self_s": "items_per_s on verify_suite",
    "logc.lc_pow_int.calls": "items_per_s on verify_suite",
    "logc.lc_pow_int.self_s": "items_per_s on verify_suite",
    "logc.reduce_angle.calls": "items_per_s on verify_suite",
    "logc.reduce_angle.fraction_calls": "items_per_s on verify_suite",
    "logc.reduce_angle.self_s": "items_per_s on verify_suite",
    "verify.verify_2a.self_s": "items_per_s on verify_suite",
    "verify.verify_2b.self_s": "items_per_s on verify_suite",
    "verify.verify_2c.self_s": "items_per_s on verify_suite",
    "verify.obstruction_chain.self_s": "items_per_s on verify_suite",
    "hyperbolic.disk_distance.calls": "items_per_s on verify_suite",
    "hyperbolic.disk_distance.self_s": "items_per_s on verify_suite",
    "cli.main.calls": "job_p50_s on escape_grid and phase_portrait",
    "cli.main.self_s": "job_p50_s on escape_grid and phase_portrait",
    "trace.overhead_s": "none: traced minus untraced wall_s",
}


def tail(values) -> tuple[float, float, int]:
    """The time at the highest percentile with at least ten samples beyond
    it: the 11th-largest value.  Returns (value, percentile, sample count).

    With ten samples or fewer no percentile qualifies; the smallest value
    is returned, the one with the most samples beyond it.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by statistics.quantiles."""
    xs = list(values)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: Spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase, per round.

    Every wrapped function gives ``calls`` and ``self_s`` plus its counters;
    the derived rates and shares follow.  Self times are summed over
    threads, so band spans count once per band.
    """
    self_ns, _ = self_times(spans.start, spans.end, spans.parent)
    dur = spans.end - spans.start
    k = len(spans.names)
    calls = np.bincount(spans.name, minlength=k)
    self_s = np.bincount(spans.name, weights=self_ns, minlength=k) / 1e9
    incl_s = np.bincount(spans.name, weights=dur, minlength=k) / 1e9
    out: dict[str, float] = {}
    for i, name in enumerate(spans.names):
        out[f"{name}.calls"] = calls[i] / rounds
        out[f"{name}.self_s"] = self_s[i] / rounds
        for key, value in spans.counts.get(name, {}).items():
            out[f"{name}.{key}"] = value / rounds
    idx = {name: i for i, name in enumerate(spans.names)}

    def count(name, key):
        return spans.counts.get(name, {}).get(key, 0)

    h, c, e = idx["kernels.h_field"], idx["kernels.classify_field"], \
        idx["hfun.eval_h"]
    out["kernels.h_field.mpts_per_s"] = _ratio(
        count("kernels.h_field", "points") / 1e6, self_s[h])
    out["kernels.h_field.us_per_call"] = _ratio(incl_s[h] * 1e6, calls[h])
    out["hfun.eval_h.us_per_call"] = _ratio(incl_s[e] * 1e6, calls[e])
    out["kernels.classify_field.point_steps_per_s"] = _ratio(
        count("kernels.classify_field", "point_steps"), self_s[c])
    out["kernels.classify_field.bounded_share"] = _ratio(
        count("kernels.classify_field", "bounded"),
        count("kernels.classify_field", "points"))
    out.pop("kernels.classify_field.bounded", None)
    for name, key in (("kernels.h_field", "points"),
                      ("kernels.classify_field", "points"),
                      ("kernels.classify_field", "point_steps"),
                      ("dynamics.write_grid", "bytes"),
                      ("dynamics.read_grid", "bytes"),
                      ("dynamics.iterate", "steps"),
                      ("render.phase_shade", "pixels"),
                      ("render.ppm_bytes", "bytes"),
                      ("logc.reduce_angle", "fraction_calls")):
        out.setdefault(f"{name}.{key}", 0.0)

    parent_name = np.where(spans.parent >= 0,
                           spans.name[np.maximum(spans.parent, 0)], -1)
    # quadrature panels: h_field calls made by integrate_exp_neg_h
    out["hfun.quadrature.panels"] = np.count_nonzero(
        (spans.name == h)
        & (parent_name == idx["hfun.integrate_exp_neg_h"])) / rounds
    out["dynamics.band_imbalance"] = band_imbalance(
        spans, dur, c, idx["dynamics.classify_grid"], parent_name)
    return out


def band_imbalance(spans: Spans, dur: np.ndarray, band: int, grid: int,
                   parent_name: np.ndarray) -> float:
    """Longest band time over mean band time, summed over grid calls.

    Returns 0 when no grid was classified.
    """
    rows = np.flatnonzero((spans.name == band) & (parent_name == grid))
    if not rows.size:
        return 0.0
    parents, inverse = np.unique(spans.parent[rows], return_inverse=True)
    longest = np.zeros(parents.size)
    np.maximum.at(longest, inverse, dur[rows])
    total = np.bincount(inverse, weights=dur[rows])
    mean = total / np.bincount(inverse)
    return float(longest.sum() / mean.sum())


def accounting(spans: Spans, wall_ns: int) -> dict[str, float]:
    """Split the traced wall time: self times, band overlap, unattributed.

    sum(self) - overlap is the time covered by root spans on the client
    thread; the rest of the traced wall is benchmark time between calls.
    """
    self_ns, overlap_ns = self_times(spans.start, spans.end, spans.parent)
    roots = spans.parent < 0
    covered = int((spans.end[roots] - spans.start[roots]).sum())
    total_self = int(self_ns.sum())
    overlap = int(overlap_ns.sum())
    return {"self_s": total_self / 1e9, "band_overlap_s": overlap / 1e9,
            "unattributed_s": (wall_ns - covered) / 1e9,
            "wall_s": wall_ns / 1e9,
            "residual_ns": total_self - overlap - covered}


def layer_table(values: dict[str, float], units: dict[str, str]) -> str:
    rows = [f"{'per-layer metric (per round)':<44} {'value':>14} "
            f"{'unit':<7} moves"]
    for name in sorted(values):
        rows.append(f"{name:<44} {values[name]:>14.6g} "
                    f"{units.get(name, ''):<7} {LAYER_TARGETS.get(name, '')}")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def load_results(directory: Path) -> dict[str, dict[str, list[float]]]:
    """Untraced result files of a directory: workload -> metric -> values."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace"):
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """better, same, worse or unresolved for one metric on one workload.

    Unresolved when either side's quartile spread exceeds the bound, unless
    every new run beats every base run.  Better when the medians differ by
    more than the base runs' own spread; worse when the change exceeds the
    bound.
    """
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / ma
    beats_all = (max(new) < min(base) if better == "lower"
                 else min(new) > max(base))
    spread_a, spread_b = (q3a - q1a) / ma, (q3b - q1b) / mb
    if beats_all and worse_by < 0:
        return "better"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread_a:
        return "better"
    return "same"


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def compare(dir_a: Path, dir_b: Path, bench: dict) -> str:
    a, b = load_results(dir_a), load_results(dir_b)
    rows = [f"{'workload':<16} {'metric':<14} {'A q1/median/q3':>32} "
            f"{'B q1/median/q3':>32} {'change':>8}  verdict"]
    for wl in sorted(set(a) | set(b)):
        for m in bench["end_to_end"]:
            va, vb = a.get(wl, {}).get(m["name"]), b.get(wl, {}).get(m["name"])
            if not va or not vb:
                rows.append(f"{wl:<16} {m['name']:<14} missing on one side")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1]
            rows.append(
                f"{wl:<16} {m['name']:<14} {_fmt(qa):>32} {_fmt(qb):>32} "
                f"{change:>+8.1%}  "
                f"{verdict(va, vb, m['better'], m['bound'])}")
    return "\n".join(rows)
