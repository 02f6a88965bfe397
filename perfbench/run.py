"""The bakerlab benchmark: one seeded workload in one process.

    python3 perfbench/run.py --workload escape_grid --seed 1 --seconds 30 \\
        --trace 0
    python3 perfbench/run.py --compare DIR_A DIR_B

A run is a closed loop with a single client: it repeats the workload's
round (its seeded job list), one job after another, until ``--seconds``
have passed, then finishes the round.  Grid jobs use at most one band
thread per CPU.  The run builds on the package in ``src/`` of the checkout
it sits in and fails when that package is missing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (see ``tracing.py``) and prints the per-layer
metrics; the difference of the two kinds' mean round times is
``trace.overhead_s``.  Both print a report, write it to
``perfbench/out/results/`` and end with one JSON result line.
Metric names, units and bounds are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_package():
    """Import bakerlab from ``src/`` of this checkout, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bakerlab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bakerlab from {src}: {exc}")
    where = Path(bakerlab.__file__).resolve().parent.parent
    if where != src.resolve():
        raise SystemExit(f"error: bakerlab imported from {where}, not {src}")
    return bakerlab


def environment() -> dict:
    """The machine and the backend that ran; numba is only probed."""
    import numpy as np
    from bakerlab import _kernels

    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_imports": numba_imports,
            "backend": _kernels.active_backend()}


@dataclass
class JobRecord:
    name: str
    round: int
    seconds: float
    items: int
    error: str = ""


@dataclass
class Phase:
    records: list
    round_wall: list
    round_cpu: list


def set_up(workload: str, seed: int):
    """Imports are done by now; warm up and generate the inputs."""
    import workloads
    from bakerlab import _kernels

    workdir = OUT / "work" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, workdir,
                                       workloads.band_threads())
    _kernels.warmup()
    wl.warm_up()
    return wl


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import, warm up and generate
    inputs, then exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    return times


def timed_phase(wl, seconds: float, tracer=None) -> Phase:
    """Whole rounds until ``seconds`` have passed."""
    records, round_wall, round_cpu = [], [], []
    clock = time.perf_counter
    start = clock()
    while True:
        w0, c0 = clock(), time.process_time()
        for job in wl.jobs:
            if tracer is not None:
                tracer.job += 1
            error = ""
            t0 = clock()
            try:
                result = wl.execute(job)
            except Exception as exc:  # a failed job must not stop the run
                error = "".join(traceback.format_exception_only(exc)).strip()
            t = clock() - t0
            if not error:
                try:
                    wl.check(job, result)
                except Exception as exc:
                    error = "".join(
                        traceback.format_exception_only(exc)).strip()
            records.append(JobRecord(job.name, len(round_wall), t, job.items,
                                     error))
        round_wall.append(clock() - w0)
        round_cpu.append(time.process_time() - c0)
        if clock() - start >= seconds:
            return Phase(records, round_wall, round_cpu)


def traced_phases(wl, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced rounds until ``seconds`` have passed,
    so that a drift in machine speed falls on both halves alike."""
    plain, traced = Phase([], [], []), Phase([], [], [])
    start = time.perf_counter()
    while True:
        for phase, t in ((plain, None), (traced, tracer)):
            if t is not None:
                t.install()
            try:
                one = timed_phase(wl, 0.0, t)
            finally:
                if t is not None:
                    t.remove()
            for r in one.records:
                r.round = len(phase.round_wall)
            phase.records += one.records
            phase.round_wall += one.round_wall
            phase.round_cpu += one.round_cpu
        if time.perf_counter() - start >= seconds:
            return plain, traced


def end_to_end(phase: Phase, setup: list[float]) -> tuple[dict, dict]:
    import report

    times = [r.seconds for r in phase.records]
    tail, pct, n = report.tail(times)
    rounds = len(phase.round_wall)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(phase.round_wall) / rounds,
        "items_per_s": (sum(r.items for r in phase.records)
                        / sum(phase.round_wall)),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "cpu_s": sum(phase.round_cpu) / rounds,
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0),
    }
    by_name: dict[str, list[float]] = {}
    for r in phase.records:
        by_name.setdefault(r.name, []).append(r.seconds)
    detail = {"jobs": n, "rounds": rounds,
              "tail_percentile": pct, "setup_samples": setup,
              "job_median_s": {k: statistics.median(v)
                               for k, v in by_name.items()}}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="DIR",
                    help="compare two directories of result files")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    if args.compare:
        import report

        print(report.compare(Path(args.compare[0]), Path(args.compare[1]),
                             bench))
        return 0
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    import_package()
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0
    import report
    import tracing

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    wl = set_up(args.workload, args.seed)
    env = environment()
    print(f"bakerlab benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"round: {len(wl.jobs)} jobs ("
          + ", ".join(j.name for j in wl.jobs) + ")")

    units = {m["name"]: m["unit"] for m in
             bench["end_to_end"] + bench["per_layer"]}
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = traced_phases(wl, args.seconds, tracer)
        spans = tracer.spans()
        values = report.layer_values(spans, len(traced.round_wall))
        values["trace.overhead_s"] = (
            sum(traced.round_wall) / len(traced.round_wall)
            - sum(plain.round_wall) / len(plain.round_wall))
        wall_ns = round(sum(traced.round_wall) * 1e9)
        acct = report.accounting(spans, wall_ns)
        OUT.mkdir(exist_ok=True)
        spans.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        print(report.layer_table(values, units))
        print(f"traced wall {acct['wall_s']:.4f} s = self times "
              f"{acct['self_s']:.4f} s - band overlap "
              f"{acct['band_overlap_s']:.4f} s + unattributed "
              f"{acct['unattributed_s']:.4f} s (residual "
              f"{acct['residual_ns']} ns); {len(spans)} spans over "
              f"{len(traced.round_wall)} rounds")
        records = plain.records + traced.records
        missing = [m["name"] for m in bench["per_layer"]
                   if m["name"] not in values]
        if missing:
            raise SystemExit(f"error: per-layer metrics not measured: "
                             f"{missing}")
        metrics = {m["name"]: values[m["name"]] for m in bench["per_layer"]}
        result.update(accounting=acct, per_layer_all=values)
    else:
        phase = timed_phase(wl, args.seconds)
        metrics, detail = end_to_end(phase, setup)
        records = phase.records
        result["detail"] = detail
        for name, t in detail["job_median_s"].items():
            print(f"  job {name:<28} median {t:.6f} s")
        print(f"{detail['jobs']} jobs in {detail['rounds']} rounds; tail is "
              f"p{detail['tail_percentile']:.1f}")

    post = wl.post_checks()
    failures = [f"{r.name} (round {r.round}): {r.error}"
                for r in records if r.error]
    failures += [f"post-check {c.name}: {c.detail}" for c in post if not c.ok]
    attempted = len(records) + len(post)
    for line in failures[:20]:
        print("FAILED " + line)
    print(f"checks: {attempted - len(failures)}/{attempted} passed "
          f"(fail_ratio {len(failures) / attempted:.4g}; "
          f"{len(post)} after the timed phase)")
    if not args.trace:
        for name, value in metrics.items():
            print(f"{name:<14} {value:>14.6g} {units[name]}")
    out = {"correct": not failures, "attempted": attempted,
           "failed": len(failures),
           "metrics": {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}}
    result.update(out, failures=failures)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
