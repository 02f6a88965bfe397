"""Command line front end.

Subcommands emit JSON Lines on stdout (one object per result row) and
diagnostics on stderr.  Exit status: 0 on success, 1 when a requested
check fails, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Optional

import numpy as np

from . import __version__
from .dynamics import (check_axis_bounds, classify_grid, iterate, read_grid,
                       write_grid)
from .hfun import eval_f, eval_g, eval_h
from .hyperbolic import CHECKS, run_check
from .logc import LogComplex, Zero
from .params import (PROFILES, ParamSeq, load_params, make_toy,
                     params_to_json, validate_1b)
from .render import render_escape, render_phase
from .verify import (asymptotic_deviation, obstruction_chain, ring_field,
                     verify_2a, verify_2b, verify_2c)


def _floats(text: str, sizes: tuple[int, ...], form: str) -> list[float]:
    """Parse comma-separated finite floats, as many as one of ``sizes``."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) not in sizes:
        raise argparse.ArgumentTypeError(f"expected {form} got {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"{form} must be finite, got {text!r}")
    return vals


def _complex_arg(text: str) -> complex:
    """Parse 'RE,IM' (or a bare real) into a complex with finite parts."""
    return complex(*_floats(text, (1, 2), "RE,IM"))


def _rect_arg(text: str) -> tuple[complex, complex]:
    """Parse 'X0,Y0,X1,Y1' into rectangle corners."""
    x0, y0, x1, y1 = _floats(text, (4,), "X0,Y0,X1,Y1")
    if not (x0 < x1 and y0 < y1):
        raise argparse.ArgumentTypeError("rectangle corners must increase")
    try:
        check_axis_bounds(x0, x1)
        check_axis_bounds(y0, y1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return complex(x0, y0), complex(x1, y1)


def _num(x: Any) -> Any:
    """Floats that JSON cannot carry become strings."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _encode(obj: Any) -> Any:
    if isinstance(obj, Zero):
        return {"zero": True}
    if isinstance(obj, LogComplex):
        return {"logmod": _num(obj.logmod), "arg": _num(obj.arg)}
    if isinstance(obj, complex):
        return {"re": _num(obj.real), "im": _num(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return _num(obj)


def _emit(obj: Any) -> None:
    print(json.dumps(_encode(obj), sort_keys=True), flush=True)


def _add_params_source(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--profile", choices=tuple(PROFILES),
                     help="built-in parameter profile")
    grp.add_argument("--params", metavar="FILE",
                     help="JSON file with keys r and n")


def _add_raster(sub: argparse.ArgumentParser) -> None:
    # the parameters and the pixel raster of `grid` and `render phase`
    _add_params_source(sub)
    sub.add_argument("--rect", type=_rect_arg, required=True,
                     metavar="X0,Y0,X1,Y1")
    sub.add_argument("--nx", type=int, required=True)
    sub.add_argument("--ny", type=int, required=True)
    sub.add_argument("--out", required=True, metavar="FILE")
    sub.add_argument("--threads", type=int, default=1)


def _resolve_params(args: argparse.Namespace) -> ParamSeq:
    if args.profile is not None:
        return make_toy(args.profile)
    return load_params(args.params)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call: `main` parses every argv
    with it, so an in-process caller does not rebuild it per command."""
    ap = argparse.ArgumentParser(
        prog="bakerlab",
        description="ring-product entire maps: evaluation, verification, "
        "dynamics, rendering")
    ap.add_argument("--version", action="version", version=__version__)
    sp = ap.add_subparsers(dest="command", required=True)

    q = sp.add_parser("params", help="show or validate a parameter sequence")
    _add_params_source(q)
    q.add_argument("--validate", action="store_true",
                   help="run the admissibility checks (exit 1 on reject)")

    q = sp.add_parser("eval", help="evaluate the product or the map")
    _add_params_source(q)
    q.add_argument("--z", type=_complex_arg, required=True, metavar="RE,IM")
    q.add_argument("--what", choices=("h", "f", "g"), default="h")
    q.add_argument("--tol", type=float, default=1e-10,
                   help="quadrature tolerance for --what g")

    q = sp.add_parser("hyp", help="randomized hyperbolic-geometry checks")
    q.add_argument("--check", required=True, choices=CHECKS)
    q.add_argument("--samples", type=int, default=1000)
    q.add_argument("--seed", type=int, required=True,
                   help="RNG seed (required so runs are reproducible)")

    q = sp.add_parser("verify", help="ring growth / asymptotic / probe checks")
    _add_params_source(q)
    q.add_argument("--check", required=True, choices=("2a", "2b", "2c"))
    q.add_argument("--k", type=int, required=True, metavar="RING")
    q.add_argument("--samples", type=int, default=4096,
                   help="2b samples, 2c probes; 2a is exact, only --csv rows")
    q.add_argument("--csv", metavar="FILE",
                   help="also write per-sample rows as CSV")

    q = sp.add_parser("obstruct", help="contraction-obstruction chain report")
    _add_params_source(q)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--t", type=float, required=True,
                   help="angle parameter in [0,1)")
    q.add_argument("--c", type=_complex_arg, default=complex(5.0),
                   metavar="RE,IM", help="omitted-value witness")
    q.add_argument("--K-bound", type=float, default=5.0, dest="K_bound",
                   help="contraction bound to compare the pinch against")

    q = sp.add_parser("orbit", help="iterate the map from a starting point")
    _add_params_source(q)
    q.add_argument("--z", type=_complex_arg, required=True, metavar="RE,IM")
    q.add_argument("--steps", type=int, default=64)
    q.add_argument("--escape-radius", type=float, default=None)

    q = sp.add_parser("grid", help="classify a pixel grid and write it")
    _add_raster(q)
    q.add_argument("--steps", type=int, default=64)
    q.add_argument("--escape-radius", type=float, default=None)

    q = sp.add_parser("render", help="write a PPM image")
    rsp = q.add_subparsers(dest="mode", required=True)

    re_ = rsp.add_parser("escape", help="palette image from a stored grid")
    re_.add_argument("--grid", required=True, metavar="FILE")
    re_.add_argument("--out", required=True, metavar="FILE")
    re_.add_argument("--palette", choices=("ember", "gray"), default="ember")

    _add_raster(rsp.add_parser("phase", help="phase portrait of the product"))

    q = sp.add_parser("selftest", help="run the acceptance suite")
    q.add_argument("--only", type=int, default=None, metavar="N",
                   help="run a single criterion (1..11)")
    return ap


def _cmd_params(args) -> int:
    p = _resolve_params(args)
    if not args.validate:
        _emit({"kind": "params", "r": list(p.r), "n": list(p.n), "K": p.K,
               "canon": params_to_json(p)})
        return 0
    rep = validate_1b(p)
    for c in rep.clauses:
        _emit({"kind": "clause", **asdict(c)})
    _emit({"kind": "verdict", "ok": rep.overall})
    return 0 if rep.overall else 1


def _cmd_eval(args) -> int:
    p = _resolve_params(args)
    z = args.z
    if args.what == "g":
        val = eval_g(z, p, args.tol)
        _emit({"kind": "eval", "what": "g", "z": z, "value": val})
        return 0
    res = eval_h(z, p) if args.what == "h" else eval_f(z, p)
    _emit({"kind": "eval", "what": args.what, "z": z, "value": res.value,
           "regime": res.regime, "trunc_bound": res.trunc_bound,
           "unbounded_tail": res.unbounded_tail})
    return 0


def _cmd_hyp(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures, worst = run_check(args.check, rng, args.samples)
    _emit({"kind": "hyp", "check": args.check, "samples": args.samples,
           "seed": args.seed, "failures": failures, "worst_gap": worst})
    return 0 if failures == 0 else 1


def _write_csv(path: str, header: list[str], rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cmd_verify(args) -> int:
    p = _resolve_params(args)
    if args.check == "2a":
        rep = verify_2a(p, args.k, args.samples)
        _emit({"kind": "verify", "check": "2a", **asdict(rep)})
        if args.csv:
            ang, lm, ag = ring_field(p.r[args.k - 1], args.samples, p)
            _write_csv(args.csv, ["angle", "log_abs_h", "arg_h"],
                       zip(ang, lm, ag))
        return 0 if rep.passed else 1
    if args.check == "2b":
        rep = verify_2b(p, args.k, args.samples)
        _emit({"kind": "verify", "check": "2b", **asdict(rep)})
        if args.csv:
            t, rel = asymptotic_deviation(p, args.k, args.samples)
            _write_csv(args.csv, ["t", "rel_err"], zip(t, rel))
        return 0
    rows = verify_2c(p, args.k, args.samples)
    min_ratio = min(r.ratio for r in rows)
    _emit({"kind": "verify", "check": "2c", "k": args.k,
           "probes": len(rows), "min_ratio": min_ratio})
    if args.csv:
        _write_csv(args.csv, ["nu", "re_h", "logT", "ratio"], rows)
    return 0


def _cmd_obstruct(args) -> int:
    p = _resolve_params(args)
    rep = obstruction_chain(p, args.k, args.t, args.c, args.K_bound)
    _emit({"kind": "obstruct", **asdict(rep)})
    return 0


def _cmd_orbit(args) -> int:
    p = _resolve_params(args)
    rec = iterate(args.z, p, args.steps, args.escape_radius)
    for i, z in enumerate(rec.points):
        _emit({"kind": "orbit-point", "index": i, "z": z})
    _emit({"kind": "orbit", "status": rec.status, "step": rec.step,
           "nzt_step": rec.nzt_step, "tail": rec.tail,
           "max_steps": rec.max_steps})
    return 0


def _cmd_grid(args) -> int:
    p = _resolve_params(args)
    g = classify_grid(args.rect, args.nx, args.ny, p, args.steps,
                      args.escape_radius, threads=args.threads)
    write_grid(args.out, g)
    _emit({"kind": "grid", "out": args.out, "nx": g.nx, "ny": g.ny,
           "counts": g.counts()})
    return 0


def _cmd_render(args) -> int:
    if args.mode == "escape":
        g = read_grid(args.grid)
        ppm = render_escape(g, args.palette)
    else:
        p = _resolve_params(args)
        ppm = render_phase(args.rect, args.nx, args.ny, p,
                           threads=args.threads)
    with open(args.out, "wb") as fh:
        fh.write(ppm)
    _emit({"kind": "render", "mode": args.mode, "out": args.out,
           "bytes": len(ppm)})
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance

    if args.only is not None:
        results = [acceptance.run_criterion(args.only)]
    else:
        results = acceptance.run_all()
    for r in results:
        _emit({"kind": "criterion", **r._asdict(),
               "seconds": round(r.seconds, 3)})
    ok = all(r.passed for r in results)
    _emit({"kind": "selftest", "passed": sum(r.passed for r in results),
           "total": len(results), "ok": ok})
    return 0 if ok else 1


_DISPATCH = {
    "params": _cmd_params,
    "eval": _cmd_eval,
    "hyp": _cmd_hyp,
    "verify": _cmd_verify,
    "obstruct": _cmd_obstruct,
    "orbit": _cmd_orbit,
    "grid": _cmd_grid,
    "render": _cmd_render,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # exit 2 also for results that overflow (ArithmeticError, which covers
    # hfun.NonConvergence) or do not fit in memory
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
