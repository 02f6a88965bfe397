"""The three seeded workloads of the bakerlab benchmark.

A workload turns a seed into one *round*: a fixed list of jobs that the
benchmark repeats, one job after another, until its time is up.  Every round
of a run is the same list, so every execution of a job must give the same
bytes; the seed only changes what is in the list.

* ``escape_grid``: ``bakerlab grid`` then ``bakerlab render escape`` on a
  256x256 grid, through ``cli.main`` in-process.
* ``phase_portrait``: ``bakerlab render phase`` at 512x512, through
  ``cli.main`` in-process.
* ``verify_suite``: scalar checks called directly on the library, one
  thread, one check per job.

Each job returns nothing on success and raises `CheckFailed` (or any other
exception) when the program or its output is wrong.  Checks that are too
slow for every execution run once per distinct job after the timed phase
(`Workload.post_checks`).
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from bakerlab import (
    _kernels,
    acceptance,
    cli,
    dynamics,
    hfun,
    hyperbolic,
    params,
    verify,
)
from bakerlab.logc import Zero

DEFAULT_SEED = 0
ESCAPE_SIDE = 256
PHASE_SIDE = 512
ESCAPE_RADIUS = 64.0
PARITY_SAMPLES = 12  # pixels per distinct escape job re-run through iterate
# the factor step of the kernels switches formula at |w| = e^{+-50}
REGIME_EDGE = 50.0
DIGEST_FILE = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    """An output of the program did not pass the benchmark's check."""


@dataclass
class Job:
    """One unit of client work.  ``spec`` is what the job runs on."""

    name: str
    items: int
    spec: dict = field(default_factory=dict)


@dataclass
class PostCheck:
    name: str
    ok: bool
    detail: str = ""


def band_threads() -> int:
    """Row-band threads per job: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run_cli(argv: list[str]) -> dict:
    """Run one ``bakerlab`` command in-process; return its last JSON line.

    ``cli.main`` is looked up at call time so that the traced run sees its
    wrapper.  A non-zero exit code or a usage error raises `CheckFailed`.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    if code != 0:
        raise CheckFailed(f"bakerlab {argv[0]} exited {code}: "
                          f"{err.getvalue().strip()}")
    lines = out.getvalue().splitlines()
    if not lines:
        raise CheckFailed(f"bakerlab {argv[0]} printed nothing")
    return json.loads(lines[-1])


def rect_arg(x0: float, y0: float, x1: float, y1: float) -> str:
    # repr round-trips a double exactly through the CLI's float()
    return "--rect=" + ",".join(repr(float(v)) for v in (x0, y0, x1, y1))


def orbit_status(rec: dynamics.OrbitRecord) -> tuple[int, int]:
    """(status, step) that the grid kernels give for the orbit ``rec``.

    Same mapping as the scalar/kernel parity test of the dynamics module.
    """
    if rec.status == "escaped":
        after = rec.nzt_step is not None and rec.step > rec.nzt_step
        return (dynamics.STATUS_ESCAPED_AFTER_NEAR_ZERO if after
                else dynamics.STATUS_ESCAPED), rec.step
    if rec.status == "near-zero-translation":
        return dynamics.STATUS_NEAR_ZERO, rec.nzt_step
    return dynamics.STATUS_BOUNDED, 0


def regime_shares(profile: str, rect: tuple[float, float, float, float],
                  samples: int = 64) -> dict[str, float]:
    """Share of (point, factor) pairs in each magnitude regime of the
    factor step over ``rect``: small |w| <= e^-50, big |w| >= e^50, else mid.
    """
    p = params.make_toy(profile)
    x0, y0, x1, y1 = rect
    gy, gx = np.meshgrid(np.linspace(y0, y1, samples),
                         np.linspace(x0, x1, samples), indexing="ij")
    lmz = np.log(np.hypot(gx, gy)).ravel()
    wlm = np.concatenate([n * (lmz - math.log(r)) for r, n in zip(p.r, p.n)])
    small = float(np.mean(wlm <= -REGIME_EDGE))
    big = float(np.mean(wlm >= REGIME_EDGE))
    return {"small": small, "mid": 1.0 - small - big, "big": big}


def load_recorded_digests(workload: str) -> dict:
    if not DIGEST_FILE.exists():
        return {}
    return json.loads(DIGEST_FILE.read_text()).get(workload, {})


class Workload:
    """Base: seeded job list, job execution, and output checks."""

    name = ""
    outputs: dict[str, str] = {}  # output kind -> file suffix

    def __init__(self, seed: int, workdir: Path, threads: int):
        self.seed = seed
        self.workdir = workdir
        self.threads = threads
        self.jobs = self.make_jobs(np.random.default_rng(seed))
        self._seen: dict[str, dict[str, str]] = {}
        self._recorded = (load_recorded_digests(self.name)
                          if seed == DEFAULT_SEED else {})

    def make_jobs(self, rng: np.random.Generator) -> list[Job]:
        raise NotImplementedError

    def execute(self, job: Job) -> Optional[dict]:
        """The program's work for one job; this is what the job time covers."""
        raise NotImplementedError

    def check(self, job: Job, result: Optional[dict]) -> None:
        """Check one execution's outputs; raise `CheckFailed` when wrong."""

    def post_checks(self) -> list[PostCheck]:
        """Checks made once per run after the timed phase."""
        return []

    def warm_up(self) -> None:
        """Run a tiny job of the workload's kind, so lazy set-up is done."""

    # -- output files --------------------------------------------------------

    def path(self, job: Job, suffix: str) -> Path:
        return self.workdir / f"{job.name}{suffix}"

    def digests(self, job: Job) -> dict[str, str]:
        return {kind: hashlib.sha256(
                    self.path(job, suffix).read_bytes()).hexdigest()
                for kind, suffix in self.outputs.items()}

    def check_digests(self, job: Job) -> None:
        """Every execution of a job must write the same bytes, and on the
        default seed the bytes recorded from the seed code."""
        got = self.digests(job)
        first = self._seen.setdefault(job.name, got)
        if got != first:
            raise CheckFailed(f"{job.name}: output bytes changed between "
                              f"executions")
        want = self._recorded.get(job.name)
        if self._recorded and got != want:
            raise CheckFailed(f"{job.name}: digests {got} differ from the "
                              f"recorded {want}")


# ---------------------------------------------------------------------------
# escape_grid
# ---------------------------------------------------------------------------

# job name, profile, half-width, centre offset (x, y), step budget.  The
# canonical box is mirror-symmetric and hides row-band imbalance; the others
# sit off the real axis, so one row band gets more bounded pixels than the
# other.  The seed picks the side of the real axis and jitters sizes by a
# few per cent.  A rect mirrored in the real axis costs the same (the map
# commutes with conjugation), so job times stay alike across seeds while
# the inputs change.  The three middle jobs cost about the same: with five
# jobs a round, the median job and the tail job (the 11th largest) then fall
# among them for any run of 3 to 10 rounds, so a slower or faster machine
# changes the round count without making those metrics jump.
ESCAPE_TEMPLATES = (
    ("canonical-doubling", "doubling", 8.0, (0.0, 0.0), 40),
    ("steep-70", "steep", 12.0, (1.0, 2.0), 70),
    ("steep-80", "steep", 12.0, (1.0, 3.0), 80),
    ("doubling-90", "doubling", 13.0, (1.5, 3.0), 90),
    ("wide-doubling-200", "doubling", 18.0, (1.0, 2.0), 200),
)
JITTER = 0.02


class EscapeGrid(Workload):
    name = "escape_grid"
    outputs = {"grid": ".bkg", "ppm": ".ppm"}

    def make_jobs(self, rng):
        jobs = []
        for name, profile, half, (ox, oy), steps in ESCAPE_TEMPLATES:
            if oy:
                side = rng.choice((-1.0, 1.0))
                jx, jy, jh = 1.0 + JITTER * rng.uniform(-1.0, 1.0, 3)
                ox, oy, half = ox * jx, side * oy * jy, half * jh
            cx, cy, half = float(ox), float(oy), float(half)
            rect = (cx - half, cy - half, cx + half, cy + half)
            jobs.append(Job(name, ESCAPE_SIDE * ESCAPE_SIDE,
                            {"profile": profile, "rect": rect,
                             "steps": steps}))
        return jobs

    def grid_argv(self, job: Job, out: Path, threads: int) -> list[str]:
        s = job.spec
        side = str(ESCAPE_SIDE)
        return ["grid", "--profile", s["profile"], rect_arg(*s["rect"]),
                "--nx", side, "--ny", side, "--steps", str(s["steps"]),
                "--escape-radius", repr(ESCAPE_RADIUS), "--out", str(out),
                "--threads", str(threads)]

    def run_pair(self, job: Job, grid: Path, ppm: Path, threads: int):
        g = run_cli(self.grid_argv(job, grid, threads))
        r = run_cli(["render", "escape", "--grid", str(grid),
                     "--out", str(ppm), "--palette", "ember"])
        return {"grid": g, "render": r}

    def execute(self, job):
        return self.run_pair(job, self.path(job, ".bkg"),
                             self.path(job, ".ppm"), self.threads)

    def check(self, job, result):
        cells = sum(result["grid"]["counts"].values())
        if cells != job.items:
            raise CheckFailed(f"{job.name}: grid has {cells} cells")
        if result["render"]["bytes"] != ppm_size(ESCAPE_SIDE):
            raise CheckFailed(f"{job.name}: PPM is "
                              f"{result['render']['bytes']} bytes")
        self.check_digests(job)

    def warm_up(self):
        tiny = Job("warmup", 16 * 16, {"profile": "doubling",
                                       "rect": (-8.0, -8.0, 8.0, 8.0),
                                       "steps": 4})
        argv = self.grid_argv(tiny, self.path(tiny, ".bkg"), self.threads)
        argv[argv.index("--nx") + 1] = argv[argv.index("--ny") + 1] = "16"
        run_cli(argv)
        run_cli(["render", "escape", "--grid", str(self.path(tiny, ".bkg")),
                 "--out", str(self.path(tiny, ".ppm"))])

    def post_checks(self):
        rng = np.random.default_rng([self.seed, 1])
        out = [self.parity_check(job, rng) for job in self.jobs]
        cheap = [j for j in self.jobs if j.spec["steps"] <= 70]
        out.append(self.single_thread_check(cheap[rng.integers(len(cheap))]))
        return out

    def parity_check(self, job: Job, rng: np.random.Generator) -> PostCheck:
        """Seeded pixels re-run through the scalar ``dynamics.iterate``."""
        name = f"parity {job.name}"
        try:
            g = dynamics.read_grid(self.path(job, ".bkg"))
            s = job.spec
            p = params.make_toy(s["profile"])
            x0, y0, x1, y1 = s["rect"]
            xs = dynamics.axis_coords(x0, x1, g.nx)
            ys = dynamics.axis_coords(y0, y1, g.ny)
            for iy, ix in zip(rng.integers(g.ny, size=PARITY_SAMPLES),
                              rng.integers(g.nx, size=PARITY_SAMPLES)):
                rec = dynamics.iterate(complex(xs[ix], ys[iy]), p,
                                       s["steps"], ESCAPE_RADIUS)
                want = orbit_status(rec)
                got = (int(g.status[iy, ix]), int(g.step[iy, ix]))
                if got != want:
                    return PostCheck(name, False, f"pixel ({ix},{iy}): grid "
                                     f"{got}, iterate {want}")
        except Exception as exc:  # any error is a failed check
            return PostCheck(name, False, repr(exc))
        return PostCheck(name, True)

    def single_thread_check(self, job: Job) -> PostCheck:
        """The same job at threads=1 must write byte-identical files."""
        name = f"threads=1 {job.name}"
        grid = self.workdir / "threads1.bkg"
        ppm = self.workdir / "threads1.ppm"
        try:
            self.run_pair(job, grid, ppm, 1)
        except Exception as exc:
            return PostCheck(name, False, repr(exc))
        same = (grid.read_bytes() == self.path(job, ".bkg").read_bytes()
                and ppm.read_bytes() == self.path(job, ".ppm").read_bytes())
        return PostCheck(name, same, "" if same else "bytes differ")


def ppm_size(side: int) -> int:
    return len(f"P6\n{side} {side}\n255\n") + 3 * side * side


# ---------------------------------------------------------------------------
# phase_portrait
# ---------------------------------------------------------------------------


def _small_edge(p: params.ParamSeq) -> float:
    # below this modulus every factor step is in the small regime
    return min(r * math.exp(-REGIME_EDGE / n) for r, n in zip(p.r, p.n))


def _big_edge(p: params.ParamSeq) -> float:
    # above this modulus every factor step is in the big regime
    return max(r * math.exp(REGIME_EDGE / n) for r, n in zip(p.r, p.n))


class PhasePortrait(Workload):
    name = "phase_portrait"
    outputs = {"ppm": ".ppm"}
    regimes = ("small", "mid", "big")

    def __init__(self, seed: int, workdir: Path, threads: int):
        # One band: a job is then one h_field call and its wall time follows
        # its CPU time.  With a band per CPU on a shared two-CPU host, wall
        # times of runs spread twice as wide as their CPU times did.
        super().__init__(seed, workdir, 1)

    def make_jobs(self, rng):
        jobs = []
        for profile in ("doubling", "steep", "paper2"):
            p = params.make_toy(profile)
            for regime in self.regimes:
                if regime == "small":
                    # inside the first ring, symmetric about the real axis
                    w = _small_edge(p) * float(rng.uniform(0.1, 0.3))
                    cx = w * float(rng.uniform(-0.5, 0.5))
                    rect = (cx - w, -w, cx + w, w)
                elif regime == "big":
                    # far outside the last ring, on the real axis
                    d = _big_edge(p) * 10.0 ** float(rng.uniform(0.3, 1.0))
                    rect = (0.75 * d, -0.25 * d, 1.25 * d, 0.25 * d)
                else:
                    # straddling the rings, off-centre
                    w = p.r[-1] * float(rng.uniform(1.1, 1.4))
                    cx, cy = (p.r[-1] * float(v)
                              for v in rng.uniform(-0.15, 0.15, 2))
                    rect = (cx - w, cy - w, cx + w, cy + w)
                jobs.append(Job(f"{regime}-{profile}",
                                PHASE_SIDE * PHASE_SIDE,
                                {"profile": profile, "rect": rect,
                                 "regime": regime}))
        return jobs

    def argv(self, job: Job, out: Path, side: int = PHASE_SIDE) -> list[str]:
        return ["render", "phase", "--profile", job.spec["profile"],
                rect_arg(*job.spec["rect"]), "--nx", str(side),
                "--ny", str(side), "--out", str(out),
                "--threads", str(self.threads)]

    def execute(self, job):
        return run_cli(self.argv(job, self.path(job, ".ppm")))

    def check(self, job, result):
        if result["bytes"] != ppm_size(PHASE_SIDE):
            raise CheckFailed(f"{job.name}: PPM is {result['bytes']} bytes")
        self.check_digests(job)

    def warm_up(self):
        job = self.jobs[0]
        run_cli(self.argv(job, self.workdir / "warmup.ppm", side=16))

    def post_checks(self):
        return [self.mirror_check(job) for job in self.jobs
                if job.spec["rect"][1] == -job.spec["rect"][3]]

    def mirror_check(self, job: Job) -> PostCheck:
        """A rect symmetric about the real axis gives a mirror-symmetric
        image: row i equals row ny-1-i, byte for byte."""
        name = f"mirror {job.name}"
        try:
            pixels = read_ppm(self.path(job, ".ppm"))
        except (OSError, ValueError) as exc:
            return PostCheck(name, False, repr(exc))
        ok = np.array_equal(pixels, pixels[::-1])
        return PostCheck(name, ok, "" if ok else "rows not mirrored")


def read_ppm(path: Path) -> np.ndarray:
    """Pixels of a binary P6 PPM with a ``P6\\nW H\\n255\\n`` header."""
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError(f"{path.name}: not a P6 PPM")
    nx, ny = (int(v) for v in parts[1].split())
    body = np.frombuffer(parts[3], dtype=np.uint8)
    if body.size != nx * ny * 3:
        raise ValueError(f"{path.name}: body is {body.size} bytes")
    return body.reshape(ny, nx, 3)


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------


def _disk(rng: np.random.Generator, count: int, radius: float) -> list:
    rr = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    tt = rng.uniform(0.0, 2.0 * math.pi, count)
    return [complex(x, y) for x, y in zip(rr * np.cos(tt), rr * np.sin(tt))]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_zeros(profile: str, zeros: list[int]) -> None:
    """h is the exact Zero at stored zeros and f(a) == a + 1 bitwise."""
    p = params.make_toy(profile)
    table = hfun.stored_zeros(p)
    for i in zeros:
        a = table[i][2]
        _require(isinstance(hfun.eval_h(a, p).value, Zero),
                 f"h({a!r}) is not the exact zero")
        f = hfun.eval_f(a, p).value
        _require(f == a + 1.0, f"f({a!r}) = {f!r}, not a + 1")


def check_points(profile: str, points: list[complex]) -> None:
    """Scalar eval_h agrees with the vector kernel; eval_f = z + e^h.

    The two paths may round arg z apart by an ulp, which n_k multiplies, so
    the angle tolerance grows with the total degree.
    """
    p = params.make_toy(profile)
    arg_tol = 1e-10 + 8.0 * math.pi * sys.float_info.epsilon * sum(p.n)
    code, lm, ag = _kernels.h_field(np.array([z.real for z in points]),
                                    np.array([z.imag for z in points]), p)
    for z, c, l, a in zip(points, code, lm, ag):
        h = hfun.eval_h(z, p).value
        _require(not isinstance(h, Zero) and c == 0, f"h({z!r}) is a zero")
        hl = math.log(abs(h)) if isinstance(h, complex) else h.logmod
        ha = cmath.phase(h) if isinstance(h, complex) else h.arg
        da = abs(math.remainder(ha - a, 2.0 * math.pi))
        _require(abs(hl - l) <= 1e-11 * max(1.0, abs(l)) and da <= arg_tol,
                 f"h({z!r}): scalar ({hl}, {ha}) vs kernel ({l}, {a})")
        f = hfun.eval_f(z, p).value
        if isinstance(h, complex) and h.real <= hfun.CARTESIAN_BAND:
            _require(f == z + cmath.exp(h), f"f({z!r}) = {f!r}")


def check_orbits(profile: str, points: list[complex], steps: int) -> None:
    """Scalar orbits classify like the grid kernel."""
    p = params.make_toy(profile)
    status, step = _kernels.classify_field(
        np.array([z.real for z in points]), np.array([z.imag for z in points]),
        p, steps, ESCAPE_RADIUS)
    for z, s, t in zip(points, status, step):
        rec = dynamics.iterate(z, p, steps, ESCAPE_RADIUS)
        _require((int(s), int(t)) == orbit_status(rec),
                 f"orbit of {z!r}: kernel {(int(s), int(t))}, "
                 f"iterate {orbit_status(rec)}")


def check_theta(phis: list[float]) -> None:
    """theta(phi) makes e^{2 pi i phi}(1 + e e^{2 pi i theta}) real > 0."""
    for phi in phis:
        th = hfun.theta(phi)
        val = cmath.exp(2j * math.pi * phi) * (
            1.0 + math.e * cmath.exp(2j * math.pi * th))
        _require(abs(val.imag) <= 1e-12 and val.real > 0.0,
                 f"theta({phi!r}) residual {val!r}")


def check_probes(profile: str, probes: list[tuple[int, int]]) -> None:
    """Probe values p stay above e - 1."""
    p = params.make_toy(profile)
    for k, nu in probes:
        pp = hfun.probe_point(k, nu, p)
        _require(pp.p >= math.e - 1.0 - 1e-12, f"probe ({k},{nu}) p={pp.p}")


def check_2a(k: int, samples: int) -> None:
    """Ring growth bound; at k=3 with 4096 samples, the frozen maximum."""
    rep = verify.verify_2a(params.make_toy("doubling"), k, samples)
    _require(rep.passed, f"verify_2a k={k}: margin {rep.margin}")
    if (k, samples) == (3, 4096):
        got = math.exp(rep.max_log_abs_h)
        _require(abs(got - acceptance.MAX_ABS_H_DOUBLING_K3) <= 0.5,
                 f"max|h| at k=3 is {got}")


def check_2b(samples: int) -> None:
    """Ring asymptotic deviation small at k=4 and shrinking from k=3."""
    p = params.make_toy("steep")
    e3 = verify.verify_2b(p, 3, samples).max_rel_err
    e4 = verify.verify_2b(p, 4, samples).max_rel_err
    _require(e4 <= acceptance.REL_2B_TOL and e4 < e3,
             f"verify_2b: k=3 {e3}, k=4 {e4}")


def check_2c(max_probes: int) -> None:
    """Probe ratios above 1 on steep; the frozen doubling k=2 nu=0 ratio."""
    rows = verify.verify_2c(params.make_toy("steep"), 4, max_probes)
    _require(min(r.ratio for r in rows) >= 1.0, "verify_2c steep ratio < 1")
    r0 = verify.verify_2c(params.make_toy("doubling"), 2)[0]
    _require(r0.nu == 0 and abs(r0.ratio - acceptance.RATIO_DOUBLING_K2_NU0)
             <= 0.05, f"doubling k=2 nu=0 ratio {r0.ratio}")


def check_obstruction(t: float) -> None:
    """The inequality chain on the admissible two-ring profile."""
    p = params.make_toy("paper2")
    rep = verify.obstruction_chain(p, 2, t, 5.0 + 0j, 5.0)
    _require(rep.dist_a <= rep.radius_10 and rep.dist_b <= rep.radius_10,
             f"obstruction t={t}: probe outside 10 r/n")
    _require(abs(rep.pinch_lower - 0.5 * math.log(3.0)) <= 1e-12
             and rep.rho_lower_3d is not None
             and abs(rep.rho_lower_3d - 0.5 * math.log(1.1)) <= 1e-12,
             f"obstruction t={t}: pinch or 3d bound moved")
    _require(math.exp(rep.log_f_a) <= p.r[1] + 1.0, "f(a) beyond r + 1")


def check_newton(points: list[complex]) -> None:
    """f(z) = z - g/g' at points of the unit disk."""
    p = params.make_toy("doubling")
    for z in points:
        res = hfun.newton_residual(z, p, 1e-5, 1e-10)
        _require(res <= 1e-6, f"Newton residual {res} at {z!r}")


def check_g(z: complex) -> None:
    """The frozen g(1), and path independence of g up to z."""
    p = params.make_toy("doubling")
    g1 = hfun.eval_g(1.0, p, 1e-10)
    _require(abs(g1 - acceptance.G_AT_ONE) <= 1e-3, f"g(1) = {g1!r}")
    direct = hfun.eval_g(z, p, 1e-10)
    legs = cmath.exp(-(hfun.integrate_exp_neg_h(0.0, z.real, p, 1e-10)
                       + hfun.integrate_exp_neg_h(z.real, z, p, 1e-10)))
    _require(abs(direct - legs) <= 2e-10, f"g path gap at {z!r}")


def check_hyperbolic(a: list, b: list, c: list, turns: list,
                     t: float) -> None:
    """Metric axioms, omitted-point bound, Schwarz and monotonicity."""
    dist = hyperbolic.disk_distance
    tol = 1e-12
    for ai, bi, ci, turn in zip(a, b, c, turns):
        sym = abs(dist(ai, bi) - dist(bi, ai))
        tri = dist(ai, ci) - dist(ai, bi) - dist(bi, ci)
        _require(sym <= tol and tri <= tol, f"metric at {ai!r}, {bi!r}")
        u = cmath.exp(2j * math.pi * turn)  # omitted point on the circle
        _require(hyperbolic.lemma1_lower_bound(ai, bi, u).bound
                 <= dist(ai, bi) + tol, f"omitted-point bound at {ai!r}")
        for m in hyperbolic.MAP_CATALOG:
            _require(hyperbolic.schwarz_check(m, 0.97 * ai, 0.97 * bi)[2],
                     f"schwarz {m} at {ai!r}")
    large = hyperbolic.DiskSpec(0j, 1.0 + 3.0 * t)
    for ai, bi in zip(a, b):
        _require(dist(ai, bi, large) <= dist(ai, bi) + tol,
                 f"monotonicity at {ai!r}")


def orbit_starts(rng: np.random.Generator, p: params.ParamSeq,
                 steps: int, each: int = 4) -> list[complex]:
    """Seeded starts in [-20, 20]^2: ``each`` that escape within ``steps``
    and ``each`` that do not.  A bounded orbit costs all its steps, so a
    fixed mix keeps the job's cost alike across seeds."""
    z = rng.uniform(-20.0, 20.0, (64, 2))
    status, _ = _kernels.classify_field(z[:, 0], z[:, 1], p, steps,
                                        ESCAPE_RADIUS)
    escaped = (status == dynamics.STATUS_ESCAPED) | (
        status == dynamics.STATUS_ESCAPED_AFTER_NEAR_ZERO)
    pick = np.concatenate([rng.choice(np.flatnonzero(escaped), each, False),
                           rng.choice(np.flatnonzero(~escaped), each, False)])
    return [complex(x, y) for x, y in z[pick]]


class VerifySuite(Workload):
    name = "verify_suite"

    def make_jobs(self, rng):
        def job(name, fn, *args):
            return Job(name, 1, {"fn": fn, "args": args})

        def pick(n, count):
            return [int(i) for i in rng.choice(n, count, replace=False)]

        dbl, steep = params.make_toy("doubling"), params.make_toy("steep")
        jobs = [
            job("zeros-doubling", check_zeros, "doubling",
                pick(sum(dbl.n), 16)),
            job("zeros-steep", check_zeros, "steep", pick(sum(steep.n), 16)),
            job("points-doubling", check_points, "doubling",
                _disk(rng, 24, dbl.r[-1])),
            job("points-paper2", check_points, "paper2", _disk(rng, 24, 6.0)),
            job("orbits-doubling", check_orbits, "doubling",
                orbit_starts(rng, dbl, 30), 30),
            job("theta", check_theta,
                [float(v) for v in rng.uniform(-5.0, 5.0, 64)]),
            job("probes-steep", check_probes, "steep",
                [(int(k), int(rng.integers(steep.n[k - 1])))
                 for k in rng.integers(2, steep.K + 1, 16)]),
            job("verify_2a-k3", check_2a, 3, 4096),
            job("verify_2a", check_2a, int(rng.integers(2, 5)),
                int(rng.integers(1024, 4097))),
            job("verify_2b", check_2b, 8192),
            job("verify_2c", check_2c, 4096),
            job("obstruction-paper2", check_obstruction,
                float(rng.uniform(0.0, 1.0))),
            job("newton", check_newton, _disk(rng, 12, 1.0)),
            job("g", check_g, _disk(rng, 1, 1.0)[0]),
            job("hyperbolic", check_hyperbolic, _disk(rng, 64, 1.0),
                _disk(rng, 64, 1.0), _disk(rng, 64, 1.0),
                [float(v) for v in rng.uniform(0.0, 1.0, 64)],
                float(rng.uniform(0.0, 1.0))),
        ]
        return jobs

    def execute(self, job):
        job.spec["fn"](*job.spec["args"])
        return None

    def warm_up(self):
        check_theta([0.25])
        check_points("doubling", [0.5 + 0.5j])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (EscapeGrid, PhasePortrait, VerifySuite)
}
