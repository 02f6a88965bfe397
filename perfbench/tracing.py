"""Span tracing of bakerlab's modules, from outside the package.

The traced run wraps a module's public functions at every name under which
the package looks them up: ``dynamics`` imports ``eval_h`` from ``hfun``, so
``dynamics.eval_h`` is replaced as well as ``hfun.eval_h``.  Each call
becomes a span (name, start, end, parent, job, thread) kept in per-thread
arrays; nothing is written until the run ends.

A span that starts on a band thread of ``classify_grid`` or
``render_phase`` has an empty stack on that thread; its parent is the span
open on the client thread, which waits in the band pool meanwhile.  Band
spans of one parent overlap, so a span's self time is its duration minus
the *union* of its children's intervals (`self_times`).

Hot scalar helpers (``wrap_angle``, ``lc_mul``, ``lc_add_one``,
``lc_from_cartesian``, ``factor_snap_eps``) stay unwrapped: their time is
self time of the caller.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time
from array import array
from typing import Callable, Optional

import numpy as np


def _size(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _classify_counts(args, kwargs, result):
    max_steps = args[3] if len(args) > 3 else kwargs["max_steps"]
    status, step = result
    return point_step_counts(status, step, max_steps)


def point_step_counts(status: np.ndarray, step: np.ndarray,
                      max_steps: int) -> dict[str, int]:
    """Nominal work of a classified field, read off its output.

    An escaped pixel (status 1 or 3) took ``step`` steps; any other pixel
    ran the whole ``max_steps`` budget.
    """
    escaped = (status == 1) | (status == 3)
    bounded = int(status.size - np.count_nonzero(escaped))
    steps = int(step[escaped].sum(dtype=np.int64)) + bounded * int(max_steps)
    return {"points": int(status.size), "point_steps": steps,
            "bounded": bounded}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(args[0]).st_size}


def _len_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _pixels(args, kwargs, result):
    return {"pixels": int(np.size(args[0]))}


def _orbit_steps(args, kwargs, result):
    return {"steps": len(result.points) - 1 + (result.tail is not None)}


def _fraction_calls(args, kwargs, result):
    # reduce_angle leaves (-pi, pi] alone and takes the Fraction path otherwise
    x = args[0]
    return None if -math.pi < x <= math.pi else {"fraction_calls": 1}


# (module, function, counter) for every wrapped function; the layer name of
# ``bakerlab._kernels`` is ``kernels`` because a metric name may not start
# with an underscore.
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("_kernels", "h_field", _size),
    ("_kernels", "classify_field", _classify_counts),
    ("_kernels", "prepared", None),
    ("dynamics", "iterate", _orbit_steps),
    ("dynamics", "classify_grid", None),
    ("dynamics", "write_grid", _file_bytes),
    ("dynamics", "read_grid", _file_bytes),
    ("render", "render_escape", None),
    ("render", "render_phase", None),
    ("render", "phase_shade", _pixels),
    ("render", "ppm_bytes", _len_bytes),
    ("hfun", "eval_h", None),
    ("hfun", "eval_f", None),
    ("hfun", "eval_g", None),
    ("hfun", "newton_residual", None),
    ("hfun", "integrate_exp_neg_h", None),
    ("hfun", "theta", None),
    ("hfun", "probe_point", None),
    ("hfun", "stored_zeros", None),
    ("logc", "lc_pow_int", None),
    ("logc", "reduce_angle", _fraction_calls),
    ("verify", "verify_2a", None),
    ("verify", "verify_2b", None),
    ("verify", "verify_2c", None),
    ("verify", "obstruction_chain", None),
    ("hyperbolic", "disk_distance", None),
    ("hyperbolic", "lemma1_lower_bound", None),
    ("hyperbolic", "schwarz_check", None),
    ("cli", "main", None),
)


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class _Buffer:
    """Spans and counters recorded by one thread."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("i")
        self.counts: dict[int, dict[str, int]] = {}


class Spans:
    """All spans of a traced phase as columns; row i is span id i."""

    def __init__(self, names, sid, name, start, end, parent, job, thread,
                 counts):
        order = np.argsort(sid, kind="stable")
        if not np.array_equal(sid[order], np.arange(sid.size)):
            raise ValueError("span ids are not dense")
        self.names = list(names)
        self.name = name[order]
        self.start = start[order]
        self.end = end[order]
        self.parent = parent[order]
        self.job = job[order]
        self.thread = thread[order]
        self.counts = counts  # span name -> counter -> total

    def __len__(self) -> int:
        return self.name.size

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name,
                 start=self.start, end=self.end, parent=self.parent,
                 job=self.job, thread=self.thread)


class Tracer:
    """Installs span-recording wrappers over the package's functions."""

    package = "bakerlab"

    def __init__(self):
        self.names = [span_name(m, f) for m, f, _ in TARGETS]
        self.job = -1  # the client counts it up before each job
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._client_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = _Buffer(next(self._threads))
        self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, name_id: int, fn: Callable, counter) -> Callable:
        clock = time.perf_counter_ns
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:  # a band thread: the caller waits on the client thread
                client = self._client_stack
                parent = client[-1] if client else -1
            sid = next(self._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.name.append(name_id)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.parent.append(parent)
                buf.job.append(self.job)
            if counter is not None:
                extra = counter(args, kwargs, result)
                if extra:
                    tally = buf.counts.setdefault(name_id, {})
                    for key, value in extra.items():
                        tally[key] = tally.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every module attribute that holds it.

        Call from the client thread: its stack parents the band spans.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._client_stack = (getattr(self._local, "buf", None)
                              or self._buffer()).stack
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        for name_id, (mod, fn_name, counter) in enumerate(TARGETS):
            orig = getattr(sys.modules[f"{self.package}.{mod}"], fn_name)
            wrapper = self._wrap(name_id, orig, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def remove(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def spans(self) -> Spans:
        bufs = self._buffers

        def col(attr, dtype):
            parts = [np.frombuffer(getattr(b, attr), dtype=dtype)
                     for b in bufs if len(b.sid)]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        thread = np.concatenate(
            [np.full(len(b.sid), b.thread, np.int32) for b in bufs]
            or [np.zeros(0, np.int32)])
        counts: dict[str, dict[str, int]] = {}
        for b in bufs:
            for name_id, tally in b.counts.items():
                total = counts.setdefault(self.names[name_id], {})
                for key, value in tally.items():
                    total[key] = total.get(key, 0) + value
        return Spans(self.names, col("sid", np.int64), col("name", np.uint16),
                     col("start", np.int64), col("end", np.int64),
                     col("parent", np.int64), col("job", np.int32), thread,
                     counts)


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self time and child overlap of every span, in the units of the input.

    ``parent[i]`` is the row of span i's parent, or -1.  Children of one
    parent may overlap when they ran on band threads; self time subtracts
    the length of the union of the children's intervals, and the overlap is
    the children's total duration minus that union.  Children lie inside
    their parent's interval, because every call returns before its caller.
    """
    n = start.size
    dur = end - start
    kids = np.flatnonzero(parent >= 0)
    if not kids.size:
        return dur, np.zeros(n, dtype=dur.dtype)
    p = parent[kids]
    order = np.lexsort((start[kids], p))
    p = p[order]
    base = int(start.min())
    s = start[kids][order] - base
    e = end[kids][order] - base
    first = np.ones(p.size, dtype=bool)
    first[1:] = p[1:] != p[:-1]
    group = np.cumsum(first) - 1
    width = int(e.max()) + 1
    # running maximum of the end times, restarted at each parent
    reach = np.maximum.accumulate(e + group * width) - group * width
    before = np.where(first, s, np.concatenate(([0], reach[:-1])))
    covered = np.maximum(0, e - np.maximum(s, before))
    # float sums are exact here: every total is below 2**53 ns
    union = np.bincount(p, weights=covered, minlength=n).astype(np.int64)
    child_total = np.bincount(p, weights=e - s, minlength=n).astype(np.int64)
    return dur - union, child_total - union
