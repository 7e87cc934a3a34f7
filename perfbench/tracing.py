"""Per-layer tracing from outside the library.

The tracer replaces public names of the library with timing wrappers, at the
place where their callers look them up (a module attribute, a class
attribute, or an entry of ``properties.CHECKS``), and restores them after
the traced pass.  No library file changes.  A name that no longer exists is
skipped, and a metric whose layer is never called reads 0, so a refactor of
the library never makes the traced run raise.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

PROPERTIES = ("monotone", "weakly-monotone", "shift-invariant", "homogeneous",
              "idempotent", "averaging", "internal")
FILTER_KEYS = ("center", "median", "shorth", "mode", "huber")
CENTER_KEYS = ("center", "median", "shorth", "mode")
PHASES = ("grid", "golden", "polish")

# (module, attribute path, role).  The role names what a call means to the
# metrics; the attribute path is where the library's own callers find it.
WRAPPED = (
    ("means", "lehmer_mean", "agg"),
    ("pgm", "read_pgm", "pgm_read"),
    ("pgm", "write_pgm", "pgm_write"),
    ("tonal", "filter_image", "filter"),
    ("tonal", "filter_pixel", "pixel"),
    ("tonal", "center_estimate", "center"),
    ("location", "shorth", "shorth"),
    ("tonal", "minimize_penalty", "solve"),
    ("penalty", "golden_section", "golden"),
    ("penalty", "PenaltySpec.evaluate", "eval"),
)

# name -> unit of every per-layer metric, in report order
METRICS = {
    "cli.dispatch_ms": "ms",
    **{f"properties.check_ms.{p}": "ms" for p in PROPERTIES},
    "properties.self_frac": "1",
    "properties.agg_calls": "count",
    "properties.samples_used": "count",
    "means.lehmer_us": "us",
    "pgm.read_ms": "ms",
    "pgm.write_ms": "ms",
    "pgm.bytes": "B",
    **{f"tonal.filter_ms.{k}": "ms" for k in FILTER_KEYS},
    "tonal.pixel_calls": "count",
    "tonal.pixel_self_us": "us",
    **{f"tonal.center_us.{k}": "us" for k in CENTER_KEYS},
    "location.shorth_us": "us",
    "penalty.solve_us": "us",
    "penalty.eval_us": "us",
    "penalty.evals": "count",
    **{f"penalty.evals.{p}": "count" for p in PHASES},
    "penalty.golden_calls": "count",
    **{f"penalty.time_frac.{p}": "1" for p in PHASES},
    "host.ref_rate": "1/s",
    "trace.overhead_frac": "1",
}
# Metrics that count work; they must repeat exactly at a fixed seed.
COUNTS = tuple(name for name, unit in METRICS.items() if unit in ("count", "B"))


def _nbytes(data) -> int:
    return len(data) if isinstance(data, (bytes, bytearray)) else 0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


class _Solve:
    """Phase bookkeeping for one penalty minimisation: evaluations before
    the first golden-section call are the grid scan, those inside a golden
    call the refine, those after the last golden call the polish."""

    def __init__(self, start: float):
        self.start = start
        self.evals = dict.fromkeys(PHASES, 0)
        self.golden_calls = 0
        self.in_golden = False
        self.first_golden = None
        self.last_golden_end = None
        self.golden_time = 0.0

    def phase(self) -> str:
        if self.in_golden:
            return "golden"
        return "grid" if self.golden_calls == 0 else "polish"


class Tracer:
    def __init__(self):
        self.samples = defaultdict(lambda: array("d"))  # per-call values
        self.per_op = defaultdict(lambda: array("d"))  # per-op values
        self.totals = defaultdict(float)
        self._op = defaultdict(float)
        self._stack = []  # child-time accumulators of the open spans
        self._solve = None
        self._undo = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for module, path, role in WRAPPED:
            owner = importlib.import_module(f"weakmeans.{module}")
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            fn = getattr(owner, attr, None)
            if callable(fn):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(role, fn))
        checks = getattr(importlib.import_module("weakmeans.properties"), "CHECKS", None)
        if isinstance(checks, dict):
            for prop, fn in list(checks.items()):
                if callable(fn):
                    checks[prop] = self._wrap("check", fn, key=prop)
                    self._undo.append((checks, prop, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, role, fn, key=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(role)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += t1 - t0
            tracer._record(role, key, args, result, t0, t1, child)
            return result

        return wrapper

    # -- span bookkeeping -------------------------------------------------------------

    def _enter(self, role) -> None:
        self._stack.append(0.0)
        solve = self._solve
        if role == "golden" and solve is not None:
            solve.in_golden = True
            solve.golden_calls += 1
            if solve.first_golden is None:
                solve.first_golden = perf_counter()
        elif role == "eval" and solve is not None:
            solve.evals[solve.phase()] += 1
        elif role == "solve":
            self._solve = _Solve(perf_counter())

    def _record(self, role, key, args, result, t0, t1, child) -> None:
        dt = t1 - t0
        s = self.samples
        if role == "check":
            s[f"properties.check_ms.{key}"].append(dt * 1e3)
            self.totals["check"] += dt
            self.totals["check_self"] += dt - child
        elif role == "agg":
            s["means.lehmer_us"].append(dt * 1e6)
            self._op["agg_calls"] += 1
        elif role == "pgm_read":
            s["pgm.read_ms"].append(dt * 1e3)
            self._op["pgm_bytes"] += _nbytes(args[0] if args else None)
        elif role == "pgm_write":
            s["pgm.write_ms"].append(dt * 1e3)
            self._op["pgm_bytes"] += _nbytes(result)
        elif role == "filter":
            cfg = args[1] if len(args) > 1 else None
            name = "huber" if getattr(cfg, "dissimilarity", "") == "huber" else getattr(cfg, "estimator", "")
            s[f"tonal.filter_ms.{name}"].append(dt * 1e3)
        elif role == "pixel":
            s["tonal.pixel_self_us"].append((dt - child) * 1e6)
            self._op["pixel_calls"] += 1
        elif role == "center":
            cfg = args[2] if len(args) > 2 else None
            s[f"tonal.center_us.{getattr(cfg, 'estimator', '')}"].append(dt * 1e6)
        elif role == "shorth":
            s["location.shorth_us"].append(dt * 1e6)
        elif role == "eval":
            s["penalty.eval_us"].append(dt * 1e6)
        elif role == "golden" and self._solve is not None:
            self._solve.in_golden = False
            self._solve.last_golden_end = t1
            self._solve.golden_time += dt
        elif role == "solve":
            self._close_solve(t1)

    def _close_solve(self, end: float) -> None:
        solve, self._solve = self._solve, None
        s = self.samples
        s["penalty.solve_us"].append((end - solve.start) * 1e6)
        s["penalty.evals"].append(sum(solve.evals.values()))
        for phase, n in solve.evals.items():
            s[f"penalty.evals.{phase}"].append(n)
        s["penalty.golden_calls"].append(solve.golden_calls)
        if solve.golden_calls:
            grid = solve.first_golden - solve.start
            polish = end - solve.last_golden_end
        else:
            grid, polish = end - solve.start, 0.0
        self.totals["grid"] += grid
        self.totals["golden"] += solve.golden_time
        self.totals["polish"] += polish
        self.totals["solve"] += end - solve.start

    # -- ops --------------------------------------------------------------------------

    def call_root(self, fn, *args):
        """Run one CLI call as the root span; its self time is dispatch."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            self.samples["cli.dispatch_ms"].append((dt - self._stack.pop()) * 1e3)

    def end_op(self, samples_used: int) -> None:
        self.per_op["properties.agg_calls"].append(self._op["agg_calls"])
        self.per_op["properties.samples_used"].append(samples_used)
        self.per_op["pgm.bytes"].append(self._op["pgm_bytes"])
        self.per_op["tonal.pixel_calls"].append(self._op["pixel_calls"])
        self._op.clear()

    def metrics(self) -> dict[str, float]:
        values = {name: _median(v) for name, v in self.samples.items()}
        values.update({name: _median(v) for name, v in self.per_op.items()})
        t = self.totals
        if t["check"]:
            values["properties.self_frac"] = t["check_self"] / t["check"]
        if t["solve"]:
            for phase in PHASES:
                values[f"penalty.time_frac.{phase}"] = t[phase] / t["solve"]
        return {name: values.get(name, 0.0) for name in METRICS}
