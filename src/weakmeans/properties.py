"""Numerical falsification of monotonicity-class properties.

Each check samples the aggregator's domain (with a configurable share of
boundary-biased points), reports "no-violation-found" or "violated", and on
violation carries a concrete witness that replays deterministically.
Sampling can never certify a property, so "no-violation-found" is the
strongest positive verdict.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from types import ModuleType
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import location, means
from .means import Interval, lehmer_max_args


@dataclass
class Aggregator:
    """Callable aggregator with its mathematical domain and any known
    property annotations ("monotone", "weakly-monotone", "shift-invariant")."""

    fn: Callable[[np.ndarray], float]
    domain: Interval = Interval(-math.inf, math.inf)
    arity: int | None = None  # None = variadic
    known: frozenset = frozenset()
    name: str = ""
    # optional batched form: fn of every row of an (m, n) array, as an (m,) array
    rows: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))


class _Named(NamedTuple):
    module: ModuleType
    fn: str  # looked up in ``module`` at every call, so a rebound name is seen
    domain: Interval
    known: frozenset
    params: tuple = ()  # required parameters, passed after x in this order
    weighted: bool = False  # also passes the optional weight vector
    rows: str | None = None  # the batched form in ``module``, same arguments


_REALS = Interval(-math.inf, math.inf)
_NONNEG = Interval(0.0, math.inf)
_MONO_SHIFT = frozenset({"monotone", "shift-invariant"})
_SHIFT = frozenset({"shift-invariant"})

AGGREGATORS = {
    "mean": _Named(means, "arithmetic_mean", _REALS, _MONO_SHIFT, rows="arithmetic_mean_rows"),
    "arithmetic": _Named(means, "arithmetic_mean", _REALS, _MONO_SHIFT, rows="arithmetic_mean_rows"),
    "median": _Named(means, "median", _REALS, _MONO_SHIFT, rows="median_rows"),
    "midrange": _Named(means, "midrange", _REALS, _MONO_SHIFT, rows="midrange_rows"),
    "mode": _Named(location, "mode", _REALS, _SHIFT, rows="mode_rows"),
    "shorth": _Named(location, "shorth", _REALS, _SHIFT, rows="shorth_rows"),
    "lms": _Named(location, "lms", _REALS, _SHIFT, rows="lms_rows"),
    "lts": _Named(location, "lts", _REALS, _SHIFT),
    "density": _Named(location, "density_mean", _REALS, _SHIFT),
    "lehmer": _Named(means, "lehmer_mean", _NONNEG, frozenset({"homogeneous"}), ("q",),
                     rows="lehmer_mean_rows"),
    "gini": _Named(means, "gini_mean", _NONNEG, frozenset(), ("p", "q"), weighted=True,
                   rows="gini_mean_rows"),
    "power": _Named(means, "power_mean", _NONNEG, frozenset({"monotone"}), ("p",), weighted=True,
                    rows="power_mean_rows"),
    # the weight vector fixes the arity of the OWA family
    "owa": _Named(means, "owa", _REALS, _MONO_SHIFT, ("weights",), rows="owa_rows"),
    "owa-penalty": _Named(location, "owa_penalty_estimator", _REALS, _SHIFT, ("weights",)),
}


def named_aggregator(
    name: str, q: float | None = None, p: float | None = None, weights=None
) -> Aggregator:
    """Resolve an ``AGGREGATORS`` name and its parameters to an Aggregator."""
    if name not in AGGREGATORS:
        raise ValueError(f"unknown mean {name!r}")
    entry = AGGREGATORS[name]
    w = None if weights is None else np.asarray(weights, dtype=float)
    given = {"q": q, "p": p, "weights": w}
    for param in entry.params:
        if given[param] is None:
            raise ValueError(f"{name} requires --{param}")
    takes = (*entry.params, "weights") if entry.weighted else entry.params
    for param, value in given.items():
        if value is not None and param not in takes:
            raise ValueError(f"{name} takes no --{param}")
    scalars = {k: float(given[k]) for k in entry.params if k != "weights"}
    args = [w if k == "weights" else scalars[k] for k in entry.params]
    if entry.weighted:
        args.append(w)
    label = ",".join(f"{k}={v:g}" for k, v in scalars.items())
    bind = lambda fn: lambda x: getattr(entry.module, fn)(x, *args)
    return Aggregator(
        fn=bind(entry.fn),
        domain=entry.domain,
        arity=w.size if "weights" in entry.params else None,
        known=entry.known,
        name=f"{name}({label})" if label else name,
        rows=None if entry.rows is None else bind(entry.rows),
    )


def implies_weakly_monotone(known) -> bool:
    return bool({"monotone", "weakly-monotone", "shift-invariant"} & set(known))


@dataclass
class SamplerConfig:
    samples: int = 100_000
    shift_max: float = 0.5
    seed: int = 0
    tol: float = 1e-9
    boundary_fraction: float = 0.2
    box: Interval | None = None  # finite sampling box; default derived from domain
    probe_points: Sequence = field(default_factory=tuple)  # tried before sampling

    def __post_init__(self):
        if self.samples <= 0 or self.tol <= 0:
            raise ValueError("samples and tol must be positive")
        if not 0.0 <= self.boundary_fraction <= 1.0:
            raise ValueError("boundary_fraction must lie in [0, 1]")


@dataclass
class PropertyReport:
    property: str
    verdict: str  # "no-violation-found" | "violated"
    witness: dict | None
    samples_used: int  # samples drawn, skipped ones included
    seed: int
    tol: float
    aggregator: str = ""
    samples_skipped: int = 0  # samples with nothing to test (see _falsify)
    evaluations: int = 0  # aggregator evaluations, one per vector or row
    elapsed_s: float = 0.0

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        head = f"{self.property} {self.aggregator}: {self.verdict} " \
               f"(samples={self.samples_used}, skipped={self.samples_skipped}, " \
               f"evaluations={self.evaluations}, seed={self.seed}, tol={self.tol:g}, " \
               f"{self.elapsed_s:.3g} s)"
        witness = (self.witness or {}).items()
        return "\n".join([head] + [f"  {k} = {v}" for k, v in witness])


def _sampling_box(F: Aggregator, cfg: SamplerConfig) -> Interval:
    if cfg.box is not None:
        return cfg.box
    lo = F.domain.lo if math.isfinite(F.domain.lo) else 0.0
    hi = F.domain.hi if math.isfinite(F.domain.hi) else lo + 1.0
    return Interval(lo, hi)


def _sample_x(rng: np.random.Generator, m: int, n: int, box: Interval,
              boundary_fraction: float) -> np.ndarray:
    """m points of the box, a share of them biased toward its faces, edges
    and vertices.  Drawn in this order: the points (m, n); per row a
    boundary coin, a face rate and a fallback coordinate (m each); the face
    coins (m, n); the side coins (m, n)."""
    x = rng.uniform(box.lo, box.hi, size=(m, n))
    biased = rng.uniform(size=m) < boundary_fraction
    rate = rng.uniform(0.2, 1.0, size=m)
    fallback = rng.integers(n, size=m)
    face = (rng.uniform(size=(m, n)) < rate[:, None]) & biased[:, None]
    empty = biased & ~face.any(axis=1)
    face[empty, fallback[empty]] = True  # a biased point has a face coordinate
    return np.where(face, np.where(rng.uniform(size=(m, n)) < 0.5, box.lo, box.hi), x)


def _draw_x(cfg: SamplerConfig):
    return lambda rng, m, n, box, i: (_sample_x(rng, m, n, box, cfg.boundary_fraction),)


def _arity(F: Aggregator, n: int | None) -> int:
    if n is not None:
        return n
    if F.arity is not None:
        return F.arity
    return 3


def _as_case(probe, n: int) -> tuple | None:
    """A probe point as a case tuple, or None when its vectors do not have n
    coordinates, so that it does not apply at this arity."""
    case = tuple(np.asarray(v, dtype=float) if np.ndim(v) else np.float64(v) for v in probe)
    return case if all(v.size == n for v in case if v.ndim) else None


_FIRST_CHUNK = 8  # samples; each chunk doubles the last
# Coordinates of one chunk's (m, n) draw at most, so temporaries stay small
# for any n while a 100k-sample check takes a few dozen chunks.
_CHUNK_ELEMENTS = 2**16


def _falsify(prop: str, F: Aggregator, n: int | None, cfg: SamplerConfig,
             fields: tuple, draw, test, keep=None) -> PropertyReport:
    """The sampling loop shared by every property check.

    Sample i (1-based) is the i-th probe point while any remain; the rest
    are drawn in chunks of 8, 16, 32, ... samples, at most
    ``_CHUNK_ELEMENTS // n``, and tested up to the budget.
    ``draw(rng, m, n, box, i)`` returns, for the m sample numbers i, one
    array per name in ``fields`` with a first axis of m.  ``test(G, *case)``
    returns the violation flags and the values behind them; G evaluates F on
    a vector, or on every row of an array by ``F.rows`` or else F per row.
    Samples that ``keep(*case)`` rejects (nothing left to test after
    clipping to the domain) and probes of another arity are skipped.  The
    first flagged sample that F confirms on its own is the witness.
    """
    start = time.perf_counter()
    n = _arity(F, n)
    box = _sampling_box(F, cfg)
    rng = np.random.default_rng(cfg.seed)
    probes = [_as_case(p, n) for p in cfg.probe_points]
    budget = max(cfg.samples, len(probes))
    evaluations = skipped = 0

    def G(x: np.ndarray):
        nonlocal evaluations
        evaluations += len(x) if x.ndim > 1 else 1
        if x.ndim == 1:
            return np.float64(F(x))
        return np.asarray(F.rows(x) if F.rows else [F(v) for v in x], dtype=float)

    def witness(case: tuple) -> dict | None:
        bad, values = test(G, *case)
        if bad:
            found = {k: list(map(float, v)) if v.ndim else float(v) for k, v in zip(fields, case)}
            return found | {k: float(v) for k, v in values.items()}

    def report(found: dict | None, used: int) -> PropertyReport:
        verdict = "no-violation-found" if found is None else "violated"
        return PropertyReport(prop, verdict, found, used, cfg.seed, cfg.tol, F.name,
                              skipped, evaluations, time.perf_counter() - start)

    for used, case in enumerate(probes, 1):
        if case is None:
            skipped += 1
        elif (found := witness(case)) is not None:
            return report(found, used)
    used, size = len(probes), _FIRST_CHUNK
    while used < budget:
        size = min(size, max(1, _CHUNK_ELEMENTS // n))
        m = min(size, budget - used)
        # the last chunk is drawn whole too, so no sample depends on the budget
        case = tuple(v[:m] for v in draw(rng, size, n, box, np.arange(used + 1, used + size + 1)))
        kept = np.ones(m, dtype=bool) if keep is None else keep(*case)
        bad = test(G, *(v[kept] for v in case))[0]
        for i in np.flatnonzero(kept)[bad].tolist():
            if (found := witness(tuple(v[i] for v in case))) is not None:
                skipped += int(np.count_nonzero(~kept[:i]))
                return report(found, used + i + 1)
        skipped += m - int(np.count_nonzero(kept))
        used, size = used + m, 2 * size
    return report(None, budget)


def check_weak_monotonicity(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x, a > 0 with F(x + a*1) < F(x) - tol."""
    cfg = cfg or SamplerConfig()

    def draw(rng, m, n, box, i):
        x = _sample_x(rng, m, n, box, cfg.boundary_fraction)
        return x, np.minimum(rng.uniform(0.0, cfg.shift_max, size=m), F.domain.hi - x.max(axis=-1))

    def test(G, x, a):
        before, after = G(x), G(x + a[..., None])
        return after < before - cfg.tol, {"value_before": before, "value_after": after}

    return _falsify("weakly-monotone", F, n, cfg, ("x", "a"), draw, test, keep=lambda x, a: a > 0)


def check_monotonicity(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x <= y componentwise with F(y) < F(x) - tol."""
    cfg = cfg or SamplerConfig()

    def draw(rng, m, n, box, i):
        # after x: a coordinate and its step per sample (m each), then a
        # step per coordinate (m, n); odd samples raise one coordinate,
        # even samples all
        x = _sample_x(rng, m, n, box, cfg.boundary_fraction)
        j = rng.integers(n, size=m)
        one = rng.uniform(0.0, cfg.shift_max, size=m)[:, None] * (np.arange(n) == j[:, None])
        y = x + np.where(i[:, None] % 2 == 1, one, rng.uniform(0.0, cfg.shift_max, size=(m, n)))
        return x, np.minimum(y, F.domain.hi)

    def test(G, x, y):
        fx, fy = G(x), G(y)
        return fy < fx - cfg.tol, {"value_before": fx, "value_after": fy}

    return _falsify("monotone", F, n, cfg, ("x", "y"), draw, test)


def check_shift_invariance(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x, a with |F(x + a*1) - F(x) - a| > tol."""
    cfg = cfg or SamplerConfig()

    def draw(rng, m, n, box, i):
        x = _sample_x(rng, m, n, box, cfg.boundary_fraction)
        a = rng.uniform(-cfg.shift_max, cfg.shift_max, size=m)
        return x, np.clip(a, F.domain.lo - x.min(axis=-1), F.domain.hi - x.max(axis=-1))

    def test(G, x, a):
        fx, fxa = G(x), G(x + a[..., None])
        values = {"value_before": fx, "value_after": fxa, "expected_after": fx + a}
        return np.abs(fxa - fx - a) > cfg.tol, values

    return _falsify("shift-invariant", F, n, cfg, ("x", "a"), draw, test)


def check_homogeneity(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x, lambda > 0 with |F(lambda*x) - lambda*F(x)| > tol*max(1, lambda)."""
    cfg = cfg or SamplerConfig()

    def draw(rng, m, n, box, i):
        x = _sample_x(rng, m, n, box, cfg.boundary_fraction)
        lam = rng.uniform(0.05, 10.0, size=m)
        top = np.abs(x).max(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return x, np.where(top > 0, np.minimum(lam, F.domain.hi / top), lam)

    def test(G, x, lam):
        fx, flx = G(x), G(lam[..., None] * x)
        values = {"value": fx, "scaled_value": flx, "expected": lam * fx}
        return np.abs(flx - lam * fx) > cfg.tol * np.maximum(1.0, lam), values

    return _falsify("homogeneous", F, n, cfg, ("x", "lambda"), draw, test)


def check_idempotency(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for t with |F(t, ..., t) - t| > tol."""
    cfg = cfg or SamplerConfig()
    n = _arity(F, n)

    def draw(rng, m, n, box, i):
        return (rng.uniform(box.lo, box.hi, size=m),)

    def test(G, t):
        ft = G(np.repeat(t[..., None], n, axis=-1))
        return np.abs(ft - t) > cfg.tol, {"value": ft}

    return _falsify("idempotent", F, n, cfg, ("t",), draw, test)


def check_averaging(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x with F(x) outside [min(x), max(x)] by more than tol."""
    cfg = cfg or SamplerConfig()

    def test(G, x):
        fx = G(x)
        return (fx < x.min(axis=-1) - cfg.tol) | (fx > x.max(axis=-1) + cfg.tol), {"value": fx}

    return _falsify("averaging", F, n, cfg, ("x",), _draw_x(cfg), test)


def check_internality(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x with F(x) farther than tol from every x_i."""
    cfg = cfg or SamplerConfig()

    def test(G, x):
        fx = G(x)
        return np.abs(x - fx[..., None]).min(axis=-1) > cfg.tol, {"value": fx}

    return _falsify("internal", F, n, cfg, ("x",), _draw_x(cfg), test)


CHECKS = {
    "monotone": check_monotonicity,
    "weakly-monotone": check_weak_monotonicity,
    "shift-invariant": check_shift_invariance,
    "homogeneous": check_homogeneity,
    "idempotent": check_idempotency,
    "averaging": check_averaging,
    "internal": check_internality,
}


def directional_derivative(F: Aggregator, x, h: float | None = None) -> float:
    """One-sided forward difference of F along the normalized diagonal."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * max(1.0, float(np.abs(x).max()))
    if h <= 0:
        raise ValueError("step h must be positive")
    n = x.size
    return (F(x + h) - F(x)) / (h * math.sqrt(n))


def check_mixture_sufficient_condition(
    w_fn: Callable[[float], float],
    interval: Interval,
    grid: int = 1001,
    dw_fn: Callable[[float], float] | None = None,
) -> PropertyReport:
    """Grid check of the monotonicity sufficient condition
    w(t) >= w'(t) * (hi - t) for a mixture weight function.

    A pass certifies (numerically) the sufficient condition only.
    """
    start = time.perf_counter()
    ts = np.linspace(interval.lo, interval.hi, grid)
    eps = 1e-7 * max(1.0, interval.hi - interval.lo)
    calls_per_point = 2 if dw_fn is not None else 3  # w and w', or w at t and t +- eps
    witness, used = None, 0
    for t in map(float, ts):
        used += 1
        if dw_fn is not None:
            dw = float(dw_fn(t))
        else:
            lo, hi = max(t - eps, interval.lo), min(t + eps, interval.hi)
            dw = (float(w_fn(hi)) - float(w_fn(lo))) / (hi - lo)
        lhs, rhs = float(w_fn(t)), dw * (interval.hi - t)
        if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
            witness = {"t": t, "w": lhs, "dw_times_remaining": rhs}
            break
    verdict = "no-violation-found" if witness is None else "violated"
    return PropertyReport("mixture-monotone-sufficient", verdict, witness, used, 0, 1e-9,
                          evaluations=used * calls_per_point,
                          elapsed_s=time.perf_counter() - start)


def lehmer_bound_table(
    q_values: Sequence[float], n_max: int, cfg: SamplerConfig | None = None
) -> list[dict]:
    """Theoretical weak-monotonicity bound vs empirical sampling verdict for
    the Lehmer mean over a (q, n) grid."""
    cfg = cfg or SamplerConfig(samples=20_000)
    sub = replace(cfg, box=cfg.box or Interval(0.0, 1.0))
    rows = []
    for q in q_values:
        excluded = 0 < q < 1
        bound = None if excluded else lehmer_max_args(q)
        for n in range(2, n_max + 1):
            report = check_weak_monotonicity(named_aggregator("lehmer", q=q), n=n, cfg=sub)
            if excluded:
                theory = "not weakly monotone (q in (0,1))"
            elif n <= bound:
                theory = "weakly monotone (within bound)"
            else:
                theory = "no guarantee (beyond bound)"
            rows.append({"q": float(q), "n": int(n), "bound": None if bound is None else float(bound),
                         "theory": theory, "empirical": report.verdict, "witness": report.witness})
    return rows
