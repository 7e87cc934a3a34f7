"""Numerical falsification of monotonicity-class properties.

Each check samples the aggregator's domain (a fifth of the points biased
toward the boundary), reports "no-violation-found" or "violated", and on
violation carries a concrete witness that replays deterministically.
Sampling can never certify a property, so "no-violation-found" is the
strongest positive verdict.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from types import ModuleType
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import location, means
from .means import Interval, _check_exponent, _check_positive, lehmer_max_args


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
    scalars = {k: _check_exponent(float(given[k]), f"--{k}")
               for k in entry.params if k != "weights"}
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
    box: Interval | None = None  # finite sampling box; default derived from domain
    probe_points: Sequence = field(default_factory=tuple)  # tried before sampling

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        _check_positive(self.tol, "tol")
        _check_positive(self.shift_max, "shift_max")


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
        return json.dumps(vars(self))  # the fields in order, without to_dict's deep copy

    def to_text(self) -> str:
        head = f"{self.property} {self.aggregator}: {self.verdict} " \
               f"(samples={self.samples_used}, skipped={self.samples_skipped}, " \
               f"evaluations={self.evaluations}, seed={self.seed}, tol={self.tol:g}, " \
               f"{self.elapsed_s:.3g} s)"
        witness = (self.witness or {}).items()
        return "\n".join([head] + [f"  {k} = {v}" for k, v in witness])


_BOUNDARY_FRACTION = 0.2  # share of sampled points biased toward the boundary


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Uniforms of [0, 1) mapped to [lo, hi)."""
    return lo + (hi - lo) * u


def _below(u: np.ndarray, n: int) -> np.ndarray:
    """Uniforms of [0, 1) mapped to the integers 0, ..., n - 1."""
    return np.minimum((u * n).astype(np.intp), n - 1)


def _sample_x(U: np.ndarray, n: int, box: Interval) -> np.ndarray:
    """One point of the box per row of the uniform block U, a share of them
    biased toward its faces, edges and vertices.  Of each row it maps the
    first 3n + 3 columns: the point (n), a boundary coin, a face
    rate, a fallback coordinate, the face coins (n) and the side coins (n)."""
    x = _uniform(U[:, :n], box.lo, box.hi)
    biased = U[:, n] < _BOUNDARY_FRACTION
    rate = _uniform(U[:, n + 1], 0.2, 1.0)
    face = (U[:, n + 3 : 2 * n + 3] < rate[:, None]) & biased[:, None]
    empty = biased & ~face.any(axis=1)
    face[empty, _below(U[empty, n + 2], n)] = True  # a biased point has a face coordinate
    return np.where(face, np.where(U[:, 2 * n + 3 : 3 * n + 3] < 0.5, box.lo, box.hi), x)


def _arity(F: Aggregator, n: int | None) -> int:
    if n is not None:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        return n
    if F.arity is not None:
        return F.arity
    return 3


def _as_case(probe, n: int) -> tuple | None:
    """A probe point as a case tuple, or None when its vectors do not have n
    coordinates, so that it does not apply at this arity."""
    case = tuple(np.asarray(v, dtype=float) if np.ndim(v) else np.float64(v) for v in probe)
    return case if all(v.size == n for v in case if v.ndim) else None


_FIRST_CHUNK = 8  # samples; each chunk is 8 times the last
# Uniforms of one chunk's block at most, so temporaries stay small for any
# n while a 100k-sample check takes 14 chunks at n = 3 and about 50 at n = 20.
_CHUNK_ELEMENTS = 2**17


class Property(NamedTuple):
    """A property the falsifier checks, and its check: ``CHECKS[name](F, n,
    cfg)`` searches for a case that violates it.

    A case is one array per name in ``fields``.  ``draw(U, n, box, i, F,
    cfg)`` maps a block U of uniform rows, the 3n + 3 columns ``_sample_x``
    maps and then ``extra(n)`` more, of the sample numbers i to cases with a
    first axis of len(U).  ``test(G, cfg, n, *case)`` returns the violation
    flags and the values behind them; ``G(*points)`` evaluates F at each
    point.  A witness replays as ``CHECKS[name].test(G, cfg, n, *case)``.
    Samples that ``keep(*case)`` rejects have nothing left to test after
    clipping to the domain, and are skipped.
    """

    name: str
    fields: tuple
    extra: Callable[[int], int]
    draw: Callable
    test: Callable
    keep: Callable | None = None

    def __call__(self, F: Aggregator, n: int | None = None,
                 cfg: SamplerConfig | None = None) -> PropertyReport:
        return _falsify(self, F, n, cfg or SamplerConfig())


def _falsify(prop: Property, F: Aggregator, n: int | None, cfg: SamplerConfig) -> PropertyReport:
    """The sampling loop shared by every property check.

    Sample i (1-based) is the i-th probe point while any remain; drawn
    sample k is row k of the seed's stream of uniform rows, whatever the
    chunking or the budget.  Blocks hold at most ``_CHUNK_ELEMENTS``
    uniforms: a budget that fits is drawn as one block, a larger one in
    blocks of 8, 64, 512, ... rows, so that an early witness stays cheap.
    Each block is copied to column-major order (the copy keeps the
    stream), so reductions over a row's few columns run over contiguous
    memory.  ``G`` evaluates F at a vector by F itself and at every row of
    stacked arrays by one ``F.rows`` call on one column-major block (or
    else F per row).  Probes of another arity are skipped.
    The first flagged sample that F confirms on its own is the witness.
    """
    start = time.perf_counter()
    n = _arity(F, n)
    box = cfg.box or F.domain.finite_box()
    rng = np.random.default_rng(cfg.seed)
    probes = [_as_case(p, n) for p in cfg.probe_points]
    budget = max(cfg.samples, len(probes))
    evaluations = skipped = 0

    def G(*points: np.ndarray) -> list:
        nonlocal evaluations
        if points[0].ndim == 1:
            evaluations += len(points)
            return [np.float64(F(x)) for x in points]
        m = len(points[0])
        X = np.concatenate(points, out=np.empty((len(points) * m, n), order="F"))
        evaluations += len(X)
        values = np.asarray(F.rows(X) if F.rows else [F(v) for v in X], dtype=float)
        return [values[k * m : (k + 1) * m] for k in range(len(points))]

    def witness(case: tuple) -> dict | None:
        bad, values = prop.test(G, cfg, n, *case)
        if bad:
            found = {k: v.tolist() if v.ndim else float(v) for k, v in zip(prop.fields, case)}
            return found | {k: float(v) for k, v in values.items()}

    def report(found: dict | None, used: int) -> PropertyReport:
        verdict = "no-violation-found" if found is None else "violated"
        return PropertyReport(prop.name, verdict, found, used, cfg.seed, cfg.tol, F.name,
                              skipped, evaluations, time.perf_counter() - start)

    for used, case in enumerate(probes, 1):
        if case is None:
            skipped += 1
        elif (found := witness(case)) is not None:
            return report(found, used)
    cols = 3 * n + 3 + prop.extra(n)
    cap = max(1, _CHUNK_ELEMENTS // cols)
    used = len(probes)
    size = cap if budget - used <= cap else min(_FIRST_CHUNK, cap)
    while used < budget:
        m = min(size, budget - used)
        U = np.asfortranarray(rng.random((m, cols)))
        case = prop.draw(U, n, box, np.arange(used + 1, used + m + 1), F, cfg)
        kept = np.ones(m, dtype=bool) if prop.keep is None else prop.keep(*case)
        bad = prop.test(G, cfg, n, *(case if kept.all() else (v[kept] for v in case)))[0]
        for i in np.flatnonzero(kept)[bad].tolist():
            if (found := witness(tuple(v[i] for v in case))) is not None:
                skipped += int(np.count_nonzero(~kept[:i]))
                return report(found, used + i + 1)
        skipped += m - int(np.count_nonzero(kept))
        used, size = used + m, min(8 * size, cap)
    return report(None, budget)


def _draw_x(U, n, box, i, F, cfg):
    return (_sample_x(U, n, box),)


def _draw_monotone(U, n, box, i, F, cfg):
    # after x: a coordinate j, its step, then a step per coordinate;
    # odd samples raise coordinate j, even samples all
    x = _sample_x(U, n, box)
    step = _uniform(U[:, -n - 1 :], 0.0, cfg.shift_max)
    one = step[:, :1] * (np.arange(n) == _below(U[:, -n - 2], n)[:, None])
    y = x + np.where(i[:, None] % 2 == 1, one, step[:, 1:])
    return x, np.minimum(y, F.domain.hi)


def _test_decrease(G, cfg, n, x, y):
    fx, fy = G(x, y)
    return fy < fx - cfg.tol, {"value_before": fx, "value_after": fy}


def _draw_rise(U, n, box, i, F, cfg):
    x = _sample_x(U, n, box)
    a = _uniform(U[:, -1], 0.0, cfg.shift_max)
    return x, np.minimum(a, F.domain.hi - x.max(axis=-1))


def _test_rise(G, cfg, n, x, a):
    return _test_decrease(G, cfg, n, x, x + a[..., None])


def _draw_shift(U, n, box, i, F, cfg):
    x = _sample_x(U, n, box)
    a = _uniform(U[:, -1], -cfg.shift_max, cfg.shift_max)
    return x, np.clip(a, F.domain.lo - x.min(axis=-1), F.domain.hi - x.max(axis=-1))


def _test_shift(G, cfg, n, x, a):
    fx, fxa = G(x, x + a[..., None])
    values = {"value_before": fx, "value_after": fxa, "expected_after": fx + a}
    return np.abs(fxa - fx - a) > cfg.tol, values


def _draw_scale(U, n, box, i, F, cfg):
    x = _sample_x(U, n, box)
    lam = _uniform(U[:, -1], 0.05, 10.0)
    top = np.abs(x).max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return x, np.where(top > 0, np.minimum(lam, F.domain.hi / top), lam)


def _test_scale(G, cfg, n, x, lam):
    fx, flx = G(x, lam[..., None] * x)
    values = {"value": fx, "scaled_value": flx, "expected": lam * fx}
    return np.abs(flx - lam * fx) > cfg.tol * np.maximum(1.0, lam), values


def _draw_t(U, n, box, i, F, cfg):
    # t is uniform like a point's first coordinate; its row's other
    # columns go unused
    return (_uniform(U[:, 0], box.lo, box.hi),)


def _test_idempotent(G, cfg, n, t):
    (ft,) = G(np.repeat(t[..., None], n, axis=-1))
    return np.abs(ft - t) > cfg.tol, {"value": ft}


def _test_averaging(G, cfg, n, x):
    (fx,) = G(x)
    return (fx < x.min(axis=-1) - cfg.tol) | (fx > x.max(axis=-1) + cfg.tol), {"value": fx}


def _test_internal(G, cfg, n, x):
    (fx,) = G(x)
    return np.abs(x - fx[..., None]).min(axis=-1) > cfg.tol, {"value": fx}


CHECKS = {prop.name: prop for prop in (
    # x <= y componentwise with F(y) < F(x) - tol
    Property("monotone", ("x", "y"), lambda n: n + 2, _draw_monotone, _test_decrease),
    # x, a > 0 with F(x + a*1) < F(x) - tol
    Property("weakly-monotone", ("x", "a"), lambda n: 1, _draw_rise, _test_rise,
             keep=lambda x, a: a > 0),
    # x, a with |F(x + a*1) - F(x) - a| > tol
    Property("shift-invariant", ("x", "a"), lambda n: 1, _draw_shift, _test_shift),
    # x, lambda > 0 with |F(lambda*x) - lambda*F(x)| > tol*max(1, lambda)
    Property("homogeneous", ("x", "lambda"), lambda n: 1, _draw_scale, _test_scale),
    # t with |F(t, ..., t) - t| > tol
    Property("idempotent", ("t",), lambda n: 0, _draw_t, _test_idempotent),
    # x with F(x) outside [min(x), max(x)] by more than tol
    Property("averaging", ("x",), lambda n: 0, _draw_x, _test_averaging),
    # x with F(x) farther than tol from every x_i
    Property("internal", ("x",), lambda n: 0, _draw_x, _test_internal),
)}
check_monotonicity = CHECKS["monotone"]
check_weak_monotonicity = CHECKS["weakly-monotone"]
check_shift_invariance = CHECKS["shift-invariant"]
check_homogeneity = CHECKS["homogeneous"]
check_idempotency = CHECKS["idempotent"]
check_averaging = CHECKS["averaging"]
check_internality = CHECKS["internal"]


def check_mixture_sufficient_condition(
    w_fn: Callable[[float], float],
    interval: Interval,
    dw_fn: Callable[[float], float] | None = None,
) -> PropertyReport:
    """Check of the monotonicity sufficient condition w(t) >= w'(t) * (hi - t)
    for a mixture weight function at 1001 evenly spaced points t, within
    1e-9 * max(1, |w'(t) * (hi - t)|).

    Without ``dw_fn``, w'(t) is a three-point difference with step
    eps = 1e-7 * max(1, hi - lo), central inside the interval and one-sided
    at an end, and the tolerance grows by its rounding error times (hi - t):
    2^-51 * max |w| / eps inside, 2.5 times that at an end (1.1e-8 * max |w|
    * (hi - t) there for an interval no wider than 1).  An interval narrower
    than 3 eps, or whose ends are so large that eps is under 2 ulp of them,
    is then refused.

    A pass certifies (numerically) the sufficient condition only.  An
    unbounded interval, or a w(t) or w'(t) that is not finite, is refused.
    """
    lo, hi = interval.lo, interval.hi
    if not math.isfinite(hi - lo):
        raise ValueError(f"the interval must be bounded, got [{lo}, {hi}]")
    eps = 1e-7 * max(1.0, hi - lo)
    if dw_fn is None and (hi - lo < 3 * eps or eps < 2 * math.ulp(max(abs(lo), abs(hi)))):
        raise ValueError(f"the interval [{lo}, {hi}] is too narrow for a difference of step "
                         f"{eps}; give dw_fn")
    start = time.perf_counter()
    ts = np.linspace(lo, hi, 1001)
    calls_per_point = 2 if dw_fn is not None else 3  # w and w', or w at t and two points by t
    witness, used = None, 0
    for t in map(float, ts):
        used += 1
        lhs, err = float(w_fn(t)), 0.0
        if dw_fn is not None:
            dw = float(dw_fn(t))
        else:
            side = 1.0 if t - eps < lo else -1.0 if t + eps > hi else 0.0
            a, b = (t - eps, t + eps) if side == 0 else (t + side * eps, t + 2 * side * eps)
            c1, c2 = (b - t) / ((a - t) * (b - a)), (t - a) / ((b - t) * (b - a))
            wa, wb = float(w_fn(a)), float(w_fn(b))
            dw = c1 * (wa - lhs) + c2 * (wb - lhs)
            # each difference of w values is off by at most 2^-51 of the largest
            err = (abs(c1) + abs(c2)) * 2.0**-51 * max(abs(lhs), abs(wa), abs(wb))
        rhs = dw * (hi - t)
        if not (math.isfinite(lhs) and math.isfinite(dw)):
            raise ValueError(f"w(t) = {lhs} or w'(t) = {dw} is not finite at t = {t}")
        if lhs < rhs - 1e-9 * max(1.0, abs(rhs)) - err * (hi - t):
            witness = {"t": t, "w": lhs, "dw_times_remaining": rhs}
            break
    verdict = "no-violation-found" if witness is None else "violated"
    return PropertyReport("mixture-monotone-sufficient", verdict, witness, used, 0, 1e-9,
                          evaluations=used * calls_per_point,
                          elapsed_s=time.perf_counter() - start)


TABLE_SAMPLES = 20_000  # the table's default budget per (q, n) row


def lehmer_bound_table(
    q_values: Sequence[float], n_max: int, cfg: SamplerConfig | None = None
) -> list[dict]:
    """Theoretical weak-monotonicity bound vs empirical sampling verdict for
    the Lehmer mean over a (q, n) grid."""
    for q in q_values:
        _check_exponent(q, "q")
    cfg = cfg or SamplerConfig(samples=TABLE_SAMPLES)
    rows = []
    for q in q_values:
        excluded = 0 < q < 1
        bound = None if excluded else lehmer_max_args(q)
        for n in range(2, n_max + 1):
            report = check_weak_monotonicity(named_aggregator("lehmer", q=q), n=n, cfg=cfg)
            if excluded:
                theory = "not weakly monotone (q in (0,1))"
            elif n <= bound:
                theory = "weakly monotone (within bound)"
            else:
                theory = "no guarantee (beyond bound)"
            rows.append({"q": float(q), "n": int(n), "bound": None if bound is None else float(bound),
                         "theory": theory, "empirical": report.verdict, "witness": report.witness})
    return rows
