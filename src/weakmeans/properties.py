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

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))


class _Named(NamedTuple):
    module: ModuleType
    fn: str  # looked up in ``module`` at every call, so a rebound name is seen
    domain: Interval
    known: frozenset
    params: tuple = ()  # required parameters, passed after x in this order
    weighted: bool = False  # also passes the optional weight vector


_REALS = Interval(-math.inf, math.inf)
_NONNEG = Interval(0.0, math.inf)
_MONO_SHIFT = frozenset({"monotone", "shift-invariant"})
_SHIFT = frozenset({"shift-invariant"})

AGGREGATORS = {
    "mean": _Named(means, "arithmetic_mean", _REALS, _MONO_SHIFT),
    "arithmetic": _Named(means, "arithmetic_mean", _REALS, _MONO_SHIFT),
    "median": _Named(means, "median", _REALS, _MONO_SHIFT),
    "midrange": _Named(means, "midrange", _REALS, _MONO_SHIFT),
    "mode": _Named(location, "mode", _REALS, _SHIFT),
    "shorth": _Named(location, "shorth", _REALS, _SHIFT),
    "lms": _Named(location, "lms", _REALS, _SHIFT),
    "lts": _Named(location, "lts", _REALS, _SHIFT),
    "density": _Named(location, "density_mean", _REALS, _SHIFT),
    "lehmer": _Named(means, "lehmer_mean", _NONNEG, frozenset({"homogeneous"}), ("q",)),
    "gini": _Named(means, "gini_mean", _NONNEG, frozenset(), ("p", "q"), weighted=True),
    "power": _Named(means, "power_mean", _NONNEG, frozenset({"monotone"}), ("p",), weighted=True),
    # the weight vector fixes the arity of the OWA family
    "owa": _Named(means, "owa", _REALS, _MONO_SHIFT, ("weights",)),
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
    return Aggregator(
        fn=lambda x: getattr(entry.module, entry.fn)(x, *args),
        domain=entry.domain,
        arity=w.size if "weights" in entry.params else None,
        known=entry.known,
        name=f"{name}({label})" if label else name,
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
               f"seed={self.seed}, tol={self.tol:g})"
        witness = (self.witness or {}).items()
        return "\n".join([head] + [f"  {k} = {v}" for k, v in witness])


def _sampling_box(F: Aggregator, cfg: SamplerConfig) -> Interval:
    if cfg.box is not None:
        return cfg.box
    lo = F.domain.lo if math.isfinite(F.domain.lo) else 0.0
    hi = F.domain.hi if math.isfinite(F.domain.hi) else lo + 1.0
    return Interval(lo, hi)


def _sample_x(rng: np.random.Generator, n: int, box: Interval, boundary_fraction: float) -> np.ndarray:
    x = rng.uniform(box.lo, box.hi, size=n)
    if rng.uniform() < boundary_fraction:
        # bias toward faces/edges/vertices of the box
        mask = rng.uniform(size=n) < rng.uniform(0.2, 1.0)
        if not mask.any():
            mask[rng.integers(n)] = True
        x[mask] = np.where(rng.uniform(size=n) < 0.5, box.lo, box.hi)[mask]
    return x


def _draw_x(cfg: SamplerConfig):
    return lambda rng, n, box, i: (_sample_x(rng, n, box, cfg.boundary_fraction),)


def _arity(F: Aggregator, n: int | None) -> int:
    if n is not None:
        return n
    if F.arity is not None:
        return F.arity
    return 3


def _as_case(probe, n: int) -> tuple | None:
    """A probe point as a case tuple, or None when its vectors do not have n
    coordinates, so that it does not apply at this arity."""
    case = tuple(np.asarray(v, dtype=float) if np.ndim(v) else float(v) for v in probe)
    return case if all(v.size == n for v in case if isinstance(v, np.ndarray)) else None


def _falsify(prop: str, F: Aggregator, n: int | None, cfg: SamplerConfig, draw, test) -> PropertyReport:
    """The sampling loop shared by every property check.

    Sample i (1-based) is the i-th probe point while any remain, else
    ``draw(rng, n, box, i)``.  Each is a case tuple, or None for a skipped
    sample: a draw that clipping to the domain left with nothing to test, or
    a probe of another arity.  ``test(*case)`` returns a witness dict on
    violation, else None.
    """
    n = _arity(F, n)
    box = _sampling_box(F, cfg)
    rng = np.random.default_rng(cfg.seed)
    probes = [_as_case(p, n) for p in cfg.probe_points]
    budget = max(cfg.samples, len(probes))
    skipped = 0
    for used in range(1, budget + 1):
        case = probes[used - 1] if used <= len(probes) else draw(rng, n, box, used)
        if case is None:
            skipped += 1
        elif (witness := test(*case)) is not None:
            return PropertyReport(prop, "violated", witness, used, cfg.seed, cfg.tol, F.name, skipped)
    return PropertyReport(prop, "no-violation-found", None, budget, cfg.seed, cfg.tol, F.name, skipped)


def check_weak_monotonicity(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x, a > 0 with F(x + a*1) < F(x) - tol."""
    cfg = cfg or SamplerConfig()

    def draw(rng, n, box, i):
        x = _sample_x(rng, n, box, cfg.boundary_fraction)
        a = rng.uniform(0.0, cfg.shift_max)
        if math.isfinite(F.domain.hi):
            a = min(a, F.domain.hi - float(x.max()))
        return (x, a) if a > 0 else None

    def test(x, a):
        before, after = F(x), F(x + a)
        if after < before - cfg.tol:
            return {
                "x": list(map(float, x)),
                "a": float(a),
                "value_before": before,
                "value_after": after,
            }

    return _falsify("weakly-monotone", F, n, cfg, draw, test)


def check_monotonicity(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x <= y componentwise with F(y) < F(x) - tol."""
    cfg = cfg or SamplerConfig()

    def draw(rng, n, box, i):
        x = _sample_x(rng, n, box, cfg.boundary_fraction)
        y = x.copy()
        if i % 2:  # single-coordinate increment
            j = rng.integers(n)
            y[j] += rng.uniform(0.0, cfg.shift_max)
        else:
            y += rng.uniform(0.0, cfg.shift_max, size=n)
        if math.isfinite(F.domain.hi):
            y = np.minimum(y, F.domain.hi)
        return x, y

    def test(x, y):
        fx, fy = F(x), F(y)
        if fy < fx - cfg.tol:
            return {
                "x": list(map(float, x)),
                "y": list(map(float, y)),
                "value_before": fx,
                "value_after": fy,
            }

    return _falsify("monotone", F, n, cfg, draw, test)


def check_shift_invariance(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x, a with |F(x + a*1) - F(x) - a| > tol."""
    cfg = cfg or SamplerConfig()

    def draw(rng, n, box, i):
        x = _sample_x(rng, n, box, cfg.boundary_fraction)
        a = rng.uniform(-cfg.shift_max, cfg.shift_max)
        if math.isfinite(F.domain.lo):
            a = max(a, F.domain.lo - float(x.min()))
        if math.isfinite(F.domain.hi):
            a = min(a, F.domain.hi - float(x.max()))
        return x, a

    def test(x, a):
        fx, fxa = F(x), F(x + a)
        if abs(fxa - fx - a) > cfg.tol:
            return {
                "x": list(map(float, x)),
                "a": float(a),
                "value_before": fx,
                "value_after": fxa,
                "expected_after": fx + a,
            }

    return _falsify("shift-invariant", F, n, cfg, draw, test)


def check_homogeneity(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x, lambda > 0 with |F(lambda*x) - lambda*F(x)| > tol*max(1, lambda)."""
    cfg = cfg or SamplerConfig()

    def draw(rng, n, box, i):
        x = _sample_x(rng, n, box, cfg.boundary_fraction)
        lam = rng.uniform(0.05, 10.0)
        if math.isfinite(F.domain.hi) and float(np.abs(x).max()) > 0:
            lam = min(lam, F.domain.hi / float(np.abs(x).max()))
        return x, lam

    def test(x, lam):
        fx, flx = F(x), F(lam * x)
        if abs(flx - lam * fx) > cfg.tol * max(1.0, lam):
            return {
                "x": list(map(float, x)),
                "lambda": float(lam),
                "value": fx,
                "scaled_value": flx,
                "expected": lam * fx,
            }

    return _falsify("homogeneous", F, n, cfg, draw, test)


def check_idempotency(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for t with |F(t, ..., t) - t| > tol."""
    cfg = cfg or SamplerConfig()
    n = _arity(F, n)

    def draw(rng, n, box, i):
        return (rng.uniform(box.lo, box.hi),)

    def test(t):
        ft = F(np.full(n, t))
        if abs(ft - t) > cfg.tol:
            return {"t": float(t), "value": ft}

    return _falsify("idempotent", F, n, cfg, draw, test)


def check_averaging(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x with F(x) outside [min(x), max(x)] by more than tol."""
    cfg = cfg or SamplerConfig()

    def test(x):
        fx = F(x)
        if fx < float(x.min()) - cfg.tol or fx > float(x.max()) + cfg.tol:
            return {"x": list(map(float, x)), "value": fx}

    return _falsify("averaging", F, n, cfg, _draw_x(cfg), test)


def check_internality(
    F: Aggregator, n: int | None = None, cfg: SamplerConfig | None = None
) -> PropertyReport:
    """Search for x with F(x) farther than tol from every x_i."""
    cfg = cfg or SamplerConfig()

    def test(x):
        fx = F(x)
        if float(np.abs(x - fx).min()) > cfg.tol:
            return {"x": list(map(float, x)), "value": fx}

    return _falsify("internal", F, n, cfg, _draw_x(cfg), test)


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
    ts = np.linspace(interval.lo, interval.hi, grid)
    eps = 1e-7 * max(1.0, interval.hi - interval.lo)
    for t in ts:
        if dw_fn is not None:
            dw = float(dw_fn(float(t)))
        else:
            dw = (float(w_fn(min(t + eps, interval.hi))) - float(w_fn(max(t - eps, interval.lo)))) / (
                min(t + eps, interval.hi) - max(t - eps, interval.lo)
            )
        lhs = float(w_fn(float(t)))
        rhs = dw * (interval.hi - float(t))
        if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
            witness = {"t": float(t), "w": lhs, "dw_times_remaining": rhs}
            return PropertyReport(
                "mixture-monotone-sufficient", "violated", witness, grid, 0, 1e-9
            )
    return PropertyReport(
        "mixture-monotone-sufficient", "no-violation-found", None, grid, 0, 1e-9
    )


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
            rows.append(
                {
                    "q": float(q),
                    "n": int(n),
                    "bound": None if bound is None else float(bound),
                    "theory": theory,
                    "empirical": report.verdict,
                    "witness": report.witness,
                }
            )
    return rows
