"""Penalty-based representation of means.

A mean is the argmin over y of a penalty P(x, y); when the minimiser set is
not a single point the infimum (leftmost minimiser) is reported.  The
minimizer scans a dense grid augmented with all input values as mandatory
candidates (one broadcast call per block of candidates for ``term``
penalties), then refines around every grid-global minimum with golden-section
search in the adjacent cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .means import Interval, _as_input

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# Elements (candidates x inputs) of one broadcast ``term`` call in
# ``PenaltySpec.evaluate_many``; bounds each temporary of the scan to 0.5 MB
# whatever the number of inputs.
_SCAN_BLOCK = 1 << 16


@dataclass
class PenaltySpec:
    """Penalty P(x, y) >= c with equality iff all x_i = y.

    Either ``term`` (vectorized per-input terms, summed) or ``whole`` (full
    penalty) must be given.  ``term`` must broadcast: called with x of shape
    (1, n) and y an (m, 1) column of candidates it returns the (m, n) terms,
    row k being the terms at y[k], so one call scans m candidates.  ``whole``
    is called with one scalar y at a time.
    """

    term: Callable[[np.ndarray, float | np.ndarray], np.ndarray] | None = None
    whole: Callable[[np.ndarray, float], float] | None = None
    constant: float = 0.0

    def __post_init__(self):
        if (self.term is None) == (self.whole is None):
            raise ValueError("exactly one of term/whole must be provided")

    def evaluate(self, x: np.ndarray, y: float) -> float:
        x = np.asarray(x, dtype=float)
        if self.term is not None:
            return float(np.sum(self.term(x, y)))
        return float(self.whole(x, y))

    def evaluate_many(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """P(x, y) for every y in ys; equal, bit for bit, to ``evaluate``
        called once per y."""
        x = np.asarray(x, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.term is None:
            return np.array([self.evaluate(x, float(y)) for y in ys])
        rows = max(1, _SCAN_BLOCK // x.size)
        out = np.empty(ys.size)
        for i in range(0, ys.size, rows):
            out[i : i + rows] = np.sum(self.term(x[None, :], ys[i : i + rows, None]), axis=1)
        return out


@dataclass
class MinimizerConfig:
    grid_points: int = 2001
    refine_tol: float = 1e-10
    bracket: Interval | None = None  # None resolves to [min(x), max(x)]
    extra_candidates: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self):
        if self.grid_points < 3:
            raise ValueError("grid_points must be >= 3")
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be positive")


def golden_section(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Minimise a unimodal f on [a, b]; returns (argmin, value)."""
    h = b - a
    if h <= tol:
        y = 0.5 * (a + b)
        return y, f(y)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        h *= _INV_PHI
        if yc < yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


def minimize_penalty(
    P: PenaltySpec, x, cfg: MinimizerConfig | None = None
) -> float:
    """Leftmost global minimiser of y -> P(x, y) over the bracket.

    All input values (and any extra candidates) are injected into the scan so
    quasi-penalties whose minimisers sit exactly at data points are never
    missed by the uniform grid.
    """
    cfg = cfg or MinimizerConfig()
    x = _as_input(x)
    if cfg.bracket is None:
        lo, hi = float(x.min()), float(x.max())
    else:
        lo, hi = cfg.bracket.lo, cfg.bracket.hi
    if lo > hi:
        raise ValueError("empty bracket")
    if lo == hi:
        return lo

    grid = np.linspace(lo, hi, cfg.grid_points)
    cand = np.concatenate([grid, x, np.asarray(cfg.extra_candidates, dtype=float)])
    cand = np.unique(cand[(cand >= lo) & (cand <= hi)])
    vals = P.evaluate_many(x, cand)
    if not np.all(np.isfinite(vals)):
        raise ValueError("penalty produced non-finite values on the bracket")

    best = float(vals.min())
    tie_tol = 1e-12 * max(1.0, abs(best))
    best_y = float(cand[int(np.argmax(vals <= best + tie_tol))])
    best_v = best

    # refine around every grid-global minimum in both adjacent cells
    f = lambda y: P.evaluate(x, y)
    for i in np.flatnonzero(vals <= best + tie_tol):
        for a, b in ((cand[max(i - 1, 0)], cand[i]), (cand[i], cand[min(i + 1, cand.size - 1)])):
            if b - a <= cfg.refine_tol:
                continue
            y, v = golden_section(f, float(a), float(b), cfg.refine_tol)
            if v < best_v - tie_tol or (v <= best_v + tie_tol and y < best_y):
                best_y, best_v = y, min(v, best_v)

    # parabolic polish: value comparisons alone localize a smooth minimum only
    # to ~sqrt(eps); the 3-point vertex recovers it when f is locally quadratic
    delta = 1e-5 * max(1.0, hi - lo)
    for _ in range(3):
        ya, yb = best_y - delta, best_y + delta
        if ya < lo or yb > hi:  # vertex formula needs the symmetric stencil
            break
        fa, f0, fb = f(ya), f(best_y), f(yb)
        denom = fa - 2.0 * f0 + fb
        if denom <= tie_tol:  # no resolvable curvature (plateau or noise floor)
            break
        y_p = best_y - 0.5 * ((fb - fa) / denom) * delta
        if not (lo <= y_p <= hi) or abs(y_p - best_y) > delta:
            break
        v_p = f(y_p)
        if v_p <= best_v + tie_tol:
            best_y, best_v = y_p, min(v_p, best_v)
        delta *= 1e-2
    return best_y


def mixture_penalty(w_fn: Callable[[np.ndarray], np.ndarray]) -> PenaltySpec:
    """Quadratic penalty sum w(x_i) (x_i - y)^2 whose argmin is the mixture mean."""

    def term(xs: np.ndarray, y: float) -> np.ndarray:
        w = np.asarray(w_fn(xs), dtype=float)
        if np.any(w < 0):
            raise ValueError("weight function must be non-negative")
        return w * (xs - y) ** 2

    return PenaltySpec(term=term)


def least_squares_penalty() -> PenaltySpec:
    return PenaltySpec(term=lambda xs, y: (xs - y) ** 2)


def absolute_penalty() -> PenaltySpec:
    return PenaltySpec(term=lambda xs, y: np.abs(xs - y))


def mode_penalty() -> PenaltySpec:
    """Counting quasi-penalty: 0 for matching inputs, 1 otherwise."""
    return PenaltySpec(term=lambda xs, y: (xs != y).astype(float))


def shifted_penalty_value(P: PenaltySpec, x, a: float, y: float) -> float:
    """P evaluated at (x + a*1, y + a); equals P(x, y) for difference-based terms."""
    x = _as_input(x)
    return P.evaluate(x + a, y + a)


def sublevel_convexity_check(
    P: PenaltySpec, x, samples: int = 200, seed: int = 0
) -> bool:
    """Sampled sanity check that y -> P(x, y) has convex sublevel sets."""
    x = _as_input(x)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return True
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a, b = np.sort(rng.uniform(lo, hi, size=2))
        t = rng.uniform()
        mid = a + t * (b - a)
        cap = max(P.evaluate(x, a), P.evaluate(x, b))
        if P.evaluate(x, mid) > cap + 1e-9 * max(1.0, abs(cap)):
            return False
    return True
