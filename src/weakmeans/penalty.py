"""Penalty-based representation of means.

A mean is the argmin over y of a penalty P(x, y); when the minimiser set is
not a single point the infimum (leftmost minimiser) is reported.  The
minimizer is a fixed oracle over [min x, max x]: it scans a uniform grid of
``_GRID_POINTS`` augmented with all input values as mandatory candidates (one
broadcast call per block of candidates), then refines around every
grid-global minimum with golden-section search in the adjacent cells.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .means import _as_input, _check_weight_values

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# Elements (candidates x inputs) of one broadcast ``term`` call in
# ``penalty_values``; bounds each temporary of the scan to 0.5 MB whatever
# the number of inputs.
_SCAN_BLOCK = 1 << 16
_GRID_POINTS = 2001  # uniform scan points on [min x, max x]
_REFINE_TOL = 1e-10  # golden-section bracket width at which refinement stops

# A penalty is its per-input term: P(x, y) = sum of term(x, y), >= 0 with
# equality iff all x_i = y.  The term must broadcast: called with x of shape
# (1, n) and y an (m, 1) column of candidates it returns the (m, n) terms,
# row k being the terms at y[k], so one call scans m candidates.
Term = Callable[[np.ndarray, float | np.ndarray], np.ndarray]


def penalty_values(term: Term, x: np.ndarray, ys) -> np.ndarray:
    """P(x, y) for every y in ys; equal, bit for bit, to
    ``float(np.sum(term(x, y)))`` for each y alone."""
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rows = max(1, _SCAN_BLOCK // x.size)
    out = np.empty(ys.size)
    for i in range(0, ys.size, rows):
        out[i : i + rows] = np.sum(term(x[None, :], ys[i : i + rows, None]), axis=1)
    return out


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


def minimize_penalty(term: Term, x) -> float:
    """Leftmost global minimiser of y -> P(x, y) over [min x, max x].

    All input values are injected into the scan so quasi-penalties whose
    minimisers sit exactly at data points are never missed by the uniform
    grid.
    """
    x = _as_input(x)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo

    cand = np.unique(np.concatenate([np.linspace(lo, hi, _GRID_POINTS), x]))
    vals = penalty_values(term, x, cand)
    if not np.all(np.isfinite(vals)):
        raise ValueError("penalty produced non-finite values on the bracket")

    best = float(vals.min())
    tie_tol = 1e-12 * max(1.0, abs(best))
    best_y = float(cand[int(np.argmax(vals <= best + tie_tol))])
    best_v = best

    # refine around every grid-global minimum in both adjacent cells
    f = lambda y: float(np.sum(term(x, y)))
    for i in np.flatnonzero(vals <= best + tie_tol):
        for a, b in ((cand[max(i - 1, 0)], cand[i]), (cand[i], cand[min(i + 1, cand.size - 1)])):
            if b - a <= _REFINE_TOL:
                continue
            y, v = golden_section(f, float(a), float(b), _REFINE_TOL)
            if v < best_v - tie_tol or (v <= best_v + tie_tol and y < best_y):
                best_y, best_v = y, min(v, best_v)

    # parabolic polish: value comparisons alone localize a smooth minimum only
    # to ~sqrt(eps); the 3-point vertex recovers it when f is locally quadratic
    delta = 1e-5 * max(1.0, hi - lo)
    for _ in range(3):
        ya, yb = best_y - delta, best_y + delta
        if ya < lo or yb > hi:  # vertex formula needs the symmetric stencil
            break
        fa, f0, fb = penalty_values(term, x, [ya, best_y, yb]).tolist()
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


def mixture_penalty(w_fn: Callable[[np.ndarray], np.ndarray]) -> Term:
    """Quadratic penalty sum w(x_i) (x_i - y)^2 whose argmin is the mixture mean."""
    return lambda xs, y: _check_weight_values(w_fn(xs)) * (xs - y) ** 2


def least_squares_penalty(xs: np.ndarray, y) -> np.ndarray:
    return (xs - y) ** 2


def absolute_penalty(xs: np.ndarray, y) -> np.ndarray:
    return np.abs(xs - y)


def mode_penalty(xs: np.ndarray, y) -> np.ndarray:
    """Counting quasi-penalty: 0 for matching inputs, 1 otherwise."""
    return (xs != y).astype(float)


def sublevel_convexity_check(term: Term, x) -> bool:
    """Sampled sanity check that y -> P(x, y) has convex sublevel sets: P at
    a point between a and b is at most max(P(a), P(b)), for 200 seeded
    random triples."""
    x = _as_input(x)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return True
    u = np.random.default_rng(0).uniform(size=(200, 3))
    a, b = np.sort(lo + (hi - lo) * u[:, :2], axis=1).T
    mid = a + u[:, 2] * (b - a)
    pa, pb, pm = penalty_values(term, x, np.concatenate([a, b, mid])).reshape(3, -1)
    cap = np.maximum(pa, pb)
    return not np.any(pm > cap + 1e-9 * np.maximum(1.0, np.abs(cap)))
