"""Robust location estimators.

Mode, shorth, least median of squares, least trimmed squares, OWA-penalty
regression operators, and density-based means.  All are shift-invariant
(and hence weakly monotone) but not monotone.

``mode_rows``, ``shorth_rows`` and ``lms_rows`` evaluate their estimator on
every row (last axis) of an array at once, with the scalar function's tie
rules; the scalar function is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .means import _as_input, _as_rows
from .penalty import PenaltySpec

ArrayLike = Sequence[float] | np.ndarray


def mode(x: ArrayLike, quantize: float | None = None) -> float:
    """Most frequent value; ties broken by the smallest value.

    ``quantize`` optionally snaps values to a grid of that step before
    counting (mode is degenerate on continuous samples).
    """
    v = _as_input(x)
    if quantize is not None:
        if quantize <= 0:
            raise ValueError("quantize step must be positive")
        v = np.round(v / quantize) * quantize
    values, counts = np.unique(v, return_counts=True)
    return float(values[np.argmax(counts)])  # first max = smallest value


def sorted_mode_rows(S: np.ndarray) -> np.ndarray:
    """Smallest most frequent value of every row of S, each sorted: the
    first position that ends a longest run of equal values lies in it."""
    j = np.arange(S.shape[-1])
    starts = np.ones(S.shape, dtype=bool)
    starts[..., 1:] = S[..., 1:] != S[..., :-1]
    run = j - np.maximum.accumulate(np.where(starts, j, 0), axis=-1)
    return np.take_along_axis(S, np.argmax(run, axis=-1)[..., None], axis=-1)[..., 0]


def mode_rows(X: ArrayLike) -> np.ndarray:
    return sorted_mode_rows(np.sort(_as_rows(X), axis=-1))


@dataclass(frozen=True)
class Window:
    """Contiguous half-sample window into sorted data: indices start..stop."""

    start: int  # 0-based into sorted x
    stop: int  # inclusive, start + floor(n/2)
    length: float


def candidate_windows(x: ArrayLike) -> tuple[np.ndarray, list[Window]]:
    """All contiguous half-sample windows of sorted x with their lengths."""
    xs = np.sort(_as_input(x))
    n = xs.size
    if n < 2:
        raise ValueError("need at least two values")
    half = n // 2
    windows = [
        Window(k, k + half, float(xs[k + half] - xs[k]))
        for k in range((n + 1) // 2)
    ]
    return xs, windows


def _shortest_window(x: ArrayLike) -> tuple[np.ndarray, Window]:
    xs = np.sort(_as_input(x))
    if xs.size == 1:  # one value is its own half-sample
        return xs, Window(0, 0, 0.0)
    _, windows = candidate_windows(xs)
    # near-ties (within fp noise of a uniform shift) resolve to the smallest
    # start so the selection is stable under translation of quantized data
    shortest = min(w.length for w in windows)
    tol = 1e-9 * max(1.0, float(np.abs(xs).max()))
    best = next(w for w in windows if w.length <= shortest + tol)
    return xs, best


def shorth(x: ArrayLike) -> float:
    """Arithmetic mean of the shortest half-sample window."""
    xs, w = _shortest_window(x)
    return float(np.mean(xs[w.start : w.stop + 1]))


def lms(x: ArrayLike) -> float:
    """Least median of squares: midpoint of the shortest half-sample window."""
    xs, w = _shortest_window(x)
    return 0.5 * (float(xs[w.start]) + float(xs[w.stop]))


def _shortest_rows(X: ArrayLike) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-sorted X, the start of each row's shortest half-sample window by
    ``_shortest_window``'s near-tie rule, and the window's last offset."""
    xs = np.sort(_as_rows(X), axis=-1)
    n = xs.shape[-1]
    half, starts = n // 2, (n + 1) // 2
    length = xs[..., half : half + starts] - xs[..., :starts]
    tol = 1e-9 * np.maximum(1.0, np.abs(xs).max(axis=-1, keepdims=True))
    k = np.argmax(length <= length.min(axis=-1, keepdims=True) + tol, axis=-1)
    return xs, k[..., None], half


def shorth_rows(X: ArrayLike) -> np.ndarray:
    xs, k, half = _shortest_rows(X)
    return np.take_along_axis(xs, k + np.arange(half + 1), axis=-1).mean(axis=-1)


def lms_rows(X: ArrayLike) -> np.ndarray:
    xs, k, half = _shortest_rows(X)
    ends = np.take_along_axis(xs, np.concatenate([k, k + half], axis=-1), axis=-1)
    return 0.5 * (ends[..., 0] + ends[..., 1])


def lts(x: ArrayLike) -> float:
    """Least trimmed squares.

    In one dimension the optimal h-subset (h = floor(n/2)+1) is a contiguous
    block of the sorted data, so the block of minimal within-window sum of
    squares is found by exact enumeration; its mean is returned.  Ties go to
    the smallest window start.
    """
    xs = np.sort(_as_input(x))
    n = xs.size
    h = n // 2 + 1
    stats = []
    for k in range(n - h + 1):
        win = xs[k : k + h]
        m = win.mean()
        stats.append((float(np.sum((win - m) ** 2)), float(m)))  # centered, shift-stable
    best_sse = min(s for s, _ in stats)
    tol = 1e-9 * max(1.0, best_sse)
    return next(m for s, m in stats if s <= best_sse + tol)


def owa_penalty(delta: ArrayLike) -> PenaltySpec:
    """OWA penalty sum_i delta_i * S_i((x - y)^2), S_i the i-th smallest.

    The term sorts the squared residuals along the last axis, so it
    broadcasts over a column of candidates y like every other term."""
    d = np.asarray(delta, dtype=float)
    if np.any(d < 0) or d.sum() <= 0:
        raise ValueError("delta must be non-negative with positive sum")
    return PenaltySpec(term=lambda xs, y: d * np.sort((xs - y) ** 2, axis=-1))


def owa_penalty_estimator(x: ArrayLike, delta: ArrayLike) -> float:
    """Argmin over y of the OWA-weighted ordered squared residuals.

    Special cases of the weight vector recover classical operators:
    all-ones -> least squares, (0,..,0,1) -> midrange, median weights -> LMS,
    trimmed (1,..,1_h,0,..,0) -> LTS.  Leftmost minimiser convention.

    Each piecewise-quadratic segment (boundaries at all pairwise midpoints)
    is solved analytically; ``minimize_penalty`` over ``owa_penalty`` is the
    independent reference the tests compare it with.
    """
    x = _as_input(x)
    d = np.asarray(delta, dtype=float)
    if d.shape != x.shape:
        raise ValueError("delta must match the input length")
    if np.any(d < 0) or d.sum() <= 0:
        raise ValueError("delta must be non-negative with positive sum")

    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo
    # Segment boundaries: ordering of (x_i - y)^2 changes only at pairwise
    # midpoints.  Within a segment the objective is one strictly convex
    # quadratic with vertex sum(d_i x_sigma(i)) / sum(d).
    mids = (x[:, None] + x[None, :]) / 2.0
    bounds = np.unique(np.concatenate([mids.ravel(), [lo, hi]]))
    bounds = bounds[(bounds >= lo) & (bounds <= hi)]
    centers = 0.5 * (bounds[:-1] + bounds[1:])
    order = np.argsort(np.abs(x[None, :] - centers[:, None]), axis=1, kind="stable")
    xs_seg = x[order]  # per-segment residual-magnitude ordering of the data
    total = d.sum()
    vertices = (xs_seg @ d) / total
    vertices = np.clip(vertices, bounds[:-1], bounds[1:])

    cand = np.unique(np.concatenate([bounds, vertices]))
    r2 = np.sort((x[None, :] - cand[:, None]) ** 2, axis=1)
    vals = r2 @ d
    best = float(vals.min())
    tie_tol = 1e-12 * max(1.0, abs(best))
    return float(cand[int(np.argmax(vals <= best + tie_tol))])


def cauchy_kernel(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + t)


def density_mean(
    x: ArrayLike, kernel: Callable[[np.ndarray], np.ndarray] = cauchy_kernel
) -> float:
    """Weighted mean with weights decaying in each point's mean squared
    distance to the others through the (default Cauchy) kernel."""
    x = _as_input(x)
    d2 = (x[:, None] - x[None, :]) ** 2
    u = np.asarray(kernel(d2.mean(axis=1)), dtype=float)
    if np.any(u <= 0):
        raise ValueError("kernel must be strictly positive")
    return float(np.dot(u, x) / u.sum())
