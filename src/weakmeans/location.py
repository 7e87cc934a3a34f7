"""Robust location estimators.

Mode, shorth, least median of squares, least trimmed squares, OWA-penalty
regression operators, and density-based means.  All are shift-invariant
(and hence weakly monotone) but not monotone.

``mode_rows``, ``shorth_rows`` and ``lms_rows`` evaluate their estimator on
every row (last axis) of an array at once, and ``mode``, ``shorth`` and
``lms`` are one-row calls of them; the tests hold them to ``np.unique`` and
a plain loop over the half-sample windows.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .means import (_as_input, _as_row, _as_rows, _check_positive, _check_weights, _mean, _midpoint,
                    _working_scale)

ArrayLike = Sequence[float] | np.ndarray


def mode(x: ArrayLike, quantize: float | None = None) -> float:
    """Most frequent value; ties broken by the smallest value.

    ``quantize`` optionally snaps values to a grid of that step before
    counting (mode is degenerate on continuous samples).
    """
    k, scale = _as_input(x), 1.0
    if quantize is not None:
        _check_positive(quantize, "quantize")
        k, scale = _snap(k, quantize)
    return float(scale * sorted_mode_rows(np.sort(k)))


def _snap(V: np.ndarray, step: float) -> tuple[np.ndarray, float]:
    """V snapped to the grid of step ``step``, as values k and a scale with
    k * scale the snapped values: the bin indices round(V / step) and
    ``step`` where every index is finite (one scalar test), else
    step * round(V / step) and 1, where a value whose bin index overflows is
    already on the grid at its own scale and keeps its own value.  Snapping
    keeps the order of V, so sorted rows stay sorted."""
    if math.isfinite(float(np.abs(V).max()) / step):
        return np.round(V / step), step
    with np.errstate(over="ignore"):
        k = np.round(V / step)
    return np.where(np.isfinite(k), step * k, V), 1.0


def sorted_mode_rows(S: np.ndarray) -> np.ndarray:
    """Smallest most frequent value of every row of S, each sorted: the
    first value of the first longest run of equal values (of 0.0 and -0.0
    in one run, the one sorted first)."""
    j = np.arange(S.shape[-1])
    starts = np.ones(S.shape, dtype=bool)
    starts[..., 1:] = S[..., 1:] != S[..., :-1]
    run = j - np.maximum.accumulate(np.where(starts, j, 0), axis=-1)
    first = np.argmax(run, axis=-1) - run.max(axis=-1)  # its first end less its length
    return np.take_along_axis(S, first[..., None], axis=-1)[..., 0]


def mode_rows(X: ArrayLike) -> np.ndarray:
    return sorted_mode_rows(np.sort(_as_rows(X), axis=-1))


def _tie_scale(lo, hi):
    """The spread hi - lo of data in [lo, hi], or 2^-8 of their largest
    magnitude where that is larger: the near-tie floors of ``lts`` and OWA
    built on it scale with the data, and stay put under a shift unless the
    data sit so far from 0 that they must cover the shift's rounding noise,
    2^-52 of that magnitude."""
    return np.maximum(hi - lo, np.maximum(-lo, hi) / 256)


def _shortest_windows(X: ArrayLike) -> np.ndarray:
    """The shortest half-sample window of every row of X, sorted.

    Near-ties go to the smallest start: the first window whose length is
    within 1e-9 min(1, max x - min x) + 2^-46 max |x| of the shortest.  A
    shift x + a moves only the second term, 64 to 128 ulps of max |x| that
    keep quantized data tied through the shift's rounding noise; so it can
    switch the window only where one is longer than the shortest by the
    first term to within about 2^-46 max(max |x|, max |x + a|).
    """
    xs = np.sort(_as_rows(X), axis=-1)
    n = xs.shape[-1]
    half, starts = n // 2, (n + 1) // 2
    # half of each window's length and of the spread, finite where the
    # length overflows; a power of two commutes with rounding
    h = 0.5 * xs
    length = h[..., half : half + starts] - h[..., :starts]
    m = np.maximum(-xs[..., :1], xs[..., -1:])
    tol = 2e-9 * np.minimum(0.5, h[..., -1:] - h[..., :1]) + 2.0**-46 * m
    k = np.argmax(length <= length.min(axis=-1, keepdims=True) + 0.5 * tol, axis=-1)
    return np.take_along_axis(xs, k[..., None] + np.arange(half + 1), axis=-1)


def shorth(x: ArrayLike) -> float:
    """Arithmetic mean of the shortest half-sample window."""
    return float(shorth_rows(_as_row(x))[0])


def shorth_rows(X: ArrayLike) -> np.ndarray:
    return _mean(_shortest_windows(X))


def lms(x: ArrayLike) -> float:
    """Least median of squares: midpoint of the shortest half-sample window."""
    return float(lms_rows(_as_row(x))[0])


def lms_rows(X: ArrayLike) -> np.ndarray:
    w = _shortest_windows(X)
    return _midpoint(w[..., 0], w[..., -1])


def lts(x: ArrayLike) -> float:
    """Least trimmed squares.

    In one dimension the optimal h-subset (h = floor(n/2)+1) is a contiguous
    block of the sorted data, so the block of minimal within-window sum of
    squares is found by exact enumeration; its mean is returned.  Ties go to
    the smallest window start, within 1e-9 of the least sum relative to it
    or to min(1, (max x - min x) * _tie_scale).  Computed at
    ``_working_scale`` of h.
    """
    xs = np.sort(_as_input(x))
    h = xs.size // 2 + 1
    xs, e = _working_scale(xs, h)
    windows = sliding_window_view(xs, h)
    means = _mean(windows)
    with np.errstate(over="ignore"):
        # centered, shift-stable; a sum that overflows is above every finite one
        sse = ((windows - means[:, None]) ** 2).sum(axis=-1)
        floor = min(np.ldexp(1.0, -2 * e), (xs[-1] - xs[0]) * _tie_scale(xs[0], xs[-1]))
    best = sse.min()
    return float(np.ldexp(means[np.argmax(sse <= best + 1e-9 * max(floor, best))], e))


def owa_penalty(delta: ArrayLike) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """OWA penalty sum_i delta_i * S_i((x - y)^2), S_i the i-th smallest.

    The term sorts the squared residuals along the last axis, so it
    broadcasts over a column of candidates y like every other term."""
    d = _check_weights(delta, "OWA weights delta")
    return lambda xs, y: d * np.sort((xs - y) ** 2, axis=-1)


def owa_penalty_estimator(x: ArrayLike, delta: ArrayLike) -> float:
    """Argmin over y of the OWA-weighted ordered squared residuals.

    Special cases of the weight vector recover classical operators:
    all-ones -> least squares, (0,..,0,1) -> midrange, median weights -> LMS,
    trimmed (1,..,1_h,0,..,0) -> LTS.  Leftmost minimiser convention.

    Each piecewise-quadratic segment (boundaries at all pairwise midpoints)
    is solved analytically; its residuals are ranked by the midpoints left
    of it, never by their rounded magnitudes, so no tie-break is needed.
    ``minimize_penalty`` over ``owa_penalty`` is the independent reference
    the tests compare it with.
    """
    x = np.sort(_as_input(x))
    d = _check_weights(delta, "OWA weights delta")
    if d.shape != x.shape:
        raise ValueError("delta must match the input length")
    f = int(np.frexp(d.max())[1])
    d = np.ldexp(d, -f)  # its largest in [0.5, 1)
    # the values the last positive weight reaches set the working scale
    k = int(np.flatnonzero(d)[-1]) + 1
    x, e = _working_scale(x, k)
    # Segment boundaries: ordering of (x_i - y)^2 changes only at pairwise
    # midpoints (the data points are the i = j ones).  Within a segment the
    # objective is one strictly convex quadratic with vertex
    # sum(d_i x_sigma(i)) / sum(d), clipped to the segment for its minimum.
    bounds, at = np.unique(_midpoint(x[:, None], x[None, :]), return_inverse=True)
    if bounds.size == 1:
        return float(np.ldexp(bounds[0], e))
    # Residual ranks per segment, from the midpoints it has crossed: crossing
    # that of x_i <= x_j (i < j) moves x_i one rank farther and x_j one nearer;
    # ranks and the moves at one midpoint are within +-n, held in the least type
    i = np.arange(x.size)
    rank = np.zeros((bounds.size, x.size), dtype=np.min_scalar_type(-x.size))
    rank[0] = i
    np.add.at(rank, (at.reshape(x.size, x.size), i[:, None]), np.sign(i - i[:, None]))
    np.cumsum(rank, axis=0, dtype=rank.dtype, out=rank)
    xs = np.empty((bounds.size - 1, x.size))
    xs[np.arange(bounds.size - 1)[:, None], rank[:-1]] = x
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.clip((xs @ d) / d.sum(), bounds[:-1], bounds[1:])
        sq = np.square(np.subtract(xs, y[:, None], out=xs), out=xs)  # in place
        sq[:, k:] = 0.0  # zero weights take no part, even where a residual overflows
        vals = sq @ d
        # near-ties: relative to min(1, (max x - min x) _tie_scale sum(delta))
        # at the scale of x and delta
        floor = min(np.ldexp(1.0, -2 * e - f), (x[-1] - x[0]) * _tie_scale(x[0], x[-1]) * d.sum())
    # A penalty that overflows is above every finite one; so is a NaN, from a
    # vertex that overflows both ways or a zero weight on an overflowing
    # residual, which a positive weight after it squares too.
    vals[np.isnan(vals)] = np.inf
    # Ties are decided between segment minima only: a vertex clipped to the
    # right end of any segment but the last is no minimum (the next segment
    # is lower there), so it cannot win a tie over a true minimum beside it.
    vals[:-1][y[:-1] == bounds[1:-1]] = np.inf
    best = float(vals.min())
    return float(np.ldexp(y[int(np.argmax(vals <= best + 1e-12 * max(floor, best)))], e))


def density_mean(x: ArrayLike) -> float:
    """Weighted mean with weights decaying in each point's mean squared
    distance m to the others through the Cauchy kernel 1 / (1 + m)."""
    x = _as_input(x)
    # On xs = x / 2^e (``_working_scale``) powers of two commute with rounding:
    # r / (4^-e + m / 4^e), r a power of two putting the largest in (1, 2], is
    # 1 / (1 + m) times r 4^e.  The clip keeps the last rounding in [min x, max x].
    xs, e = _working_scale(x, x.size)
    if e < 0:  # 4^-e would overflow, and 1 + m rounds to 1 anyway
        xs, e = x, 0
    m = ((xs[:, None] - xs[None, :]) ** 2).mean(axis=1)  # m / 4^e
    t = np.ldexp(1.0, -2 * e) + m
    u = np.ldexp(1.0, int(np.frexp(t.min())[1])) / t
    return float(np.clip(np.ldexp(np.dot(u, xs) / u.sum(), e), x.min(), x.max()))
