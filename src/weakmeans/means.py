"""Parametric mean families.

Closed-form means on non-negative inputs: power, quasi-arithmetic, OWA,
order statistics, Bajraktarevic, mixture, Gini and Lehmer means.  The
Gini/Lehmer families are evaluated with explicit limit conventions at zero
components (drop for positive exponent, absorb for negative, arithmetic at
zero) instead of relying on 0**q arithmetic.

A ``*_rows`` function evaluates its mean on every row (last axis) of an
array at once, with the same conventions; the scalar function is its
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

ArrayLike = Sequence[float] | np.ndarray


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; hi may be +inf for half-infinite domains."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


def _as_input(x: ArrayLike) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("input must be a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("input values must be finite")
    return x


def _as_rows(X: ArrayLike) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim < 1 or X.shape[-1] < 1:
        raise ValueError("input rows must be non-empty")
    if not np.all(np.isfinite(X)):
        raise ValueError("input values must be finite")
    return X


def _finite(value: float) -> float:
    """A result computed through user callables, refused when not finite."""
    if not math.isfinite(value):
        raise ValueError(f"the mean is not finite ({value}); check the generator or weights")
    return value


def _require_nonnegative(x: np.ndarray) -> np.ndarray:
    if np.any(x < 0):
        raise ValueError("negative components are outside the [0, inf) domain")
    return x


def _norm_weights(w: ArrayLike | None, n: int) -> np.ndarray:
    if w is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    return w / total


def _weighted_part(x: np.ndarray, weights: ArrayLike | None) -> tuple[np.ndarray, np.ndarray]:
    """Components with positive weight and their normalized weights; a
    zero-weight component takes no part, not even in the zero conventions."""
    w = _norm_weights(weights, x.size)
    keep = w > 0
    return x[keep], w[keep]


def arithmetic_mean(x: ArrayLike) -> float:
    return float(np.mean(_as_input(x)))


def arithmetic_mean_rows(X: ArrayLike) -> np.ndarray:
    return _as_rows(X).mean(axis=-1)


def power_mean(x: ArrayLike, p: float, weights: ArrayLike | None = None) -> float:
    """Weighted power mean (sum w_i x_i^p)^(1/p).

    p=0 is the weighted geometric mean (log-generator limit), p=+/-inf the
    max/min.  Inputs must be non-negative; a zero component with positive
    weight absorbs the mean to 0 for p <= 0.  Zero-weight components are
    ignored.
    """
    x, w = _weighted_part(_require_nonnegative(_as_input(x)), weights)
    if math.isinf(p):
        return float(x.max()) if p > 0 else float(x.min())
    if p == 0:
        if np.any(x == 0):
            return 0.0
        return float(np.exp(np.dot(w, np.log(x))))
    if p < 0 and np.any(x == 0):
        return 0.0
    # homogeneity: rescale by the component that dominates x^p, so that no
    # power overflows or underflows to a zero sum
    c = x.max() if p > 0 else x.min()
    if c == 0:
        return 0.0  # all-zero input, idempotency
    return float(c * np.dot(w, (x / c) ** p) ** (1.0 / p))


def _dominant(X: np.ndarray, part: np.ndarray, e: float) -> np.ndarray:
    """The component of each row that dominates x^e among those in ``part``:
    the largest for e > 0, else the smallest (kept as an (..., 1) column)."""
    if e > 0:
        return np.where(part, X, -np.inf).max(axis=-1, keepdims=True)
    return np.where(part, X, np.inf).min(axis=-1, keepdims=True)


def _power_rows(X: np.ndarray, p: float, W: np.ndarray) -> np.ndarray:
    """``power_mean`` of every row of X under normalized weights W (of a
    shape that broadcasts to X's); a component of weight 0 takes no part."""
    part = W > 0
    c = _dominant(X, part, p)
    if math.isinf(p):
        return c[..., 0]
    if p == 0:  # c is the smallest component: a zero absorbs
        logs = np.log(np.where(part & (X > 0), X, 1.0))
        return np.where(c[..., 0] > 0, np.exp((W * logs).sum(axis=-1)), 0.0)
    # c = 0 only for an all-zero row, or (p < 0) a zero with positive
    # weight, which absorbs: both give 0
    Y = np.divide(X, c, out=np.ones_like(X), where=part & (c > 0))
    return c[..., 0] * (W * Y**p).sum(axis=-1) ** (1.0 / p)


def power_mean_rows(X: ArrayLike, p: float, weights: ArrayLike | None = None) -> np.ndarray:
    X = _require_nonnegative(_as_rows(X))
    return _power_rows(X, p, _norm_weights(weights, X.shape[-1]))


def quasi_arithmetic_mean(
    x: ArrayLike,
    g: Callable[[np.ndarray], np.ndarray],
    g_inv: Callable[[float], float],
    weights: ArrayLike | None = None,
) -> float:
    """g_inv(sum w_i g(x_i)) for a strictly monotone generator g."""
    x = _as_input(x)
    w = _norm_weights(weights, x.size)
    gx = np.asarray(g(x), dtype=float)
    return _finite(float(g_inv(float(np.dot(w, gx)))))


def owa(x: ArrayLike, weights: ArrayLike) -> float:
    """Ordered weighted average: weights applied to x sorted non-increasing."""
    x = _as_input(x)
    w = _norm_weights(weights, x.size)
    return float((w * np.sort(x)[::-1]).sum())


def owa_rows(X: ArrayLike, weights: ArrayLike) -> np.ndarray:
    X = _as_rows(X)
    # the scalar form's products and summation order: signed values cancel
    return (_norm_weights(weights, X.shape[-1]) * np.sort(X, axis=-1)[..., ::-1]).sum(axis=-1)


def order_statistic(x: ArrayLike, k: int) -> float:
    """k-th smallest value, 1-based."""
    x = _as_input(x)
    if not 1 <= k <= x.size:
        raise ValueError(f"k={k} out of range 1..{x.size}")
    return float(np.sort(x)[k - 1])


def median(x: ArrayLike, convention: str = "mean") -> float:
    """Middle order statistic; even n uses the chosen convention."""
    x = np.sort(_as_input(x))
    n = x.size
    if n % 2 == 1:
        return float(x[n // 2])
    lo, hi = float(x[n // 2 - 1]), float(x[n // 2])
    if convention == "mean":
        return 0.5 * (lo + hi)
    if convention == "lower":
        return lo
    if convention == "upper":
        return hi
    raise ValueError(f"unknown median convention {convention!r}")


def median_rows(X: ArrayLike) -> np.ndarray:
    """``median`` of every row, even n by the mean convention."""
    s = np.sort(_as_rows(X), axis=-1)
    n = s.shape[-1]
    if n % 2 == 1:
        return s[..., n // 2]
    return 0.5 * (s[..., n // 2 - 1] + s[..., n // 2])


def bajraktarevic_mean(
    x: ArrayLike,
    weight_fns: Sequence[Callable[[float], float]],
    g: Callable[[np.ndarray], np.ndarray],
    g_inv: Callable[[float], float],
) -> float:
    """g_inv(sum w_i(x_i) g(x_i) / sum w_i(x_i)) with per-coordinate weight functions."""
    x = _as_input(x)
    if len(weight_fns) != x.size:
        raise ValueError("one weight function per coordinate required")
    w = np.array([float(fn(v)) for fn, v in zip(weight_fns, x)])
    if np.any(w < 0):
        raise ValueError("weight functions must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight is zero")
    gx = np.asarray(g(x), dtype=float)
    return _finite(float(g_inv(float(np.dot(w, gx)) / float(total))))


def mixture_mean(x: ArrayLike, w_fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """sum w(x_i) x_i / sum w(x_i); invariant to scaling of w."""
    x = _as_input(x)
    w = np.asarray(w_fn(x), dtype=float)
    if np.any(w < 0):
        raise ValueError("weight function must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight is zero")
    return _finite(float(np.dot(w, x)) / float(total))


def generalized_mixture_mean(
    x: ArrayLike, w_fns: Sequence[Callable[[float], float]]
) -> float:
    """Mixture mean with a distinct weight function per coordinate."""
    return bajraktarevic_mean(x, w_fns, lambda t: t, lambda t: t)


def gini_mean(
    x: ArrayLike, p: float, q: float, weights: ArrayLike | None = None
) -> float:
    """Two-parameter Gini mean (sum w x^(p+q) / sum w x^q)^(1/p).

    p=0 uses the log-generator limit.  Zero components with positive weight
    follow the same limit conventions as the Lehmer mean: dropped for q>0,
    absorbing for q<0.  Zero-weight components are ignored.
    """
    x, w = _weighted_part(_require_nonnegative(_as_input(x)), weights)
    if q == 0:
        return power_mean(x, p, w)
    if q < 0:
        if np.any(x == 0):
            return 0.0
    else:
        keep = x > 0
        if not np.any(keep):
            return 0.0  # all-zero input, idempotency
        x, w = x[keep], w[keep]
    # the power mean of order p under weights w x^q, rescaled by the
    # component that dominates x^q so that the weights stay finite
    c = x.max() if q > 0 else x.min()
    return power_mean(x, p, w * (x / c) ** q)


def gini_mean_rows(
    X: ArrayLike, p: float, q: float, weights: ArrayLike | None = None
) -> np.ndarray:
    X = _require_nonnegative(_as_rows(X))
    w = _norm_weights(weights, X.shape[-1])
    if q == 0:
        return _power_rows(X, p, w)
    part = w > 0
    c = _dominant(X, part, q)
    # c = 0 only for an all-zero row, or (q < 0) an absorbing zero: both
    # give 0.  For q > 0 a zero gets weight 0**q = 0, which drops it.
    V = w * np.divide(X, c, out=np.ones_like(X), where=part & (c > 0)) ** q
    return np.where(c[..., 0] > 0, _power_rows(X, p, V / V.sum(axis=-1, keepdims=True)), 0.0)


def lehmer_mean(x: ArrayLike, q: float) -> float:
    """Lehmer mean sum x^(q+1) / sum x^q on [0, inf)^n.

    Zero components are handled as limits: neutral for q>0, absorbing for
    q<0; q=0 is the arithmetic mean.
    """
    x = _require_nonnegative(_as_input(x))
    if q == 0:
        return float(np.mean(x))
    if q < 0:
        if np.any(x == 0):
            return 0.0
    else:
        x = x[x > 0]
        if x.size == 0:
            return 0.0
    # homogeneity: rescale by the component that dominates x^q
    c = x.max() if q > 0 else x.min()
    y = x / c
    yq = y**q
    return float(c * (yq.dot(y) / yq.sum()))


def lehmer_mean_rows(X: ArrayLike, q: float) -> np.ndarray:
    X = _require_nonnegative(_as_rows(X))
    if q == 0:
        return X.mean(axis=-1)
    c = X.max(axis=-1, keepdims=True) if q > 0 else X.min(axis=-1, keepdims=True)
    # c = 0 only for an all-zero row, or (q < 0) an absorbing zero: both
    # give 0.  For q > 0 a zero adds 0**q = 0 to both sums, which drops it.
    y = np.divide(X, c, out=np.ones_like(X), where=c > 0)
    yq = y**q
    return c[..., 0] * ((yq * y).sum(axis=-1) / yq.sum(axis=-1))


def lehmer_max_args(q: float) -> float:
    """Largest argument count for which the Lehmer mean L_q is guaranteed
    weakly monotone: 1 + ((q+1)/(q-1))^(q-1).

    Rejects q in (0, 1), where the mean is not weakly monotone.  On [-1, 0]
    the mean is monotone for any n and +inf is returned (the closed form is
    singular or complex-valued there).
    """
    if 0 < q < 1:
        raise ValueError(
            "Lehmer means with q in (0, 1) are not weakly monotone for any n"
        )
    if q == 1:
        return 2.0  # limit value of the bound
    if -1 <= q <= 0:
        return math.inf
    return 1.0 + ((q + 1.0) / (q - 1.0)) ** (q - 1.0)


def contraharmonic_mean(x: ArrayLike) -> float:
    return lehmer_mean(x, 1.0)


def midrange(x: ArrayLike) -> float:
    x = _as_input(x)
    return 0.5 * (float(x.min()) + float(x.max()))


def midrange_rows(X: ArrayLike) -> np.ndarray:
    X = _as_rows(X)
    return 0.5 * (X.min(axis=-1) + X.max(axis=-1))
