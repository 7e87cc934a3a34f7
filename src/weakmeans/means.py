"""Parametric mean families.

Closed-form means on non-negative inputs: power, quasi-arithmetic, OWA,
order statistics, Bajraktarevic, mixture, Gini and Lehmer means.  The
Gini/Lehmer families are evaluated with explicit limit conventions at zero
components (drop for positive exponent, absorb for negative, arithmetic at
zero) instead of relying on 0**q arithmetic.
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

    def contains(self, x: ArrayLike, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


def _as_input(x: ArrayLike) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("input must be a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("input values must be finite")
    return x


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
    return float(g_inv(float(np.dot(w, gx))))


def owa(x: ArrayLike, weights: ArrayLike) -> float:
    """Ordered weighted average: weights applied to x sorted non-increasing."""
    x = _as_input(x)
    w = _norm_weights(weights, x.size)
    return float(np.dot(w, np.sort(x)[::-1]))


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
    return float(g_inv(float(np.dot(w, gx) / total)))


def mixture_mean(x: ArrayLike, w_fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """sum w(x_i) x_i / sum w(x_i); invariant to scaling of w."""
    x = _as_input(x)
    w = np.asarray(w_fn(x), dtype=float)
    if np.any(w < 0):
        raise ValueError("weight function must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight is zero")
    return float(np.dot(w, x) / total)


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
