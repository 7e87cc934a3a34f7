"""Parametric mean families.

Closed-form means on non-negative inputs: power, quasi-arithmetic, OWA,
order statistics, Bajraktarevic, mixture, Gini and Lehmer means.  One
kernel, ``gini_mean_rows``, computes the Gini family: the power mean is its
q = 0 case and the Lehmer mean its p = 1 case.  It follows the limit
conventions at zero components stated on ``gini_mean`` instead of 0**q
arithmetic, and stays finite on rows that span more than the float range.

A ``*_rows`` function evaluates its mean on every row (last axis) of an
array at once, and its scalar function is a one-row call of it.  The tests
hold the row forms to other constructions here: mixture (Lehmer),
quasi-arithmetic (power) and Bajraktarevic (Gini) means, order statistics
(median, midrange) and a sorted dot product (OWA).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
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

    def finite_box(self) -> Interval:
        """The interval with an infinite end replaced: lo by 0 (by hi - 1
        when hi < 0, so that the box is not empty), hi by lo + 1."""
        lo = self.lo if math.isfinite(self.lo) else (0.0 if self.hi >= 0 else self.hi - 1.0)
        return Interval(lo, self.hi if math.isfinite(self.hi) else lo + 1.0)


def _as_input(x: ArrayLike) -> np.ndarray:
    return _as_rows(_as_row(x))[0]


def _as_row(x: ArrayLike) -> np.ndarray:
    """The 1-d vector x as a contiguous (1, n) block (a strided dot may round
    otherwise): a scalar function passes it to its row form, which checks
    the rest, so each input is checked once."""
    x = np.asarray(x, dtype=float, order="C")
    if x.ndim != 1:
        raise ValueError("input must be a 1-d vector")
    return x[None]


def _as_rows(X: ArrayLike) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim < 1 or X.shape[-1] < 1:
        raise ValueError("input must be non-empty")
    if not np.isfinite(X).all():
        raise ValueError("input values must be finite")
    return X


def _finite(value: float) -> float:
    """A result computed through user callables, refused when not finite."""
    if not math.isfinite(value):
        raise ValueError(f"the mean is not finite ({value}); check the generator or weights")
    return value


def _require_nonnegative(x: np.ndarray) -> np.ndarray:
    if x.min() < 0:  # x is non-empty and finite; one pass, no mask
        raise ValueError("negative components are outside the [0, inf) domain")
    return x


def _check_weights(w: ArrayLike, label: str = "weights") -> np.ndarray:
    """A weight vector as floats: finite and non-negative with a positive sum
    (tested as a positive entry, since the sum may overflow)."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{label} must be finite, got {w}")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError(f"{label} must be non-negative with a positive sum")
    return w


def _check_weight_values(w) -> np.ndarray:
    """Values of a weight function as floats: finite and non-negative with a
    positive total."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"weight function values are not finite: {w}")
    return _check_weights(w, "weight function values")


def _check_exponent(value: float, name: str) -> float:
    """An exponent of a mean family: a real number or +-inf, not NaN."""
    if math.isnan(value):
        raise ValueError(f"{name} must be a number, got {value}")
    return value


def _check_positive(value: float, name: str) -> None:
    """A scale or tolerance: positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _norm_weights(w: ArrayLike | None, n: int) -> np.ndarray:
    if w is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    w = _summable(_check_weights(w))
    return w / w.sum()


def _midpoint(a, b):
    """(a + b) / 2, finite for finite a and b: 0.5 * (a + b) where that sum
    is finite, 0.5 * a + 0.5 * b where it overflows."""
    with np.errstate(over="ignore"):
        s = a + b
    if np.isfinite(s).all():
        return 0.5 * s
    return np.where(np.isfinite(s), 0.5 * s, 0.5 * a + 0.5 * b)


def _scale_exponent(X) -> np.ndarray:
    """Per row (last axis), the e that puts the largest magnitude of X / 2^e
    in [0.5, 1), kept as an (..., 1) column: no sum of squares over a row
    of X / 2^e overflows, and scaling by 2^e is exact away from subnormals."""
    return np.frexp(np.abs(X).max(axis=-1, keepdims=True))[1]


def _working_scale(x: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """x / 2^e and e.  Where max |x| < 2^-500, e puts it in [0.5, 1), so
    squares of tiny data neither underflow nor overflow; elsewhere e is the
    least e >= 0 that puts the k values of x of least range (the first such,
    in sorted order) below 2^500 in magnitude.  No sum of up to 2^20 squared
    differences among them overflows there, nor their weighted sum; a sum
    that does overflow is above theirs.  With k = x.size this is max |x|
    below 2^500."""
    m = np.abs(x).max()
    if m < 2.0**-500:
        e = int(np.frexp(m)[1])
        return np.ldexp(x, -e), e
    if m < 2.0**500:
        return x, 0
    xs = np.sort(x)
    j = int(np.argmin(0.5 * xs[k - 1 :] - 0.5 * xs[: xs.size - k + 1]))
    e = max(0, int(np.frexp(max(-xs[j], xs[j + k - 1]))[1]) - 500)
    return np.ldexp(x, -e), e


def _summable(w: np.ndarray) -> np.ndarray:
    """Weights w as they are where their sum is finite, else w / 2^e
    (``_scale_exponent``), whose sum is finite: exact scaling keeps every
    ratio of weights, and so the weighted mean."""
    with np.errstate(over="ignore"):
        if np.isfinite(w.sum()):
            return w
    return np.ldexp(w, -_scale_exponent(w))


def _mean(X):
    """X.mean(axis=-1), finite for finite X: the plain mean where it is
    finite, else the mean of X / 2^e times 2^e (``_scale_exponent``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = X.mean(axis=-1)
    if np.isfinite(m).all():
        return m
    e = _scale_exponent(X)
    return np.where(np.isfinite(m), m, np.ldexp(np.ldexp(X, -e).mean(axis=-1), e[..., 0]))


def _weighted_mean(w: np.ndarray, v: np.ndarray) -> float:
    """sum w_i v_i / sum w_i for summable weights w, at ``_mean``'s scale of
    v where the plain dot overflows."""
    with np.errstate(over="ignore"):
        e = 0 if np.isfinite(np.dot(w, v)) else int(_scale_exponent(v)[0])
    return float(np.ldexp(np.dot(w, np.ldexp(v, -e)) / w.sum(), e))


def arithmetic_mean(x: ArrayLike) -> float:
    return float(arithmetic_mean_rows(_as_row(x))[0])


def arithmetic_mean_rows(X: ArrayLike) -> np.ndarray:
    return _mean(_as_rows(X))


def power_mean(x: ArrayLike, p: float, weights: ArrayLike | None = None) -> float:
    """Weighted power mean (sum w_i x_i^p)^(1/p) on [0, inf)^n: the Gini
    mean at q = 0 (``gini_mean``, with its zero conventions).  p=0 is the
    weighted geometric mean, p=+/-inf the max/min."""
    return float(power_mean_rows(_as_row(x), p, weights)[0])


def power_mean_rows(X: ArrayLike, p: float, weights: ArrayLike | None = None) -> np.ndarray:
    return gini_mean_rows(X, p, 0.0, weights)  # the Gini mean at q = 0


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
    return float(owa_rows(_as_row(x), weights)[0])


def owa_rows(X: ArrayLike, weights: ArrayLike) -> np.ndarray:
    X = _as_rows(X)
    return (_norm_weights(weights, X.shape[-1]) * np.sort(X, axis=-1)[..., ::-1]).sum(axis=-1)


def order_statistic(x: ArrayLike, k: int) -> float:
    """k-th smallest value, 1-based."""
    x = _as_input(x)
    if not 1 <= k <= x.size:
        raise ValueError(f"k={k} out of range 1..{x.size}")
    return float(np.sort(x)[k - 1])


def median(x: ArrayLike) -> float:
    """Middle order statistic; even n averages the two middle values
    (``order_statistic`` gives the lower and the upper one)."""
    return float(median_rows(_as_row(x))[0])


def median_rows(X: ArrayLike) -> np.ndarray:
    s = np.sort(_as_rows(X), axis=-1)
    n = s.shape[-1]
    if n % 2 == 1:
        return s[..., n // 2]
    return _midpoint(s[..., n // 2 - 1], s[..., n // 2])


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
    w = _summable(_check_weight_values([float(fn(v)) for fn, v in zip(weight_fns, x)]))
    return _finite(float(g_inv(_weighted_mean(w, np.asarray(g(x), dtype=float)))))


def mixture_mean(x: ArrayLike, w_fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """sum w(x_i) x_i / sum w(x_i); invariant to scaling of w."""
    x = _as_input(x)
    w = _summable(_check_weight_values(w_fn(x)))
    return _finite(_weighted_mean(w, x))


def generalized_mixture_mean(
    x: ArrayLike, w_fns: Sequence[Callable[[float], float]]
) -> float:
    """Mixture mean with a distinct weight function per coordinate."""
    return bajraktarevic_mean(x, w_fns, lambda t: t, lambda t: t)


def gini_mean(
    x: ArrayLike, p: float, q: float, weights: ArrayLike | None = None
) -> float:
    """Weighted Gini mean (sum w x^(p+q) / sum w x^q)^(1/p) on [0, inf)^n.

    The power mean is its q = 0 case and the Lehmer mean its p = 1 case.
    p = 0 is the log-generator limit exp(sum w x^q log x / sum w x^q); an
    infinite q, or else an infinite p, gives the largest (+inf) or smallest
    (-inf) component that takes part.  Zero components follow the limits:
    a zero drops for q > 0 and absorbs the mean to 0 for q < 0, or for
    q = 0 with p <= 0.  Zero-weight components take no part, even in these
    conventions.
    """
    return float(gini_mean_rows(_as_row(x), p, q, weights)[0])


def gini_mean_rows(
    X: ArrayLike, p: float, q: float, weights: ArrayLike | None = None
) -> np.ndarray:
    _check_exponent(p, "p")
    _check_exponent(q, "q")
    X = _require_nonnegative(_as_rows(X))
    w = 1.0
    if weights is not None:
        w = _norm_weights(weights, X.shape[-1])
        X, w = X[..., w > 0], w[w > 0]
    if p == 1 and q == 0 and weights is None:
        return _mean(X)  # the arithmetic mean, finite also where its sum overflows
    if math.isinf(q):
        p = 1.0  # every p gives the largest or smallest component, and p = 1 exactly
    # homogeneity: rescale by the component c that dominates x^q (x^p at
    # q = 0).  c = 0 only for an all-zero row or an absorbing zero: both give
    # +0, even from -0.0.  For q > 0 a zero gets weight 0**q = 0, which drops it
    e = q if q != 0 else p
    c = X.max(axis=-1, keepdims=True) if e > 0 else X.min(axis=-1, keepdims=True)
    if math.isinf(p):  # the largest or smallest component that takes part
        G = X.max(axis=-1) if p > 0 else np.where(X > 0, X, np.inf).min(axis=-1)
        return np.where(c[..., 0] > 0, G, c[..., 0] if q == 0 else 0.0)
    safe = e > 0 and p >= 0  # then 0 <= x / c <= 1 and no power overflows
    with nullcontext() if safe else np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.divide(X, c, out=np.ones_like(X), where=c > 0)
        yq = y**q if weights is None else w * y**q
        if p == 0:
            logs = np.log(np.where(X > 0, X, 1.0))
            return np.where(c[..., 0] > 0, np.exp((yq * logs).sum(axis=-1) / yq.sum(axis=-1)), 0.0)
        r = (yq * (y if p == 1 else y**p)).sum(axis=-1) / yq.sum(axis=-1)
        G = (c[..., 0] + 0.0) * (r if p == 1 else r ** (1.0 / p))
        if not safe:
            # a row spanning more than the float range overflowed x / c or a power of it
            wide = ~(np.isfinite(r) & np.isfinite(G))
            if wide.any():
                G[wide] = _wide_rows(X[wide], c[wide], p, q, w)
    return G


def _wide_rows(X: np.ndarray, t: np.ndarray, p: float, q: float, w: np.ndarray | float) -> np.ndarray:
    """``gini_mean_rows`` of rows X, with t the component of each that
    dominates x^q: sum w x^(p+q) is scaled by its own dominant component s,
    and where s is not t the factor s^((p+q)/p) / t^(q/p) is taken in logs."""
    s = (X.max(axis=-1, keepdims=True) if p + q > 0
         else np.where(X > 0, X, np.inf).min(axis=-1, keepdims=True))
    A = np.where(X > 0, w * (X / s) ** (p + q), 0.0)  # zeros reach here only for q > 0: they drop
    B = w * (X / t) ** q
    scale = np.where(s == t, t, np.exp(((p + q) * np.log(s) - q * np.log(t)) / p))
    return scale[:, 0] * (A.sum(axis=-1) / B.sum(axis=-1)) ** (1.0 / p)


def lehmer_mean(x: ArrayLike, q: float) -> float:
    """Lehmer mean sum x^(q+1) / sum x^q on [0, inf)^n: the Gini mean at
    p = 1 (``gini_mean``, with its zero conventions), and at q = 0 the
    arithmetic mean."""
    return float(lehmer_mean_rows(_as_row(x), q)[0])


def lehmer_mean_rows(X: ArrayLike, q: float) -> np.ndarray:
    return gini_mean_rows(X, 1.0, q)


def lehmer_max_args(q: float) -> float:
    """Largest argument count for which the Lehmer mean L_q is guaranteed
    weakly monotone: 1 + ((q+1)/(q-1))^(q-1).

    Rejects q in (0, 1), where the mean is not weakly monotone.  On [-1, 0]
    the mean is monotone for any n and +inf is returned (the closed form is
    singular or complex-valued there).
    """
    _check_exponent(q, "q")
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
    return float(midrange_rows(_as_row(x))[0])


def midrange_rows(X: ArrayLike) -> np.ndarray:
    X = _as_rows(X)
    return _midpoint(X.min(axis=-1), X.max(axis=-1))
