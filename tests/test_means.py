import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmeans import (
    arithmetic_mean,
    bajraktarevic_mean,
    contraharmonic_mean,
    gini_mean,
    lehmer_max_args,
    lehmer_mean,
    median,
    midrange,
    mixture_mean,
    generalized_mixture_mean,
    order_statistic,
    owa,
    owa_penalty_estimator,
    power_mean,
    quasi_arithmetic_mean,
)
from weakmeans.means import (arithmetic_mean_rows, gini_mean_rows, lehmer_mean_rows, median_rows,
                             midrange_rows, owa_rows, power_mean_rows)

finite = st.floats(0.01, 10.0, allow_nan=False)
vectors = st.lists(finite, min_size=1, max_size=8)


def test_arithmetic_mean_values():
    assert arithmetic_mean([2, 2, 2]) == 2
    assert arithmetic_mean([0, 1]) == 0.5
    assert arithmetic_mean([1, 2, 3, 4]) == 2.5
    with pytest.raises(ValueError):
        arithmetic_mean([])


def test_power_mean_values():
    assert power_mean([1, 3], 1) == 2
    assert power_mean([1, 1], -1) == 1
    assert power_mean([0, 2], 2) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert power_mean([1, 4], 0) == pytest.approx(2.0, abs=1e-12)
    assert power_mean([1, 5, 2], math.inf) == 5
    assert power_mean([1, 5, 2], -math.inf) == 1
    with pytest.raises(ValueError):
        power_mean([-1, 2], 0.5)


def test_zero_weight_component_takes_no_part():
    # a zero with zero weight must not absorb the mean (p <= 0, q < 0) ...
    assert power_mean([0, 1], -1, weights=[0, 1]) == 1.0
    assert power_mean([0, 1], 0, weights=[0, 1]) == 1.0
    assert gini_mean([0, 1], 1, -1, weights=[0, 1]) == 1.0
    assert gini_mean([0, 1], 0, -1, weights=[0, 1]) == 1.0
    assert gini_mean([0, 2], -1, 0, weights=[0, 1]) == 2.0
    # ... nor decide a max or min
    assert power_mean([5, 1], math.inf, weights=[0, 1]) == 1.0
    assert power_mean([0, 1], -math.inf, weights=[0, 1]) == 1.0
    # a zero with positive weight still does
    assert power_mean([0, 1], -1, weights=[1, 1]) == 0.0
    assert gini_mean([0, 1], 1, -1, weights=[1e-9, 1]) == 0.0
    # and a zero-weight component changes nothing anywhere
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.uniform(0.1, 5.0, 4)
        w = rng.uniform(0.1, 1.0, 4)
        x0, w0 = np.append(x, 0.0), np.append(w, 0.0)
        for p in (-2.0, -1.0, 0.0, 0.5, 2.0):
            assert power_mean(x0, p, w0) == pytest.approx(power_mean(x, p, w), rel=1e-12)
            for q in (-1.5, 0.0, 1.0):
                assert gini_mean(x0, p, q, w0) == pytest.approx(gini_mean(x, p, q, w), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weights_are_refused(bad):
    # NaN passed both the sign and the sum checks and came out as 0 or NaN
    w = [bad, 1.0, 1.0]
    x = [1.0, 2.0, 3.0]
    for mean in (lambda: owa(x, w), lambda: power_mean(x, 2, w),
                 lambda: gini_mean(x, 1, 2, w), lambda: quasi_arithmetic_mean(x, np.log, math.exp, w)):
        with pytest.raises(ValueError, match="weights must be finite"):
            mean()


def test_weights_whose_sum_overflows():
    # 1e308 + 1e308 overflows, yet the weights are equal: each mean is the
    # one under weights [1, 1], 1.5 (5/3 for Gini at p = q = 1)
    x, big, ones = [1.0, 2.0], [1e308, 1e308], [1.0, 1.0]
    for mean in (owa, lambda x, w: owa_rows([x], w)[0],
                 lambda x, w: quasi_arithmetic_mean(x, lambda t: t, lambda t: t, w),
                 lambda x, w: power_mean(x, 1, w), lambda x, w: power_mean_rows([x], 1, w)[0],
                 owa_penalty_estimator):
        assert mean(x, big) == mean(x, ones) == pytest.approx(1.5, rel=1e-15)
    for mean in (gini_mean, lambda x, p, q, w: gini_mean_rows([x], p, q, w)[0]):
        assert mean(x, 1, 1, big) == mean(x, 1, 1, ones) == pytest.approx(5 / 3, rel=1e-15)
    # weight-function values alike
    assert mixture_mean(x, lambda t: np.full_like(t, 1e308)) == 1.5
    assert bajraktarevic_mean(x, [lambda t: 1e308] * 2, lambda t: t, lambda t: t) == 1.5
    # sums of weighted values that overflow, where the mean is finite
    big_x = [1e308, 1.5e308]
    assert mixture_mean(big_x, lambda t: np.ones_like(t)) == 1.25e308
    assert mixture_mean([1e10, 1e10], lambda t: np.full_like(t, 1e300)) == 1e10
    assert bajraktarevic_mean(big_x, [lambda t: 1.0] * 2, lambda t: t, lambda t: t) == 1.25e308


def test_quasi_arithmetic_mean():
    assert quasi_arithmetic_mean([1, 2, 3], lambda t: t, lambda t: t) == 2
    geom = quasi_arithmetic_mean([1, 4], np.log, math.exp)
    assert geom == pytest.approx(2.0, abs=1e-12)


def test_owa_cases():
    assert owa([3, 7], [1, 0]) == 7
    assert owa([3, 7], [0, 1]) == 3
    assert owa([3, 7], [0.5, 0.5]) == 5
    with pytest.raises(ValueError):
        owa([3, 7], [1, 0, 0])


def test_order_statistic_and_median():
    assert order_statistic([5, 2, 9], 1) == 2
    assert order_statistic([5, 2, 9], 3) == 9
    assert order_statistic([5, 2, 9], 2) == 5
    with pytest.raises(ValueError):
        order_statistic([5, 2, 9], 4)
    assert median([1, 2, 3]) == 2
    assert median([1, 2, 3, 10]) == 2.5
    # the lower and upper medians of an even-length input
    assert order_statistic([1, 2, 3, 10], 2) == 2
    assert order_statistic([1, 2, 3, 10], 3) == 3
    assert median([7, 7, 7, 7]) == 7


def test_midpoints_are_finite_at_the_float_range_end():
    # 1e308 + 1.5e308 overflows; the halves of the two ends do not
    X = np.array([[1e308, 1.5e308, -1.0, 1.5e308], [-1.5e308, -1e308, 0.0, -1.7e308]])
    assert median(X[0]) == midrange(X[0, :2]) == 1.25e308
    assert median(X[1]) == midrange(X[1, :2]) == -1.25e308
    assert midrange([-1.7e308, 1.7e308]) == 0.0
    for scalar, rows in ((median, median_rows), (midrange, midrange_rows)):
        for Y in (X, X[:, :2]):
            np.testing.assert_array_equal(rows(Y), [scalar(y) for y in Y])


def test_means_are_finite_at_the_float_range_end():
    # 1e308 + 1.5e308 overflows; the sum of the halves does not
    X = np.array([[1e308, 1.5e308], [1.5e308, 1e308], [1.0, 4.0]])
    expected = [1.25e308, 1.25e308, 2.5]
    for rows in (arithmetic_mean_rows, lambda X: lehmer_mean_rows(X, 0.0)):
        np.testing.assert_array_equal(rows(X), expected)
    assert arithmetic_mean(X[0]) == lehmer_mean(X[0], 0.0) == 1.25e308
    assert arithmetic_mean(-X[0]) == -1.25e308
    # n values rescaled by 2^k > n: five of 1.7e308 still sum to a finite value
    assert arithmetic_mean([1.7e308] * 5) == 1.7e308
    assert arithmetic_mean([1.7e308, -1.7e308, 1.7e308]) == pytest.approx(1.7e308 / 3, rel=1e-15)


def test_bajraktarevic_special_cases():
    ident = lambda t: t
    one = lambda t: 1.0
    assert bajraktarevic_mean([2, 4], [one, one], ident, ident) == 3
    # w_i(t) = t with identity generator is the contra-harmonic mean
    val = bajraktarevic_mean([1, 2], [ident, ident], ident, ident)
    assert val == pytest.approx(5 / 3, abs=1e-12)
    assert bajraktarevic_mean([4, 4, 4], [ident] * 3, ident, ident) == 4
    with pytest.raises(ValueError):
        bajraktarevic_mean([0, 0], [ident, ident], ident, ident)


def test_mixture_mean():
    assert mixture_mean([1, 3], lambda t: np.full_like(t, 2.0)) == 2
    assert mixture_mean([1, 2], lambda t: t) == pytest.approx(5 / 3, abs=1e-12)
    a = mixture_mean([0.2, 0.9], lambda t: t + 1)
    b = mixture_mean([0.2, 0.9], lambda t: 7 * (t + 1))
    assert a == pytest.approx(b, abs=1e-12)


def test_generalized_mixture_mean():
    x = [0.1, 0.5, 0.9]
    sq = lambda t: t * t
    assert generalized_mixture_mean(x, [sq] * 3) == pytest.approx(
        mixture_mean(x, lambda t: t**2), abs=1e-12
    )
    assert generalized_mixture_mean([4, 9], [lambda t: 1.0, lambda t: 0.0]) == 4
    assert generalized_mixture_mean([1, 2], [sq, sq]) == pytest.approx(1.8, abs=1e-12)


def test_gini_mean_reductions():
    assert gini_mean([2, 4], 1, 0) == 3
    assert gini_mean([1, 2], 1, 1) == pytest.approx(5 / 3, abs=1e-12)
    assert gini_mean([7, 7], 2, 3) == pytest.approx(7, abs=1e-12)
    assert gini_mean([0, 0], 1, -1) == 0


def test_lehmer_paper_values():
    # appendix: L_q(1, 1/2) = (2^(q+1)+1) / (2^(q+1)+2)
    for q in (1, 2, 3):
        expected = (2 ** (q + 1) + 1) / (2 ** (q + 1) + 2)
        assert lehmer_mean([1, 0.5], q) == pytest.approx(expected, abs=1e-12)
    assert lehmer_mean([1, 0], 2) == 1.0  # neutral element, q > 0
    assert lehmer_mean([0.7, 0], -2) == 0.0  # absorbing element, q < 0
    assert lehmer_mean([1, 2, 3], 0) == 2.0
    assert lehmer_mean([0, 0, 0], 3) == 0.0
    with pytest.raises(ValueError):
        lehmer_mean([-1, 2], 1)


def test_lehmer_infinite_exponent_limits():
    # q -> +inf tends to the maximum, q -> -inf to the minimum
    assert lehmer_mean([1, 2], math.inf) == 2.0
    assert lehmer_mean([1, 2], -math.inf) == 1.0
    assert lehmer_mean([0.5, 3, 1], math.inf) == 3.0
    assert lehmer_mean([0.5, 3, 1], -math.inf) == 0.5


def _log_sum(logs):
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


# rows over which x / max x underflows or x / min x overflows
FLOAT_RANGE_ROWS = [(1e-300, 1e300), (1e-300, 2e-300, 1e300, 5.0), (1e-200, 1e200, 3.0),
                    (1e-308, 1.5e308, 1.0, 1e-5)]


def _gini_reference(x, p, q):
    """(sum x^(p+q) / sum x^q)^(1/p) for positive x: exact sums of fractions
    for integer q and p = +-1, else a log-sum."""
    if p in (1, -1) and float(q).is_integer():
        f = [Fraction(v) for v in x]
        ratio = sum(v ** (p + q) for v in f) / sum(v**q for v in f)
        return float(ratio if p == 1 else 1 / ratio)
    logs = [math.log(v) for v in x]
    return math.exp((_log_sum([(p + q) * v for v in logs]) - _log_sum([q * v for v in logs])) / p)


@pytest.mark.parametrize("q", [-1, -2, -3, -0.5, -0.25, -0.999, -1.5, -7.25])
def test_lehmer_negative_exponent_across_the_float_range(q):
    for x in FLOAT_RANGE_ROWS:
        assert lehmer_mean(x, q) == pytest.approx(_gini_reference(x, 1, q), rel=1e-12), x
    assert lehmer_mean([1e-300, 1e300], -1) == 2e-300
    assert lehmer_mean([1e-300, 1e300], -2) == 1e-300
    assert lehmer_mean([1e-300, 1e300], -0.5) == 1.0
    # only the rows that overflow are computed again
    X = np.array([[1.0, 2.0], [1e-300, 1e300]])
    assert lehmer_mean_rows(X, -1).tolist() == [lehmer_mean([1.0, 2.0], -1), 2e-300]


@pytest.mark.parametrize("p,q", [(3, -2), (2, -0.5), (0.5, -1.5), (1.5, -3), (-1, -1), (-1, 0.5), (-3, 1),
                                 (-2, 1.5), (-1, 1), (-1, 0), (-2, 0), (-0.5, 0)])
def test_gini_family_across_the_float_range(p, q):
    # q < 0 with p + q of either sign, q > 0 with p + q <= 0, and p < 0 at q = 0
    for x in FLOAT_RANGE_ROWS:
        expected = _gini_reference(x, p, q)
        assert gini_mean(x, p, q) == pytest.approx(expected, rel=1e-12), x
        if q == 0:
            assert power_mean(x, p) == gini_mean(x, p, q)
    X = np.array([[1.0, 2.0, 4.0], [1e-300, 1e300, 5.0], [1e-200, 1e200, 3.0]])
    np.testing.assert_array_equal(gini_mean_rows(X, p, q), [gini_mean(x, p, q) for x in X])


def test_contraharmonic_mean_is_lehmer_one():
    # sum x^2 / sum x
    assert contraharmonic_mean([1, 2]) == pytest.approx(5 / 3, abs=1e-15)
    assert contraharmonic_mean([1, 0.5]) == lehmer_mean([1, 0.5], 1.0) == pytest.approx(5 / 6)
    assert contraharmonic_mean([4, 4, 4]) == 4.0
    assert contraharmonic_mean([3, 0]) == 3.0  # a zero is neutral
    with pytest.raises(ValueError):
        contraharmonic_mean([-1, 2])


def test_lehmer_non_monotone_witness():
    for q in (0.5, 1, 2, 5):
        assert lehmer_mean([1, 0], q) == 1.0
        assert lehmer_mean([1, 0.5], q) < 1.0


def test_lehmer_max_args():
    assert lehmer_max_args(1) == 2.0
    assert lehmer_max_args(3) == pytest.approx(5.0, abs=1e-12)
    assert lehmer_max_args(100) < 1 + math.e**2
    assert lehmer_max_args(-2) == pytest.approx(28.0, abs=1e-9)
    assert lehmer_max_args(-0.5) == math.inf
    with pytest.raises(ValueError):
        lehmer_max_args(0.5)


def test_lehmer_bound_monotone_in_q():
    qs = np.linspace(1.01, 60, 200)
    bounds = [lehmer_max_args(q) for q in qs]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(b < 1 + math.e**2 for b in bounds)


@given(vectors)
@settings(max_examples=200)
def test_averaging_bounds(x):
    for value in (
        arithmetic_mean(x),
        median(x),
        midrange(x),
        lehmer_mean(x, 2),
        lehmer_mean(x, -1.5),
        gini_mean(x, 2, 1),
        power_mean(x, 3),
    ):
        assert min(x) - 1e-12 <= value <= max(x) + 1e-12


@given(st.floats(0.01, 10.0), st.integers(1, 6))
@settings(max_examples=200)
def test_idempotency(t, n):
    x = [t] * n
    for value in (
        arithmetic_mean(x),
        median(x),
        lehmer_mean(x, 1.7),
        lehmer_mean(x, -2.3),
        gini_mean(x, 2, -1),
        power_mean(x, -2),
        mixture_mean(x, lambda v: v + 0.5),
    ):
        assert value == pytest.approx(t, abs=1e-12)


@given(vectors, st.floats(0.01, 10.0), st.floats(-3, 3))
@settings(max_examples=200)
def test_lehmer_homogeneity(x, lam, q):
    lhs = lehmer_mean(np.array(x) * lam, q)
    rhs = lam * lehmer_mean(x, q)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, lam)


EXTREME_MEANS = {
    "power": lambda x, e: power_mean(x, e),
    "lehmer": lambda x, e: lehmer_mean(x, e),
    "gini-p": lambda x, e: gini_mean(x, e, 1.0),
    "gini-q": lambda x, e: gini_mean(x, 1.0, e),
    "gini-pq": lambda x, e: gini_mean(x, e, e),
}


@pytest.mark.parametrize("name", EXTREME_MEANS)
@pytest.mark.parametrize("e", [-300, -100, -1.5, 1.5, 100, 200, 300])
def test_homogeneous_and_averaging_at_extreme_scales(name, e):
    # x^e over- or underflows at these scales and exponents unless the mean
    # is rescaled by its dominating component
    M = EXTREME_MEANS[name]
    rng = np.random.default_rng(3)
    for x in ([1e3, 2e3], [1.0, 2.0], *rng.uniform(0.5, 4.0, (5, 4))):
        x = np.asarray(x, dtype=float)
        base = M(x, e)
        for t in (1e-150, 1e-3, 1e3, 1e150):
            value = M(t * x, e)
            assert math.isfinite(value)
            assert value == pytest.approx(t * base, rel=1e-12)
            assert t * x.min() * (1 - 1e-12) <= value <= t * x.max() * (1 + 1e-12)


def test_reduction_chain_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = rng.integers(1, 7)
        x = rng.uniform(0.01, 5.0, n)
        q = rng.uniform(-3, 3)
        p = rng.uniform(-3, 3)
        assert gini_mean(x, 1, q) == pytest.approx(lehmer_mean(x, q), abs=1e-12)
        assert gini_mean(x, p, 0) == pytest.approx(power_mean(x, p), abs=1e-12)
        assert lehmer_mean(x, 0) == pytest.approx(arithmetic_mean(x), abs=1e-12)


def test_mixture_weight_scale_invariance():
    rng = np.random.default_rng(7)
    for alpha in (0.01, 1.0, 100.0):
        for _ in range(50):
            x = rng.uniform(0.1, 1.0, 4)
            base = mixture_mean(x, lambda t: t**2 + 0.1)
            scaled = mixture_mean(x, lambda t: alpha * (t**2 + 0.1))
            assert scaled == pytest.approx(base, abs=1e-12)


def test_user_callable_means_refuse_non_finite_results():
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            quasi_arithmetic_mean([1000, 1], np.exp, np.log)
        with pytest.raises(ValueError, match="not finite"):
            mixture_mean([1, 2], lambda x: np.exp(1000 * x))
        with pytest.raises(ValueError, match="not finite"):
            bajraktarevic_mean([1000, 1], [lambda t: 1.0] * 2, np.exp, np.log)
        with pytest.raises(ValueError, match="not finite"):
            generalized_mixture_mean([1, 2], [lambda t: math.inf, lambda t: 1.0])


inf = math.inf
# literal values of the scalar means at their edges: one value, all zeros, an
# absorbing zero (p <= 0, q < 0), zero weights, infinite exponents, signed
# zeros (a zero mean is +0 unless a max, min or order statistic picks -0.0)
# and rows that span more than the float range
SCALAR_EDGES = [
    (power_mean, ([2.5], 2.0), 2.5),
    (power_mean, ([2.5], -inf), 2.5),
    (power_mean, ([2.5], 0.0), 2.5),
    (power_mean, ([0.0, 0.0], 2.0), 0.0),
    (power_mean, ([0.0, 0.0], -1.0), 0.0),
    (power_mean, ([0.0, 0.0], 0.0), 0.0),
    (power_mean, ([0.0, 2.0, 4.0], -1.0), 0.0),
    (power_mean, ([0.0, 2.0, 4.0], 0.0), 0.0),
    (power_mean, ([0.0, 2.0, 4.0], -inf), 0.0),
    (power_mean, ([0.0, 2.0, 4.0], inf), 4.0),
    (power_mean, ([0.0, 2.0, 4.0], 1.0), 2.0),
    (power_mean, ([1.0, 4.0], 0.0), 2.0),
    (power_mean, ([1.0, 4.0], -1.0), 1.6),
    (power_mean, ([0.0, 3.0], -1.0, [0.0, 1.0]), 3.0),
    (power_mean, ([0.0, 3.0], 0.0, [0.0, 1.0]), 3.0000000000000004),
    (power_mean, ([0.0, 3.0], -inf, [0.0, 1.0]), 3.0),
    (power_mean, ([5.0, 3.0], inf, [0.0, 1.0]), 3.0),
    (power_mean, ([1.0, 4.0], 2.0, [3.0, 1.0]), 2.179449471770337),
    (power_mean, ([-0.0], 2.0), 0.0),
    (power_mean, ([-0.0], -1.0), 0.0),
    (power_mean, ([-0.0], 0.0), 0.0),
    (power_mean, ([-0.0], inf), -0.0),
    (power_mean, ([-0.0], -inf), -0.0),
    (power_mean, ([-0.0, 3.0], 1.0, [1.0, 0.0]), 0.0),
    (power_mean, ([1e-300, 1e300], -1.0), 2e-300),
    (lehmer_mean, ([2.5], 2.0), 2.5),
    (lehmer_mean, ([2.5], -inf), 2.5),
    (lehmer_mean, ([0.0, 0.0], 2.0), 0.0),
    (lehmer_mean, ([0.0, 0.0], -1.0), 0.0),
    (lehmer_mean, ([0.0, 0.0], 0.0), 0.0),
    (lehmer_mean, ([0.0, 2.0, 4.0], 1.0), 3.3333333333333335),
    (lehmer_mean, ([0.0, 2.0, 4.0], -1.0), 0.0),
    (lehmer_mean, ([0.0, 2.0, 4.0], -0.5), 0.0),
    (lehmer_mean, ([0.0, 2.0, 4.0], inf), 4.0),
    (lehmer_mean, ([0.0, 2.0, 4.0], -inf), 0.0),
    (lehmer_mean, ([1.0, 4.0], -inf), 1.0),
    (lehmer_mean, ([1.0, 4.0, 4.0], inf), 4.0),
    (lehmer_mean, ([-0.0], 2.0), 0.0),
    (lehmer_mean, ([-0.0], -1.0), 0.0),
    (lehmer_mean, ([-0.0], 0.0), 0.0),
    (lehmer_mean, ([-0.0], inf), 0.0),
    (gini_mean, ([2.5], 1.0, 2.0), 2.5),
    (gini_mean, ([0.0, 0.0], 1.0, 2.0), 0.0),
    (gini_mean, ([0.0, 0.0], 1.0, -2.0), 0.0),
    (gini_mean, ([0.0, 2.0, 4.0], 1.0, 1.0), 3.3333333333333335),
    (gini_mean, ([0.0, 2.0, 4.0], 1.0, -2.0), 0.0),
    (gini_mean, ([0.0, 2.0, 4.0], 0.0, 2.0), 3.482202253184496),
    (gini_mean, ([0.0, 2.0, 4.0], -1.0, 0.0), 0.0),
    (gini_mean, ([1.0, 4.0], inf, 1.0), 4.0),
    (gini_mean, ([1.0, 4.0], -inf, 1.0), 1.0),
    (gini_mean, ([1.0, 4.0], 1.0, inf), 4.0),
    (gini_mean, ([1.0, 4.0], 1.0, -inf), 1.0),
    (gini_mean, ([0.0, 3.0], 1.0, -2.0, [0.0, 1.0]), 3.0),
    (gini_mean, ([0.0, 3.0], 0.0, 0.0, [0.0, 1.0]), 3.0000000000000004),
    (gini_mean, ([1.0, 4.0], 1.0, 1.0, [0.0, 1.0]), 4.0),
    (gini_mean, ([-0.0], 2.0, 0.0), 0.0),
    (gini_mean, ([-0.0], 1.0, 2.0), 0.0),
    (gini_mean, ([-0.0], 1.0, -2.0), 0.0),
    (gini_mean, ([1e-300, 1e300], 1.0, -0.5), 1.0),
    (gini_mean, ([1e-300, 1e300], -1.0, 0.5), 1.0),
    (gini_mean, ([0.0, 1e-300, 1e300], -1.0, 0.5), 1.0),
    (gini_mean, ([0.0, 1e-300, 1e300], -1.0, 0.5, [5.0, 1.0, 1.0]), 1.0),
    (gini_mean, ([1e-300, 1e300, 1.0], -1.0, 0.5, [1.0, 1.0, 0.0]), 1.0),
    (median, ([2.5],), 2.5),
    (median, ([0.0, 0.0],), 0.0),
    (median, ([-0.0],), -0.0),
    (median, ([-0.0, -0.0],), -0.0),
    (median, ([1.0, 2.0, 4.0, 3.0],), 2.5),
    (midrange, ([2.5],), 2.5),
    (midrange, ([0.0, 0.0],), 0.0),
    (midrange, ([-0.0],), -0.0),
    (midrange, ([-0.0, -0.0],), -0.0),
    (midrange, ([4.0, 1.0, 2.0],), 2.5),
    (owa, ([2.5], [1.0]), 2.5),
    (owa, ([0.0, 0.0], [1.0, 1.0]), 0.0),
    (owa, ([-0.0], [1.0]), 0.0),
    (owa, ([-0.0, -0.0], [1.0, 1.0]), 0.0),
    (owa, ([1.0, 2.0, 3.0], [0.0, 0.0, 1.0]), 1.0),
    (owa, ([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]), 3.0),
    (owa, ([1.0, 2.0, 3.0], [0.0, 2.0, 0.0]), 2.0),
]


def same_float(a, b):
    """Equal values with equal signs, so that 0.0 and -0.0 differ."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_scalar_means_at_their_edges():
    for fn, args, expected in SCALAR_EDGES:
        got = fn(*args)
        assert type(got) is float and same_float(got, expected), (fn.__name__, args, got)


def test_scalar_means_keep_their_error_messages():
    nonneg = [(power_mean, (2.0,)), (lehmer_mean, (2.0,)), (gini_mean, (1.0, 2.0))]
    every = nonneg + [(median, ()), (midrange, ()), (owa, ([1.0, 1.0],))]
    for fn, params in every:
        for x, message in (([], "input must be non-empty"), ([[1.0, 2.0]], "input must be a 1-d vector"),
                           (3.0, "input must be a 1-d vector"), ([1.0, math.nan], "input values must be finite"),
                           ([1.0, inf], "input values must be finite")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(x, *params)
    for fn, params in nonneg:
        with pytest.raises(ValueError, match=r"^negative components are outside the \[0, inf\) domain$"):
            fn([1.0, -1.0], *params)
    for call in (lambda: power_mean([1.0, 2.0], 1.0, [1.0]), lambda: owa([1.0, 2.0], [1.0]),
                 lambda: gini_mean([1.0, 2.0], 1.0, 1.0, [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match=r"^expected 2 weights, got shape \(\d,\)$"):
            call()
    for w in ([1.0, -1.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="^weights must be non-negative with a positive sum$"):
            owa([1.0, 2.0], w)
    for call, name in ((lambda: power_mean([1.0, 2.0], math.nan), "p"),
                       (lambda: lehmer_mean([1.0, 2.0], math.nan), "q"),
                       (lambda: gini_mean([1.0, 2.0], math.nan, 1.0), "p"),
                       (lambda: gini_mean([1.0, 2.0], 1.0, math.nan), "q")):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan$"):
            call()
