import itertools
import math

import numpy as np
import pytest

from weakmeans import (
    SamplerConfig,
    check_shift_invariance,
    check_weak_monotonicity,
    density_mean,
    lms,
    lts,
    minimize_penalty,
    mode,
    owa_penalty,
    owa_penalty_estimator,
    shorth,
)
from weakmeans.location import lms_rows, shorth_rows
from weakmeans.means import midrange
from weakmeans.penalty import penalty_values
from weakmeans.properties import named_aggregator

ESTIMATORS = [mode, shorth, lms, lts, density_mean]


def test_mode_paper_counterexample():
    assert mode([1, 1, 2, 2, 3, 3, 3]) == 3
    assert mode([2, 2, 2, 2, 3, 3, 3]) == 2
    assert mode([2, 2, 3, 3, 4, 4, 4]) == 4
    assert mode([1, 1, 2, 2, 3, 4, 5]) == 1  # tie broken by the smallest


def test_mode_quantized():
    assert mode([0.1001, 0.1002, 0.5], quantize=0.01) == pytest.approx(0.1)
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="quantize must be positive and finite"):
            mode([1.0], quantize=step)
    # 1e300 / 1e-10 overflows: a value too large to snap is kept as it is
    assert mode([1e300], quantize=1e-10) == 1e300
    assert mode([3.0, 1e300, 1e300], quantize=1e-10) == 1e300


def shortest_half_oracle(x):
    """Independent oracle: a plain loop over every contiguous half-sample of
    the sorted data; the first whose length is within
    1e-9 min(1, max x - min x) + 2^-46 max|x| of the shortest is the window."""
    xs = sorted(float(v) for v in x)
    h = len(xs) // 2
    windows = [xs[k : k + h + 1] for k in range(len(xs) - h)]
    shortest = min(w[-1] - w[0] for w in windows)
    tol = 2e-9 * min(0.5, xs[-1] / 2 - xs[0] / 2) + 2**-46 * max(abs(v) for v in xs)
    for w in windows:
        if w[-1] - w[0] <= shortest + tol:
            return w


def test_shortest_half_sample_window():
    # windows [0, 1, 2], [1, 2, 10] and [2, 10, 11] have lengths 2, 9 and 9
    assert shorth([0, 1, 2, 10, 11]) == 1.0
    assert lms([11, 10, 2, 1, 0]) == 1.0
    assert shorth([4.0, 4.0, 4.0]) == lms([4.0, 4.0, 4.0]) == 4.0
    # both windows of 0.2, 0.3, 0.8, 0.9 are 0.6 long up to rounding noise,
    # which a shift by 7 changes; the first window is kept either way
    x = np.array([0.3, 0.9, 0.2, 0.8])
    assert lms(x) == 0.5 and shorth(x) == pytest.approx(1.3 / 3, abs=1e-15)
    assert lms(x + 7) == pytest.approx(7.5, abs=1e-12)
    assert shorth(x + 7) == pytest.approx(7 + 1.3 / 3, abs=1e-12)


def test_shorth_and_lms_equal_the_window_oracle():
    rng = np.random.default_rng(16)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        base = rng.integers(0, 40, n) / 4  # ties, and windows of equal length
        for x in (base, base + 1e-10 * rng.uniform(-1, 1, n),  # near-ties
                  base + 3e-9 * rng.uniform(-1, 1, n), rng.integers(0, 4, n) + 1e6,
                  rng.normal(size=n)):
            w = shortest_half_oracle(x)
            assert shorth(x) == float(np.mean(w))
            assert lms(x) == 0.5 * (w[0] + w[-1])


def test_shorth_paper_values():
    assert shorth([1, 2.8284271, 4, 5.9160798, 6.9202601]) == pytest.approx(
        5.612, abs=0.01
    )
    assert shorth([1.4142136, 3, 4.1231056, 6, 6.9928534]) == pytest.approx(
        2.846, abs=0.01
    )
    assert shorth([0, 1, 2, 10, 11]) == pytest.approx(1.0, abs=1e-12)


def test_lms_values():
    assert lms([0, 1, 2, 10, 11]) == 1.0
    assert lms([5, 5, 5, 5]) == 5.0
    # 1e308 + 1.5e308 overflows; the halves of the two ends do not
    X = np.array([[1e308, 1.5e308], [-1.5e308, -1e308], [1.5e308, 1e308]])
    assert lms(X[0]) == 1.25e308
    np.testing.assert_array_equal(lms_rows(X), [lms(x) for x in X])


def test_window_means_are_finite_at_the_float_range_end():
    # the mean of the window and the LTS sum of squares overflow; the
    # estimators fall back to a power-of-two scale
    X = np.array([[1e308, 1.5e308], [-1.5e308, -1e308], [1.5e308, 1e308]])
    for estimator in (shorth, lts, lambda x: owa_penalty_estimator(x, [1, 1])):
        assert [estimator(x) for x in X] == [1.25e308, -1.25e308, 1.25e308]
    np.testing.assert_array_equal(shorth_rows(X), [1.25e308, -1.25e308, 1.25e308])
    # where the squares overflow, the result is the one at a power-of-two scale
    rng = np.random.default_rng(4)
    for _ in range(30):
        x = rng.uniform(-10, 10, rng.integers(2, 9))
        assert lts(np.ldexp(x, 1000)) == pytest.approx(np.ldexp(lts(x), 1000), rel=1e-12)
        big = owa_penalty_estimator(np.ldexp(x, 1000), np.ones(x.size))
        assert big == pytest.approx(np.ldexp(np.mean(x), 1000), rel=1e-12)


def test_half_sample_windows_longer_than_the_float_range():
    # every window's length overflows; halved, the lengths 3.35e308 and
    # 3.3e308 still pick the second window, [-1.6e308, 1.65e308, 1.7e308]
    # (the oracle subtracts floats too, so the values are written out)
    X = np.array([[-1.7e308, -1.6e308, 1.65e308, 1.7e308]])
    assert lms(X[0]) == pytest.approx(5e306, rel=1e-12)
    assert shorth(X[0]) == pytest.approx(1.75e308 / 3, rel=1e-12)
    np.testing.assert_array_equal(lms_rows(X), [lms(X[0])])
    np.testing.assert_array_equal(shorth_rows(X), [shorth(X[0])])
    # here only the last window is finite, and it is the shortest
    assert lms([-1.7e308, -1e308, 1.5e308, 1.6e308, 1.7e308]) == 1.6e308


def test_one_distant_outlier_is_trimmed():
    # the outlier's sum of squares overflows; the other windows keep their
    # own scale, and under trimmed weights its residual takes no part
    x = [0, 5, 10, 10.5, 11, 1e308]
    assert lts(x) == owa_penalty_estimator(x, [1, 1, 1, 1, 0, 0]) == 9.125
    # an outlier ever farther off changes no estimate, unless it is one
    rng = np.random.default_rng(6)
    for _ in range(60):
        x = rng.uniform(-10, 10, rng.integers(2, 9))
        h = (x.size + 1) // 2 + 1  # LTS weights for the n + 1 values
        trimmed = [1.0] * h + [0.0] * (x.size + 1 - h)
        d = np.append(rng.integers(0, 3, x.size), 0.0)  # none on the largest residual
        d[0] = 1.0
        for outlier in (1e18, 1e200, 1.7e308):
            for far in (outlier, -outlier):
                near = np.append(x, np.sign(far) * 1e6)
                assert lts(np.append(x, far)) == lts(near)
                assert owa_penalty_estimator(np.append(x, far), trimmed) == pytest.approx(lts(near))
                ref = owa_penalty_estimator(near, d)
                assert owa_penalty_estimator(np.append(x, far), d) == (far if abs(ref) == 1e6 else ref)


def test_near_ties_scale_with_the_data():
    # a near-tie floor at the data's own scale: the second window is shorter
    assert lts([1e-6, 5e-6, 6e-6, 7e-6]) == pytest.approx(6e-6, rel=1e-12)
    assert shorth([1e-10, 5e-10, 6e-10, 7e-10]) == pytest.approx(6e-10, rel=1e-12)
    n = 7
    forms = [lts, shorth, lms, lambda x: shorth_rows([x])[0], lambda x: lms_rows([x])[0],
             lambda x: owa_penalty_estimator(x, [1.0] * (n // 2 + 1) + [0.0] * (n - n // 2 - 1)),
             lambda x: owa_penalty_estimator(x, lms_delta(n))]
    rng = np.random.default_rng(0)
    for x in rng.standard_normal((40, n)):
        for estimate in forms:
            ref = estimate(x)
            for s in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-20, 1e-50, 1e-100, 1e-160, 1e-200, 1e-300):
                assert abs(estimate(s * x) - s * ref) <= 1e-9 * s


def test_far_outliers_leave_small_values_at_their_own_scale():
    # the working scale follows the tightest h values, not the outlier: at
    # max |x| / 2^524 the squares of these would vanish or be subnormal
    for x, h in (([0, 5e-5, 1e-4, 1.05e-4, 1.1e-4], 4), ([1e-300, 2e-300, 3e-300], 3)):
        trimmed = [1.0] * h + [0.0] * (len(x) + 1 - h)
        for far in (1e300, 1.7e308, -1.7e308):
            assert lts(x + [far]) == lts(x + [1e3])
            assert owa_penalty_estimator(x + [far], trimmed) == owa_penalty_estimator(x + [1e3], trimmed)
    assert lts([1e-300, 2e-300, 3e-300, 1.7e308]) == 2e-300


def test_near_ties_do_not_move_under_a_shift():
    # the two windows' sums of squares differ by 1.2e-11: a floor that grew
    # with max |x|^2 took them for a tie after a shift of 1e-6, not before
    x = np.array([0.109538, 0.109542, 0.109543, 0.109544])
    assert abs(lts(x + 1e-6) - 1e-6 - lts(x)) <= 1e-15
    n = 7
    forms = [lts, shorth, lms, lambda x: shorth_rows([x])[0], lambda x: lms_rows([x])[0],
             lambda x: owa_penalty_estimator(x, [1.0] * (n // 2 + 1) + [0.0] * (n - n // 2 - 1)),
             lambda x: owa_penalty_estimator(x, lms_delta(n))]
    # 6-decimal data 1e4 times farther from 0 than their spread: windows and
    # segments differ by little, and rounding noise makes exact ties unequal
    rng = np.random.default_rng(5)
    for x in 0.1 + np.round(rng.uniform(0, 1e-5, (100, n)), 6):
        for estimate in forms:
            ref = estimate(x)
            for c in (1e-6, 1e-3, 0.1, 0.5):
                assert abs(estimate(x + c) - c - ref) <= 1e-12


# (x, a) whose two shortest windows differ by just over a near-tie floor
# that grew with max |x|: the shift moved the floor across the difference,
# and the estimate jumped to the left window, below its unshifted value
SHIFTED_NEAR_TIES = [((0.0, 0.400000001, 0.800000001), 0.3),
                     ((0.0, 0.375 + 2**-30, 0.75 + 2**-30), 0.375),  # x + a is exact
                     ((980.0, 990.0000010001, 1000.0000010001), 0.2)]


def test_shortest_windows_follow_a_shift():
    forms = [shorth, lms, lambda x: shorth_rows([x])[0], lambda x: lms_rows([x])[0]]
    for x, a in SHIFTED_NEAR_TIES:
        x = np.array(x)
        for estimate in forms:
            assert estimate(x + a) >= estimate(x)
            assert abs(estimate(x + a) - a - estimate(x)) <= 1e-9
        cfg = SamplerConfig(samples=1, probe_points=[(tuple(x), a)])
        for name in ("shorth", "lms"):
            for check in (check_shift_invariance, check_weak_monotonicity):
                assert not check(named_aggregator(name), n=3, cfg=cfg).violated, (name, x, a)


def test_one_value_is_its_own_estimate():
    for estimator in ESTIMATORS:
        assert estimator([3.5]) == 3.5


def lts_subset_oracle(x):
    """Independent oracle: exhaustive search over all h-subsets."""
    x = np.asarray(x, float)
    h = x.size // 2 + 1
    best = (np.inf, np.inf)
    for idx in itertools.combinations(range(x.size), h):
        sub = x[list(idx)]
        sse = float(np.sum((sub - sub.mean()) ** 2))
        best = min(best, (sse, float(sub.mean())))
    return best[1]


def test_lts_values_and_oracle():
    assert lts([0, 1, 2, 10, 11]) == 1.0
    assert lts([3, 3, 3]) == 3.0
    rng = np.random.default_rng(9)
    for _ in range(60):
        x = rng.uniform(0, 10, rng.integers(2, 9))
        assert lts(x) == pytest.approx(lts_subset_oracle(x), abs=1e-9)


def test_owa_penalty_estimator_values():
    assert owa_penalty_estimator([1, 2, 6], [1, 1, 1]) == pytest.approx(3.0, abs=1e-9)
    assert owa_penalty_estimator([0, 1, 10], [0, 0, 1]) == pytest.approx(5.0, abs=1e-9)
    assert owa_penalty_estimator([0, 1, 2, 10, 11], [1, 1, 1, 0, 0]) == pytest.approx(
        1.0, abs=1e-9
    )
    assert owa_penalty_estimator([2, 2, 2], [1, 1, 0]) == 2  # every midpoint is 2: no segment
    with pytest.raises(ValueError):
        owa_penalty_estimator([1, 2], [0, 0])
    with pytest.raises(ValueError):
        owa_penalty_estimator([1, 2, 3], [1, 1])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weights delta must be finite"):
            owa_penalty_estimator([1, 2, 3], [bad, 1, 1])


def test_owa_ties_are_decided_between_segment_minima():
    # the LTS vertex 0.5000001 lies 1e-7 right of the midpoint 0.5, whose
    # objective is within the 1e-12 tie tolerance; a bound is no minimum there
    x = [0, 0.5 + 3e-7, 1, 5, 6]
    assert owa_penalty_estimator(x, [1, 1, 1, 0, 0]) == lts(x) == pytest.approx(0.5000001, abs=1e-15)
    # symmetric data: two minimisers, 10/3 and 20/3; the leftmost is returned
    assert owa_penalty_estimator([0, 1, 9, 10], [1, 1, 1, 0]) == pytest.approx(10 / 3, abs=1e-15)
    # a vertex at the right end of the last segment is a minimum: the only one here
    assert owa_penalty_estimator([0, 10, 10], [1, 1, 0]) == 10.0
    assert owa_penalty_estimator([0, 0, 10], [1, 1, 0]) == 0.0


def lms_delta(n):
    d = np.zeros(n)
    if n % 2 == 0:
        d[n // 2 - 1] = d[n // 2] = 0.5
    else:
        d[(n + 1) // 2 - 1] = 1.0
    return d


def test_owa_special_case_equivalences():
    rng = np.random.default_rng(10)
    random = [rng.uniform(0, 10, int(rng.integers(3, 10))) for _ in range(300)]
    # several pairs crossing at one midpoint: evenly spaced data (0 + 9,
    # 1 + 8, ... all at 4.5), duplicated values and a 1e-5 grid
    crowded = [np.arange(10.0), np.arange(4.0) - 1.5, np.array([1.0, 1, 2, 2, 2, 5, 9, 9]),
               np.array([3.0, 3, 3])]
    crowded += [np.round(3 * rng.standard_normal(n)) * 1e-5 for n in range(3, 16)]
    for x in random + crowded:
        n = x.size
        h = n // 2 + 1
        assert owa_penalty_estimator(x, np.ones(n)) == pytest.approx(
            x.mean(), abs=1e-12
        )
        cheb = np.zeros(n)
        cheb[-1] = 1.0
        assert owa_penalty_estimator(x, cheb) == pytest.approx(midrange(x), abs=1e-12)
        assert owa_penalty_estimator(x, lms_delta(n)) == pytest.approx(
            lms(x), abs=1e-12
        )
        trim = np.concatenate([np.ones(h), np.zeros(n - h)])
        assert owa_penalty_estimator(x, trim) == pytest.approx(lts(x), abs=1e-12)


def test_owa_exact_agrees_with_penalty_engine_route():
    # the generic grid minimizer over the OWA penalty is the independent oracle
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        x = rng.uniform(0, 5, n)
        d = rng.uniform(0, 1, n)
        d[rng.integers(n)] = 1.0
        P = owa_penalty(d)
        exact = owa_penalty_estimator(x, d)
        via_engine = minimize_penalty(P, x)
        assert exact == pytest.approx(via_engine, abs=1e-6)
        # the grid engine can miss a minimum sitting on a kink (a pairwise
        # midpoint) of a non-convex OWA penalty, so the exact value is also
        # checked against every midpoint
        mids = ((x[:, None] + x[None, :]) / 2.0).ravel()
        best, at_engine = penalty_values(P, x, [exact, via_engine])
        rival = min(at_engine, penalty_values(P, x, mids).min())
        assert best <= rival + 1e-11 * max(1.0, best)


def test_density_mean_values():
    assert density_mean([4.2, 4.2, 4.2]) == pytest.approx(4.2, abs=1e-12)
    assert density_mean([0, 1]) == pytest.approx(0.5, abs=1e-12)
    assert density_mean([0, 0, 1]) == pytest.approx(2 / 7, abs=1e-12)
    # squared distances beyond the float range: equal weights, no overflow
    assert density_mean([0.0, 1e200]) == 5e199


def test_a_strided_vector_gives_what_its_copy_gives():
    # a row of a column-major block is strided, and a strided dot rounds
    # otherwise than a contiguous one
    rng = np.random.default_rng(9)
    for _ in range(500):
        B = np.asfortranarray(rng.normal(size=(3, int(rng.integers(4, 40)))))
        assert density_mean(B[1]) == density_mean(B[1].copy())


def test_shift_invariance_all_estimators():
    rng = np.random.default_rng(21)
    for _ in range(400):
        n = int(rng.integers(2, 9))
        x = rng.uniform(0, 1, n)
        a = rng.uniform(-3, 3)
        for est in ESTIMATORS:
            assert abs(est(x + a) - (est(x) + a)) <= 1e-9, est.__name__
        d = rng.uniform(0, 1, n)
        d[rng.integers(n)] = 1.0
        got = owa_penalty_estimator(x + a, d)
        assert abs(got - (owa_penalty_estimator(x, d) + a)) <= 1e-9


def test_averaging_all_estimators():
    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        x = rng.uniform(0, 1, n)
        for est in ESTIMATORS:
            assert x.min() - 1e-12 <= est(x) <= x.max() + 1e-12


# literal values of the scalar estimators at their edges: one value, all
# zeros, signed zeros, and a snap that rounds to -0.0
LOCATION_EDGES = [
    (mode, ([2.5],), 2.5),
    (mode, ([0.0, 0.0],), 0.0),
    (mode, ([-0.0],), -0.0),
    (mode, ([-0.0, -0.0, 1.0],), -0.0),
    (mode, ([3.0, 1.0, 3.0, 1.0],), 1.0),
    (mode, ([-0.1, -0.2, 5.0], 1.0), -0.0),
    (mode, ([0.26, 0.24, 0.74], 0.5), 0.5),
    (shorth, ([2.5],), 2.5),
    (shorth, ([0.0, 0.0],), 0.0),
    (shorth, ([-0.0],), 0.0),
    (shorth, ([-0.0, -0.0],), 0.0),
    (shorth, ([0.0, 1.0, 3.0],), 0.5),
    (lms, ([2.5],), 2.5),
    (lms, ([0.0, 0.0],), 0.0),
    (lms, ([-0.0],), -0.0),
    (lms, ([-0.0, -0.0],), -0.0),
    (lms, ([0.0, 1.0, 3.0],), 0.5),
]


def test_scalar_estimators_at_their_edges():
    for fn, args, expected in LOCATION_EDGES:
        got = fn(*args)
        assert type(got) is float and got == expected, (fn.__name__, args, got)
        assert math.copysign(1.0, got) == math.copysign(1.0, expected), (fn.__name__, args, got)


def test_scalar_estimators_keep_their_error_messages():
    for fn in (mode, shorth, lms):
        for x, message in (([], "input must be non-empty"), ([[1.0, 2.0]], "input must be a 1-d vector"),
                           (3.0, "input must be a 1-d vector"), ([1.0, math.nan], "input values must be finite"),
                           ([1.0, -math.inf], "input values must be finite")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(x)
