import numpy as np
import pytest

from weakmeans import minimize_penalty, mixture_mean, mixture_penalty, owa_penalty
from weakmeans.penalty import (
    absolute_penalty,
    golden_section,
    least_squares_penalty,
    mode_penalty,
    penalty_values,
    sublevel_convexity_check,
)
from weakmeans.tonal import FilterConfig, tonal_penalty


def penalty(term, x, y):
    """P(x, y) at one point, summed as the golden-section refine sums it."""
    return float(np.sum(term(np.asarray(x, float), y)))


def brute_force_argmin(term, x, points=200001):
    """Independent oracle: exhaustive scan over a fine grid plus data points."""
    x = np.asarray(x, float)
    ys = np.unique(np.concatenate([np.linspace(x.min(), x.max(), points), x]))
    vals = penalty_values(term, x, ys)
    best = vals.min()
    return float(ys[vals <= best + 1e-12 * max(1.0, abs(best))][0])


def library_term_penalties(x):
    specs = [least_squares_penalty, absolute_penalty, mode_penalty,
             mixture_penalty(lambda t: t), mixture_penalty(lambda t: t * t),
             mixture_penalty(np.exp), mixture_penalty(lambda t: np.ones_like(t))]
    spatial = np.ones(x.size)
    for dissimilarity in ("squared", "huber"):
        cfg = FilterConfig(dissimilarity=dissimilarity, estimator="median")
        specs.append(tonal_penalty(x, x[0], cfg, spatial))
    d = np.random.default_rng(x.size).uniform(0, 1, x.size)
    d[0] = 1.0  # positive sum
    specs.append(owa_penalty(d))
    return specs


@pytest.mark.parametrize("n", [1, 2, 5, 9, 40, 5000])
def test_evaluate_many_is_bit_identical_to_evaluate(n):
    rng = np.random.default_rng(n)
    x = np.round(rng.uniform(0.1, 3.0, n), 2)  # repeated values for the mode penalty
    ys = np.concatenate([np.linspace(x.min(), x.max(), 37), x[:20]])
    for term in library_term_penalties(x):
        want = np.array([penalty(term, x, float(y)) for y in ys])
        assert np.array_equal(penalty_values(term, x, ys), want)
    assert penalty_values(least_squares_penalty, x, []).shape == (0,)


def test_golden_section_quadratic():
    y, v = golden_section(lambda t: (t - 0.3) ** 2, 0.0, 1.0, 1e-12)
    assert y == pytest.approx(0.3, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_least_squares_gives_mean():
    assert minimize_penalty(least_squares_penalty, [1, 2, 3]) == pytest.approx(
        2.0, abs=1e-9
    )


def test_absolute_gives_median():
    assert minimize_penalty(absolute_penalty, [0, 0, 10]) == pytest.approx(
        0.0, abs=1e-9
    )


def test_weighted_quadratic_matches_mixture():
    P = mixture_penalty(lambda t: t)
    assert minimize_penalty(P, [1, 2]) == pytest.approx(5 / 3, abs=5e-9)
    P2 = mixture_penalty(lambda t: t**2)
    assert minimize_penalty(P2, [1, 2]) == pytest.approx(1.8, abs=5e-9)
    # mixture_mean's weight-function rule: a zero total is no flat penalty
    for w in (lambda t: 0.0 * t, lambda t: -t):
        for solve in (lambda: minimize_penalty(mixture_penalty(w), [1, 2]),
                      lambda: mixture_mean([1, 2], w)):
            with pytest.raises(ValueError, match="non-negative with a positive sum"):
                solve()


def test_mixture_oracle_equivalence():
    rng = np.random.default_rng(3)
    weight_fns = [lambda t: t, lambda t: t**2, np.exp, lambda t: np.ones_like(t)]
    for _ in range(250):
        w = weight_fns[rng.integers(len(weight_fns))]
        n = rng.integers(2, 7)
        x = rng.uniform(0.05, 1.0, n)
        got = minimize_penalty(mixture_penalty(w), x)
        want = mixture_mean(x, w)
        assert abs(got - want) <= 1e-7


def test_minimiser_stays_in_hull():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(-3, 3, 5)
        y = minimize_penalty(least_squares_penalty, x)
        assert x.min() - 1e-9 <= y <= x.max() + 1e-9


def test_mode_penalty_leftmost_convention():
    assert minimize_penalty(mode_penalty, [1, 1, 2, 2, 3, 4, 5]) == 1.0


def test_mode_penalty_matches_brute_force():
    x = [2, 2, 5, 5, 5, 9]
    assert minimize_penalty(mode_penalty, x) == brute_force_argmin(mode_penalty, x) == 5.0


def test_penalty_axioms_sampled():
    rng = np.random.default_rng(11)
    specs = [least_squares_penalty, absolute_penalty, mixture_penalty(lambda t: t + 0.1)]
    for term in specs:
        for _ in range(500):
            n = rng.integers(1, 6)
            x = rng.uniform(0, 1, n)
            y = rng.uniform(0, 1)
            assert penalty(term, x, y) >= -1e-12
            t = rng.uniform(0, 1)
            assert penalty(term, np.full(n, t), t) == pytest.approx(0.0, abs=1e-12)


def test_shifted_penalty_value_difference_terms():
    P = least_squares_penalty
    assert penalty(P, np.array([1, 2]) + 5.0, 1.5 + 5.0) == pytest.approx(0.5, abs=1e-12)
    assert penalty(mode_penalty, np.array([1, 1, 2]) + 3.0, 1.0 + 3.0) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(0, 1, 4)
        a, y = rng.uniform(-2, 2), rng.uniform(0, 1)
        assert penalty(P, x + a, y + a) == pytest.approx(penalty(P, x, y), abs=1e-9)


def test_non_finite_penalty_is_refused():
    with pytest.raises(ValueError):
        minimize_penalty(lambda xs, y: np.nan * (xs - y), [0, 1])


def test_sublevel_convexity_sanity_check():
    assert sublevel_convexity_check(least_squares_penalty, [0, 1, 2])
    wiggly = lambda xs, y: np.cos(8 * y) + 2.0 + 0.0 * xs
    assert not sublevel_convexity_check(wiggly, [0, 3])
