import itertools

import numpy as np
import pytest

from weakmeans import (
    candidate_windows,
    density_mean,
    lms,
    lts,
    minimize_penalty,
    mode,
    owa_penalty,
    owa_penalty_estimator,
    shorth,
)
from weakmeans.means import midrange

ESTIMATORS = [mode, shorth, lms, lts, density_mean]


def test_mode_paper_counterexample():
    assert mode([1, 1, 2, 2, 3, 3, 3]) == 3
    assert mode([2, 2, 2, 2, 3, 3, 3]) == 2
    assert mode([2, 2, 3, 3, 4, 4, 4]) == 4
    assert mode([1, 1, 2, 2, 3, 4, 5]) == 1  # tie broken by the smallest


def test_mode_quantized():
    assert mode([0.1001, 0.1002, 0.5], quantize=0.01) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        mode([1.0], quantize=0.0)


def test_candidate_windows():
    xs, windows = candidate_windows([0, 1, 2, 10, 11])
    assert [w.length for w in windows] == [2, 9, 9]
    assert min(windows, key=lambda w: (w.length, w.start)).start == 0
    _, const = candidate_windows([4.0, 4.0, 4.0])
    assert all(w.length == 0 for w in const)
    xs1, w1 = candidate_windows([0.3, 0.9, 0.2, 0.8])
    xs2, w2 = candidate_windows(np.array([0.3, 0.9, 0.2, 0.8]) + 7)
    assert [w.length for w in w1] == pytest.approx([w.length for w in w2])
    with pytest.raises(ValueError):
        candidate_windows([1.0])


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
    with pytest.raises(ValueError):
        owa_penalty_estimator([1, 2], [0, 0])
    with pytest.raises(ValueError):
        owa_penalty_estimator([1, 2, 3], [1, 1])


def lms_delta(n):
    d = np.zeros(n)
    if n % 2 == 0:
        d[n // 2 - 1] = d[n // 2] = 0.5
    else:
        d[(n + 1) // 2 - 1] = 1.0
    return d


def test_owa_special_case_equivalences():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(3, 10))
        x = rng.uniform(0, 10, n)
        h = n // 2 + 1
        assert owa_penalty_estimator(x, np.ones(n)) == pytest.approx(
            x.mean(), abs=1e-7
        )
        cheb = np.zeros(n)
        cheb[-1] = 1.0
        assert owa_penalty_estimator(x, cheb) == pytest.approx(midrange(x), abs=1e-7)
        assert owa_penalty_estimator(x, lms_delta(n)) == pytest.approx(
            lms(x), abs=1e-7
        )
        trim = np.concatenate([np.ones(h), np.zeros(n - h)])
        assert owa_penalty_estimator(x, trim) == pytest.approx(lts(x), abs=1e-7)


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
        best = P.evaluate(x, exact)
        rival = min(P.evaluate(x, via_engine), float(P.evaluate_many(x, mids).min()))
        assert best <= rival + 1e-11 * max(1.0, best)


def test_density_mean_values():
    assert density_mean([4.2, 4.2, 4.2]) == pytest.approx(4.2, abs=1e-12)
    assert density_mean([0, 1]) == pytest.approx(0.5, abs=1e-12)
    assert density_mean([0, 0, 1]) == pytest.approx(2 / 7, abs=1e-12)


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
