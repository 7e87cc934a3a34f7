import math

import numpy as np
import pytest

from weakmeans import (
    Aggregator,
    Interval,
    SamplerConfig,
    arithmetic_mean,
    check_weak_monotonicity,
    compose,
    dual,
    internal_switch_example,
    lehmer_mean,
    median,
    mixture_mean,
    phi_transform,
)
from weakmeans import location
from weakmeans.transforms import is_affine

REALS = Interval(-math.inf, math.inf)
UNIT = Interval(0.0, 1.0)

MEAN = Aggregator(arithmetic_mean, domain=REALS,
                  known=frozenset({"monotone", "shift-invariant"}), name="mean")
SHORTH = Aggregator(location.shorth, domain=REALS,
                    known=frozenset({"shift-invariant"}), name="shorth")
LMS = Aggregator(location.lms, domain=REALS,
                 known=frozenset({"shift-invariant"}), name="lms")


def test_is_affine():
    assert is_affine(lambda t: 2 * t + 3)
    assert is_affine(lambda t: t)
    assert not is_affine(lambda t: t * t, lo=0.0, hi=2.0)


def test_affine_phi_absorbed_by_arithmetic_mean():
    F = phi_transform(MEAN, lambda t: 2 * t + 3, lambda t: (t - 3) / 2)
    x = [0.1, 0.7, 0.4]
    assert F(x) == pytest.approx(arithmetic_mean(x), abs=1e-12)
    assert "weakly-monotone" in F.known


def test_identity_phi_unchanged():
    F = phi_transform(SHORTH, lambda t: t, lambda t: t, domain=Interval(0.0, 1.0))
    x = [0.1, 0.15, 0.2, 0.8, 0.9]
    assert F(x) == pytest.approx(location.shorth(x), abs=1e-12)


def test_sqrt_shorth_paper_counterexample():
    F = phi_transform(
        SHORTH, math.sqrt, lambda t: t * t, domain=Interval(0.0, 60.0)
    )
    assert "weakly-monotone" not in F.known  # no guarantee for nonlinear phi
    x = np.array([1.0, 8.0, 16.0, 35.0, 47.9])
    inner_x = location.shorth(np.sqrt(x))
    inner_shift = location.shorth(np.sqrt(x + 1))
    assert inner_x == pytest.approx(5.612, abs=0.01)
    assert inner_shift == pytest.approx(2.846, abs=0.01)
    assert abs(F(x) - 31.49) <= 0.05
    assert abs(F(x + 1) - 8.10) <= 0.05
    report = check_weak_monotonicity(
        F, n=5,
        cfg=SamplerConfig(samples=100, probe_points=[(tuple(x), 1.0)],
                          box=Interval(0.0, 50.0)),
    )
    assert report.violated
    assert report.witness["a"] == 1.0


def test_non_invertible_phi_rejected():
    with pytest.raises(ValueError):
        phi_transform(MEAN, lambda t: t * t, lambda t: t, domain=Interval(0.0, 1.0))


def test_linear_phi_preserves_weak_monotonicity():
    rng = np.random.default_rng(4)
    fixtures = [MEAN, SHORTH, LMS]
    cfg = SamplerConfig(samples=1500, seed=0)
    for _ in range(20):
        alpha = rng.uniform(0.2, 3.0)
        beta = rng.uniform(-1.0, 1.0)
        phi = lambda t, a=alpha, b=beta: a * t + b
        phi_inv = lambda t, a=alpha, b=beta: (t - b) / a
        for A in fixtures:
            F = phi_transform(A, phi, phi_inv, domain=Interval(0.0, 1.0))
            assert "weakly-monotone" in F.known
            assert not check_weak_monotonicity(F, n=4, cfg=cfg).violated


def test_dual_basic_cases():
    mean_unit = Aggregator(arithmetic_mean, domain=UNIT,
                           known=frozenset({"monotone"}), name="mean")
    d = dual(mean_unit)
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.uniform(0, 1, 4)
        assert d(x) == pytest.approx(arithmetic_mean(x), abs=1e-12)
        assert d(x) == 1 - mean_unit(1 - x)
    assert (d.known, d.arity, d.domain, d.name) == (
        frozenset({"monotone", "weakly-monotone"}), None, UNIT, "dual[mean]")
    mx = Aggregator(lambda x: float(np.max(x)), domain=UNIT,
                    known=frozenset({"monotone"}), name="max")
    assert dual(mx)([0.2, 0.9]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        dual(MEAN)  # domain must be [0, 1]


def test_dual_involution():
    agg = Aggregator(median, domain=UNIT, name="median")
    dd = dual(dual(agg))
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.uniform(0, 1, 5)
        assert dd(x) == pytest.approx(median(x), abs=1e-12)


def test_dual_mixture_generated_by_reflected_weight():
    w = lambda t: t + 0.2
    base = Aggregator(lambda x: mixture_mean(x, w), domain=UNIT, name="mixture")
    d = dual(base)
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.uniform(0, 1, 4)
        expected = mixture_mean(x, lambda t: w(1 - t))
        assert d(x) == pytest.approx(expected, abs=1e-12)


def test_compose_annotations_and_values():
    cfg = SamplerConfig(samples=2000, seed=0)
    two_mean = Aggregator(arithmetic_mean, domain=REALS, arity=2,
                          known=frozenset({"monotone"}), name="mean2")
    F = compose(two_mean, SHORTH, LMS)
    assert "weakly-monotone" in F.known
    assert not check_weak_monotonicity(F, n=5, cfg=cfg).violated

    contraharm = Aggregator(lambda x: lehmer_mean(x, 1.0), domain=Interval(0, math.inf),
                            arity=2, known=frozenset({"weakly-monotone"}), name="L1")
    med = Aggregator(median, domain=Interval(0, math.inf),
                     known=frozenset({"monotone", "shift-invariant"}), name="median")
    G = compose(contraharm, med, med)
    assert "weakly-monotone" in G.known
    assert not check_weak_monotonicity(G, n=5, cfg=cfg).violated

    triv = compose(two_mean, MEAN, MEAN)
    x = [0.3, 0.4, 0.8]
    assert triv(x) == pytest.approx(arithmetic_mean(x), abs=1e-12)

    unknown_outer = Aggregator(lambda x: lehmer_mean(x, 1.0),
                               domain=Interval(0, math.inf), arity=2, name="L1")
    H = compose(unknown_outer, SHORTH, Aggregator(location.mode, domain=REALS, name="mode"))
    assert "weakly-monotone" not in H.known  # inners not both shift-annotated


def test_compose_arity_mismatch():
    three = Aggregator(arithmetic_mean, domain=REALS, arity=3, name="mean3")
    with pytest.raises(ValueError):
        compose(three, MEAN, MEAN)
    b1 = Aggregator(arithmetic_mean, domain=REALS, arity=3)
    b2 = Aggregator(arithmetic_mean, domain=REALS, arity=4)
    two = Aggregator(arithmetic_mean, domain=REALS, arity=2)
    with pytest.raises(ValueError):
        compose(two, b1, b2)


def test_internal_switch_paper_values():
    F = internal_switch_example()
    assert F([0.25, 0.0]) == 0.25
    assert F([0.75, 0.0]) == 0.75
    assert F([1.0, 0.25]) == 0.25
    report = check_weak_monotonicity(F, n=2, cfg=SamplerConfig(samples=5000, seed=0))
    assert report.violated
    x = report.witness["x"]
    a = report.witness["a"]
    assert x[0] + x[1] < 1.0
    assert x[0] + x[1] + 2 * a >= 1.0
