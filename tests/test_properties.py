import math
from dataclasses import replace

import numpy as np
import pytest

from weakmeans import (
    Aggregator,
    Interval,
    SamplerConfig,
    arithmetic_mean,
    check_averaging,
    check_homogeneity,
    check_idempotency,
    check_internality,
    check_mixture_sufficient_condition,
    check_monotonicity,
    check_shift_invariance,
    check_weak_monotonicity,
    directional_derivative,
    lehmer_bound_table,
    lehmer_mean,
    median,
    power_mean,
)
from weakmeans import location, means
from weakmeans.properties import AGGREGATORS, CHECKS, PropertyReport, named_aggregator

FAST = SamplerConfig(samples=4000, seed=0)

MEAN = Aggregator(
    arithmetic_mean,
    domain=Interval(-math.inf, math.inf),
    known=frozenset({"monotone", "shift-invariant"}),
    name="mean",
)
MEDIAN = Aggregator(median, domain=Interval(-math.inf, math.inf), name="median")
MODE = Aggregator(location.mode, domain=Interval(-math.inf, math.inf), name="mode")
SHORTH = Aggregator(location.shorth, domain=Interval(-math.inf, math.inf), name="shorth")
WOBBLE = Aggregator(
    lambda x: float(np.mean(x) + 0.1 * math.sin(np.mean(x))),
    domain=Interval(-math.inf, math.inf),
    name="wobble",
)
MEAN_PLUS = Aggregator(
    lambda x: float(np.mean(x)) + 0.1, domain=Interval(-math.inf, math.inf), name="mean+0.1"
)


def test_weak_monotonicity_monotone_means_pass():
    assert not check_weak_monotonicity(MEAN, n=4, cfg=FAST).violated
    assert not check_weak_monotonicity(MEDIAN, n=5, cfg=FAST).violated


def test_weak_monotonicity_lehmer_violation():
    report = check_weak_monotonicity(named_aggregator("lehmer", q=1.0), n=3, cfg=FAST)
    assert report.violated
    x = np.array(report.witness["x"])
    a = report.witness["a"]
    # witness replays deterministically
    before = lehmer_mean(x, 1.0)
    after = lehmer_mean(x + a, 1.0)
    assert before == report.witness["value_before"]
    assert after == report.witness["value_after"]
    assert after < before - FAST.tol


def test_weak_monotonicity_probe_points():
    report = check_weak_monotonicity(
        named_aggregator("lehmer", q=1.0),
        n=3,
        cfg=SamplerConfig(samples=10, probe_points=[((1.0, 0.0, 0.0), 0.1)]),
    )
    assert report.violated
    assert report.witness["x"] == [1.0, 0.0, 0.0]
    assert report.witness["value_before"] == pytest.approx(1.0)
    assert report.witness["value_after"] == pytest.approx(
        (1.1**2 + 2 * 0.01) / (1.1 + 0.2)
    )


def _shifted(w):
    return np.asarray(w["x"]) + w["a"]


# property -> (violating aggregator, arity, value fields recomputed from the witness)
WITNESS_CASES = {
    "monotone": (MODE, 7, lambda F, w: {
        "value_before": F(w["x"]), "value_after": F(w["y"])}),
    "weakly-monotone": (named_aggregator("lehmer", q=1.0), 3, lambda F, w: {
        "value_before": F(w["x"]), "value_after": F(_shifted(w))}),
    "shift-invariant": (named_aggregator("lehmer", q=1.0), 2, lambda F, w: {
        "value_before": F(w["x"]), "value_after": F(_shifted(w)),
        "expected_after": F(w["x"]) + w["a"]}),
    "homogeneous": (WOBBLE, 3, lambda F, w: {
        "value": F(w["x"]), "scaled_value": F(w["lambda"] * np.asarray(w["x"])),
        "expected": w["lambda"] * F(w["x"])}),
    "idempotent": (MEAN_PLUS, 4, lambda F, w: {"value": F(np.full(4, w["t"]))}),
    "averaging": (MEAN_PLUS, 3, lambda F, w: {"value": F(w["x"])}),
    "internal": (MEAN, 2, lambda F, w: {"value": F(w["x"])}),
}


@pytest.mark.parametrize("prop", sorted(WITNESS_CASES))
def test_every_witness_replays_exactly(prop):
    F, n, replay = WITNESS_CASES[prop]
    report = CHECKS[prop](F, n=n, cfg=FAST)
    assert report.violated and report.property == prop
    replayed = replay(F, report.witness)
    assert {k: report.witness[k] for k in replayed} == replayed


def test_probe_points_apply_to_every_property():
    report = check_monotonicity(
        named_aggregator("lehmer", q=1.0),
        n=3,
        cfg=SamplerConfig(samples=10, probe_points=[((1.0, 0.0, 0.0), (1.0, 0.1, 0.0))]),
    )
    assert report.violated and report.samples_used == 1
    assert report.witness["x"] == [1.0, 0.0, 0.0]
    assert report.witness["y"] == [1.0, 0.1, 0.0]


def test_probe_of_another_arity_is_skipped():
    cfg = SamplerConfig(samples=1, probe_points=[((1.0, 0.0, 0.0), 0.1)])
    report = check_weak_monotonicity(named_aggregator("lehmer", q=1.0), n=2, cfg=cfg)
    assert not report.violated
    assert (report.samples_used, report.samples_skipped) == (1, 1)


def test_skipped_samples_are_counted_not_tested():
    calls = []

    def counted_mean(x):
        calls.append(1)
        return float(np.mean(x))

    F = Aggregator(counted_mean, domain=Interval(0.0, 1.0), name="unit-mean")
    report = check_weak_monotonicity(F, n=2, cfg=SamplerConfig(samples=2000, seed=0))
    assert not report.violated and report.samples_used == 2000
    assert report.samples_skipped > 0  # clipping at hi = 1 leaves a <= 0
    assert len(calls) == 2 * (report.samples_used - report.samples_skipped)
    assert report.evaluations == len(calls)
    assert PropertyReport(**report.to_dict()) == report
    assert f"skipped={report.samples_skipped}" in report.to_text()


def test_monotonicity_checks():
    assert not check_monotonicity(MEDIAN, n=5, cfg=FAST).violated
    assert check_monotonicity(MODE, n=7, cfg=FAST).violated
    assert check_monotonicity(named_aggregator("lehmer", q=2.0), n=2, cfg=FAST).violated


def test_shift_invariance_checks():
    assert not check_shift_invariance(SHORTH, n=5, cfg=FAST).violated
    assert not check_shift_invariance(MEAN, n=3, cfg=FAST).violated
    report = check_shift_invariance(named_aggregator("lehmer", q=1.0), n=2, cfg=FAST)
    assert report.violated
    # hand witness: L1(1,2)+1 = 8/3 but L1(2,3) = 13/5
    assert lehmer_mean([2, 3], 1) != pytest.approx(lehmer_mean([1, 2], 1) + 1)


def test_homogeneity_checks():
    assert not check_homogeneity(named_aggregator("lehmer", q=2.5), n=4, cfg=FAST).violated
    assert not check_homogeneity(MEDIAN, n=3, cfg=FAST).violated
    assert check_homogeneity(WOBBLE, n=3, cfg=FAST).violated


def test_idempotency_averaging_internality():
    for agg in (MEAN, MEDIAN, SHORTH, named_aggregator("lehmer", q=1.5)):
        assert not check_idempotency(agg, n=4, cfg=FAST).violated
        assert not check_averaging(agg, n=4, cfg=FAST).violated
    assert not check_internality(MEDIAN, n=5, cfg=FAST).violated
    report = check_internality(MEAN, n=2, cfg=SamplerConfig(samples=4000, seed=1))
    assert report.violated


def test_directional_derivative():
    n = 4
    val = directional_derivative(MEAN, np.array([0.3, 0.5, 0.2, 0.9]))
    assert val == pytest.approx(1 / math.sqrt(n), rel=1e-6)
    assert directional_derivative(named_aggregator("lehmer", q=1.0), np.array([1.0, 0.0, 0.0])) < 0
    assert directional_derivative(SHORTH, np.array([0.1, 0.2, 0.8, 0.85, 0.9])) == (
        pytest.approx(1 / math.sqrt(5), rel=1e-6)
    )


def test_directional_derivative_matches_analytic_power_mean():
    x = np.array([0.4, 0.6, 0.8])
    F = Aggregator(lambda v: power_mean(v, 2.0), domain=Interval(0, math.inf))
    got = directional_derivative(F, x, h=1e-6)
    # analytic gradient of the quadratic mean, contracted with 1/sqrt(n)
    m = power_mean(x, 2.0)
    grad = x / (x.size * m)
    assert got == pytest.approx(float(grad.sum()) / math.sqrt(x.size), rel=1e-4)


def test_mixture_sufficient_condition():
    unit = Interval(0.0, 1.0)
    r = check_mixture_sufficient_condition(lambda t: 1.0, unit)
    assert not r.violated
    # every grid point tested, three weight calls each for the finite difference
    assert (r.samples_used, r.evaluations) == (1001, 3003)
    assert r.elapsed_s > 0
    r = check_mixture_sufficient_condition(lambda t: t, unit, dw_fn=lambda t: 1.0)
    assert r.violated and r.witness["t"] < 0.5
    # stops at the first grid point, after one w and one w' call
    assert (r.samples_used, r.evaluations) == (1, 2)
    r = check_mixture_sufficient_condition(
        lambda t: math.exp(5 * t), unit, dw_fn=lambda t: 5 * math.exp(5 * t)
    )
    assert r.violated and r.witness["t"] < 0.2


def test_lehmer_bound_table():
    cfg = SamplerConfig(samples=3000, seed=0)
    rows = lehmer_bound_table([1.0, 3.0, 0.5], n_max=5, cfg=cfg)
    by = {(r["q"], r["n"]): r for r in rows}
    assert by[(1.0, 2)]["bound"] == 2.0
    assert by[(1.0, 2)]["empirical"] == "no-violation-found"
    assert by[(1.0, 3)]["empirical"] == "violated"
    assert by[(3.0, 5)]["bound"] == pytest.approx(5.0)
    assert by[(3.0, 5)]["empirical"] == "no-violation-found"
    assert "not weakly monotone" in by[(0.5, 2)]["theory"]
    # theory-side guarantee never contradicted empirically
    for r in rows:
        if r["bound"] is not None and r["q"] >= 1 and r["n"] <= r["bound"]:
            assert r["empirical"] == "no-violation-found"


def test_lehmer_bound_table_keeps_probe_points():
    cfg = SamplerConfig(samples=1, probe_points=[((1.0, 0.0, 0.0), 0.1)])
    rows = lehmer_bound_table([1.0], 3, cfg)
    by_n = {r["n"]: r for r in rows}
    assert by_n[2]["empirical"] == "no-violation-found"  # the probe has arity 3
    assert by_n[3]["empirical"] == "violated"
    assert by_n[3]["witness"]["x"] == [1.0, 0.0, 0.0]


def test_named_aggregator_registry():
    F = named_aggregator("lehmer", q=2)
    assert F.name == "lehmer(q=2)" and F.domain == Interval(0.0, math.inf)
    assert F([1.0, 0.5]) == lehmer_mean([1.0, 0.5], 2.0)
    assert named_aggregator("gini", p=1, q=2).name == "gini(p=1,q=2)"
    owa = named_aggregator("owa", weights=[0.5, 0.3, 0.2])
    assert owa.arity == 3 and "monotone" in owa.known and owa.name == "owa"
    with pytest.raises(ValueError, match="--q"):
        named_aggregator("lehmer")
    with pytest.raises(ValueError, match="--weights"):
        named_aggregator("owa-penalty")
    with pytest.raises(ValueError, match="unknown mean"):
        named_aggregator("nosuchmean")


@pytest.mark.parametrize("name", sorted(AGGREGATORS))
def test_named_aggregator_rejects_parameters_it_does_not_take(name):
    entry = AGGREGATORS[name]
    takes = set(entry.params) | ({"weights"} if entry.weighted else set())
    needed = {"q": 1.0, "p": 1.0, "weights": [1.0, 1.0]}
    required = {k: needed[k] for k in entry.params}
    for extra in set(needed) - takes:
        with pytest.raises(ValueError, match=f"^{name} takes no --{extra}$"):
            named_aggregator(name, **required, **{extra: needed[extra]})
    named_aggregator(name, **{k: needed[k] for k in takes})  # every taken one is accepted


def test_named_aggregator_looks_functions_up_at_call_time(monkeypatch):
    F = named_aggregator("lehmer", q=1.0)
    monkeypatch.setattr(means, "lehmer_mean", lambda x, q: -1.0)
    assert F([1.0, 2.0]) == -1.0


def test_report_serialization_roundtrip():
    report = check_weak_monotonicity(named_aggregator("lehmer", q=1.0), n=3, cfg=FAST)
    data = report.to_dict()
    clone = PropertyReport(**data)
    assert clone.to_json() == report.to_json()
    assert "violated" in report.to_text()


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(samples=0)
    with pytest.raises(ValueError):
        SamplerConfig(boundary_fraction=1.5)


def _row_params(name, n):
    """Parameter sets of a registry entry: extreme exponents, and weights
    with zeros (never all zero)."""
    w = (1.0 + np.arange(n)) * (np.arange(n) % 3 != 1)
    if name == "lehmer":
        return [{"q": q} for q in (-300, -2.5, -1, 0, 0.5, 1, 2, 300)]
    if name == "power":
        return [{"p": p, "weights": ws} for p in (-math.inf, -300, -1, 0, 1, 2.5, 300, math.inf)
                for ws in (None, w)]
    if name == "gini":
        return [{"p": p, "q": q, "weights": ws}
                for p, q in ((0, 2), (1, -2), (-3, 1), (300, 0), (2, 300), (-300, -1), (1.5, 0.5))
                for ws in (None, w)]
    if name == "owa":
        return [{"weights": np.ones(n)}, {"weights": w}]
    return [{}]


def _row_cases(n, nonnegative):
    """Random rows, rows with ties and zeros, all-zero and constant rows, at
    scales 1e-150 to 1e150."""
    rng = np.random.default_rng(n)
    X = np.concatenate([rng.uniform(0, 1, (40, n)), rng.integers(0, 3, (40, n)) / 2.0,
                        np.zeros((1, n)), np.full((1, n), 0.7)])
    if not nonnegative:
        X = X - 0.5
    return np.concatenate([t * X for t in (1e-150, 1e-3, 1.0, 1e3, 1e150)])


@pytest.mark.parametrize("name", sorted(k for k, v in AGGREGATORS.items() if v.rows))
def test_rows_equal_the_scalar_function_row_by_row(name):
    for n in (1, 2, 3, 4, 5, 8):
        X = _row_cases(n, AGGREGATORS[name].domain.lo == 0)
        for params in _row_params(name, n):
            F = named_aggregator(name, **params)
            got = F.rows(X)
            assert got.shape == (len(X),)
            np.testing.assert_allclose(got, [F(x) for x in X], rtol=1e-12, atol=0,
                                       err_msg=f"{name} {params} n={n}")


# registry aggregators and the arities they are checked at
PATH_GRID = [("lehmer", {"q": q}, n) for q in (1.0, 2.0, 3.0) for n in (2, 3, 5)] + [
    ("mean", {}, 4), ("median", {}, 4), ("shorth", {}, 5), ("lms", {}, 4), ("mode", {}, 5),
    ("power", {"p": -1.0}, 3), ("gini", {"p": 1.0, "q": 2.0}, 3),
]


@pytest.mark.parametrize("name,params,n", PATH_GRID)
def test_rows_and_scalar_paths_give_equal_reports(name, params, n):
    F = named_aggregator(name, **params)
    scalar = replace(F, rows=None)
    fields = lambda r: (r.verdict, r.samples_used, r.samples_skipped, r.witness, r.evaluations)
    for seed in range(20):
        cfg = SamplerConfig(samples=150, seed=seed)
        for prop, check in CHECKS.items():
            assert fields(check(F, n=n, cfg=cfg)) == fields(check(scalar, n=n, cfg=cfg)), (prop, seed)


def test_rows_flags_are_confirmed_through_the_scalar_function():
    lying = replace(MEAN, rows=lambda X: X.mean(axis=-1) + (X[:, 0] > 0.5))
    report = check_averaging(lying, n=3, cfg=FAST)
    assert not report.violated
    assert report.evaluations > FAST.samples  # each flagged row went through F again


@pytest.mark.parametrize("prop", ["monotone", "shift-invariant", "internal"])
def test_samples_do_not_depend_on_the_budget(prop):
    F = named_aggregator("lehmer", q=2.0)
    for seed in range(10):
        report = CHECKS[prop](F, n=3, cfg=SamplerConfig(samples=300, seed=seed))
        k = report.samples_used  # the witness is sample k, whatever the budget
        assert CHECKS[prop](F, n=3, cfg=SamplerConfig(samples=k, seed=seed)) \
            .witness == report.witness
        if k > 1:
            assert not CHECKS[prop](F, n=3, cfg=SamplerConfig(samples=k - 1, seed=seed)).violated


def test_early_exit_stops_in_the_first_chunk():
    report = check_shift_invariance(named_aggregator("lehmer", q=1.0), n=2, cfg=FAST)
    assert report.violated and report.samples_used <= 8
    assert report.evaluations == 2 * 8 + 2  # the first chunk, then the witness through F
    assert report.elapsed_s > 0
