import math
from dataclasses import replace

import numpy as np
import pytest

from weakmeans import (
    Aggregator,
    Interval,
    SamplerConfig,
    arithmetic_mean,
    bajraktarevic_mean,
    check_averaging,
    check_homogeneity,
    check_idempotency,
    check_internality,
    check_mixture_sufficient_condition,
    check_monotonicity,
    check_shift_invariance,
    check_weak_monotonicity,
    lehmer_bound_table,
    lehmer_mean,
    median,
    mixture_mean,
    order_statistic,
    quasi_arithmetic_mean,
)
from weakmeans import location, means, properties
from weakmeans.properties import AGGREGATORS, CHECKS, PropertyReport, named_aggregator

from test_location import shortest_half_oracle

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


REPLAY_MEANS = [("lehmer", {"q": 2.0}), ("lehmer", {"q": -1.5}), ("mode", {}), ("shorth", {}),
                ("lts", {}), ("gini", {"p": 1.0, "q": 2.0}), ("power", {"p": 3.0}),
                ("owa", {"weights": [0.5, 0.3, 0.2]})]


def test_each_witness_replays_through_its_own_record():
    replayed = 0
    for name, params in REPLAY_MEANS:
        F = named_aggregator(name, **params)
        G = lambda *points, F=F: [np.float64(F(x)) for x in points]
        for prop, check in CHECKS.items():
            for seed in range(3):
                cfg = SamplerConfig(samples=300, seed=seed)
                report = check(F, n=3, cfg=cfg)
                if report.violated:
                    case = [np.asarray(report.witness[f], dtype=float) for f in check.fields]
                    assert check.test(G, cfg, 3, *case)[0], (name, prop, seed)
                    replayed += 1
    assert replayed >= 40  # 51 of the 168 reports are violated


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
    # without n an OWA check takes its arity from the weights, a variadic mean uses 3
    for F, skipped in ((named_aggregator("owa", weights=[1, 1, 1, 1]), 1),
                       (named_aggregator("owa", weights=[1, 1, 1]), 0),
                       (named_aggregator("lehmer", q=1.0), 0)):
        assert check_weak_monotonicity(F, cfg=cfg).samples_skipped == skipped


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
    # a NaN compares false both ways, so it used to pass every grid point
    with pytest.raises(ValueError, match="not finite at t = 0.0"):
        check_mixture_sufficient_condition(lambda t: math.nan, unit)
    with pytest.raises(ValueError, match=r"not finite at t = 0.5"):
        check_mixture_sufficient_condition(lambda t: 1.0, unit,
                                           dw_fn=lambda t: math.inf if t >= 0.5 else 0.0)
    with pytest.raises(ValueError, match="must be bounded"):  # its grid would be NaN
        check_mixture_sufficient_condition(lambda t: 1.0, Interval(0.0, math.inf))


def test_mixture_sufficient_condition_by_finite_differences():
    # w = e^t meets the condition, with equality at t = 0: the one-sided
    # difference there is second order, and the tolerance covers its rounding
    r = check_mixture_sufficient_condition(math.exp, Interval(0.0, 1.0))
    assert not r.violated and (r.samples_used, r.evaluations) == (1001, 3003)
    r = check_mixture_sufficient_condition(lambda t: math.exp(1.001 * t), Interval(0.0, 1.0))
    assert r.violated and r.witness["t"] == 0.0
    # no difference fits a degenerate interval, nor one whose ends are large
    # against its width (t + eps rounds near t); w' given, both are checked
    for narrow in (Interval(2.0, 2.0), Interval(1e10, 1e10 + 1)):
        with pytest.raises(ValueError, match=r"interval \[.*\] is too narrow"):
            check_mixture_sufficient_condition(lambda t: 1.0, narrow)
        r = check_mixture_sufficient_condition(lambda t: 1.0, narrow, dw_fn=lambda t: 0.0)
        assert not r.violated and r.samples_used == 1001


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


def test_nan_exponents_are_refused_and_infinite_ones_kept():
    for name, params in (("lehmer", {"q": math.nan}), ("power", {"p": math.nan}),
                         ("gini", {"p": 1.0, "q": math.nan}), ("gini", {"p": math.nan, "q": 1.0})):
        param = next(k for k, v in params.items() if math.isnan(v))
        with pytest.raises(ValueError, match=f"--{param} must be a number"):
            named_aggregator(name, **params)
    with pytest.raises(ValueError, match="q must be a number"):
        lehmer_bound_table([1.0, math.nan], 3, SamplerConfig(samples=10))
    assert named_aggregator("lehmer", q=math.inf)([1.0, 2.0]) == 2.0
    assert named_aggregator("lehmer", q=-math.inf)([1.0, 2.0]) == 1.0
    assert named_aggregator("power", p=math.inf)([1.0, 2.0]) == 2.0
    # the means themselves refuse NaN, scalar and row forms alike
    x, X, nan = [1.0, 2.0], [[1.0, 2.0]], math.nan
    for param, call in (("q", lambda: means.lehmer_mean(x, nan)),
                        ("q", lambda: means.lehmer_mean_rows(X, nan)),
                        ("p", lambda: means.power_mean(x, nan)),
                        ("p", lambda: means.power_mean_rows(X, nan)),
                        ("p", lambda: means.gini_mean([0.0, 2.0], nan, -1.0)),
                        ("q", lambda: means.gini_mean(x, 1.0, nan)),
                        ("p", lambda: means.gini_mean_rows(X, nan, 1.0)),
                        ("q", lambda: means.gini_mean_rows(X, 1.0, nan)),
                        ("q", lambda: means.lehmer_max_args(nan))):
        with pytest.raises(ValueError, match=f"^{param} must be a number, got nan$"):
            call()


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


def test_aggregator_sees_a_strided_row_as_a_contiguous_one():
    # the falsifier evaluates rows of column-major blocks through F, and
    # density_mean's dot rounds otherwise on a strided vector
    F = named_aggregator("density")
    B = np.asfortranarray(np.random.default_rng(0).normal(size=(50, 9)))
    assert [F(v) for v in B] == [F(v.copy()) for v in B]


def test_report_serialization_roundtrip():
    report = check_weak_monotonicity(named_aggregator("lehmer", q=1.0), n=3, cfg=FAST)
    data = report.to_dict()
    clone = PropertyReport(**data)
    assert clone.to_json() == report.to_json()
    assert "violated" in report.to_text()


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(samples=0)
    for shift_max in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="shift_max"):
            SamplerConfig(shift_max=shift_max)
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            SamplerConfig(tol=tol)


def test_default_box_is_finite_and_inside_the_domain():
    for (lo, hi), box in (((-math.inf, math.inf), (0.0, 1.0)), ((0.0, math.inf), (0.0, 1.0)),
                          ((2.0, math.inf), (2.0, 3.0)), ((-math.inf, 5.0), (0.0, 5.0)),
                          ((-math.inf, -1.0), (-2.0, -1.0)), ((-3.0, 4.0), (-3.0, 4.0))):
        assert Interval(lo, hi).finite_box() == Interval(*box)
    # a domain ending below 0 used to give the empty box [0, hi]
    F = Aggregator(lambda x: float(np.mean(x)), domain=Interval(-math.inf, -1.0), name="neg")
    assert not check_averaging(F, n=3, cfg=SamplerConfig(samples=100)).violated


@pytest.mark.parametrize("n", [0, -2])
def test_arity_below_one_is_refused(n):
    # n = 0 used to divide by zero in the sampling loop, n < 0 to fail in NumPy
    for check in CHECKS.values():
        with pytest.raises(ValueError, match="n must be at least 1"):
            check(MEAN, n=n, cfg=FAST)


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


def _dominant(v, e):
    """The component of v that dominates v^e: rescaled by it, no power of v
    overflows."""
    return v.max() if e > 0 else v.min()


def _reference(name, x, q=None, p=None, weights=None):
    """Registry entry ``name`` at the row x, through another construction of
    the library, or None where that construction has no zero convention (an
    all-zero row or an absorbing zero, pinned in ``test_means``)."""
    if name in ("mean", "arithmetic"):
        return math.fsum(x) / x.size
    if name == "median":
        return 0.5 * (order_statistic(x, (x.size + 1) // 2) + order_statistic(x, x.size // 2 + 1))
    if name == "midrange":
        return 0.5 * (order_statistic(x, 1) + order_statistic(x, x.size))
    if name == "owa":
        return (weights / weights.sum() * np.sort(x)[::-1]).sum()  # a sorted dot product
    if name == "mode":
        values, counts = np.unique(x, return_counts=True)
        return values[np.argmax(counts)]  # the first largest count: the smallest value
    if name in ("shorth", "lms"):
        w = shortest_half_oracle(x)
        return np.mean(w) if name == "shorth" else 0.5 * (w[0] + w[-1])
    if name == "lehmer":
        c = _dominant(x, q) if q else 1.0
        return None if c == 0 else mixture_mean(x, lambda t: (t / c) ** q)
    w = np.ones(x.size) if weights is None else weights
    x, w = x[w > 0], w[w > 0]  # a component of weight 0 takes no part
    if name == "power":
        if math.isinf(p):
            return order_statistic(x, x.size if p > 0 else 1)
        c = _dominant(x, p)
        if c == 0:
            return None
        if p == 0:
            return quasi_arithmetic_mean(x, np.log, math.exp, w)
        return quasi_arithmetic_mean(x, lambda t: (t / c) ** p, lambda s: c * s ** (1 / p), w)
    # Gini: weight functions w_i t^q and the generator t^p
    c, d = (_dominant(x, q) if q else 1.0), _dominant(x, p)
    if c == 0 or d == 0:
        return None
    fns = [lambda t, wi=wi: wi * (t / c) ** q for wi in w]
    if p == 0:
        return bajraktarevic_mean(x, fns, np.log, math.exp)
    return bajraktarevic_mean(x, fns, lambda t: (t / d) ** p, lambda s: d * s ** (1 / p))


@pytest.mark.parametrize("name", sorted(k for k, v in AGGREGATORS.items() if v.rows))
def test_rows_equal_the_scalar_function_row_by_row(name):
    """The scalar function is a one-row call of the row form, bit for bit;
    both are compared with another construction of the same mean."""
    for n in (1, 2, 3, 4, 5, 8):
        X = _row_cases(n, AGGREGATORS[name].domain.lo == 0)
        for params in _row_params(name, n):
            F = named_aggregator(name, **params)
            got = F.rows(X)
            assert got.shape == (len(X),)
            np.testing.assert_array_equal([F(x) for x in X], got)
            ref = [_reference(name, x, **params) for x in X]
            keep = [r is not None for r in ref]
            np.testing.assert_allclose(got[keep], np.array(ref)[keep].astype(float), rtol=1e-12,
                                       atol=0, err_msg=f"{name} {params} n={n}")


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


# Lehmer q = 2 at n = 3, then every property with its violating aggregator
BUDGET_CASES = [pytest.param(prop, named_aggregator("lehmer", q=2.0), 3, id=prop)
                for prop in ("monotone", "shift-invariant", "internal")] + [
    pytest.param(prop, F, n, id=f"{prop}-{F.name}") for prop, (F, n, _) in WITNESS_CASES.items()]


@pytest.mark.parametrize("prop,F,n", BUDGET_CASES)
def test_samples_do_not_depend_on_the_budget(prop, F, n):
    for seed in range(10):
        report = CHECKS[prop](F, n=n, cfg=SamplerConfig(samples=300, seed=seed))
        k = report.samples_used  # the witness is sample k, whatever the budget
        assert CHECKS[prop](F, n=n, cfg=SamplerConfig(samples=k, seed=seed)) \
            .witness == report.witness
        if k > 1:
            assert not CHECKS[prop](F, n=n, cfg=SamplerConfig(samples=k - 1, seed=seed)).violated


@pytest.mark.parametrize("first,elements", [(1, 1), (1, 39), (3, 100), (64, 2**20)])
def test_chunking_does_not_change_the_report(monkeypatch, first, elements):
    """Sample i is row i of the seed's uniform stream, however it is chunked."""
    # the median at odd n has all 7 properties, so every check runs its full budget
    cases = [(prop, named_aggregator("median"), 5) for prop in CHECKS] + [
        (prop, F, n) for prop, (F, n, _) in WITNESS_CASES.items()]
    masked = lambda r, *names: replace(r, elapsed_s=0.0, **{k: 0 for k in names})

    def reports():
        return [CHECKS[prop](F, n=n, cfg=SamplerConfig(samples=300, seed=seed))
                for prop, F, n in cases for seed in range(3)]

    before = reports()
    monkeypatch.setattr(properties, "_FIRST_CHUNK", first)
    monkeypatch.setattr(properties, "_CHUNK_ELEMENTS", elements)
    for old, new in zip(before, reports(), strict=True):
        # an early exit evaluates the rest of the chunk that holds the witness
        names = ("evaluations",) if old.violated else ()
        assert masked(new, *names) == masked(old, *names), (old.property, old.aggregator)


@pytest.mark.parametrize("name", sorted(k for k, v in AGGREGATORS.items() if v.rows))
def test_stacked_rows_equal_separate_calls(name):
    """The paired checks evaluate both points of a sample in one rows call,
    on a column-major block."""
    for n in (1, 2, 3, 5, 7, 8, 12, 16):
        X = _row_cases(n, AGGREGATORS[name].domain.lo == 0)
        Y = X[::-1] * 1.5
        for params in _row_params(name, n):
            F = named_aggregator(name, **params)
            expected, msg = F.rows(X), f"{name} {params} n={n}"
            np.testing.assert_array_equal(F.rows(np.concatenate([X, Y])),
                                          np.concatenate([expected, F.rows(Y)]), err_msg=msg)
            got = F.rows(np.asfortranarray(X))
            if n <= 7:
                np.testing.assert_array_equal(got, expected, err_msg=msg)
            else:
                # C-ordered sums of 8 or more terms go pairwise, column-major
                # ones in order: a signed mean can cancel, and a geometric
                # one (p = 0) sums logarithms of up to 345 in magnitude
                scale = np.maximum(np.abs(expected), np.abs(X).max(axis=-1))
                assert (np.abs(got - expected) <= 1e-12 * scale).all(), msg


def test_early_exit_stops_in_the_first_chunk():
    # 20 000 samples at n = 2 are more than one block (13 107 rows) holds
    cfg = SamplerConfig(samples=20_000, seed=0)
    report = check_shift_invariance(named_aggregator("lehmer", q=1.0), n=2, cfg=cfg)
    assert report.violated and report.samples_used <= 8
    assert report.evaluations == 2 * 8 + 2  # the first chunk, then the witness through F
    assert report.elapsed_s > 0


def test_a_budget_that_fits_one_block_is_drawn_as_one():
    F = named_aggregator("lehmer", q=1.0)
    one = check_shift_invariance(F, n=2, cfg=FAST)
    chunked = check_shift_invariance(F, n=2, cfg=SamplerConfig(samples=20_000, seed=0))
    assert one.evaluations == 2 * FAST.samples + 2  # the whole block, then the witness
    assert (one.witness, one.samples_used) == (chunked.witness, chunked.samples_used)
