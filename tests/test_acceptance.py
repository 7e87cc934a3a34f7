"""Acceptance suite: twelve end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; each test also enforces its tolerance and runtime budget.
"""

import math
import sys
import time

import numpy as np

from weakmeans import (
    Aggregator,
    FilterConfig,
    GrayImage,
    Interval,
    SamplerConfig,
    arithmetic_mean,
    check_idempotency,
    check_shift_invariance,
    check_weak_monotonicity,
    density_mean,
    filter_image,
    filter_pixel,
    gini_mean,
    internal_switch_example,
    lehmer_max_args,
    lehmer_mean,
    lms,
    lts,
    midrange,
    minimize_penalty,
    mixture_mean,
    mixture_penalty,
    mode,
    owa_penalty_estimator,
    phi_transform,
    power_mean,
    read_pgm,
    shorth,
    write_pgm,
)
from weakmeans import location
from weakmeans.tonal import tonal_penalty

REALS = Interval(-math.inf, math.inf)


def verdict(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_01_mode_counterexample():
    t0 = time.perf_counter()
    values = (
        mode([1, 1, 2, 2, 3, 3, 3]),
        mode([2, 2, 2, 2, 3, 3, 3]),
        mode([2, 2, 3, 3, 4, 4, 4]),
    )
    elapsed = time.perf_counter() - t0
    ok = values == (3.0, 2.0, 4.0) and elapsed < 1e-3
    verdict("01 mode counterexample", ok, f"{values}, {elapsed * 1e3:.3f} ms")


def test_02_sqrt_shorth_counterexample():
    t0 = time.perf_counter()
    F = phi_transform(
        Aggregator(shorth, domain=REALS, known=frozenset({"shift-invariant"}),
                   name="shorth"),
        math.sqrt, lambda t: t * t, domain=Interval(0.0, 60.0),
    )
    x = np.array([1.0, 8.0, 16.0, 35.0, 47.9])
    inner = shorth(np.sqrt(x))
    inner_shift = shorth(np.sqrt(x + 1))
    report = check_weak_monotonicity(
        F, n=5,
        cfg=SamplerConfig(samples=200, probe_points=[(tuple(x), 1.0)],
                          box=Interval(0.0, 50.0)),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(inner - 5.612) <= 0.01
        and abs(inner_shift - 2.846) <= 0.01
        and report.violated
        and report.witness["a"] == 1.0
        and elapsed < 1.0
    )
    verdict("02 sqrt-transform of shorth", ok,
            f"inner {inner:.3f}/{inner_shift:.3f}, violation at a=1, {elapsed:.2f} s")


def test_03_internal_switch():
    F = internal_switch_example()
    exact = (F([0.25, 0.0]), F([0.75, 0.0]), F([1.0, 0.25])) == (0.25, 0.75, 0.25)
    report = check_weak_monotonicity(F, n=2, cfg=SamplerConfig(samples=5000, seed=0))
    x, a = report.witness["x"], report.witness["a"]
    in_region = x[0] + x[1] < 1.0 and x[0] + x[1] + 2 * a >= 1.0
    ok = exact and report.violated and in_region
    verdict("03 internal non-monotone switch", ok,
            f"witness x={tuple(round(v, 4) for v in x)}, a={a:.4f}")


def test_04_lehmer_closed_form_and_zeros():
    worst = 0.0
    for q in (1.0, 2.0, 3.0):
        expected = (2 ** (q + 1) + 1) / (2 ** (q + 1) + 2)
        worst = max(worst, abs(lehmer_mean([1.0, 0.5], q) - expected))
    neutral = lehmer_mean([2.0, 0.0, 4.0], 2.0) == lehmer_mean([2.0, 4.0], 2.0)
    absorbing = lehmer_mean([2.0, 0.0, 4.0], -1.0) == 0.0
    ok = worst <= 1e-12 and neutral and absorbing
    verdict("04 Lehmer closed-form values", ok,
            f"max err {worst:.2e}, zero conventions exact")


def test_05_lehmer_bound_table():
    t0 = time.perf_counter()
    b1, b3 = lehmer_max_args(1.0), lehmer_max_args(3.0)
    qs = np.concatenate([np.linspace(1.0 + 1e-6, 50.0, 4000), [1e4, 1e6]])
    sup = max(lehmer_max_args(q) for q in qs)
    cfg = SamplerConfig(samples=100_000, seed=0, tol=1e-9)
    agg1 = Aggregator(lambda x: lehmer_mean(x, 1.0), domain=Interval(0, math.inf),
                      name="lehmer(1)")
    safe = check_weak_monotonicity(agg1, n=2, cfg=cfg)
    unsafe = check_weak_monotonicity(agg1, n=3, cfg=cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        b1 == 2.0
        and b3 == 5.0
        and sup < 1 + math.e**2 + 1e-6
        and not safe.violated
        and unsafe.violated
        and elapsed < 30.0
    )
    verdict("05 Lehmer bound table", ok,
            f"bounds {b1:g}/{b3:g}, sup {sup:.4f}, n=2 clean, n=3 violated, "
            f"{elapsed:.1f} s")


def test_06_shift_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 7
    owa_cases = {
        "owa[ones]": np.ones(n),
        "owa[last]": np.eye(n)[-1],
        "owa[random]": rng.uniform(0.1, 1.0, n),
        "owa[median]": _median_delta(n),
        "owa[trimmed]": np.concatenate([np.ones(n // 2 + 1), np.zeros(n - n // 2 - 1)]),
    }
    estimators = {
        "mode": mode,
        "shorth": shorth,
        "lms": lms,
        "lts": lts,
        "density": density_mean,
    }
    for label, delta in owa_cases.items():
        estimators[label] = lambda x, d=delta: owa_penalty_estimator(x, d)
    worst = {}
    for label, E in estimators.items():
        err = 0.0
        for _ in range(10_000):
            x = rng.uniform(-5.0, 5.0, n)
            a = rng.uniform(-3.0, 3.0)
            err = max(err, abs(E(x + a) - (E(x) + a)))
        worst[label] = err
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    ok = not bad and elapsed < 60.0
    verdict("06 shift-invariance suite", ok,
            f"max dev {max(worst.values()):.2e} over {len(worst)} estimators x 1e4, "
            f"{elapsed:.1f} s" + (f"; FAILED {bad}" if bad else ""))


def _median_delta(n):
    delta = np.zeros(n)
    if n % 2:
        delta[n // 2] = 1.0
    else:
        delta[n // 2 - 1 : n // 2 + 1] = 0.5
    return delta


def test_07_owa_special_cases():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        x = rng.uniform(-10.0, 10.0, n)
        pairs = [
            (np.ones(n), arithmetic_mean(x)),
            (np.eye(n)[-1], midrange(x)),
            (_median_delta(n), lms(x)),
            (np.concatenate([np.ones(n // 2 + 1), np.zeros(n - n // 2 - 1)]), lts(x)),
        ]
        for delta, expected in pairs:
            worst = max(worst, abs(owa_penalty_estimator(x, delta) - expected))
    ok = worst <= 1e-7
    verdict("07 ordered-weight special cases", ok, f"max err {worst:.2e}")


def test_08_penalty_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    weight_fns = [
        lambda t: t,
        lambda t: t * t,
        lambda t: np.exp(t),
        lambda t: np.ones_like(t),
    ]
    worst = 0.0
    for i in range(1000):
        w = weight_fns[i % 4]
        x = rng.uniform(0.1, 3.0, int(rng.integers(2, 7)))
        direct = mixture_mean(x, w)
        via_engine = minimize_penalty(mixture_penalty(w), x)
        worst = max(worst, abs(direct - via_engine))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    verdict("08 penalty-engine vs closed form", ok,
            f"max err {worst:.2e}, {elapsed:.1f} s")


def test_09_density_mean():
    value = density_mean([0.0, 0.0, 1.0])
    err = abs(value - 2.0 / 7.0)
    agg = Aggregator(density_mean, domain=REALS, name="density")
    cfg = SamplerConfig(samples=5000, seed=0)
    idem = check_idempotency(agg, n=4, cfg=cfg)
    shift = check_shift_invariance(agg, n=4, cfg=cfg)
    ok = err <= 1e-12 and not idem.violated and not shift.violated
    verdict("09 density-weighted mean", ok,
            f"value err {err:.2e}, idempotent + shift-invariant clean")


def test_10_tonal_filter_suite():
    t0 = time.perf_counter()
    estimators = ("center", "median", "shorth", "mode")

    # exact fixpoint: a representable constant passes through untouched, and a
    # quantized constant image re-encodes to identical bytes
    const = GrayImage(pixels=np.full((16, 16), 0.5), maxval=255)
    level = GrayImage(pixels=np.full((16, 16), 100 / 255), maxval=255)
    fix_ok = all(
        np.array_equal(filter_image(const, FilterConfig(estimator=e)).pixels,
                       const.pixels)
        and write_pgm(filter_image(level, FilterConfig(estimator=e)))
        == write_pgm(level)
        for e in estimators
    )

    rng = np.random.default_rng(0)
    img = GrayImage(pixels=rng.integers(30, 130, size=(32, 32)) / 255, maxval=255)
    c = 0.3
    shift_dev = 0.0
    for e in estimators:
        cfg = FilterConfig(radius=1, estimator=e, tonal_sigma=0.08)
        base = filter_image(img, cfg).pixels
        shifted = filter_image(
            GrayImage(pixels=img.pixels + c, maxval=img.maxval), cfg
        ).pixels
        shift_dev = max(shift_dev, float(np.max(np.abs(shifted - (base + c)))))

    cfg = FilterConfig(radius=1, estimator="median")
    out = filter_image(img, cfg).pixels
    padded = np.pad(img.pixels, 1, mode="reflect")
    range_ok = all(
        padded[i : i + 3, j : j + 3].min() - 1e-12
        <= out[i, j]
        <= padded[i : i + 3, j : j + 3].max() + 1e-12
        for i in range(32)
        for j in range(32)
    )

    agree = 0.0
    cfg = FilterConfig(radius=1, estimator="median", tonal_sigma=0.2)
    spatial = cfg.spatial_weights()
    for _ in range(100):
        win = rng.uniform(0, 1, 9)
        closed = filter_pixel(win, win[4], cfg, spatial)
        via = minimize_penalty(tonal_penalty(win, win[4], cfg, spatial), win)
        agree = max(agree, abs(closed - via))

    elapsed = time.perf_counter() - t0
    ok = (fix_ok and shift_dev <= 1e-9 and range_ok and agree <= 1e-7
          and elapsed < 60.0)
    verdict("10 spatial-tonal filter", ok,
            f"fixpoint exact, shift dev {shift_dev:.2e}, range ok, "
            f"closed-vs-penalty {agree:.2e}, {elapsed:.1f} s")


def test_11_reduction_chain():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        x = rng.uniform(0.05, 5.0, n)
        p = rng.uniform(-3.0, 3.0)
        q = rng.uniform(-3.0, 3.0)
        worst = max(
            worst,
            abs(gini_mean(x, 1.0, q) - lehmer_mean(x, q)),
            abs(gini_mean(x, p, 0.0) - power_mean(x, p)),
            abs(lehmer_mean(x, 0.0) - arithmetic_mean(x)),
        )
    ok = worst <= 1e-12
    verdict("11 mean-family reduction chain", ok, f"max err {worst:.2e}")


def test_12_pgm_round_trip():
    rng = np.random.default_rng(12)
    round_ok = True
    for maxval in (255, 1023, 65535):
        levels = rng.integers(0, maxval + 1, size=(9, 7))
        img = GrayImage(pixels=levels / maxval, maxval=maxval)
        encoded = write_pgm(img, binary=True)
        round_ok &= write_pgm(read_pgm(encoded), binary=True) == encoded

    ascii_src = b"P2\n# comment\n3 2\n255\n0 64 128\n192 255 7\n"
    binary_src = b"P5\n3 2\n255\n" + bytes([0, 64, 128, 192, 255, 7])
    cross_ok = np.array_equal(read_pgm(ascii_src).pixels, read_pgm(binary_src).pixels)
    ok = round_ok and cross_ok
    verdict("12 image round-trip", ok, "P5 byte-identical, P2/P5 agree")
