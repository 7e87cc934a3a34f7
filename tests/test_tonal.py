import itertools

import numpy as np
import pytest

from weakmeans import FilterConfig, GrayImage, filter_image, filter_pixel, minimize_penalty
from weakmeans import tonal
from weakmeans.tonal import (
    BOUNDARIES,
    DISSIMILARITIES,
    ESTIMATORS,
    TONAL_KERNELS,
    center_estimate,
    huber_argmin,
    tonal_penalty,
)


def step_edge(size=32, lo=0.2, hi=0.8):
    pixels = np.full((size, size), lo)
    pixels[:, size // 2 :] = hi
    return GrayImage(pixels=pixels, maxval=255)


def noisy_fixture(size=32, seed=0):
    rng = np.random.default_rng(seed)
    shape = (size, size) if np.isscalar(size) else size
    levels = rng.integers(30, 130, size=shape)
    return GrayImage(pixels=levels / 255, maxval=255)


def test_filter_pixel_constant_window():
    cfg = FilterConfig(radius=1)
    win = np.full(9, 0.4)
    assert filter_pixel(win, 0.4, cfg) == pytest.approx(0.4, abs=1e-15)


def test_filter_pixel_blur_limit():
    # flat tonal kernel and uniform spatial weights reduce to the window mean
    cfg = FilterConfig(radius=1, tonal_sigma=1e6, spatial_sigma=1e6)
    win = np.arange(9) / 10.0
    assert filter_pixel(win, win[4], cfg) == pytest.approx(win.mean(), abs=1e-9)


def test_filter_pixel_outlier_suppression():
    win = np.array([0.0, 0.0, 0.0, 1.0])
    spatial = np.ones(4)
    wide = filter_pixel(win, 0.0, FilterConfig(tonal_sigma=0.5), spatial=spatial)
    tight = filter_pixel(win, 0.0, FilterConfig(tonal_sigma=0.05), spatial=spatial)
    assert tight < wide < 0.25
    assert tight < 1e-10


def test_center_estimators():
    cfg_med = FilterConfig(estimator="median")
    cfg_mode = FilterConfig(estimator="mode")
    win = np.array([0.1, 0.1, 0.9, 0.2, 0.1])
    assert center_estimate(win, 0.9, cfg_med) == pytest.approx(0.1)
    assert center_estimate(win, 0.9, cfg_mode) == pytest.approx(0.1)
    cfg_center = FilterConfig(estimator="center")
    assert center_estimate(win, 0.9, cfg_center) == 0.9


def filter_configs(radii=(0, 1, 2), **fixed):
    """Every estimator x dissimilarity x kernel x boundary x radius, less the
    fixed ones."""
    axes = {"estimator": ESTIMATORS, "dissimilarity": DISSIMILARITIES,
            "tonal_kernel": TONAL_KERNELS, "boundary": BOUNDARIES, "radius": radii}
    names = [k for k in axes if k not in fixed]
    for values in itertools.product(*(axes[k] for k in names)):
        yield FilterConfig(**fixed, **dict(zip(names, values)))


def test_filter_image_constant_fixpoint():
    # square, 1xN and Nx1 (edge padding for mirror), and non-square images
    for shape in ((8, 8), (1, 5), (5, 1), (3, 7)):
        img = GrayImage(pixels=np.full(shape, 0.6), maxval=255)
        for cfg in filter_configs():
            out = filter_image(img, cfg)
            assert np.allclose(out.pixels, 0.6, atol=1e-12), cfg


@pytest.mark.parametrize("estimator", ["center", "median", "shorth", "mode"])
def test_filter_image_shift_invariance(estimator):
    c = 0.3
    for img in (noisy_fixture(), noisy_fixture(size=(7, 13), seed=7),
                noisy_fixture(size=(1, 9)), noisy_fixture(size=(9, 1))):
        for cfg in filter_configs(radii=(1, 2), estimator=estimator, tonal_sigma=0.08):
            base = filter_image(img, cfg).pixels
            shifted = filter_image(
                GrayImage(pixels=img.pixels + c, maxval=img.maxval), cfg
            ).pixels
            assert np.max(np.abs(shifted - (base + c))) <= 1e-9, cfg


def test_filter_output_within_window_range():
    img = noisy_fixture(size=16, seed=3)
    cfg = FilterConfig(radius=1, estimator="median")
    out = filter_image(img, cfg)
    padded = np.pad(img.pixels, 1, mode="reflect")
    for i in range(16):
        for j in range(16):
            win = padded[i : i + 3, j : j + 3]
            assert win.min() - 1e-12 <= out.pixels[i, j] <= win.max() + 1e-12


def test_step_edge_preserved():
    img = step_edge()
    out = filter_image(img, FilterConfig(radius=2, tonal_sigma=0.1, spatial_sigma=2.0))
    interior_lo = out.pixels[:, : 16 - 2]
    interior_hi = out.pixels[:, 16 + 2 :]
    assert np.max(np.abs(interior_lo - 0.2)) < 0.01
    assert np.max(np.abs(interior_hi - 0.8)) < 0.01


def test_closed_form_matches_penalty_minimizer():
    rng = np.random.default_rng(5)
    cfg = FilterConfig(radius=1, estimator="median", tonal_sigma=0.2)
    spatial = cfg.spatial_weights()
    for _ in range(100):
        win = rng.uniform(0, 1, 9)
        closed = filter_pixel(win, win[4], cfg, spatial)
        P = tonal_penalty(win, win[4], cfg, spatial)
        via_penalty = minimize_penalty(P, win)
        assert abs(closed - via_penalty) <= 1e-7


def test_huber_dissimilarity_path():
    cfg = FilterConfig(radius=1, dissimilarity="huber", huber_delta=0.1)
    win = np.array([0.2, 0.2, 0.21, 0.19, 0.2, 0.2, 0.9, 0.2, 0.2])
    out = filter_pixel(win, 0.2, cfg)
    assert 0.19 <= out <= 0.25  # outlier influence bounded
    # constant windows are a fixpoint of the huber path too
    assert filter_pixel(np.full(9, 0.3), 0.3, cfg) == pytest.approx(0.3, abs=1e-9)


def huber_slope(x, u, delta, y):
    """sum u_i clip(y - x_i, -delta, delta): the derivative of the Huber objective."""
    return float(np.clip(y - x, -delta, delta) @ u)


def oracle_windows(seed=0, count=60):
    """Random 3x3 windows and 4-level-quantized ones (ties and plateaus)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        yield rng.uniform(0, 1, 9) if k % 2 == 0 else rng.integers(0, 4, 9) / 3.0


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_huber_exact_solve_matches_penalty_oracle(estimator):
    for delta in (0.01, 0.1, 0.5):
        cfg = FilterConfig(radius=1, dissimilarity="huber", huber_delta=delta, estimator=estimator)
        spatial = cfg.spatial_weights()
        for win in oracle_windows():
            got = filter_pixel(win, win[4], cfg, spatial)
            P = tonal_penalty(win, win[4], cfg, spatial)
            want = minimize_penalty(P, win)
            obj, obj_engine = P.evaluate(win, got), P.evaluate(win, want)
            assert obj <= obj_engine + 1e-12 * max(1.0, obj)
            assert abs(got - want) <= 1e-6
            assert win.min() <= got <= win.max()


def test_huber_exact_solve_below_engine_tie_tolerance():
    # the engine treats objectives within 1e-12 as ties and stops 1.07e-6
    # right of the minimiser here; the exact solve finds the root of the slope
    win = np.array([0.6838661329165184, 0.18413634608024498, 0.4334844844817811,
                    0.7182678311466448, 0.279126473165341, 0.23064035666308846,
                    0.6888343565255592, 0.05762388815658959, 0.8111749608343537])
    cfg = FilterConfig(radius=1, dissimilarity="huber", huber_delta=0.01, estimator="median")
    got = filter_pixel(win, win[4], cfg)
    P = tonal_penalty(win, win[4], cfg)
    engine = minimize_penalty(P, win)
    assert P.evaluate(win, got) <= P.evaluate(win, engine)
    u = cfg.spatial_weights() * cfg.tonal(np.abs(win - center_estimate(win, win[4], cfg)))
    assert abs(huber_slope(win, u, 0.01, got)) <= 1e-12 * 0.01 * u.sum()


def test_huber_plateau_returns_leftmost_minimiser():
    # two equal-weight clusters more than 2 delta apart: every y in
    # [a + delta, c - delta] is a minimiser, and a + delta is reported
    assert huber_argmin(np.array([0.2, 0.7]), np.ones(2), 0.1) == pytest.approx(0.3, abs=1e-12)
    cfg = FilterConfig(dissimilarity="huber", huber_delta=0.1, estimator="center")
    assert filter_pixel([0.2, 0.7], 0.45, cfg, spatial=np.ones(2)) == pytest.approx(0.3, abs=1e-12)
    rng = np.random.default_rng(1)
    slope_rounds_negative = 0
    for _ in range(2000):
        delta = float(rng.choice([0.01, 0.1, 0.5]))
        m = int(rng.integers(1, 5))
        a = rng.uniform(0, 1)
        c = a + 2 * delta + rng.uniform(1e-3, 1)
        v = rng.uniform(0.1, 1, m)
        x, u = np.r_[np.full(m, a), np.full(m, c)], np.r_[v, v]
        assert abs(huber_argmin(x, u, delta) - (a + delta)) <= 1e-12
        slope_rounds_negative += huber_slope(x, u, delta, a + delta) < 0
    # the slope at the plateau's left end rounds below 0 on many of these,
    # so a plain "first breakpoint with slope >= 0" rule would miss them
    assert slope_rounds_negative > 100


def test_huber_constant_window_is_exact():
    for estimator in ESTIMATORS:
        for delta in (0.01, 0.1, 0.5):
            cfg = FilterConfig(dissimilarity="huber", huber_delta=delta, estimator=estimator)
            for v in (0.0, 0.1, 1 / 3, 0.7, 1.0):
                assert filter_pixel(np.full(9, v), v, cfg) == v


def test_huber_filter_shift_invariance():
    img = noisy_fixture(size=8, seed=7)
    cfg = FilterConfig(radius=1, dissimilarity="huber", estimator="median")
    base = filter_image(img, cfg).pixels
    shifted = filter_image(
        GrayImage(pixels=img.pixels + 0.25, maxval=img.maxval), cfg
    ).pixels
    assert np.max(np.abs(shifted - (base + 0.25))) <= 1e-7


def filter_by_pixel(img, cfg):
    """The per-pixel reference: ``filter_pixel`` on each padded window."""
    r = cfg.radius
    pad_mode = "reflect" if cfg.boundary == "mirror" else "edge"
    if r > 0 and min(img.height, img.width) == 1:
        pad_mode = "edge"
    padded = np.pad(img.pixels, r, mode=pad_mode)
    spatial = cfg.spatial_weights()
    out = np.empty_like(img.pixels)
    for i in range(img.height):
        for j in range(img.width):
            window = padded[i : i + 2 * r + 1, j : j + 2 * r + 1].ravel()
            out[i, j] = filter_pixel(window, img.pixels[i, j], cfg, spatial)
    return np.clip(out, 0.0, 1.0)


def reference_tiles(seed=0):
    """Random 8-bit and 4-level-quantized (ties, plateaus) non-square tiles,
    and 1xN and Nx1 tiles, which pad at the edge."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, (7, 9)) / 255, rng.integers(0, 4, (7, 9)) / 3,
            rng.integers(0, 256, (1, 7)) / 255, rng.integers(0, 4, (6, 1)) / 3]


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("kernel", TONAL_KERNELS)
@pytest.mark.parametrize("dissimilarity", DISSIMILARITIES)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_filter_image_matches_filter_pixel(estimator, dissimilarity, kernel, boundary):
    for radius in (0, 1, 2):
        cfg = FilterConfig(radius=radius, estimator=estimator, dissimilarity=dissimilarity,
                           tonal_kernel=kernel, boundary=boundary)
        for tile in reference_tiles():
            img = GrayImage(pixels=tile, maxval=255)
            got = filter_image(img, cfg).pixels
            if radius == 0:  # every estimator of one value is that value
                assert np.array_equal(got, tile), (cfg, tile.shape)
            assert np.max(np.abs(got - filter_by_pixel(img, cfg))) <= 1e-12, (cfg, tile.shape)


@pytest.mark.parametrize("dissimilarity", DISSIMILARITIES)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_filter_image_matches_filter_pixel_across_row_blocks(estimator, dissimilarity):
    img = noisy_fixture(size=(132, 20), seed=2)
    cfg = FilterConfig(radius=2, estimator=estimator, dissimilarity=dissimilarity)
    # squared: 2640 windows of 25 values exceed one block of 2**16 elements
    assert img.pixels.size * 25 > tonal._FILTER_BLOCK
    got = filter_image(img, cfg).pixels
    assert np.max(np.abs(got - filter_by_pixel(img, cfg))) <= 1e-12


UNDERFLOW_WINDOW = np.array([0, 0.1, 0.3, 0.5, 0.7, 0.9, 1, 0.2, 0.6])


@pytest.mark.parametrize("dissimilarity", DISSIMILARITIES)
@pytest.mark.parametrize("kernel", TONAL_KERNELS)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_underflowing_tonal_weights_reach_the_limit(estimator, kernel, dissimilarity):
    # gaussian kernel values underflow to 0 at sigma 5e-4, both kernels at
    # 1e-200 (where cauchy's (t/sigma)^2 overflows); the result stays inside
    # the window and at 1e-200 is the sigma -> 0 limit of the normalised
    # kernel: 1 at the smallest distance t0 to the center, elsewhere 0
    # (gaussian) or (t0 / t)^2 (cauchy)
    img = GrayImage(pixels=UNDERFLOW_WINDOW.reshape(3, 3), maxval=255)
    for sigma in (5e-4, 1e-200):
        for spatial_sigma in (1.0, 0.02):  # 0.02: off-center spatial weights are 0
            cfg = FilterConfig(estimator=estimator, tonal_kernel=kernel, tonal_sigma=sigma,
                               dissimilarity=dissimilarity, spatial_sigma=spatial_sigma)
            got = filter_pixel(UNDERFLOW_WINDOW, 0.7, cfg)
            assert 0.0 <= got <= 1.0
            if sigma == 1e-200:
                spatial = cfg.spatial_weights()
                t = np.abs(UNDERFLOW_WINDOW - center_estimate(UNDERFLOW_WINDOW, 0.7, cfg))
                t0 = t[spatial > 0].min()
                t = np.maximum(t, t0)  # nearer values have spatial weight 0
                if kernel == "gaussian":
                    limit = (t == t0) * 1.0
                else:
                    limit = np.divide(t0**2, t**2, out=np.ones(9), where=t > t0)
                u = spatial * limit
                want = (np.dot(u, UNDERFLOW_WINDOW) / u.sum() if dissimilarity == "squared"
                        else huber_argmin(UNDERFLOW_WINDOW, u, cfg.huber_delta))
                assert got == pytest.approx(want, abs=1e-12)
            out = filter_image(img, cfg).pixels
            assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))
            assert np.max(np.abs(out - filter_by_pixel(img, cfg))) <= 1e-12


def test_filter_determinism():
    img = noisy_fixture(size=12, seed=9)
    cfg = FilterConfig(radius=2, estimator="shorth", tonal_kernel="cauchy")
    a = filter_image(img, cfg).pixels
    b = filter_image(img, cfg).pixels
    assert np.array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(radius=-1)
    with pytest.raises(ValueError):
        FilterConfig(spatial_sigma=0)
    with pytest.raises(ValueError):
        FilterConfig(tonal_kernel="box")
    with pytest.raises(ValueError):
        FilterConfig(estimator="mean")
    with pytest.raises(ValueError):
        FilterConfig(boundary="wrap")
