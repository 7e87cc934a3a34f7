"""Spatial-tonal filters over sliding windows of grayscale images.

Per-pixel weighted averages combining precomputed spatial proximity weights
with a tonal kernel applied to intensity differences from a center estimate.
With the squared dissimilarity the output is the closed-form weighted mean
(the bilateral filter when the center estimate is the center pixel); the
Huber dissimilarity is minimized exactly by a breakpoint search, with the
penalty engine over ``tonal_penalty`` as its reference.

``filter_image`` filters every window of an image in row blocks of NumPy
operations; ``filter_pixel`` filters one window, its centre estimate one
row of the same estimators, and is the reference the tests compare the
whole-image path with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import location
from .means import _as_input, _check_positive, median_rows
from .pgm import GrayImage

TONAL_KERNELS = ("gaussian", "cauchy")
ESTIMATORS = ("center", "median", "shorth", "mode")
DISSIMILARITIES = ("squared", "huber")
BOUNDARIES = ("mirror", "clamp")

# Elements of the largest temporary of one row block in filter_image: the
# windows, or for Huber the slopes at 2n+2 breakpoints of each n-value window.
_FILTER_BLOCK = 2**16


@dataclass
class FilterConfig:
    radius: int = 1
    spatial_sigma: float = 1.0
    tonal_kernel: str = "gaussian"
    tonal_sigma: float = 0.1
    estimator: str = "center"
    dissimilarity: str = "squared"
    huber_delta: float = 0.1
    boundary: str = "mirror"
    mode_quantize: float = 1.0 / 255.0  # bin width for the mode estimator

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        for name in ("spatial_sigma", "tonal_sigma", "huber_delta", "mode_quantize"):
            _check_positive(getattr(self, name), name)
        for value, allowed in (
            (self.tonal_kernel, TONAL_KERNELS),
            (self.estimator, ESTIMATORS),
            (self.dissimilarity, DISSIMILARITIES),
            (self.boundary, BOUNDARIES),
        ):
            if value not in allowed:
                raise ValueError(f"{value!r} not one of {allowed}")

    def spatial_weights(self) -> np.ndarray:
        """Row-major flattened Gaussian weights of pixel distance, precomputed
        once per config."""
        r = self.radius
        dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
        d2 = (dx**2 + dy**2).astype(float)
        return np.exp(-d2 / (2.0 * self.spatial_sigma**2)).ravel()

    def tonal(self, t: np.ndarray, t0: np.ndarray | float = 0.0) -> np.ndarray:
        """Non-increasing kernel of |intensity difference| t, divided by its
        value at t0 <= t (1 at t = t0; t0 = 0 gives the kernel itself).

        The ratio is formed without the kernel values themselves, which
        underflow to 0 once t / sigma is large: (t - t0)(t + t0) / sigma^2
        overflows only to inf (weight 0), and the Cauchy ratio is a ratio of
        hypotenuses, which neither overflow nor vanish.
        """
        s = self.tonal_sigma
        if self.tonal_kernel == "gaussian":
            with np.errstate(over="ignore", invalid="ignore"):
                e = 0.5 * ((t - t0) / s) * ((t + t0) / s)
            return np.where(t == t0, 1.0, np.exp(-e))  # 0 * inf at t = t0
        return (np.hypot(s, t0) / np.hypot(s, t)) ** 2


def center_estimate(window: np.ndarray, center_value: float, cfg: FilterConfig) -> float:
    """The centre estimate of one window, the one row of ``_center_rows``."""
    return float(_center_rows(_as_input(window)[None], np.atleast_1d(center_value), cfg)[0])


def _center_rows(x: np.ndarray, center: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """The centre estimate of every row of x, an (m, n) array."""
    if cfg.estimator == "center":
        return center
    if cfg.estimator == "median":
        return median_rows(x)
    if cfg.estimator == "shorth":
        return location.shorth_rows(x)
    # mode: bins anchored at the row minimum (shift-invariant); sorted values give sorted bins
    s = np.sort(x, axis=1)
    k, scale = location._snap(s - s[:, :1], cfg.mode_quantize)
    return s[:, 0] + scale * location.sorted_mode_rows(k)


def _huber(t: np.ndarray, delta: float) -> np.ndarray:
    a = np.abs(t)
    return np.where(a <= delta, 0.5 * t**2, delta * (a - 0.5 * delta))


def huber_argmin(x: np.ndarray, u: np.ndarray, delta: float) -> np.ndarray:
    """Leftmost minimiser of y -> sum_i u_i H_delta(x_i - y) on [min x, max x]
    for each window along the last axis of x, with weights u of x's shape.

    The derivative g(y) = sum u_i clip(y - x_i, -delta, delta) is continuous,
    nondecreasing and linear between the breakpoints x_i +/- delta (clipped
    to the window's [min, max]), so its leftmost root lies in the segment
    that ends at the first breakpoint where g >= 0.  Inside a plateau g
    rounds to about -1e-17 instead of 0, so values within
    tau = 1e-12 delta sum(u) of 0 count as 0.
    """
    lo = x.min(axis=-1, keepdims=True)
    hi = x.max(axis=-1, keepdims=True)
    b = np.sort(np.clip(np.concatenate([x - delta, x + delta, lo, hi], axis=-1), lo, hi), axis=-1)
    g = (np.clip(b[..., :, None] - x[..., None, :], -delta, delta) * u[..., None, :]).sum(axis=-1)
    k = np.argmax(g >= -1e-12 * delta * u.sum(axis=-1, keepdims=True), axis=-1)[..., None]
    k0 = np.maximum(k - 1, 0)
    b0, b1 = np.take_along_axis(b, k0, -1), np.take_along_axis(b, k, -1)
    g0, g1 = np.take_along_axis(g, k0, -1), np.take_along_axis(g, k, -1)
    # linear root in [b0, b1]; k = 0 (b0 = b1 = min x) takes b1.  A g1 in
    # [-tau, 0) puts the root past b1, and the cut to b1 counts g1 as 0
    frac = np.divide(g0, g0 - g1, out=np.zeros_like(g0), where=k > 0)
    return np.minimum(b0 + (b1 - b0) * frac, b1)[..., 0]


def _tonal_weights(x: np.ndarray, f, cfg: FilterConfig, spatial: np.ndarray) -> np.ndarray:
    """Combined weights spatial * tonal(|x_i - f|) of windows x (..., n) with
    center estimates f (...).

    The tonal kernel is divided by its value at the smallest |x_i - f| = t0
    of positive spatial weight, so that value keeps its spatial weight and
    the total stays positive where every kernel value would underflow.
    Weighted mean and Huber argmin do not change under this scaling.  As
    tonal_sigma tends to 0 the tonal factor tends to 1 at t0 and elsewhere
    to 0 (gaussian) or (t0 / t)^2 (cauchy).
    """
    t = np.abs(x - np.expand_dims(f, -1))
    t0 = np.where(spatial > 0, t, np.inf).min(axis=-1, keepdims=True)
    # a value nearer f than t0 has spatial weight 0: any finite kernel will do
    return spatial * cfg.tonal(np.maximum(t, t0), t0)


def _reference_weights(window, center_value: float, cfg: FilterConfig,
                       spatial: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The window as floats and its weights, centered by ``center_estimate``."""
    window = np.asarray(window, dtype=float)
    if spatial is None:
        spatial = cfg.spatial_weights()
    if window.shape != spatial.shape:
        raise ValueError("window and spatial weights must have equal length")
    f = center_estimate(window, center_value, cfg)
    return window, _tonal_weights(window, f, cfg, spatial)


def filter_pixel(
    window: Sequence[float] | np.ndarray,
    center_value: float,
    cfg: FilterConfig,
    spatial: np.ndarray | None = None,
) -> float:
    """Filter one pixel from its row-major window.

    Squared dissimilarity gives the closed-form weighted mean, huber the
    exact leftmost argmin over [min(window), max(window)].
    """
    window, u = _reference_weights(window, center_value, cfg, spatial)
    if cfg.dissimilarity == "squared":
        return float(np.dot(u, window) / u.sum())
    return float(huber_argmin(window, u, cfg.huber_delta))


def tonal_penalty(
    window: np.ndarray, center_value: float, cfg: FilterConfig, spatial: np.ndarray | None = None
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The per-pixel penalty sum u_i D(x_i - y) made explicit as its
    broadcasting term; minimised by the penalty engine it is the reference
    for ``filter_pixel``."""
    u = _reference_weights(window, center_value, cfg, spatial)[1]
    if cfg.dissimilarity == "squared":
        return lambda xs, y: u * (xs - y) ** 2
    return lambda xs, y: u * _huber(xs - y, cfg.huber_delta)


def filter_image(img: GrayImage, cfg: FilterConfig) -> GrayImage:
    """Filter every sliding window of the image, a block of image rows at a
    time; each pixel gets the value ``filter_pixel`` gives its window, up to
    rounding."""
    r = cfg.radius
    k = 2 * r + 1
    n = k * k
    pad_mode = "reflect" if cfg.boundary == "mirror" else "edge"
    if r > 0 and min(img.height, img.width) == 1 and pad_mode == "reflect":
        pad_mode = "edge"  # reflect needs at least 2 samples along each axis
    windows = sliding_window_view(np.pad(img.pixels, r, mode=pad_mode), (k, k))
    spatial = cfg.spatial_weights()
    huber = cfg.dissimilarity == "huber"
    per_row = img.width * n * (2 * n + 2 if huber else 1)
    rows = max(1, _FILTER_BLOCK // per_row)
    out = np.empty_like(img.pixels)
    for i in range(0, img.height, rows):
        x = windows[i : i + rows].reshape(-1, n)
        f = _center_rows(x, img.pixels[i : i + rows].ravel(), cfg)
        u = _tonal_weights(x, f, cfg, spatial)
        if huber:
            y = huber_argmin(x, u, cfg.huber_delta)
        else:
            y = (u * x).sum(axis=1) / u.sum(axis=1)
        out[i : i + rows] = y.reshape(-1, img.width)
    return GrayImage(pixels=np.clip(out, 0.0, 1.0), maxval=img.maxval)
