"""Spatial-tonal filters over sliding windows of grayscale images.

Per-pixel weighted averages combining precomputed spatial proximity weights
with a tonal kernel applied to intensity differences from a center estimate.
With the squared dissimilarity the output is the closed-form weighted mean
(the bilateral filter when the center estimate is the center pixel); the
Huber dissimilarity is minimized exactly by a breakpoint search, with the
penalty engine over ``tonal_penalty`` as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import location
from .means import Interval, median
from .penalty import PenaltySpec
from .pgm import GrayImage

TONAL_KERNELS = ("gaussian", "cauchy")
ESTIMATORS = ("center", "median", "shorth", "mode")
DISSIMILARITIES = ("squared", "huber")
BOUNDARIES = ("mirror", "clamp")


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
        if self.spatial_sigma <= 0 or self.tonal_sigma <= 0 or self.huber_delta <= 0:
            raise ValueError("sigma and delta parameters must be positive")
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

    def tonal(self, t: np.ndarray) -> np.ndarray:
        """Strictly positive, non-increasing kernel of |intensity difference|."""
        s = self.tonal_sigma
        if self.tonal_kernel == "gaussian":
            return np.exp(-(t**2) / (2.0 * s**2))
        return 1.0 / (1.0 + (t / s) ** 2)


def _anchored_mode(window: np.ndarray, step: float) -> float:
    # bins anchored at the window minimum keep the estimate shift-invariant
    base = float(window.min())
    k = np.round((window - base) / step)
    values, counts = np.unique(k, return_counts=True)
    return base + step * float(values[np.argmax(counts)])


def center_estimate(window: np.ndarray, center_value: float, cfg: FilterConfig) -> float:
    if cfg.estimator == "center":
        return float(center_value)
    if cfg.estimator == "median":
        return median(window)
    if cfg.estimator == "shorth":
        return location.shorth(window)
    return _anchored_mode(window, cfg.mode_quantize)


def _huber(t: np.ndarray, delta: float) -> np.ndarray:
    a = np.abs(t)
    return np.where(a <= delta, 0.5 * t**2, delta * (a - 0.5 * delta))


def huber_argmin(x: np.ndarray, u: np.ndarray, delta: float) -> float:
    """Leftmost minimiser of y -> sum u_i H_delta(x_i - y) on [min x, max x].

    The derivative g(y) = sum u_i clip(y - x_i, -delta, delta) is continuous,
    nondecreasing and linear between the breakpoints x_i +/- delta, so its
    leftmost root lies in the segment that ends at the first breakpoint
    where g >= 0.  Inside a plateau g rounds to about -1e-17 instead of 0,
    so values within tau = 1e-12 delta sum(u) of 0 count as 0.
    """
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo
    b = np.sort(np.concatenate([x - delta, x + delta, [lo, hi]]))
    b = b[(b >= lo) & (b <= hi)]
    g = np.clip(b[:, None] - x[None, :], -delta, delta) @ u
    k = int(np.argmax(g >= -1e-12 * delta * u.sum()))
    if k == 0:
        return lo
    # linear root in [b[k-1], b[k]]; a g[k] in [-tau, 0) puts it past b[k],
    # and the cut to b[k] counts that g[k] as 0
    g0, g1 = g[k - 1], g[k]
    return min(float(b[k - 1] + (b[k] - b[k - 1]) * (g0 / (g0 - g1))), float(b[k]))


def _tonal_weights(window, center_value: float, cfg: FilterConfig,
                   spatial: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The window as floats and its combined weights spatial * tonal(|x_i - f|),
    f the center estimate."""
    window = np.asarray(window, dtype=float)
    if spatial is None:
        spatial = cfg.spatial_weights()
    if window.shape != spatial.shape:
        raise ValueError("window and spatial weights must have equal length")
    f = center_estimate(window, center_value, cfg)
    return window, spatial * cfg.tonal(np.abs(window - f))


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
    window, u = _tonal_weights(window, center_value, cfg, spatial)
    if cfg.dissimilarity == "squared":
        return float(np.dot(u, window) / u.sum())
    return huber_argmin(window, u, cfg.huber_delta)


def tonal_penalty(window: np.ndarray, center_value: float, cfg: FilterConfig,
                  spatial: np.ndarray | None = None) -> PenaltySpec:
    """The per-pixel penalty sum u_i D(x_i - y) made explicit; minimised by
    the penalty engine it is the reference for ``filter_pixel``."""
    u = _tonal_weights(window, center_value, cfg, spatial)[1]
    if cfg.dissimilarity == "squared":
        return PenaltySpec(term=lambda xs, y: u * (xs - y) ** 2)
    return PenaltySpec(term=lambda xs, y: u * _huber(xs - y, cfg.huber_delta))


def filter_image(img: GrayImage, cfg: FilterConfig) -> GrayImage:
    """Apply the per-pixel filter over every sliding window of the image."""
    r = cfg.radius
    pad_mode = "reflect" if cfg.boundary == "mirror" else "edge"
    if r > 0 and min(img.height, img.width) == 1 and pad_mode == "reflect":
        pad_mode = "edge"  # reflect needs at least 2 samples along each axis
    padded = np.pad(img.pixels, r, mode=pad_mode)
    spatial = cfg.spatial_weights()
    out = np.empty_like(img.pixels)
    for i in range(img.height):
        for j in range(img.width):
            window = padded[i : i + 2 * r + 1, j : j + 2 * r + 1].ravel()
            out[i, j] = filter_pixel(window, img.pixels[i, j], cfg, spatial)
    return GrayImage(pixels=np.clip(out, 0.0, 1.0), maxval=img.maxval)
