"""Workload definitions: seeded inputs, one op's CLI calls, and the
correctness gates that run on the saved outputs after the timed loop.

Every op of a workload has the same composition (the same subcommands with
the same flags); only the seeded input values differ between ops, so a
latency percentile never falls on a boundary between cheap and expensive
op kinds.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Lehmer q=2, n=3 on [0, inf): the verdict each property check must reach.
FALSIFY_EXPECTED = {
    "monotone": "violated",
    "weakly-monotone": "no-violation-found",
    "shift-invariant": "violated",
    "homogeneous": "no-violation-found",
    "idempotent": "no-violation-found",
    "averaging": "no-violation-found",
    "internal": "violated",
}
FALSIFY_SAMPLES = 300
ESTIMATORS = ("center", "median", "shorth", "mode")
# The CLI flags of the filter workloads, spelled out so that a change of a
# CLI default does not silently change the workload.
FILTER_FLAGS = [
    "--radius", "1", "--spatial-sigma", "1", "--tonal-kernel", "gaussian",
    "--tonal-sigma", "0.1", "--boundary", "mirror",
]
HUBER_DELTA = 0.1
SPOT_PIXELS = 4  # pixels per filter call re-derived by the gate
OWA_N = 150


@dataclass
class Op:
    """One closed-loop request: a fixed list of CLI argument lists."""

    calls: list[list[str]]
    data: dict = field(default_factory=dict)  # what the gate needs


@dataclass
class Workload:
    name: str
    nominal_ops_per_s: float  # sizes a run at the seed code; never measured at run time
    work_per_op: int
    work_unit: str
    make_op: Callable[[np.random.Generator, Path, int], Op]
    gate: Callable[[Op, list[tuple[int, str]]], bool]


def _lib(module: str):
    return importlib.import_module(f"weakmeans.{module}")


# --- falsify -----------------------------------------------------------------

def make_falsify(rng: np.random.Generator, tmp: Path, index: int) -> Op:
    seed = str(int(rng.integers(0, 2**31)))
    calls = [
        ["check", prop, "lehmer", "--q", "2", "--n", "3",
         "--samples", str(FALSIFY_SAMPLES), "--seed", seed, "--format", "machine"]
        for prop in FALSIFY_EXPECTED
    ]
    return Op(calls)


def _witness_replays(prop: str, w: dict, tol: float) -> bool:
    L = lambda v: _lib("means").lehmer_mean(np.asarray(v, dtype=float), 2.0)
    x = np.asarray(w["x"], dtype=float)
    if prop == "monotone":
        y = np.asarray(w["y"], dtype=float)
        return bool(np.all(y >= x)) and L(y) < L(x) - tol
    if prop == "shift-invariant":
        a = float(w["a"])
        return abs(L(x + a) - L(x) - a) > tol
    if prop == "internal":
        return float(np.abs(x - L(x)).min()) > tol
    return False


def gate_falsify(op: Op, outputs: list[tuple[int, str]]) -> bool:
    for (code, out), prop in zip(outputs, FALSIFY_EXPECTED, strict=True):
        try:
            report = json.loads(out)
        except ValueError:
            return False
        verdict = FALSIFY_EXPECTED[prop]
        if report.get("property") != prop or report.get("verdict") != verdict:
            return False
        if code != (1 if verdict == "violated" else 0):
            return False
        witness = report.get("witness")
        if verdict == "violated":
            if not witness or not _witness_replays(prop, witness, float(report["tol"])):
                return False
        elif witness is not None:
            return False
    return True


# --- filter and filter-huber ---------------------------------------------------

def _tile(rng: np.random.Generator, size: int, blocks: int) -> np.ndarray:
    """8-bit tile of blocks x blocks constant patches (random cut positions and
    levels) plus Gaussian noise."""
    cuts = lambda: np.sort(rng.choice(np.arange(2, size - 1), blocks - 1, replace=False))
    rows = np.searchsorted(cuts(), np.arange(size), side="right")
    cols = np.searchsorted(cuts(), np.arange(size), side="right")
    levels = rng.uniform(0.1, 0.9, (blocks, blocks))
    img = levels[rows[:, None], cols[None, :]] + rng.normal(0.0, 0.03, (size, size))
    return np.clip(np.rint(img * 255), 0, 255).astype(np.uint8)


def _write_p5(path: Path, levels: np.ndarray) -> None:
    h, w = levels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + levels.tobytes())


def read_p5(data: bytes) -> np.ndarray:
    """Minimal 8-bit P5 parser, independent of the library's reader."""
    tokens, i = [], 0
    while len(tokens) < 4:
        while data[i : i + 1].isspace():
            i += 1
        start = i
        while not data[i : i + 1].isspace():
            i += 1
        tokens.append(data[start:i])
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic != b"P5" or maxval != 255:
        raise ValueError("expected an 8-bit P5 image")
    return np.frombuffer(data[i + 1 : i + 1 + w * h], dtype=np.uint8).reshape(h, w)


def _filter_op(rng, tmp, index, size, blocks, variants) -> Op:
    levels = _tile(rng, size, blocks)
    src = tmp / f"in-{index}.pgm"
    _write_p5(src, levels)
    calls, outs = [], []
    for estimator, dissimilarity in variants:
        dst = tmp / f"out-{index}-{estimator}-{dissimilarity}.pgm"
        extra = ["--huber-delta", str(HUBER_DELTA)] if dissimilarity == "huber" else []
        calls.append(["filter", "--in", str(src), "--out", str(dst), "--estimator", estimator,
                      "--dissimilarity", dissimilarity, *FILTER_FLAGS, *extra])
        outs.append(dst)
    spots = [rng.choice(size * size, SPOT_PIXELS, replace=False) for _ in variants]
    return Op(calls, {"levels": levels, "variants": variants, "outs": outs, "spots": spots})


def make_filter(rng: np.random.Generator, tmp: Path, index: int) -> Op:
    return _filter_op(rng, tmp, index, 24, 3, [(e, "squared") for e in ESTIMATORS])


def make_filter_huber(rng: np.random.Generator, tmp: Path, index: int) -> Op:
    return _filter_op(rng, tmp, index, 8, 2, [("center", "huber")])


def _level_matches(out_level: int, ref_value: float) -> bool:
    """Equal 8-bit level; one level apart only when the reference lies within
    1e-9 of a rounding boundary."""
    scaled = min(max(ref_value, 0.0), 1.0) * 255
    ref_level = int(np.rint(scaled))
    if out_level == ref_level:
        return True
    return abs(out_level - ref_level) == 1 and abs(scaled - math.floor(scaled) - 0.5) <= 1e-9


def huber_grid_min_reached(window: np.ndarray, center: float, value: float) -> bool:
    """Check that `value` reaches the dense-grid minimum of sum u_i H(x_i - y),
    with the weights and the Huber function computed here in NumPy."""
    r = 1
    dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
    spatial = np.exp(-(dx**2 + dy**2) / 2.0).ravel()
    u = spatial * np.exp(-((window - center) ** 2) / (2.0 * 0.1**2))

    def objective(y):
        t = np.abs(window[None, :] - np.asarray(y, dtype=float)[:, None])
        h = np.where(t <= HUBER_DELTA, 0.5 * t**2, HUBER_DELTA * (t - 0.5 * HUBER_DELTA))
        return h @ u

    grid = np.concatenate([np.linspace(window.min(), window.max(), 20001), window])
    grid_min = float(objective(grid).min())
    # the penalty engine treats values within 1e-12 * max(1, best) as ties
    return float(objective([value])[0]) <= grid_min + 1e-12 * max(1.0, grid_min)


def gate_filter(op: Op, outputs: list[tuple[int, str]]) -> bool:
    tonal = _lib("tonal")
    levels = op.data["levels"]
    pixels = levels / 255.0
    padded = np.pad(pixels, 1, mode="reflect")
    size = levels.shape[1]
    for (code, _), (estimator, dissimilarity), path, spots in zip(
        outputs, op.data["variants"], op.data["outs"], op.data["spots"], strict=True
    ):
        if code != 0:
            return False
        try:
            out = read_p5(path.read_bytes())
        except (OSError, ValueError):
            return False
        if out.shape != levels.shape:
            return False
        cfg = tonal.FilterConfig(
            radius=1, spatial_sigma=1.0, tonal_kernel="gaussian", tonal_sigma=0.1,
            estimator=estimator, dissimilarity=dissimilarity, huber_delta=HUBER_DELTA,
            boundary="mirror", mode_quantize=1.0 / 255,
        )
        for flat in spots:
            i, j = divmod(int(flat), size)
            window = padded[i : i + 3, j : j + 3].ravel()
            ref = tonal.filter_pixel(window, pixels[i, j], cfg)
            if not _level_matches(int(out[i, j]), ref):
                return False
            if dissimilarity == "huber" and not huber_grid_min_reached(window, pixels[i, j], ref):
                return False
    return True


# --- owa -----------------------------------------------------------------------
# Runnable with ``run.py --workload owa`` but not listed in BENCHMARK.json: the
# exact OWA solver fails this gate on about 1 op in 560 (see README.md), and a
# listed workload must pass on every seed.  List it again once the solver
# returns the LTS value.

def make_owa(rng: np.random.Generator, tmp: Path, index: int) -> Op:
    """n continuous values around a centre away from 0, 20% shifted outliers.
    With LTS weights (n//2+1 ones, then zeros) the OWA estimator equals LTS."""
    n_out = OWA_N // 5
    mu = rng.uniform(5.0, 15.0)
    x = np.concatenate([rng.normal(mu, 1.0, OWA_N - n_out),
                        rng.normal(mu + rng.uniform(8.0, 12.0), 1.0, n_out)])
    rng.shuffle(x)
    h = OWA_N // 2 + 1
    weights = ",".join(["1"] * h + ["0"] * (OWA_N - h))
    values = [repr(float(v)) for v in x]
    return Op([["aggregate", "owa-penalty", "--weights", weights, "--", *values]], {"x": x})


def gate_owa(op: Op, outputs: list[tuple[int, str]]) -> bool:
    [(code, out)] = outputs
    try:
        value = float(out)
    except ValueError:
        return False
    ref = _lib("location").lts(op.data["x"])
    return code == 0 and abs(value - ref) <= 1e-9 * abs(ref)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("falsify", 14.0, len(FALSIFY_EXPECTED), "verdicts", make_falsify, gate_falsify),
        Workload("filter", 14.0, len(ESTIMATORS) * 24 * 24, "pixel passes", make_filter, gate_filter),
        Workload("filter-huber", 10.0, 8 * 8, "pixel passes", make_filter_huber, gate_filter),
        Workload("owa", 16.0, 1, "solves", make_owa, gate_owa),
    )
}
