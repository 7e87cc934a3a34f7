"""Weakly monotone averaging functions and a numerical property falsifier."""

from .means import (
    Interval,
    arithmetic_mean,
    bajraktarevic_mean,
    contraharmonic_mean,
    generalized_mixture_mean,
    gini_mean,
    lehmer_max_args,
    lehmer_mean,
    median,
    midrange,
    mixture_mean,
    order_statistic,
    owa,
    power_mean,
    quasi_arithmetic_mean,
)
from .penalty import minimize_penalty, mixture_penalty
from .location import (
    density_mean,
    lms,
    lts,
    mode,
    owa_penalty,
    owa_penalty_estimator,
    shorth,
)
from .properties import (
    Aggregator,
    PropertyReport,
    SamplerConfig,
    check_averaging,
    check_homogeneity,
    check_idempotency,
    check_internality,
    check_mixture_sufficient_condition,
    check_monotonicity,
    check_shift_invariance,
    check_weak_monotonicity,
    lehmer_bound_table,
    named_aggregator,
)
from .transforms import compose, dual, internal_switch_example, phi_transform
from .pgm import GrayImage, PgmError, read_pgm, write_pgm
from .tonal import FilterConfig, filter_image, filter_pixel

__version__ = "0.1.0"
