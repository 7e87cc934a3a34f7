"""Conjugation and composition constructors for aggregators.

phi-transforms, duals under standard negation, and two-inner-mean
compositions.  Constructors attach weak-monotonicity annotations as
metadata only when the construction rules guarantee them: affine phi
preserves weak monotonicity; compositions with a monotone outer (or a
weakly monotone outer over shift-invariant inners) are weakly monotone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .means import Interval
from .properties import Aggregator, implies_weakly_monotone


def is_affine(phi: Callable[[float], float], lo: float = 0.0, hi: float = 1.0) -> bool:
    """3-point collinearity test for phi on [lo, hi], to a relative 1e-10."""
    mid = 0.5 * (lo + hi)
    ya, ym, yb = float(phi(lo)), float(phi(mid)), float(phi(hi))
    return abs(ym - 0.5 * (ya + yb)) <= 1e-10 * max(1.0, abs(ya), abs(yb))


def _check_inverse(phi, phi_inv, lo, hi, tol=1e-9):
    for t in np.linspace(lo, hi, 7):
        if abs(float(phi_inv(float(phi(t)))) - t) > tol * max(1.0, abs(t)):
            raise ValueError("phi_inv is not an inverse of phi on the domain")


def phi_transform(
    A: Aggregator,
    phi: Callable[[float], float],
    phi_inv: Callable[[float], float],
    domain: Interval | None = None,
) -> Aggregator:
    """Conjugate x -> phi_inv(A(phi(x_1), ..., phi(x_n))).

    Only affine phi, detected by collinearity on the domain, carries the
    weak-monotonicity guarantee through to the result's annotations.
    """
    domain = domain or A.domain
    box = domain.finite_box()
    _check_inverse(phi, phi_inv, box.lo, box.hi)

    def fn(x: np.ndarray) -> float:
        px = np.array([float(phi(v)) for v in x])
        return float(phi_inv(A(px)))

    known = set()
    if is_affine(phi, box.lo, box.hi) and implies_weakly_monotone(A.known):
        known.add("weakly-monotone")
    return Aggregator(
        fn=fn,
        domain=domain,
        arity=A.arity,
        known=frozenset(known),
        name=f"phi[{A.name}]",
    )


def dual(A: Aggregator) -> Aggregator:
    """Dual under standard negation: x -> 1 - A(1 - x); domain must be [0,1].

    The phi-transform by the affine negation, which also keeps "monotone"."""
    if (A.domain.lo, A.domain.hi) != (0.0, 1.0):
        raise ValueError("dual requires domain [0, 1]")
    D = phi_transform(A, lambda t: 1.0 - t, lambda t: 1.0 - t)
    return replace(D, known=D.known | (A.known & {"monotone"}), name=f"dual[{A.name}]")


def compose(A: Aggregator, B1: Aggregator, B2: Aggregator) -> Aggregator:
    """x -> A(B1(x), B2(x)) for a 2-argument outer mean A.

    Weak monotonicity is annotated when either the outer is monotone and both
    inners are weakly monotone, or the outer is weakly monotone and both
    inners are shift-invariant.
    """
    if A.arity not in (None, 2):
        raise ValueError("outer aggregator must take two arguments")
    if B1.arity is not None and B2.arity is not None and B1.arity != B2.arity:
        raise ValueError("inner aggregators must share their arity")

    known = set()
    inners_wm = implies_weakly_monotone(B1.known) and implies_weakly_monotone(B2.known)
    inners_si = "shift-invariant" in B1.known and "shift-invariant" in B2.known
    if "monotone" in A.known and inners_wm:
        known.add("weakly-monotone")
    elif implies_weakly_monotone(A.known) and inners_si:
        known.add("weakly-monotone")

    return Aggregator(
        fn=lambda x: A(np.array([B1(x), B2(x)])),
        domain=B1.domain,
        arity=B1.arity or B2.arity,
        known=frozenset(known),
        name=f"{A.name}({B1.name},{B2.name})",
    )


def internal_switch_example() -> Aggregator:
    """The canonical internal-but-not-weakly-monotone fixture on [0,1]^2:
    min(x) when x_1 + x_2 >= 1, max(x) otherwise."""

    def fn(x: np.ndarray) -> float:
        if x.size != 2:
            raise ValueError("fixture takes exactly two arguments")
        return float(x.min()) if x[0] + x[1] >= 1.0 else float(x.max())

    return Aggregator(
        fn=fn, domain=Interval(0.0, 1.0), arity=2, name="internal-switch"
    )
