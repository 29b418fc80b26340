"""Adam optimizer over named parameter trees.

``adam_step`` updates the parameters and the moments in place, so a step
holds no second copy of them. Its arithmetic is fixed, so two runs with
equal inputs end in bitwise-equal arrays, which is what makes seeded
training runs bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ShapeError

__all__ = ["AdamState", "adam_step", "init_adam_state"]

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step count.

    Only the learning rate varies; the decay rates and epsilon are the
    module constants ``BETA1`` (0.9), ``BETA2`` (0.999) and ``EPSILON`` (1e-8).
    """

    step_count: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    lr: float = 1e-4


def init_adam_state(params: Mapping[str, np.ndarray], lr: float) -> AdamState:
    """Zero moments shaped like ``params``."""
    return AdamState(
        step_count=0,
        first_moment={k: np.zeros_like(v) for k, v in params.items()},
        second_moment={k: np.zeros_like(v) for k, v in params.items()},
        lr=lr,
    )


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> tuple[Mapping[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place; returns ``(params, state)``.

    Each parameter array and its two moments are updated in place, with the
    operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g², p = p -
    lr (m / bc1) / (sqrt(v / bc2) + eps) in that order, so the results are
    bitwise those of the formula. A parameter's update allocates two
    temporaries (the gradient term, reused for the denominator, and the
    update) instead of a fresh array per operation. A missing gradient counts
    as zero. Every gradient is checked before any array changes: a gradient
    whose name matches no parameter or whose shape is wrong raises
    ``ShapeError`` and a NaN or infinite one raises ``FloatingPointError``,
    each naming the gradient, and each leaves the parameters and the state as
    they were.
    """
    if not grads.keys() <= params.keys():
        name = next(name for name in grads if name not in params)
        raise ShapeError(f"gradient for '{name}' matches no parameter")
    checked: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient for '{name}' has shape {g.shape}, parameter has {p.shape}")
        if np.count_nonzero(np.isfinite(g)) != g.size:
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        checked[name] = g

    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = BETA1, BETA2, state.lr, EPSILON
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        g = checked.get(name)
        if g is None:
            g = np.zeros_like(p)
        m, v = state.first_moment[name], state.second_moment[name]
        term = g * (1.0 - b1)
        m *= b1
        m += term
        np.multiply(g, g, term)
        term *= 1.0 - b2
        v *= b2
        v += term
        denom = np.divide(v, bc2, term)
        np.sqrt(denom, denom)
        denom += eps
        update = m / bc1
        update *= lr
        update /= denom
        p -= update
    return params, state
