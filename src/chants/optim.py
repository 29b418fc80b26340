"""Adam optimizer over named parameter trees.

``adam_step`` is a pure function: it never mutates its inputs and two calls
with equal arguments return equal results, which is what makes seeded
training runs bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ShapeError

__all__ = ["AdamState", "adam_step", "init_adam_state"]


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step count."""

    step_count: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


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
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update.

    Returns fresh parameter and state dicts. A missing gradient counts as
    zero; a NaN or infinite gradient aborts with the offending parameter
    named.
    """
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t

    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name in params:
        p = params[name]
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        else:
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                raise ShapeError(
                    f"gradient for '{name}' has shape {g.shape}, parameter has {p.shape}"
                )
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        m = b1 * state.first_moment[name] + (1.0 - b1) * g
        v = b2 * state.second_moment[name] + (1.0 - b2) * (g * g)
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)
        new_params[name] = p - update
        new_m[name] = m
        new_v[name] = v

    next_state = AdamState(
        step_count=t,
        first_moment=new_m,
        second_moment=new_v,
        lr=state.lr,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
    )
    return new_params, next_state
