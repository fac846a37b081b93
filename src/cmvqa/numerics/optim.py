"""Bias-corrected adaptive optimizer (Adam) over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # fixed: only the learning rate is set per run


@dataclass
class OptimState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray | None],
    state: OptimState,
) -> tuple[dict[str, Tensor], OptimState]:
    """One update, in place on `params` and `state`; deterministic given inputs.

    A parameter whose gradient is missing or None takes a zero gradient.
    Moment buffers are created lazily the first time a parameter is seen, so
    they exist exactly for the parameters that do.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter '{name}' {p.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
        p.data[...] = p.data - state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    return params, state
