"""Adam and the Xavier initializer, on plain float64 arrays.

Adam updates its parameter arrays in place, so whatever holds those arrays
(the CPA model record) sees every step.
"""

from __future__ import annotations

import numpy as np


class NumericsError(Exception):
    """Mismatched parameters and gradients, or out-of-contract dimensions."""


class AdamState:
    """Adam with bias correction over a fixed list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not params:
            raise NumericsError("AdamState needs at least one parameter")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(state: AdamState, grads: list[np.ndarray]) -> None:
    """One update of every parameter, in place; grads[i] belongs to
    state.params[i]."""
    if len(grads) != len(state.params):
        raise NumericsError(f"{len(grads)} grads for "
                            f"{len(state.params)} parameters")
    for i, (p, g) in enumerate(zip(state.params, grads)):
        if g.shape != p.shape:
            raise NumericsError(f"grad {i} has shape {g.shape}, "
                                f"parameter {p.shape}")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(state.params, grads, state.m, state.v):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def xavier_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Uniform on +/- sqrt(6/(rows+cols)); deterministic per seed."""
    if rows < 1 or cols < 1:
        raise NumericsError(f"xavier_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(rows, cols))
