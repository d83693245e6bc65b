"""Adam and the Xavier initializer, on plain float64 arrays.

Adam updates its parameter arrays in place, so whatever holds those arrays
(the CPA model record) sees every step.
"""

from __future__ import annotations

import math

import numpy as np


class NumericsError(Exception):
    """Mismatched parameters and gradients, or out-of-contract dimensions."""


# elements per block of an Adam update: a step works through each parameter
# a block of rows at a time, so its two scratch arrays stay small and in
# cache rather than adding copies of the parameters to peak memory
_ADAM_BLOCK = 1 << 15


class AdamState:
    """Adam with bias correction over a fixed list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not params:
            raise NumericsError("AdamState needs at least one parameter")
        if any(p.ndim == 0 for p in params):
            raise NumericsError("Adam parameters must have at least one axis")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        # two scratch arrays of one block, shared by every parameter, so a
        # step allocates no array data
        size = max([_ADAM_BLOCK] + [math.prod(p.shape[1:]) for p in params])
        self.scratch = (np.empty(size), np.empty(size))


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
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and
    # p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps): the ufuncs,
    # operand order and rounding of those expressions, written in place. They
    # are elementwise, so taking a block of rows at a time changes no result.
    a_flat, b_flat = state.scratch
    for param, grad, moment1, moment2 in zip(state.params, grads, state.m,
                                             state.v):
        step = len(a_flat) // max(1, math.prod(param.shape[1:]))
        for lo in range(0, len(param), step):
            p, g, m, v = (x[lo:lo + step]
                          for x in (param, grad, moment1, moment2))
            a = a_flat[:p.size].reshape(p.shape)
            b = b_flat[:p.size].reshape(p.shape)
            m *= b1
            np.multiply(1 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(1 - b2, g, out=a)
            a *= g
            v += a
            np.divide(m, 1 - b1 ** t, out=a)
            np.multiply(state.lr, a, out=a)
            np.divide(v, 1 - b2 ** t, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            p -= a


def xavier_init(rows: int, cols: int, seed: int) -> np.ndarray:
    """Uniform on +/- sqrt(6/(rows+cols)); deterministic per seed."""
    if rows < 1 or cols < 1:
        raise NumericsError(f"xavier_init needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(rows, cols))
