"""Adam with bias correction, updating one flat parameter vector in place."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from physproj.errors import TrainingDivergedError, ValidationError

_BETA1, _BETA2 = 0.9, 0.999  # moment decay rates
_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment vectors, shaped like the parameters, plus the step counter.

    ``scratch`` and ``step`` are work buffers of the same shape, made once
    here so that adam_step allocates no vectors; each state has its own.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)
    step: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)
        self.step = np.empty_like(self.m)

    @classmethod
    def initialize(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, learning_rate: float) -> None:
    """One Adam update of ``theta`` and ``state``, both in place.

    ``grad`` is the gradient laid out like ``theta`` (the vector under
    backward()'s views). theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    with the standard 1/(1-beta^t) bias corrections, in that order. The
    intermediate vectors live in the state's ``scratch`` and ``step`` buffers.
    """
    if grad.shape != theta.shape or state.m.shape != theta.shape:
        raise ValidationError("params, grads and Adam state sizes disagree")
    # a finite sum means every entry is finite, and costs no bool vector; a NaN, inf or overflowing sum gets the exact test
    if not math.isfinite(np.add.reduce(grad, axis=None)) and not np.isfinite(grad).all():
        raise TrainingDivergedError("non-finite gradient passed to adam_step")
    state.t += 1
    scratch, step = state.scratch, state.step
    state.m *= _BETA1
    state.m += np.multiply(grad, 1.0 - _BETA1, out=scratch)
    state.v *= _BETA2
    state.v += np.multiply(np.square(grad, out=scratch), 1.0 - _BETA2, out=scratch)
    denom = np.sqrt(np.divide(state.v, 1.0 - _BETA2**state.t, out=scratch), out=scratch)  # sqrt(v_hat)
    denom += _EPSILON
    np.divide(state.m, 1.0 - _BETA1**state.t, out=step)  # m_hat
    step *= learning_rate
    theta -= np.divide(step, denom, out=step)
