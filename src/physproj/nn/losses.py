"""Loss functions: data MSE and the physics penalties.

``mean_square`` is the one mean square over a whole array, added in np.mean's order:
``mse``, the spring penalty and the trainer take it (the LTP penalty takes a mean per law).
The *Term classes return a physics penalty together with its gradient with respect to the
normalized network output, so the training loop can backpropagate through it. The trainer
calls a term's ``inputs(x_norm)`` once per dataset and passes a batch's rows of it to
``loss_and_output_grad(inputs, y_norm)``, which returns the already-weighted contribution;
the trainer forms total = (1 - term.weight) * data_mse + physics_term. ``loss(inputs,
y_norm)`` is the same contribution without the gradient, for validation."""

from __future__ import annotations

import numpy as np

from physproj import springmass
from physproj.constraints import transform
from physproj.errors import ValidationError


def mean_square(diff: np.ndarray) -> float:
    """Mean of ``diff ** 2`` over all elements, added in np.mean's order, so bit for bit ``np.mean(diff ** 2)``."""
    return float(np.add.reduce(diff * diff, axis=None) / diff.size)


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    p, t = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch in mse: {p.shape} vs {t.shape}")
    return mean_square(p - t)


def mse_gradient(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(mse)/d(pred); mean is over all elements."""
    p, t = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch in mse_gradient: {p.shape} vs {t.shape}")
    return 2.0 * (p - t) / p.size


class SpringEnergyTerm:
    """Energy-conservation penalty, weight * MSE(E_out, E_in), with gradient."""

    def __init__(self, params, state_spec, weight: float):
        self.params = params
        self.transform = state_spec
        self.weight = weight

    def _energies(self, batch_norm: np.ndarray) -> np.ndarray:
        return springmass.energy(transform.denormalize(np.atleast_2d(batch_norm), self.transform), self.params)

    def inputs(self, x_norm: np.ndarray) -> np.ndarray:
        """The mechanical energies of the input states, one per sample."""
        return self._energies(x_norm)

    def loss(self, e_in: np.ndarray, y_norm: np.ndarray) -> float:
        return self.weight * mean_square(self._energies(y_norm) - e_in)

    def loss_and_output_grad(self, e_in: np.ndarray, y_norm: np.ndarray) -> tuple[float, np.ndarray]:
        y_phys = transform.denormalize(np.atleast_2d(y_norm), self.transform)
        e_out, de_dphys = springmass.energy_and_gradient(y_phys, self.params)
        diff = e_out - e_in
        # dE/dy_norm = dE/dy_phys * d(denorm)/dz, chain rule per sample
        grad = self.weight * (2.0 / diff.size) * diff[:, None] * de_dphys
        grad *= transform.jacobian_diag_from_physical(y_phys, self.transform)
        return self.weight * mean_square(diff), grad


class LtpResidualTerm:
    """Scaled-residual penalty for the plasma outputs, with gradient: weight / m * sum of the
    mean squared residuals of the constraint set's m laws."""

    def __init__(self, constraint_set, input_transform, weight: float):
        self.constraint_set = constraint_set
        self.input_transform = input_transform
        self.weight = weight
        self.lambdas = np.full(constraint_set.residual_dim, weight / constraint_set.residual_dim)  # per law

    def inputs(self, x_norm: np.ndarray) -> np.ndarray:
        """The physical (P, I, R) inputs, one row per sample."""
        return transform.denormalize(np.atleast_2d(x_norm), self.input_transform)

    def loss(self, x_phys: np.ndarray, y_norm: np.ndarray) -> float:
        return self._weighted(self.constraint_set.residual(x_phys, np.atleast_2d(y_norm)))

    def loss_and_output_grad(self, x_phys: np.ndarray, y_norm: np.ndarray) -> tuple[float, np.ndarray]:
        r, jac = self.constraint_set.residual_and_jacobian(x_phys, np.atleast_2d(y_norm))  # (n, 3), (n, 3, d)
        grad = (2.0 / r.shape[0]) * np.einsum("k,nk,nkd->nd", self.lambdas, r, jac)
        return self._weighted(r), grad

    def _weighted(self, r: np.ndarray) -> float:
        return float(np.dot(self.lambdas, np.add.reduce(r * r, axis=0) / len(r)))  # the mean, in np.mean's order
