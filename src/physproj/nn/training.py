"""Training loop: Adam over mini-batches, physics penalties, early stopping.

The loop is deterministic for a given (network, data, config) triple: all
shuffling comes from a generator seeded by the config, and the returned
network is the checkpoint from the epoch with the best validation loss
(including the untrained starting point, so one epoch can never make the
returned model worse than its initialization).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from physproj.errors import TrainingDivergedError, ValidationError
from physproj.nn.losses import mse, mse_gradient
from physproj.nn.network import Network, backward, forward, forward_cached
from physproj.nn.optimizer import AdamState, adam_step
from physproj.nn.schedule import plateau_lr, pq_alpha_should_stop


@dataclass(frozen=True)
class EarlyStopConfig:
    alpha: float = 2.0
    strip_length: int = 5


@dataclass(frozen=True)
class PlateauConfig:
    patience: int = 10
    factor: float = 0.1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    max_epochs: int = 60
    batch_size: int = 64  # <= 0 means full batch
    lambda_physics: float = 0.0
    early_stop: EarlyStopConfig | None = None
    lr_plateau: PlateauConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lambda_physics <= 1.0:
            raise ValidationError("lambda_physics must lie in [0, 1]")
        if self.learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    physics_loss: list[float] = field(default_factory=list)
    data_loss: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    def n_epochs(self) -> int:
        return len(self.train_loss)


def _evaluate(net: Network, x: np.ndarray, y: np.ndarray, physics, lam: float) -> tuple[float, float, float]:
    """(total, data, physics) losses on a dataset, without gradients."""
    pred = forward(net, x)
    data = mse(pred, y)
    if physics is None:
        return data, data, 0.0
    phys, _ = physics.loss_and_output_grad(x, pred)
    return (1.0 - lam) * data + phys, data, phys


def train(
    net: Network,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray] | None,
    config: TrainConfig,
    physics=None,
) -> tuple[Network, TrainHistory]:
    """Fit the network; returns (best-validation checkpoint, history).

    ``physics`` is an optional term with loss_and_output_grad(x, y_pred);
    when present the objective is (1 - lambda) * data_mse + physics term,
    otherwise plain MSE. Early stopping and plateau scheduling need a
    validation set.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train_set)
    if x_train.shape[0] == 0:
        raise ValidationError("empty training set")
    if x_train.shape[0] != y_train.shape[0]:
        raise ValidationError("training inputs and targets disagree in length")
    if (config.early_stop or config.lr_plateau) and (val_set is None or len(val_set[0]) == 0):
        raise ValidationError("early stopping / plateau scheduling require a validation set")

    history = TrainHistory()
    if config.max_epochs == 0:
        return net.copy(), history

    lam = config.lambda_physics
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]
    batch = n if config.batch_size <= 0 else min(config.batch_size, n)

    work = net.copy()
    state = AdamState.initialize(work.theta)

    best_net = net.copy()
    if val_set is not None and len(val_set[0]) > 0:
        best_val = _evaluate(net, val_set[0], val_set[1], physics, lam)[0]
    else:
        best_val = np.inf

    lr = config.learning_rate
    epochs_since_lr_drop = 0

    for _ in range(config.max_epochs):
        tick = time.perf_counter()
        order = rng.permutation(n)
        epoch_data = 0.0
        epoch_phys = 0.0
        epoch_total = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            xb, yb = x_train[idx], y_train[idx]
            cache = forward_cached(work, xb)
            pred = cache.output
            data = mse(pred, yb)
            out_grad = (1.0 - lam) * mse_gradient(pred, yb) if physics is not None else mse_gradient(pred, yb)
            phys = 0.0
            if physics is not None:
                phys, phys_grad = physics.loss_and_output_grad(xb, pred)
                out_grad = out_grad + phys_grad
            total = (1.0 - lam) * data + phys if physics is not None else data
            if not np.isfinite(total):
                raise TrainingDivergedError(f"non-finite training loss ({total})")
            grads = backward(work, cache, out_grad)
            adam_step(work.theta, grads, state, lr)
            epoch_data += data
            epoch_phys += phys
            epoch_total += total
            n_batches += 1

        history.train_loss.append(epoch_total / n_batches)
        history.data_loss.append(epoch_data / n_batches)
        history.physics_loss.append(epoch_phys / n_batches)
        history.learning_rate.append(lr)

        if val_set is not None and len(val_set[0]) > 0:
            val_total = _evaluate(work, val_set[0], val_set[1], physics, lam)[0]
            if not np.isfinite(val_total):
                raise TrainingDivergedError("non-finite validation loss")
        else:
            val_total = history.train_loss[-1]
        history.val_loss.append(val_total)
        history.epoch_seconds.append(time.perf_counter() - tick)

        if val_total < best_val:
            best_val = val_total
            best_net = work.copy()

        if config.lr_plateau is not None:
            epochs_since_lr_drop += 1
            window = history.val_loss[-epochs_since_lr_drop:]
            new_lr = plateau_lr(window, config.lr_plateau.patience, config.lr_plateau.factor, lr)
            if new_lr != lr:
                lr = new_lr
                epochs_since_lr_drop = 0

        if config.early_stop is not None and pq_alpha_should_stop(
            history.train_loss,
            history.val_loss,
            config.early_stop.alpha,
            config.early_stop.strip_length,
        ):
            break

    if not np.isfinite(best_net.theta).all():
        raise TrainingDivergedError("non-finite parameters after training")
    return best_net, history

