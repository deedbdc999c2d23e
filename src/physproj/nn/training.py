"""Training loop: Adam over mini-batches, physics penalties, early stopping.

The loop is deterministic for a given (network, data, config) triple: all
shuffling comes from a generator seeded by the config, and the returned
network is the checkpoint from the epoch with the best validation loss
(including the untrained starting point, so one epoch can never make the
returned model worse than its initialization).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from physproj.errors import TrainingDivergedError, ValidationError
from physproj.nn.losses import mean_square
from physproj.nn.network import Network, _forward_into, _layer_arrays, backward, forward_cached
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
    batch_size: int = 64
    early_stop: EarlyStopConfig | None = None
    lr_plateau: PlateauConfig | None = None
    seed: int = 0

    def __post_init__(self):
        # a fractional count would reach range() as a bare TypeError, a negative one would train nothing
        if isinstance(self.max_epochs, bool) or not isinstance(self.max_epochs, (int, np.integer)) or self.max_epochs < 0:
            raise ValidationError("max_epochs must be an integer >= 0")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")


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


def _evaluate(net: Network, x: np.ndarray, y: np.ndarray, physics, feats, lam: float, layers) -> float:
    """Total loss on a dataset whose physics inputs are ``feats``, without gradients; the
    forward pass writes into ``layers``, the arrays ``_layer_arrays`` made for its rows."""
    pred = _forward_into(net, x, *layers)
    data = mean_square(pred - y)
    return data if physics is None else (1.0 - lam) * data + physics.loss(feats, pred)


def train(
    net: Network,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray] | None,
    config: TrainConfig,
    physics=None,
) -> tuple[Network, TrainHistory]:
    """Fit the network; returns (best-validation checkpoint, history).

    ``physics`` is an optional term (nn.losses): ``inputs(x)`` runs once on
    the training and once on the validation set, and each batch passes its
    rows of those to ``loss_and_output_grad(inputs, y_pred)``; the validation
    loss needs only ``loss(inputs, y_pred)``. With a term the objective is
    (1 - term.weight) * data_mse + physics term, otherwise plain MSE. Early
    stopping and plateau scheduling need a validation set.

    Allocated once per call: the buffers each epoch gathers its shuffled
    inputs, targets and physics inputs into (every batch is a slice of
    them), the gradient vector (written by backward through its ``out``
    views), the Adam state, the layer arrays every validation forward pass
    writes into, the best checkpoint's parameter vector, and
    ``max_epochs``-long training and validation loss arrays filled in place,
    whose views the schedule rules read. An improving epoch copies ``theta``
    into the checkpoint vector; the returned network is built from it once,
    at the end, and the history's loss lists from the arrays.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train_set)
    n_in, n_out = net.layer_dims[0], net.layer_dims[-1]
    if x_train.shape[0] == 0:
        raise ValidationError("empty training set")
    if y_train.shape != (x_train.shape[0], n_out):
        raise ValidationError(f"targets {y_train.shape} do not fit {x_train.shape[0]} inputs and {n_out} outputs")
    has_val = val_set is not None and len(val_set[0]) > 0
    if has_val:
        # the inline validation MSE would broadcast an (n, 1) target against the predictions without complaint
        x_val, y_val = (np.asarray(a, dtype=np.float64) for a in val_set)
        if x_val.ndim != 2 or x_val.shape[1] != n_in:
            raise ValidationError(f"validation inputs {x_val.shape} do not fit {n_in} network inputs")
        if y_val.shape != (x_val.shape[0], n_out):
            raise ValidationError(f"validation targets {y_val.shape} do not fit {x_val.shape[0]} inputs and {n_out} outputs")
    if (config.early_stop or config.lr_plateau) and not has_val:
        raise ValidationError("early stopping / plateau scheduling require a validation set")
    lam = physics.weight if physics is not None else 0.0
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("the physics term's weight must lie in [0, 1]")

    history = TrainHistory()
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]
    batch = min(config.batch_size, n)

    work = net.copy()
    state = AdamState.initialize(work.theta)
    grad = np.empty_like(work.theta)  # every step's gradient, laid out like theta
    grad_views = work.views(grad)

    feats = physics.inputs(x_train) if physics is not None else None
    val_feats = physics.inputs(x_val) if physics is not None and has_val else None
    val_layers = _layer_arrays(net, len(x_val)) if has_val else None  # every validation pass reuses them
    best_theta = net.theta.copy()
    best_val = _evaluate(net, x_val, y_val, physics, val_feats, lam, val_layers) if has_val else np.inf

    # each epoch gathers its shuffled rows into these once; a batch is a slice of them
    x_epoch, y_epoch = np.empty(x_train.shape), np.empty(y_train.shape)
    f_epoch = np.empty(feats.shape, feats.dtype) if physics is not None else None
    train_loss, val_loss = np.empty(config.max_epochs), np.empty(config.max_epochs)

    lr = config.learning_rate
    epochs_since_lr_drop = 0
    seen = 0

    for epoch in range(config.max_epochs):
        tick = time.perf_counter()
        order = rng.permutation(n)
        # a permutation never leaves the range, and "clip" spares take its buffered bounds check
        np.take(x_train, order, axis=0, out=x_epoch, mode="clip")
        np.take(y_train, order, axis=0, out=y_epoch, mode="clip")
        if physics is not None:
            np.take(feats, order, axis=0, out=f_epoch, mode="clip")
        epoch_data = 0.0
        epoch_phys = 0.0
        epoch_total = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            rows = slice(start, start + batch)
            cache = forward_cached(work, x_epoch[rows])
            diff = cache.output - y_epoch[rows]
            data = mean_square(diff)
            out_grad = diff  # mse_gradient, 2 * diff / diff.size, in place
            out_grad *= 2.0
            out_grad /= diff.size
            phys = 0.0
            if physics is not None:
                out_grad *= 1.0 - lam
                phys, phys_grad = physics.loss_and_output_grad(f_epoch[rows], cache.output)
                out_grad += phys_grad
            total = (1.0 - lam) * data + phys if physics is not None else data
            if not math.isfinite(total):
                raise TrainingDivergedError(f"non-finite training loss ({total})")
            backward(work, cache, out_grad, out=grad_views)
            adam_step(work.theta, grad, state, lr)
            epoch_data += data
            epoch_phys += phys
            epoch_total += total
            n_batches += 1

        train_loss[epoch] = epoch_total / n_batches
        history.data_loss.append(epoch_data / n_batches)
        history.physics_loss.append(epoch_phys / n_batches)
        history.learning_rate.append(lr)

        if has_val:
            val_total = _evaluate(work, x_val, y_val, physics, val_feats, lam, val_layers)
            if not math.isfinite(val_total):
                raise TrainingDivergedError("non-finite validation loss")
        else:
            val_total = train_loss[epoch]
        val_loss[epoch] = val_total
        history.epoch_seconds.append(time.perf_counter() - tick)

        if val_total < best_val:
            best_val = val_total
            np.copyto(best_theta, work.theta)

        seen = epoch + 1
        if config.lr_plateau is not None:
            epochs_since_lr_drop += 1
            window = val_loss[seen - epochs_since_lr_drop : seen]
            new_lr = plateau_lr(window, config.lr_plateau.patience, config.lr_plateau.factor, lr)
            if new_lr != lr:
                lr = new_lr
                epochs_since_lr_drop = 0

        if config.early_stop is not None and pq_alpha_should_stop(
            train_loss[:seen],
            val_loss[:seen],
            config.early_stop.alpha,
            config.early_stop.strip_length,
        ):
            break

    history.train_loss = train_loss[:seen].tolist()
    history.val_loss = val_loss[:seen].tolist()
    if not np.isfinite(best_theta).all():
        raise TrainingDivergedError("non-finite parameters after training")
    return net.with_parameters(net.views(best_theta)), history
