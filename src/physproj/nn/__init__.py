"""Minimal dense feed-forward network engine with physics-regularized training."""

from physproj.nn.losses import (
    LtpResidualTerm,
    SpringEnergyTerm,
    mse,
    mse_gradient,
)
from physproj.nn.network import (
    Network,
    backward,
    forward,
    forward_cached,
    load_network,
    save_network,
    xavier_init,
)
from physproj.nn.optimizer import AdamState, adam_step
from physproj.nn.schedule import plateau_lr, pq_alpha_should_stop
from physproj.nn.training import (
    EarlyStopConfig,
    PlateauConfig,
    TrainConfig,
    TrainHistory,
    train,
)

__all__ = [
    "AdamState",
    "EarlyStopConfig",
    "LtpResidualTerm",
    "Network",
    "PlateauConfig",
    "SpringEnergyTerm",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "backward",
    "forward",
    "forward_cached",
    "load_network",
    "mse",
    "mse_gradient",
    "plateau_lr",
    "pq_alpha_should_stop",
    "save_network",
    "train",
    "xavier_init",
]
