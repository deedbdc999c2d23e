"""Experiment orchestration: configs, metrics, runners, CSV artifacts."""

from physproj.pipeline.config import EXPERIMENT_KINDS, ExperimentConfig, load_config
from physproj.pipeline.experiments import MetricsReport, run_experiment
from physproj.pipeline.metrics import improvement_rates, rmse, rmse_variation_rate, split_dataset

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "MetricsReport",
    "improvement_rates",
    "load_config",
    "rmse",
    "rmse_variation_rate",
    "run_experiment",
    "split_dataset",
]
