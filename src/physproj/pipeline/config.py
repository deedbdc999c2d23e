"""Experiment configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from physproj.errors import ValidationError

EXPERIMENT_KINDS = (
    "spring-single",
    "spring-many",
    "ltp-compare",
    "ablation-arch",
    "small-samples",
    "timing",
)

# 18 roughly log-spaced hidden widths from 1 to 1000; includes the 8, 26 and
# 1000 used for the pressure-trend snapshots.
DEFAULT_ARCHITECTURES = (1, 2, 3, 5, 8, 12, 18, 26, 38, 56, 82, 120, 177, 260, 381, 560, 822, 1000)
DEFAULT_SIZES = (20, 50, 100, 200, 400, 600, 900, 1300, 1800, 2200, 2500)


@dataclass
class ExperimentConfig:
    kind: str = "spring-single"
    seed: int = 0
    out_dir: str = "results"
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    # spring-mass system and dataset
    spring_n_samples: int = 20000
    spring_e_max: float = 5.0
    spring_delta_t: float = 0.05
    spring_n_substeps: int = 50
    spring_hidden: tuple[int, ...] = (22, 98, 9)
    spring_lambda: float = 0.005
    spring_lr: float = 1e-4
    spring_epochs: int = 60
    spring_batch: int = 64
    spring_initial_state: tuple[float, float, float, float] = (-0.16, -2.18, 0.09, -0.16)
    spring_steps_single: int = 165
    spring_steps_many: int = 200
    spring_n_trajectories: int = 100
    spring_projection_tol: float = 1e-4
    spring_dataset_csv: str | None = None

    # low-temperature plasma dataset and models
    ltp_n_samples: int = 1000
    ltp_hidden: tuple[int, ...] = (50, 50)
    ltp_lambda: float = 0.015
    ltp_lr: float = 1e-3
    ltp_max_epochs: int = 400
    ltp_batch: int = 64
    ltp_projection_tol: float = 1e-8
    ltp_n_members: int = 1
    ltp_skew_threshold: float = 2.0
    ltp_dataset_csv: str | None = None
    ltp_column_map: str | None = None

    # schedules
    early_stop_alpha: float = 2.0
    early_stop_strip: int = 5
    plateau_patience: int = 10
    plateau_factor: float = 0.1

    # sweeps and trend slices
    architectures: tuple[int, ...] = DEFAULT_ARCHITECTURES
    sizes: tuple[int, ...] = DEFAULT_SIZES
    n_resamples: int = 20
    pool_size: int = 3000
    trend_n_points: int = 50
    trend_current: float = 0.030  # A
    trend_radius: float = 0.012  # m
    trend_architectures: tuple[int, ...] = (8, 26, 1000)  # on synthetic data, a slice per entry also in architectures
    trend_sizes: tuple[int, ...] = (200, 600, 2500)  # on synthetic data, a slice per entry also in sizes

    # timing experiment
    timing_n_test: int = 500

    def validate(self) -> "ExperimentConfig":
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(f"unknown experiment kind '{self.kind}'; choose from {EXPERIMENT_KINDS}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if len(self.split_fractions) != 3 or len(self.spring_initial_state) != 4:
            raise ValidationError("split_fractions needs 3 values and spring_initial_state 4")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValidationError("split_fractions must sum to 1")
        for name in ("architectures", "sizes"):
            if not getattr(self, name) or min(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be a nonempty list of integers >= 1")
        if self.ltp_dataset_csv is not None and not os.path.exists(self.ltp_dataset_csv):
            raise ValidationError(f"dataset csv not found: {self.ltp_dataset_csv}")
        if self.spring_dataset_csv is not None and not os.path.exists(self.spring_dataset_csv):
            raise ValidationError(f"dataset csv not found: {self.spring_dataset_csv}")
        if self.ltp_column_map is not None and not os.path.exists(self.ltp_column_map):
            raise ValidationError(f"column map not found: {self.ltp_column_map}")
        for name in (
            "spring_n_samples",
            "ltp_n_samples",
            "ltp_n_members",
            "n_resamples",
            "spring_n_trajectories",
            "spring_steps_single",
            "spring_steps_many",
            "trend_n_points",
            "plateau_patience",
            "early_stop_strip",
        ):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        for name in ("spring_epochs", "ltp_max_epochs"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        for name in ("spring_projection_tol", "ltp_projection_tol", "trend_current", "trend_radius"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValidationError(f"{name} must be positive")
        for name in ("spring_lr", "ltp_lr"):
            if not 0.0 < getattr(self, name) < float("inf"):
                raise ValidationError(f"{name} must be positive and finite")
        if not 0.0 <= self.spring_lambda <= 1.0 or not 0.0 <= self.ltp_lambda <= 1.0:
            raise ValidationError("physics weights must lie in [0, 1]")
        if not 0.0 < self.plateau_factor <= 1.0:
            raise ValidationError("plateau_factor must lie in (0, 1]")
        if not self.early_stop_alpha >= 0.0:  # a negative alpha stops every training after one strip
            raise ValidationError("early_stop_alpha must be >= 0")
        return self

    def items(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out[f.name] = value
        return out


def _fits(value, default) -> bool:
    """Ints are not bools, floats accept ints, tuples hold numbers, None-default fields take a string or null."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from defaults, an optional JSON file, and CLI overrides.

    The JSON file is a flat object whose keys are ExperimentConfig field
    names; list values become tuples. Unknown keys and values of another
    type than the field's default are rejected.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except FileNotFoundError as exc:
            raise ValidationError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ValidationError("config file must hold a JSON object")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    unknown = (set(values) | set(overrides)) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in [*values.items(), *overrides.items()]:  # an overridden file value is checked too
        if not _fits(value, defaults[key]):
            raise ValidationError(f"config key '{key}' must have the type of its default {defaults[key]!r}, got {value!r}")
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in {**values, **overrides}.items()}
    return ExperimentConfig(**values).validate()
