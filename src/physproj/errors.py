"""Exception types shared across the package."""


class PhysprojError(Exception):
    """Base class for package errors."""


class ValidationError(PhysprojError):
    """Invalid configuration, shapes, or argument values."""


class DenormalizationOverflowError(ValidationError):
    """De-normalizing gave a non-finite value: the values came out of a numerical
    failure (a diverged network, say), so the CLI exits 2 on it, not 1."""


class DegenerateFeatureError(ValidationError):
    """A feature is constant (max == min) and cannot be min-max scaled."""


class TrainingDivergedError(PhysprojError):
    """Loss or gradients became non-finite during training."""


class ProjectionError(PhysprojError):
    """Projection failed during a multi-step procedure (e.g. rollout).

    Carries the step index and the solver status string so callers can
    report exactly where the trajectory broke down.
    """

    def __init__(self, message: str, step: int | None = None, status: str | None = None):
        super().__init__(message)
        self.step = step
        self.status = status
