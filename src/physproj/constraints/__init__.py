"""Transforms between physical and normalized space, and constraint sets."""

from physproj.constraints.ltp import (
    ELEMENTARY_CHARGE,
    INPUT_NAMES,
    K_BOLTZMANN,
    OUTPUT_NAMES,
    TORR_TO_PA,
    LtpSchema,
    generate_synthetic_ltp,
)
from physproj.constraints.sets import ConstraintSet, EnergyConstraint, LtpConstraints
from physproj.constraints.transform import (
    TransformSpec,
    denormalize,
    fit_transform,
    normalize,
    sample_skewness,
)

__all__ = [
    "ELEMENTARY_CHARGE",
    "INPUT_NAMES",
    "K_BOLTZMANN",
    "OUTPUT_NAMES",
    "TORR_TO_PA",
    "ConstraintSet",
    "EnergyConstraint",
    "LtpConstraints",
    "LtpSchema",
    "TransformSpec",
    "denormalize",
    "fit_transform",
    "generate_synthetic_ltp",
    "normalize",
    "sample_skewness",
]
