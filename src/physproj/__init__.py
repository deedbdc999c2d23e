"""physproj: physics-consistent surrogate models via output projection.

Train plain or physics-regularized neural surrogates, then project their
predictions onto the manifold of declared physical laws (energy conservation
for the spring-mass chain; pressure balance, discharge current and
quasi-neutrality for the oxygen glow discharge).
"""

from physproj.projector import (
    CONVERGED,
    MAX_ITERATIONS,
    NONFINITE_INPUT,
    SINGULAR_SYSTEM,
    ProjectionResult,
    ProjectionSpec,
    kkt_residual,
    project,
    project_batch,
)

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "MAX_ITERATIONS",
    "NONFINITE_INPUT",
    "SINGULAR_SYSTEM",
    "ProjectionResult",
    "ProjectionSpec",
    "kkt_residual",
    "project",
    "project_batch",
    "__version__",
]
