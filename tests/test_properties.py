"""Property tests: solver invariants on random spheres and hyperplane sets, and
bit-exact model files for random architectures.

Examples are derandomized so every run checks the same cases.
"""

import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from physproj.constraints import ConstraintSet
from physproj.nn import load_network, save_network, xavier_init
from physproj.projector import CONVERGED, ProjectionSpec, kkt_residual, project

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SPEC = ProjectionSpec(tolerance=1e-8)


class Sphere(ConstraintSet):
    """g(p) = |p - c|^2 - r^2."""

    residual_dim = 1

    def __init__(self, centre, radius):
        self.centre, self.radius = centre, radius

    def _residual(self, x, p):
        return (np.sum((p - self.centre) ** 2, axis=1) - self.radius**2)[:, None]

    def _jacobian(self, x, p):
        return (2.0 * (p - self.centre))[:, None, :]


class Hyperplanes(ConstraintSet):
    """g(p) = A p - b, one row of A per plane."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.residual_dim = len(b)

    def _residual(self, x, p):
        return p @ self.a.T - self.b

    def _jacobian(self, x, p):
        return np.broadcast_to(self.a, (len(p), *self.a.shape)).copy()


@st.composite
def problems(draw):
    """(constraint set, start point) in dimension 2-6."""
    dim = draw(st.integers(2, 6))
    coord = st.floats(-1.0, 1.0, allow_nan=False)

    def vector():
        return np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))

    if draw(st.booleans()):
        centre, radius = vector(), draw(st.floats(0.5, 2.0))
        direction = vector()
        assume(np.linalg.norm(direction) > 0.1)  # keep clear of the centre, where every direction is nearest
        distance = draw(st.floats(0.2, 3.0)) * radius
        return Sphere(centre, radius), centre + distance * direction / np.linalg.norm(direction)
    a = np.array([vector() for _ in range(draw(st.integers(1, 2)))])
    assume(np.linalg.svd(a, compute_uv=False).min() > 0.1)  # independent planes
    return Hyperplanes(a, vector()[: len(a)]), 2.0 * vector()


@PROPERTY_SETTINGS
@given(problems())
def test_converged_projection_meets_kkt_tolerance(problem):
    cs, y = problem
    result = project(y, cs, None, SPEC)
    if result.status == CONVERGED:
        stat, feas = kkt_residual(result.projected, result.multipliers, y, cs, None, SPEC)
        assert max(stat, feas) <= SPEC.tolerance


@PROPERTY_SETTINGS
@given(problems())
def test_projection_is_idempotent(problem):
    cs, y = problem
    first = project(y, cs, None, SPEC)
    assume(first.status == CONVERGED)
    again = project(first.projected, cs, None, SPEC)
    assert again.status == CONVERGED and again.iterations == 0
    assert np.array_equal(again.projected, first.projected)


@st.composite
def networks(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    net = xavier_init(dims)
    values = st.floats(allow_nan=False, allow_infinity=False)
    net.theta[:] = draw(st.lists(values, min_size=net.theta.size, max_size=net.theta.size))
    return net


@PROPERTY_SETTINGS
@given(networks())
def test_saved_network_reloads_bit_for_bit(net):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_network(path, net)
        loaded, transform = load_network(path)
    assert transform is None and loaded.layer_dims == net.layer_dims
    assert loaded.theta.tobytes() == net.theta.tobytes()
