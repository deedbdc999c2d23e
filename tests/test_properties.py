"""Property tests: solver invariants on random spheres and hyperplane sets,
bit-exact model files for random architectures, the leaky ReLU against its
np.where form on special values, and loaders that meet
malformed model files, dataset CSVs, column maps and configs with
ValidationError alone.

Examples are derandomized so every run checks the same cases.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from physproj.constraints import INPUT_NAMES, OUTPUT_NAMES, ConstraintSet, fit_transform, load_ltp_csv
from physproj.errors import ValidationError
from physproj.nn import Activation, load_network, save_network, xavier_init
from physproj.pipeline import ExperimentConfig, load_config
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


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.8e308, -1.8e308])


@PROPERTY_SETTINGS
@given(
    st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1.0, 5e-324, 0.01]),
    st.lists(st.floats() | SPECIAL_FLOATS, min_size=1, max_size=40),
)
def test_leaky_relu_equals_its_where_form_bit_for_bit(slope, values):
    z = np.array(values)
    expected = np.where(z > 0.0, z, slope * z)
    assert Activation("leaky_relu", slope).apply(z).tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(st.floats().filter(lambda s: not 0.0 < s <= 1.0) | st.sampled_from([0.0, -0.0, 1.0000000000000002, np.nan]))
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(slope):
    with pytest.raises(ValidationError, match="slope"):
        Activation("leaky_relu", slope)


# ---------------------------------------------------------------------------
# loaders on malformed input: a result or ValidationError, never another exception

JUNK = st.text(alphabet="0123456789-+.,eE xnaif{}[]\":truelsN", max_size=40)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _loads_or_rejects(load, *args):
    try:
        load(*args)
    except ValidationError:
        pass


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 4), min_size=2, max_size=4), st.data())
def test_malformed_model_file_is_rejected_with_validation_error(dims, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_network(path, xavier_init(dims), transform=fit_transform(np.eye(dims[-1] + 1)[:, :-1], list("abcd")[: dims[-1]]))
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = data.draw(st.integers(1, len(lines) - 1), label="line")  # the header stays, so parsing is reached
        edit = data.draw(st.sampled_from(["replace", "value", "cut"]), label="edit")
        junk = data.draw(JUNK, label="text")
        if edit == "replace":
            lines[row] = junk
        elif edit == "value":
            lines[row] = lines[row].split(" ", 1)[0] + " " + junk
        else:
            lines = lines[:row]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _loads_or_rejects(load_network, path)


@pytest.mark.filterwarnings("error::UserWarning")  # no numpy warning on a CSV without data rows
@PROPERTY_SETTINGS
@given(
    st.lists(st.sampled_from([*INPUT_NAMES, *OUTPUT_NAMES, "x", ""]), max_size=24),
    st.lists(st.lists(st.sampled_from(["1", "-2.5", "1e3", "nan", "", "a"]), max_size=24), max_size=3),
    st.none() | JSON_VALUES,
)
def test_malformed_ltp_csv_and_column_map_are_rejected_with_validation_error(header, rows, column_map):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ltp.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(",".join(cells) for cells in [header, *rows]) + "\n")
        _loads_or_rejects(load_ltp_csv, path, column_map)


CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]


@PROPERTY_SETTINGS
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES, max_size=4))
def test_malformed_config_is_rejected_with_validation_error(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(values, fh)
        _loads_or_rejects(load_config, path)
