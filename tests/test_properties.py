"""Property tests: solver invariants on random spheres, hyperplane sets and
plasma-law subsets near synthetic samples, results independent of the batch
and block a point is solved in, spring
energy-shell projections against the exact nearest point, bit-exact
model files for random architectures, the leaky ReLU against its np.where
form on special values, backward's flat gradient against its per-layer
formula, and loaders that meet malformed model files, dataset CSVs, column
maps and configs with ValidationError alone.

Examples are derandomized so every run checks the same cases.
"""

import dataclasses
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from physproj import projector, springmass
from physproj.constraints import (
    INPUT_NAMES,
    OUTPUT_NAMES,
    ConstraintSet,
    EnergyConstraint,
    LtpConstraints,
    LtpSchema,
    TransformSpec,
    denormalize,
    fit_transform,
    generate_synthetic_ltp,
    normalize,
)
from physproj.errors import ValidationError
from physproj.nn import Network, backward, forward_cached, load_network, save_network, xavier_init
from physproj.nn.network import _leaky_relu_backprop
from physproj.pipeline import ExperimentConfig, load_config
from physproj.pipeline.csvio import load_ltp_csv
from physproj.projector import CONVERGED, ProjectionSpec, kkt_residual, project, project_batch

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
        # added column by column, so a row's value does not depend on its batch
        # (a BLAS product p @ A^T rounds a lone row differently from a batch)
        total = -self.b
        for j in range(p.shape[1]):
            total = total + p[:, j, None] * self.a[:, j]
        return total

    def _jacobian(self, x, p):
        return np.broadcast_to(self.a, (len(p), *self.a.shape)).copy()


LTP_X, LTP_Y = generate_synthetic_ltp(200, 0)  # inputs and outputs that satisfy all three laws exactly
LTP_SPEC = fit_transform(LTP_Y, OUTPUT_NAMES, skew_threshold=2.0)  # log-scaled where skewed, as the experiments fit it
LAW_SUBSETS = [(0, 1, 2), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


@st.composite
def problems(draw):
    """(constraint set, x, start point): a sphere or hyperplanes in dimension 2-6 with no x, or
    a subset of the plasma laws at a synthetic sample's (P, I, R), from its outputs perturbed
    by N(0, sigma^2), 0.01 <= sigma <= 0.2, in normalized space."""
    kind = draw(st.sampled_from(["ltp", "sphere", "planes"]))
    if kind == "ltp":
        i = draw(st.integers(0, len(LTP_X) - 1))
        sigma = draw(st.floats(0.01, 0.2))
        noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, sigma, len(OUTPUT_NAMES))
        laws = draw(st.sampled_from(LAW_SUBSETS))
        return LtpConstraints(LtpSchema(), LTP_SPEC, laws=laws), LTP_X[i], normalize(LTP_Y[i], LTP_SPEC) + noise
    dim = draw(st.integers(2, 6))
    coord = st.floats(-1.0, 1.0, allow_nan=False)

    def vector():
        return np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))

    if kind == "sphere":
        centre, radius = vector(), draw(st.floats(0.5, 2.0))
        direction = vector()
        assume(np.linalg.norm(direction) > 0.1)  # keep clear of the centre, where every direction is nearest
        distance = draw(st.floats(0.2, 3.0)) * radius
        return Sphere(centre, radius), None, centre + distance * direction / np.linalg.norm(direction)
    a = np.array([vector() for _ in range(draw(st.integers(1, 2)))])
    assume(np.linalg.svd(a, compute_uv=False).min() > 0.1)  # independent planes
    return Hyperplanes(a, vector()[: len(a)]), None, 2.0 * vector()


@PROPERTY_SETTINGS
@given(problems())
def test_converged_projection_meets_kkt_tolerance(problem):
    cs, x, y = problem
    result = project(y, cs, x, SPEC)
    if result.status == CONVERGED:
        stat, feas = kkt_residual(result.projected, result.multipliers, y, cs, x, SPEC)
        assert max(stat, feas) <= SPEC.tolerance


@PROPERTY_SETTINGS
@given(problems())
def test_projection_is_idempotent(problem):
    cs, x, y = problem
    first = project(y, cs, x, SPEC)
    assume(first.status == CONVERGED)
    again = project(first.projected, cs, x, SPEC)
    assert again.status == CONVERGED and again.iterations == 0
    assert np.array_equal(again.projected, first.projected)


@PROPERTY_SETTINGS
@given(problems(), st.data())
def test_result_is_independent_of_batch_and_block(problem, data):
    cs, x, y = problem
    dim = len(y)
    offsets = data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim), min_size=1, max_size=6))
    ys = np.concatenate([y[None, :], y + np.array(offsets)])
    xs = None if x is None else np.tile(x, (len(ys), 1))  # every point at the same inputs
    order = data.draw(st.permutations(range(len(ys))))
    per_block = data.draw(st.integers(1, 3))
    alone = [project(row, cs, x, SPEC) for row in ys]
    point_bytes = projector._POINT_MATRICES * 8 * (dim + cs.residual_dim) ** 2
    with mock.patch.object(projector, "_BLOCK_BYTES", per_block * point_bytes):
        blocked = project_batch(ys[order], cs, xs, SPEC)
    whole = project_batch(ys, cs, xs, SPEC)
    for batch, rows in ((blocked, order), (whole, range(len(ys)))):
        for row, i in enumerate(rows):
            assert batch.projected[row].tobytes() == alone[i].projected.tobytes()
            assert batch.multipliers[row].tobytes() == alone[i].multipliers.tobytes()
            assert (batch.iterations[row], batch.status[row]) == (alone[i].iterations, alone[i].status)
            assert batch.kkt_norm[row].tobytes() == np.float64(alone[i].kkt_norm).tobytes()


# ---------------------------------------------------------------------------
# the spring energy shell, whose nearest point is known exactly

SPRING = springmass.SpringParams()
SPRING_SPEC = fit_transform(  # min-max, as the spring experiments fit it
    springmass.sample_states(SPRING, 5.0, 2000, np.random.default_rng(0)), springmass.STATE_NAMES, skew_threshold=np.inf
)


def nearest_on_energy_shell(ys, anchors, spec):
    """The exact nearest points to the normalized ``ys`` on the energy shells E = ``anchors`` (J).

    With min-max scaling, phys = c + D z, so the energy is 0.5 (z - z_c)' Q (z - z_c)
    with Q = D H D, H the energy Hessian and z_c the normalized equilibrium: the shell
    is an ellipsoid. In Q's eigenbasis, Q = V diag(s) V' and a = V'(y - z_c), the nearest
    point is a_i / (1 + mu s_i), where mu is the one root with 1 + mu max(s) > 0 of the
    secular equation 0.5 sum(s_i a_i^2 / (1 + mu s_i)^2) = E0 (More and Sorensen, SIAM
    J. Sci. Stat. Comput. 4, 1983). The left side falls in mu there, so bisection finds
    mu to rounding; mu > 0 outside the shell and mu < 0 inside.
    """
    half = spec.width / 2.0
    s, v = np.linalg.eigh(half[:, None] * springmass.energy_hessian(SPRING) * half)
    centre = normalize(SPRING.equilibrium(), spec)
    a = (ys - centre) @ v
    lo = np.full(len(ys), -1.0 / s.max())  # the left side is infinite here
    hi = np.linalg.norm(a, axis=1) / np.sqrt(2.0 * anchors * s.min())  # and at most E0 here
    with np.errstate(divide="ignore"):
        for _ in range(200):  # past the last halving the bracket holds two adjacent floats
            mid = 0.5 * (lo + hi)
            above = 0.5 * np.sum(s * (a / (1.0 + mid[:, None] * s)) ** 2, axis=1) > anchors
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return centre + (a / (1.0 + hi[:, None] * s)) @ v.T


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_energy_shell_projection_is_the_exact_nearest_point(seed):
    # 40 noisy normalized states and anchors from 0.2 to 5 J put points inside and outside their shells;
    # at tolerance 1e-10 every converged point is the global nearest one to 1e-9 (max-norm)
    rng = np.random.default_rng(seed)
    ys = normalize(springmass.sample_states(SPRING, 5.0, 40, rng), SPRING_SPEC) + rng.normal(0.0, 0.3, (40, 4))
    anchors = rng.uniform(0.2, 5.0, 40)
    exact = nearest_on_energy_shell(ys, anchors, SPRING_SPEC)
    assert np.allclose(springmass.energy(denormalize(exact, SPRING_SPEC), SPRING), anchors, rtol=1e-10, atol=0.0)
    result = project_batch(ys, EnergyConstraint(SPRING, None, SPRING_SPEC), anchors[:, None], ProjectionSpec(tolerance=1e-10))
    converged = result.status == CONVERGED
    inside = springmass.energy(denormalize(ys, SPRING_SPEC), SPRING) < anchors
    assert inside[converged].any() and not inside[converged].all()
    assert np.abs(result.projected[converged] - exact[converged]).max() <= 1e-9


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
        width = net.layer_dims[-1]
        spec = TransformSpec(names=tuple("abcdef"[:width]), mins=-np.arange(1.0, width + 1), maxs=np.full(width, 0.1))
        save_network(path, net, spec)
        loaded, transform = load_network(path)
    assert transform.to_json() == spec.to_json() and loaded.layer_dims == net.layer_dims
    assert loaded.theta.tobytes() == net.theta.tobytes()


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.8e308, -1.8e308])


@PROPERTY_SETTINGS
@given(st.lists(st.floats() | SPECIAL_FLOATS, min_size=1, max_size=40))
def test_leaky_relu_equals_its_where_form_bit_for_bit(values):
    z = np.array(values)
    # a 1-1-1 net whose first layer is the identity hands z to the leaky ReLU (the matmul turns -0.0 into 0.0)
    net = Network(layer_dims=(1, 1, 1), weights=[np.ones((1, 1))] * 2, biases=[np.zeros(1)] * 2)
    cache = forward_cached(net, z[:, None])
    pre = cache.pre_activations[0]
    assert np.array_equal(pre[:, 0], z, equal_nan=True)
    assert cache.hidden[1].tobytes() == np.where(pre > 0.0, pre, 0.01 * pre).tobytes()
    delta = z[::-1]  # the backward pass: delta times the derivative, 1 or the slope
    expected = delta * np.where(z > 0.0, 1.0, 0.01)
    assert _leaky_relu_backprop(delta, z).tobytes() == expected.tobytes()


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(1, 8), min_size=2, max_size=5),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_backward_writes_views_of_one_vector_equal_to_the_per_layer_formula(dims, batch, seed):
    rng = np.random.default_rng(seed)
    net = xavier_init(dims)
    net.theta[:] = rng.normal(size=net.theta.size)
    cache = forward_cached(net, rng.normal(size=(batch, dims[0])))
    output_grad = rng.normal(size=(batch, dims[-1]))
    grads = backward(net, cache, output_grad)
    flat = grads[0].base
    assert flat.shape == net.theta.shape and all(g.base is flat for g in grads)
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    assert np.concatenate([g.ravel() for g in grads]).tobytes() == flat.tobytes()

    n_layers = len(net.weights)
    expected, delta = [None] * (2 * n_layers), output_grad  # the derivative-times-delta form
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            delta = delta * np.where(cache.pre_activations[i] > 0.0, 1.0, 0.01)
        expected[2 * i], expected[2 * i + 1] = delta.T @ cache.hidden[i], delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i]
    assert flat.tobytes() == np.concatenate([e.ravel() for e in expected]).tobytes()


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
