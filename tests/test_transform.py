import json

import numpy as np
import pytest

from physproj.constraints import TransformSpec, denormalize, fit_transform, normalize, sample_skewness
from physproj.constraints.sets import _chain_rule
from physproj.constraints.transform import LN10, jacobian_diag_from_physical
from physproj.errors import DegenerateFeatureError, ValidationError


def spec_linear():
    return TransformSpec(names=("a", "b"), mins=np.array([0.0, -2.0]), maxs=np.array([4.0, 2.0]))


def spec_mixed():
    return TransformSpec(
        names=("lin", "log"),
        mins=np.array([-1.0, 10.0]),
        maxs=np.array([3.0, 23.0]),
        log_flags=np.array([False, True]),
    )


def test_normalize_endpoints_and_midpoint():
    spec = spec_linear()
    assert np.allclose(normalize(np.array([0.0, -2.0]), spec), [-1.0, -1.0])
    assert np.allclose(normalize(np.array([2.0, 0.0]), spec), [0.0, 0.0])
    assert np.allclose(normalize(np.array([4.0, 2.0]), spec), [1.0, 1.0])


def test_normalize_log_feature_midpoint():
    spec = spec_mixed()
    # log feature: 10^((10+23)/2) sits at the center of the log-space bounds
    z = normalize(np.array([1.0, 10.0 ** 16.5]), spec)
    assert abs(z[1]) < 1e-12


def test_normalize_rejects_nonpositive_on_log_feature():
    with pytest.raises(ValidationError):
        normalize(np.array([1.0, -5.0]), spec_mixed())


def test_denormalize_endpoints():
    spec = spec_mixed()
    assert np.allclose(denormalize(np.array([-1.0, -1.0]), spec), [-1.0, 1e10])
    assert np.allclose(denormalize(np.array([1.0, 1.0]), spec), [3.0, 1e23], rtol=1e-12)


def test_round_trip_random():
    rng = np.random.default_rng(0)
    spec = spec_mixed()
    for _ in range(200):
        u = np.array([rng.uniform(-1.0, 3.0), 10.0 ** rng.uniform(10.0, 23.0)])
        back = denormalize(normalize(u, spec), spec)
        assert np.all(np.abs(back - u) <= 1e-12 * np.abs(u))


def test_round_trip_batches():
    spec = spec_linear()
    rng = np.random.default_rng(1)
    u = rng.uniform(-5.0, 5.0, size=(50, 2))
    assert np.allclose(denormalize(normalize(u, spec), spec), u, rtol=1e-13, atol=1e-13)


def test_jacobian_diag_matches_finite_differences():
    spec = spec_mixed()
    rng = np.random.default_rng(2)
    h = 1e-7
    for _ in range(50):
        z = rng.uniform(-1.2, 1.2, size=2)
        diag = jacobian_diag_from_physical(denormalize(z, spec), spec)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (denormalize(z + e, spec)[j] - denormalize(z - e, spec)[j]) / (2 * h)
            assert abs(diag[j] - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_jacobian_diag_equals_its_power_form_bit_for_bit():
    # the diagonal is computed from the de-normalized values; 10^u there is the same power
    rng = np.random.default_rng(7)
    y = rng.lognormal(0.0, 6.0, size=(400, 5)) * np.array([1.0, 1e16, 1e-3, 1e22, 300.0])
    y[:, 0] = rng.normal(size=400)  # signed: stays linear
    spec = fit_transform(y, ("a", "b", "c", "d", "e"), skew_threshold=0.5)
    assert spec.log_flags.any() and not spec.log_flags.all()
    z = rng.uniform(-1.3, 1.3, size=(400, 5))
    half, flags = (spec.maxs - spec.mins) / 2.0, spec.log_flags
    expected = np.broadcast_to(half, z.shape).copy()
    u = (z[:, flags] + 1.0) * half[flags] + spec.mins[flags]
    expected[:, flags] = half[flags] * np.log(10.0) * np.power(10.0, u)
    assert jacobian_diag_from_physical(denormalize(z, spec), spec).tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", [spec_linear(), spec_mixed()], ids=["unflagged", "flagged"])
def test_jacobian_diag_from_physical_is_the_where_formula_in_a_fresh_array(spec):
    phys = denormalize(np.random.default_rng(3).uniform(-1.2, 1.2, size=(9, 2)), spec)
    half = (spec.maxs - spec.mins) / 2.0
    expected = np.where(spec.log_flags, half * LN10 * phys, half)
    first, second = jacobian_diag_from_physical(phys, spec), jacobian_diag_from_physical(phys, spec)
    assert first.tobytes() == expected.tobytes() and first.shape == expected.shape
    assert first.flags.writeable and not np.shares_memory(first, second)
    first[:] = 0.0
    assert jacobian_diag_from_physical(phys, spec).tobytes() == expected.tobytes()


def test_curvature_diag_matches_finite_differences():
    # with a zero physical Hessian and a unit gradient the chain rule leaves exactly diag(T'')
    spec = spec_mixed()
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, size=2)
        y = denormalize(z, spec)[None, :]
        curv = np.diagonal(_chain_rule(y, spec, np.zeros((1, 2, 2)), np.ones((1, 2)))[0])
        assert curv[0] == 0.0
        e = np.array([0.0, h])
        fd = (
            jacobian_diag_from_physical(denormalize(z + e, spec), spec)[1]
            - jacobian_diag_from_physical(denormalize(z - e, spec), spec)[1]
        ) / (2 * h)
        assert abs(curv[1] - fd) <= 1e-5 * abs(fd)


def test_fit_transform_symmetric_data_has_no_log_flags():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(500, 3))
    spec = fit_transform(data, ("a", "b", "c"), skew_threshold=2.0)
    assert not spec.log_flags.any()


def test_fit_transform_flags_lognormal_feature():
    rng = np.random.default_rng(5)
    col = np.exp(rng.normal(0.0, 1.0, size=2000))  # theoretical skewness ~ 6.18
    assert sample_skewness(col) > 2.0
    data = np.stack([rng.normal(size=2000), col], axis=-1)
    spec = fit_transform(data, ("sym", "skewed"), skew_threshold=2.0)
    assert list(spec.log_flags) == [False, True]


def test_fit_transform_infinite_thresholds_flag_every_positive_column_or_none():
    rng = np.random.default_rng(7)
    # symmetric and left-skewed positive columns, a lognormal one, and one that touches 0 and one below it
    positive = np.stack([rng.uniform(1.0, 2.0, 500), 100.0 - np.exp(rng.normal(size=500)), np.exp(rng.normal(size=500))], axis=-1)
    data = np.concatenate([positive, rng.uniform(0.0, 1.0, (500, 1)), rng.normal(size=(500, 1))], axis=-1)
    data[0, 3] = 0.0
    names = ("a", "b", "c", "d", "e")
    assert list(fit_transform(data, names, skew_threshold=-np.inf).log_flags) == [True, True, True, False, False]
    assert list(fit_transform(data, names, skew_threshold=-1e9).log_flags) == [True, True, True, False, False]
    for threshold in (np.inf, np.nan):
        assert not fit_transform(data, names, skew_threshold=threshold).log_flags.any()


def test_fit_transform_constant_feature_raises():
    data = np.stack([np.ones(10), np.arange(10.0)], axis=-1)
    with pytest.raises(DegenerateFeatureError):
        fit_transform(data, ("const", "ok"), skew_threshold=2.0)


def test_fit_transform_bounds_cover_training_data_only():
    data = np.array([[0.0], [2.0], [10.0]])
    spec = fit_transform(data, ("x",), skew_threshold=np.inf)
    assert spec.mins[0] == 0.0 and spec.maxs[0] == 10.0
    # values outside the fitted range extrapolate linearly
    assert normalize(np.array([20.0]), spec)[0] > 1.0


def test_spec_json_round_trip():
    spec = spec_mixed()
    clone = TransformSpec.from_json(spec.to_json())
    assert clone.names == spec.names
    assert np.array_equal(clone.mins, spec.mins)
    assert np.array_equal(clone.maxs, spec.maxs)
    assert np.array_equal(clone.log_flags, spec.log_flags)
    assert np.array_equal(clone.width, spec.maxs - spec.mins)
    assert "width" not in spec.to_json()  # derived, so model files do not change


def test_degenerate_spec_rejected():
    with pytest.raises(DegenerateFeatureError):
        TransformSpec(names=("x",), mins=np.array([1.0]), maxs=np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["mins", "maxs"])
def test_spec_with_a_non_finite_bound_rejected(field, bad):
    # a NaN bound passes max <= min; a saved transform (a model file's
    # transform and input_transform lines) is JSON, which takes NaN and Infinity
    obj = json.loads(TransformSpec(names=("x", "y"), mins=np.array([0.0, 1.0]), maxs=np.array([1.0, 2.0])).to_json())
    obj[field][1] = bad
    with pytest.raises(ValidationError, match=r"non-finite min or max for feature\(s\) \['y'\]"):
        TransformSpec.from_json(json.dumps(obj))
