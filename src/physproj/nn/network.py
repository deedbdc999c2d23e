"""Dense feed-forward networks with hand-rolled backpropagation.

Everything is float64 numpy. A Network keeps all of its parameters in one
contiguous vector ``theta``; its weight matrices and bias vectors are views
into it, so an optimizer can update every parameter with a few vector
operations. forward/backward are free functions so training code can stay
explicit about what is cached and when parameters change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, count

import numpy as np

from physproj.constraints.transform import TransformSpec
from physproj.errors import ValidationError

MAGIC_HEADER = "PHYSPROJ-NET-v2"
LEAKY_SLOPE = 0.01  # every hidden layer's leaky ReLU slope
_ACTIVATION = f"leaky_relu {LEAKY_SLOPE!r}"


def _leaky_relu_backprop(delta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``delta`` times the leaky ReLU's derivative at ``z``; max(z > 0, slope) is 1 or the slope, without a branch."""
    factor = (z > 0.0).astype(np.float64)  # a float mask, which np.maximum takes without a casting loop
    np.maximum(factor, LEAKY_SLOPE, out=factor)
    factor *= delta
    return factor


@dataclass
class Network:
    """Layer dimensions plus per-layer weights W (out x in) and biases b.

    The given weights and biases are copied into ``theta``, laid out as
    [W0 row-major, b0, W1, b1, ...]; ``weights`` and ``biases`` become views
    of it. A network pickles as its constructor arguments, so an unpickled
    one is laid out the same way.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        params = [np.asarray(p, dtype=np.float64) for pair in zip(self.weights, self.biases) for p in pair]
        self.weights, self.biases = params[0::2], params[1::2]  # views() reads their shapes
        self.theta = np.concatenate([p.ravel() for p in params])
        views = self.views(self.theta)
        self.weights, self.biases = views[0::2], views[1::2]

    def __reduce__(self):
        return Network, (self.layer_dims, self.weights, self.biases)

    def parameters(self) -> list[np.ndarray]:
        """Views [W0, b0, W1, b1, ...] of ``theta``, in its order."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``theta``, shaped like parameters()."""
        params = self.parameters()
        ends = accumulate(p.size for p in params)
        return [flat[end - p.size : end].reshape(p.shape) for p, end in zip(params, ends)]

    def with_parameters(self, params: list[np.ndarray]) -> "Network":
        """A network with its own copy of ``params``, laid out as parameters()."""
        return replace(self, weights=params[0::2], biases=params[1::2])

    def copy(self) -> "Network":
        return self.with_parameters(self.parameters())


def _check_layer_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValidationError(f"invalid architecture {layer_dims}: need >= 2 positive layer sizes")
    return dims


def xavier_init(layer_dims, seed: int = 0) -> Network:
    """Glorot-uniform weights, bound sqrt(6/(fan_in+fan_out)); zero biases.

    Deterministic for a given (layer_dims, seed) pair.
    """
    dims = _check_layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(layer_dims=dims, weights=weights, biases=biases)


@dataclass
class ForwardCache:
    """Pre-activations and post-activations (the inputs first) kept for the backward pass,
    and the layer dimensions of the network that made them."""

    layer_dims: tuple[int, ...]
    pre_activations: list[np.ndarray]
    hidden: list[np.ndarray]
    output: np.ndarray


def _layer_arrays(net: Network, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(pre-activation, hidden activation) arrays for ``_forward_into`` on ``n`` rows, to be reused."""
    dims = net.layer_dims
    return [np.empty((n, d)) for d in dims[1:]], [np.empty((n, d)) for d in dims[1:-1]]


def _forward_into(net: Network, a: np.ndarray, pre: list, hidden: list) -> np.ndarray:
    """The layer loop on the 2-D inputs ``a``; returns the output, ``pre[-1]``.

    Layer i's pre-activation is written into ``pre[i]`` and each hidden leaky
    ReLU into ``hidden[i]``: arrays shaped as ``_layer_arrays`` makes them, or
    None for fresh ones, which the lists then hold. Reused or fresh, the bits
    are those of z = a @ W.T + b and max(z, slope * z).
    """
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = pre[i] = np.matmul(a, w.T, out=pre[i])
        z += b
        if i < last:
            a = hidden[i] = np.multiply(z, LEAKY_SLOPE, out=hidden[i])
            np.maximum(z, a, out=a)
    return z


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; hidden layers get the leaky ReLU, output is affine."""
    return forward_cached(net, x).output


def forward_cached(net: Network, x: np.ndarray) -> ForwardCache:
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if a.shape[1] != net.layer_dims[0]:
        raise ValidationError(f"input width {a.shape[1]} != expected {net.layer_dims[0]}")
    pre, hidden = [None] * len(net.weights), [None] * (len(net.weights) - 1)  # fresh arrays
    z = _forward_into(net, a, pre, hidden)
    out = z[0] if np.ndim(x) == 1 else z
    return ForwardCache(net.layer_dims, pre, [a, *hidden], out)


def backward(
    net: Network, cache: ForwardCache, output_grad: np.ndarray, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter, [dW0, db0, dW1, ...].

    ``output_grad`` is dLoss/dOutput for the same batch the cache was built
    from; the cache's layer dimensions and the gradient's shape are checked,
    so a stale cache fails loudly. The gradients
    are written into ``out``, which must be ``net.views`` of a vector laid
    out like ``theta``, and ``out`` is returned; without it they go into
    the views of one new such vector, ``grads[0].base``.
    """
    if cache.layer_dims != net.layer_dims:
        raise ValidationError("forward cache does not match this network")
    g = np.atleast_2d(np.asarray(output_grad, dtype=np.float64))
    if g.shape != cache.pre_activations[-1].shape:  # the output, kept 2-D
        raise ValidationError("output_grad shape does not match the cached forward pass")
    n_layers = len(net.weights)
    grads = net.views(np.empty_like(net.theta)) if out is None else out
    delta = g
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            delta = _leaky_relu_backprop(delta, cache.pre_activations[i])
        np.matmul(delta.T, cache.hidden[i], out=grads[2 * i])
        np.add.reduce(delta, axis=0, out=grads[2 * i + 1])
        if i > 0:
            delta = delta @ net.weights[i]
    return grads


def _line_keys(n_layers: int) -> list[str]:
    """The key of each line after the header, in file order, for a network of ``n_layers`` weight layers."""
    return ["layer_dims", "activation", "transform", "input_transform", *(f"{p}{i}" for i in range(n_layers) for p in "Wb")]


def save_network(path, net: Network, transform: TransformSpec, input_transform: TransformSpec) -> None:
    """Write a network and the TransformSpecs of its outputs and inputs as versioned text: the magic
    header, then a 'key value' line per ``_line_keys`` key: layer dims, the activation 'leaky_relu 0.01',
    the two specs' JSON, and row-major weights and biases with full round-trip precision."""
    values = [",".join(str(d) for d in net.layer_dims), _ACTIVATION, transform.to_json(), input_transform.to_json()]
    values += [" ".join(repr(float(v)) for v in p.ravel()) for p in net.parameters()]
    lines = [MAGIC_HEADER, *(f"{key} {value}" for key, value in zip(_line_keys(len(net.weights)), values))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path):
    """Inverse of :func:`save_network`; returns (Network, output TransformSpec, input TransformSpec).

    A missing or unreadable file, or another header (a PHYSPROJ-NET-v1 file's too), raises ValidationError,
    as does a later line that is missing, has another key or holds a value that does not parse, is not
    finite or does not fit the layer dims; that message names the file, the line and its key."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    if not lines or lines[0] != MAGIC_HEADER:
        raise ValidationError(f"{path} is not a {MAGIC_HEADER} file")

    def parse(at, key, read):  # ``read`` of the value on line ``at`` (1-based), which must start with ``key``
        try:
            if at > len(lines):
                raise ValidationError(f"the file ends at line {len(lines)}")
            found, _, text = lines[at - 1].partition(" ")
            if found != key:
                raise ValidationError(f"the line starts '{found}'")
            return read(text)
        except (ValidationError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            reason = exc if isinstance(exc, ValidationError) else f"{type(exc).__name__}: {exc}"
            raise ValidationError(f"malformed model file {path}: line {at} ({key}): {reason}") from exc

    def read_activation(text):
        if text != _ACTIVATION:
            raise ValidationError(f"'{text}' is not '{_ACTIVATION}'")

    def read_spec(text, width):
        spec = TransformSpec.from_json(text)
        if spec.dim != width:
            raise ValidationError(f"{spec.dim} features for a layer of width {width}")
        return spec

    def read_values(text, shape):
        return np.asarray_chkfinite([float(v) for v in text.split(" ")]).reshape(shape)

    dims = parse(2, "layer_dims", lambda text: _check_layer_dims(text.split(",")))
    readers = [read_activation, partial(read_spec, width=dims[-1]), partial(read_spec, width=dims[0])]
    readers += [partial(read_values, shape=s) for fan_in, fan_out in zip(dims, dims[1:]) for s in ((fan_out, fan_in), (fan_out,))]
    _, spec, in_spec, *params = [parse(at, key, read) for at, key, read in zip(count(3), _line_keys(len(dims) - 1)[1:], readers)]
    return Network(layer_dims=dims, weights=params[0::2], biases=params[1::2]), spec, in_spec
