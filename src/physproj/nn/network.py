"""Dense feed-forward networks with hand-rolled backpropagation.

Everything is float64 numpy. A Network keeps all of its parameters in one
contiguous vector ``theta``; its weight matrices and bias vectors are views
into it, so an optimizer can update every parameter with a few vector
operations. forward/backward are free functions so training code can stay
explicit about what is cached and when parameters change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from physproj.errors import ValidationError

MAGIC_HEADER = "PHYSPROJ-NET-v1"


@dataclass(frozen=True)
class Activation:
    """Hidden-layer nonlinearity: 'leaky_relu' with a slope in (0, 1], or 'identity'."""

    kind: str = "leaky_relu"
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ("leaky_relu", "identity"):
            raise ValidationError(f"unknown activation '{self.kind}'")
        # apply() relies on it: outside (0, 1], max(z, slope * z) is not the leaky ReLU
        if self.kind == "leaky_relu" and not 0.0 < self.slope <= 1.0:
            raise ValidationError(f"leaky_relu slope must lie in (0, 1], got {self.slope}")

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return z
        return np.maximum(z, self.slope * z)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.ones_like(z)
        return np.where(z > 0.0, 1.0, self.slope)


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
    activation: Activation = field(default_factory=Activation)
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        params = [np.asarray(p, dtype=np.float64) for pair in zip(self.weights, self.biases) for p in pair]
        self.theta = np.concatenate([p.ravel() for p in params])
        views, start = [], 0
        for p in params:
            views.append(self.theta[start : start + p.size].reshape(p.shape))
            start += p.size
        self.weights, self.biases = views[0::2], views[1::2]

    def __reduce__(self):
        return Network, (self.layer_dims, self.weights, self.biases, self.activation)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def parameters(self) -> list[np.ndarray]:
        """Views [W0, b0, W1, b1, ...] of ``theta``, in its order."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

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


def xavier_init(layer_dims, activation: Activation | None = None, seed: int = 0) -> Network:
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
    return Network(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        activation=activation if activation is not None else Activation(),
    )


@dataclass
class ForwardCache:
    """Pre-activations and post-activations kept for the backward pass."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    hidden: list[np.ndarray]
    output: np.ndarray


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Evaluate the network; hidden layers get the activation, output is affine."""
    return forward_cached(net, x).output


def forward_cached(net: Network, x: np.ndarray) -> ForwardCache:
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if a.shape[1] != net.input_dim:
        raise ValidationError(f"input width {a.shape[1]} != expected {net.input_dim}")
    squeeze = np.asarray(x).ndim == 1
    pre = []
    hidden = [a]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = net.activation.apply(z) if i < net.n_layers - 1 else z
        if i < net.n_layers - 1:
            hidden.append(a)
    out = a[0] if squeeze else a
    return ForwardCache(inputs=hidden[0], pre_activations=pre, hidden=hidden, output=out)


def backward(net: Network, cache: ForwardCache, output_grad: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every parameter, [dW0, db0, dW1, ...].

    ``output_grad`` is dLoss/dOutput for the same batch the cache was built
    from; shapes are checked so a stale cache fails loudly.
    """
    g = np.atleast_2d(np.asarray(output_grad, dtype=np.float64))
    if (
        len(cache.pre_activations) != net.n_layers
        or cache.inputs.shape[1] != net.input_dim
        or any(z.shape[1] != d for z, d in zip(cache.pre_activations, net.layer_dims[1:]))
    ):
        raise ValidationError("forward cache does not match this network")
    if g.shape != np.atleast_2d(cache.output).shape:
        raise ValidationError("output_grad shape does not match the cached forward pass")
    grads: list[np.ndarray] = [None] * (2 * net.n_layers)  # type: ignore[list-item]
    delta = g
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            delta = delta * net.activation.derivative(cache.pre_activations[i])
        grads[2 * i] = delta.T @ cache.hidden[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i]
    return grads


def save_network(path, net: Network, transform=None) -> None:
    """Write a network (and optionally its TransformSpec) as versioned text.

    Format: magic header, layer dims, activation, a transform line holding
    either 'none' or the spec's JSON, then row-major weights and biases with
    full round-trip precision.
    """
    lines = [MAGIC_HEADER]
    lines.append("layer_dims " + ",".join(str(d) for d in net.layer_dims))
    lines.append(f"activation {net.activation.kind} {net.activation.slope!r}")
    lines.append("transform " + (transform.to_json() if transform is not None else "none"))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"W{i} " + " ".join(repr(float(v)) for v in w.ravel()))
        lines.append(f"b{i} " + " ".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path):
    """Inverse of :func:`save_network`; returns (Network, TransformSpec or None).

    A missing, unreadable, truncated or unparsable file raises ValidationError.
    """
    from physproj.constraints.transform import TransformSpec

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    if not lines or lines[0] != MAGIC_HEADER:
        raise ValidationError(f"{path} is not a {MAGIC_HEADER} file")
    try:
        dims = _check_layer_dims(lines[1].split(" ", 1)[1].split(","))
        _, kind, slope = lines[2].split(" ")
        transform_payload = lines[3].split(" ", 1)[1]
        transform = None if transform_payload == "none" else TransformSpec.from_json(transform_payload)
        weights = []
        biases = []
        row = 4
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            wvals = np.array([float(v) for v in lines[row].split(" ")[1:]])
            bvals = np.array([float(v) for v in lines[row + 1].split(" ")[1:]])
            if wvals.size != fan_in * fan_out or bvals.size != fan_out:
                raise ValidationError(f"layer size mismatch at line {row} of {path}")
            weights.append(wvals.reshape(fan_out, fan_in))
            biases.append(bvals)
            row += 2
        activation = Activation(kind=kind, slope=float(slope))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc
    net = Network(layer_dims=dims, weights=weights, biases=biases, activation=activation)
    return net, transform
