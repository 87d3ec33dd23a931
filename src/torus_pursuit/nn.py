"""Dense network machinery for the learners: MLPs, reverse-mode gradients,
adaptive-moment updates, global-norm clipping, and Polyak target averaging.

Everything is float64 numpy; forward/backward accept a single input vector or
a batch of row vectors. Parameter gradients are summed over batch rows, so a
mean objective is expressed by scaling the output gradient by 1/B.

A network's parameters are one contiguous vector, ``MlpParams.flat``: every
weight matrix [out, in] row-major in layer order, then every bias vector in
layer order. ``weights`` and ``biases`` are views into it. A parameter
gradient and both Adam moments are plain vectors with the same layout, so
each optimizer update is a few whole-vector expressions;
``MlpParams.layers`` gives the per-layer views of any such vector.

The update path allocates nothing large. A ``Workspace`` holds the buffers
for one layer layout at one row count: one activation and one input-gradient
buffer per layer, and, made on first use, the parameter gradient and two
temporaries for clipping, Adam and Polyak. ``forward`` writes each layer's
``h @ W.T + b`` into its activation buffer and activates it in place;
``backward`` overwrites each activation with its ``dz`` (the derivative is
taken from the activated value) and writes the weight gradients into views
of the workspace's gradient vector. ``clip_global_norm``, ``adam_step`` and
``polyak_update`` update their vectors in place and return the same objects.
Every result that lives in a workspace is valid until that workspace's next
call; without a workspace each call builds a private one. The in-place
arithmetic keeps each operation and its operand order, so the bits equal
those of the fresh-array expressions in the docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

_ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(eq=False)
class MlpParams:
    """One flat parameter vector plus its layer sizes and activation tags.

    ``weights[i]`` [out, in] and ``biases[i]`` [out] are views into ``flat``.
    """

    flat: np.ndarray
    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"
    output_activation: str = "identity"
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights, self.biases = self.layers(self.flat)

    @classmethod
    def from_layers(
        cls,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        hidden_activation: str = "relu",
        output_activation: str = "identity",
    ) -> "MlpParams":
        """Packs (copies) per-layer arrays into one flat vector."""
        sizes = (weights[0].shape[1], *(w.shape[0] for w in weights))
        flat = np.concatenate([np.ravel(a) for a in [*weights, *biases]], dtype=np.float64)
        return cls(flat, sizes, hidden_activation, output_activation)

    def layers(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views of any vector laid out like ``flat``."""
        sizes = self.layer_sizes
        shapes = [(o, i) for i, o in zip(sizes, sizes[1:])] + [(o,) for o in sizes[1:]]
        bounds = [0, *accumulate(math.prod(s) for s in shapes)]
        if vec.shape != (bounds[-1],):
            raise ValueError(f"vector shape {vec.shape} != parameter shape {(bounds[-1],)}")
        views = [vec[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]
        return views[: len(sizes) - 1], views[len(sizes) - 1 :]

    def copy(self) -> "MlpParams":
        return replace(self, flat=self.flat.copy())


@dataclass
class AdamState:
    """First/second moment vectors, laid out like the parameters, and the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def mlp_init(
    layer_sizes: list[int],
    rng: np.random.Generator,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
) -> MlpParams:
    """Weights uniform on +-1/sqrt(fan_in), biases zero."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"need >= 2 positive layer sizes, got {layer_sizes}")
    if hidden_activation not in _ACTIVATIONS or output_activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation in ({hidden_activation}, {output_activation})")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams.from_layers(weights, biases, hidden_activation, output_activation)


class Workspace:
    """Reusable buffers for one layer layout at one row count.

    ``rows`` is the batch row count, or None for a single input vector. The
    parameter-sized vectors (gradient, two temporaries) are made on first
    use, so a workspace that only runs ``forward`` never holds them, and a
    workspace built with ``shared`` uses the vectors of that one (same
    layout, any row count).
    """

    def __init__(
        self, layer_sizes: Sequence[int], rows: int | None = None,
        shared: Workspace | None = None,
    ):
        self.layer_sizes = tuple(layer_sizes)
        self.rows = rows
        lead = () if rows is None else (rows,)
        self.activations = [np.empty((*lead, n)) for n in self.layer_sizes[1:]]
        self.input_gradients = [np.empty((*lead, n)) for n in self.layer_sizes[:-1]]
        self.inputs: np.ndarray | None = None
        if shared is not None and shared.layer_sizes != self.layer_sizes:
            raise ValueError(f"cannot share vectors of layout {shared.layer_sizes}")
        self._vectors: list[np.ndarray] = [] if shared is None else shared._vectors

    def _parameter_vectors(self) -> list[np.ndarray]:
        """[gradient, temporary, temporary], each laid out like ``flat``."""
        if not self._vectors:
            sizes = self.layer_sizes
            count = sum(o * i + o for i, o in zip(sizes, sizes[1:]))
            self._vectors.extend(np.empty(count) for _ in range(3))
        return self._vectors


def _workspace(params: MlpParams, ws: Workspace | None, rows: int | None = None) -> Workspace:
    if ws is None:
        return Workspace(params.layer_sizes, rows)
    if ws.layer_sizes != params.layer_sizes:
        raise ValueError(f"workspace layout {ws.layer_sizes} != network {params.layer_sizes}")
    return ws


def _check_vector(params: MlpParams, vec: np.ndarray) -> None:
    if vec.shape != params.flat.shape:
        raise ValueError(f"vector shape {vec.shape} != parameter shape {params.flat.shape}")


def parameter_count(params: MlpParams) -> int:
    return params.flat.size


def _activate(tag: str, z: np.ndarray) -> None:
    if tag == "relu":
        np.maximum(z, 0.0, out=z)
    elif tag == "tanh":
        np.tanh(z, out=z)


def _dz(tag: str, h: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """grad * f'(z), computed from the activated value h = f(z) into h.

    ReLU: h > 0 exactly when z > 0 (NaN and -0.0 included). tanh: 1 - h**2
    is 1 - tanh(z)**2. The identity's dz is grad itself.
    """
    if tag == "relu":
        np.greater(h, 0.0, out=h)
    elif tag == "tanh":
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
    else:
        return grad
    h *= grad
    return h


def forward(
    params: MlpParams, x: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, Workspace]:
    """Affine + nonlinearity composition: z = h @ W.T + b, then f(z).

    Returns the output and the cache for backward(), which is the workspace.
    Both live in the workspace's buffers.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input width {x.shape[-1]} != first layer fan-in {params.weights[0].shape[1]}"
        )
    ws = _workspace(params, ws, x.shape[0] if x.ndim > 1 else None)
    if ws.activations[0].shape[:-1] != x.shape[:-1]:
        raise ValueError(f"input shape {x.shape} does not fit a workspace of {ws.rows} rows")
    last = len(params.weights) - 1
    ws.inputs = x
    h = x
    for i, (w, b, z) in enumerate(zip(params.weights, params.biases, ws.activations)):
        np.matmul(h, w.T, out=z)
        z += b
        _activate(params.output_activation if i == last else params.hidden_activation, z)
        h = z
    return h, ws


def backward(
    params: MlpParams, cache: Workspace, output_gradient: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode derivatives of output . output_gradient.

    Returns the parameter gradient, laid out like ``params.flat`` (summed over
    batch rows when the forward ran on a batch), and the gradient with
    respect to the input; both are the cache workspace's buffers. The
    activations are overwritten, except an identity output's.
    """
    ws = cache
    gy = np.asarray(output_gradient, dtype=np.float64)
    last = len(params.weights) - 1
    if gy.shape != ws.activations[last].shape:
        raise ValueError(
            f"output gradient shape {gy.shape} != output shape {ws.activations[last].shape}"
        )
    grads = ws._parameter_vectors()[0]
    g_weights, g_biases = params.layers(grads)
    grad = gy
    for i in range(last, -1, -1):
        tag = params.output_activation if i == last else params.hidden_activation
        dz = _dz(tag, ws.activations[i], grad)
        h_in = ws.inputs if i == 0 else ws.activations[i - 1]
        if dz.ndim == 1:
            np.multiply(dz[:, None], h_in[None, :], out=g_weights[i])
            g_biases[i][...] = dz
        else:
            np.matmul(dz.T, h_in, out=g_weights[i])
            np.sum(dz, axis=0, out=g_biases[i])
        grad = np.matmul(dz, params.weights[i], out=ws.input_gradients[i])
    return grads, grad


def global_norm(params: MlpParams, grads: np.ndarray, ws: Workspace | None = None) -> float:
    """L2 norm of a gradient laid out like ``params.flat``.

    Summed per layer, weights then biases: one sum over the vector rounds
    differently and would change every trained bit.
    """
    _check_vector(params, grads)
    squares = _workspace(params, ws)._parameter_vectors()[1]
    np.multiply(grads, grads, out=squares)
    weights, biases = params.layers(squares)
    total = sum(float(np.sum(w)) for w in weights)
    total += sum(float(np.sum(b)) for b in biases)
    return math.sqrt(total)


def clip_global_norm(
    params: MlpParams, grads: np.ndarray, max_norm: float, ws: Workspace | None = None
) -> np.ndarray:
    """Scale grads in place so the global L2 norm is at most max_norm; returns grads."""
    if not max_norm > 0.0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_norm(params, grads, ws)
    if norm > max_norm:
        grads *= max_norm / norm
    return grads


def adam_init(params: MlpParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), step=0)


def adam_step(
    params: MlpParams,
    grads: np.ndarray,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    ws: Workspace | None = None,
) -> tuple[MlpParams, AdamState]:
    """Bias-corrected adaptive-moment descent step, in place.

    m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g**2, then
    flat -= lr * (m / c1) / (sqrt(v / c2) + eps). Returns (params, state).
    """
    _check_vector(params, grads)
    _, scaled, root = _workspace(params, ws)._parameter_vectors()
    t = state.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m, v = state.m, state.v
    m *= beta1
    np.multiply(grads, 1.0 - beta1, out=scaled)
    m += scaled
    np.multiply(grads, grads, out=scaled)
    scaled *= 1.0 - beta2
    v *= beta2
    v += scaled
    np.divide(m, c1, out=scaled)
    scaled *= learning_rate
    np.divide(v, c2, out=root)
    np.sqrt(root, out=root)
    root += eps
    scaled /= root
    params.flat -= scaled
    state.step = t
    return params, state


def polyak_update(
    target: MlpParams, online: MlpParams, tau: float, ws: Workspace | None = None
) -> MlpParams:
    """target = (1 - tau) * target + tau * online, elementwise and in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("target and online networks are not shape-congruent")
    scaled = _workspace(target, ws)._parameter_vectors()[1]
    np.multiply(online.flat, tau, out=scaled)
    target.flat *= 1.0 - tau
    target.flat += scaled
    return target
