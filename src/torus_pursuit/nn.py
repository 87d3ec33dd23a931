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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

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


def parameter_count(params: MlpParams) -> int:
    return params.flat.size


def _apply(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "tanh":
        return np.tanh(z)
    return z


def _derivative(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return (z > 0.0).astype(np.float64)
    if tag == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones_like(z)


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Affine + nonlinearity composition; the cache feeds backward()."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input width {x.shape[-1]} != first layer fan-in {params.weights[0].shape[1]}"
        )
    last = len(params.weights) - 1
    cache = []
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        cache.append((h, z))
        tag = params.output_activation if i == last else params.hidden_activation
        h = _apply(tag, z)
    return h, cache


def backward(
    params: MlpParams, cache: list, output_gradient: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode derivatives of output . output_gradient.

    Returns the parameter gradient, laid out like ``params.flat`` (summed over
    batch rows when the forward ran on a batch), and the gradient with
    respect to the input.
    """
    gy = np.asarray(output_gradient, dtype=np.float64)
    last = len(params.weights) - 1
    if gy.shape[-1] != params.weights[last].shape[0]:
        raise ValueError(
            f"output gradient width {gy.shape[-1]} != output size {params.weights[last].shape[0]}"
        )
    grads = np.empty_like(params.flat)
    g_weights, g_biases = params.layers(grads)
    grad = gy
    for i in range(last, -1, -1):
        h_in, z = cache[i]
        tag = params.output_activation if i == last else params.hidden_activation
        dz = grad * _derivative(tag, z)
        if dz.ndim == 1:
            g_weights[i][...] = np.outer(dz, h_in)
            g_biases[i][...] = dz
        else:
            g_weights[i][...] = dz.T @ h_in
            g_biases[i][...] = dz.sum(axis=0)
        grad = dz @ params.weights[i]
    return grads, grad


def global_norm(params: MlpParams, grads: np.ndarray) -> float:
    """L2 norm of a gradient laid out like ``params.flat``.

    Summed per layer, weights then biases: one sum over the vector rounds
    differently and would change every trained bit.
    """
    weights, biases = params.layers(grads)
    total = sum(float(np.sum(w**2)) for w in weights)
    total += sum(float(np.sum(b**2)) for b in biases)
    return math.sqrt(total)


def clip_global_norm(params: MlpParams, grads: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale all entries so the global L2 norm is at most max_norm."""
    if not max_norm > 0.0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_norm(params, grads)
    if norm <= max_norm:
        return grads.copy()
    return grads * (max_norm / norm)


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
) -> tuple[MlpParams, AdamState]:
    """Bias-corrected adaptive-moment descent step (returns new values)."""
    if grads.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.flat.shape}")
    t = state.step + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads**2
    flat = params.flat - learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)
    return replace(params, flat=flat), AdamState(m, v, t)


def polyak_update(target: MlpParams, online: MlpParams, tau: float) -> MlpParams:
    """target' = (1 - tau) * target + tau * online, elementwise."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("target and online networks are not shape-congruent")
    return replace(target, flat=(1.0 - tau) * target.flat + tau * online.flat)
