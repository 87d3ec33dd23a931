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

The agent axis. ``flat`` may also be an (n, P) stack: row i is agent i's
network, ``weights[k]`` is (n, out, in) and ``biases[k]`` is (n, out). A
stack runs on (n, rows, in) inputs as one matmul chain per layer, and every
gradient, norm, Adam moment and Polyak average is taken per row, so no
agent's numbers enter another's. Each agent's result equals what its own
network computes alone, bit for bit: numpy runs a stacked matmul as one BLAS
call per agent with that agent's 2-D operands, and every reduction here
(bias sums, per-layer sums of squares) runs along an axis whose per-agent
slice is laid out as in the lone network.

The update path allocates nothing large. A ``Workspace`` holds the buffers
for one layer layout at one row count: one arena with every layer's
activation, the parameter gradient, and one input-gradient buffer that every
layer of a backward pass reuses. ``forward`` writes each layer's
``h @ W.T + b`` into its activation and activates it in place; ``backward``
overwrites each activation with its ``dz`` (the derivative is taken from the
activated value) and writes the weight gradients into views of the gradient.
Once a backward pass is done the activations are dead, so the two
parameter-sized temporaries of ``clip_global_norm``, ``adam_step`` and
``polyak_update`` are views into the same arena. Those three update their
vectors in place and return the same objects. Every result that lives in a
workspace is valid until that workspace's next call; without a workspace
each call builds a private one. The in-place arithmetic keeps each operation
and its operand order, so the bits equal those of the fresh-array
expressions in the docstrings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

_ACTIVATIONS = ("relu", "tanh", "identity")


@functools.lru_cache(maxsize=32)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(per-layer weight shapes then bias shapes, their start offsets and the end) of ``flat``."""
    shapes = tuple((o, i) for i, o in zip(sizes, sizes[1:])) + tuple((o,) for o in sizes[1:])
    return shapes, (0, *accumulate(math.prod(s) for s in shapes))


def _layer_views(
    sizes: tuple[int, ...], vec: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    shapes, bounds = _layout(sizes)
    if vec.ndim not in (1, 2) or vec.shape[-1] != bounds[-1]:
        raise ValueError(f"vector shape {vec.shape} != parameter shape {(bounds[-1],)}")
    lead = vec.shape[:-1]
    views = [vec[..., a:b].reshape(*lead, *s) for a, b, s in zip(bounds, bounds[1:], shapes)]
    return views[: len(sizes) - 1], views[len(sizes) - 1 :]


@dataclass(eq=False)
class MlpParams:
    """One flat parameter vector, or an (n, P) stack of them, plus layer sizes and activations.

    ``weights[i]`` [out, in] and ``biases[i]`` [out] are views into ``flat``,
    with a leading agent axis for a stack.
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

    @property
    def agents(self) -> int | None:
        """The stack's agent count, or None for a lone network."""
        return self.flat.shape[0] if self.flat.ndim == 2 else None

    def layers(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views of any vector, or (n, P) stack, laid out like ``flat``."""
        return _layer_views(self.layer_sizes, vec)

    def row(self, i: int) -> "MlpParams":
        """Agent i's network of a stack, as views into the stack."""
        return replace(self, flat=self.flat[i])

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


class _Pool:
    """The gradient and input-gradient buffers that workspaces sharing it use in turn.

    Each buffer is flat and made on first use, at the largest size any
    sharing workspace reserved.
    """

    def __init__(self) -> None:
        self.sizes = {"gradient": 0, "input_gradient": 0}
        self.buffers: dict[str, np.ndarray] = {}

    def reserve(self, name: str, size: int) -> None:
        self.sizes[name] = max(self.sizes[name], size)

    def get(self, name: str) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.size < self.sizes[name]:
            buf = self.buffers[name] = np.empty(self.sizes[name])
        return buf


class Workspace:
    """Reusable buffers for one layer layout at one row count.

    ``rows`` is the batch row count, or None for a single input vector;
    ``agents`` is the agent count of a stacked network, or None for a lone
    one (a stack runs one vector per agent as rows=1). The gradient and the
    input-gradient buffer are made on first use, so a workspace that only
    runs ``forward`` never holds them. A workspace built with ``shared`` uses
    the gradient and input-gradient buffers of that one (any layout, row and
    agent count).
    """

    def __init__(
        self, layer_sizes: Sequence[int], rows: int | None = None,
        agents: int | None = None, shared: Workspace | None = None,
    ):
        self.layer_sizes = tuple(layer_sizes)
        self.rows = rows
        self.agents = agents
        self._lead = tuple(d for d in (agents, rows) if d is not None)
        count = _layout(self.layer_sizes)[1][-1]
        self._vector_shape = (count,) if agents is None else (agents, count)
        self._arena = np.empty(math.prod(self._lead) * sum(self.layer_sizes[1:]))
        self._view_activations()
        self.inputs: np.ndarray | None = None
        self._pool = _Pool() if shared is None else shared._pool
        self._pool.reserve("gradient", math.prod(self._vector_shape))
        self._pool.reserve(
            "input_gradient", math.prod(self._lead) * max(self.layer_sizes[:-1])
        )
        self._gradient: tuple | None = None
        self._input_gradients: tuple | None = None
        self._temporaries: tuple[np.ndarray, np.ndarray] | None = None

    def _view_activations(self) -> None:
        bounds = [0, *accumulate(self.layer_sizes[1:])]
        size = math.prod(self._lead)
        self.activations = [
            self._arena[a * size : b * size].reshape(*self._lead, b - a)
            for a, b in zip(bounds, bounds[1:])
        ]

    def gradient(self) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """The parameter gradient laid out like ``flat``, and its weight and bias views."""
        buf = self._pool.get("gradient")
        if self._gradient is None or self._gradient[0] is not buf:
            vec = buf[: math.prod(self._vector_shape)].reshape(self._vector_shape)
            self._gradient = (buf, vec, *_layer_views(self.layer_sizes, vec))
        return self._gradient[1:]

    def input_gradients(self) -> list[np.ndarray]:
        """Per layer, the gradient with respect to that layer's input: views of one buffer."""
        buf = self._pool.get("input_gradient")
        if self._input_gradients is None or self._input_gradients[0] is not buf:
            size = math.prod(self._lead)
            views = [buf[: size * n].reshape(*self._lead, n) for n in self.layer_sizes[:-1]]
            self._input_gradients = (buf, views)
        return self._input_gradients[1]

    def temporaries(self) -> tuple[np.ndarray, np.ndarray]:
        """Two parameter-sized vectors in the activation arena, which they overwrite."""
        if self._temporaries is None:
            size = math.prod(self._vector_shape)
            if self._arena.size < 2 * size:
                self._arena = np.empty(2 * size)
                self._view_activations()
            self._temporaries = (
                self._arena[:size].reshape(self._vector_shape),
                self._arena[size : 2 * size].reshape(self._vector_shape),
            )
        return self._temporaries


def _workspace(params: MlpParams, ws: Workspace | None, rows: int | None = None) -> Workspace:
    if ws is None:
        return Workspace(params.layer_sizes, rows, params.agents)
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
    is 1 - tanh(z)**2. The identity's dz is grad itself, copied into h so
    that it never shares the input-gradient buffer.
    """
    if tag == "relu":
        np.greater(h, 0.0, out=h)
    elif tag == "tanh":
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
    else:
        np.copyto(h, grad)
        return h
    h *= grad
    return h


def forward(
    params: MlpParams, x: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, Workspace]:
    """Affine + nonlinearity composition: z = h @ W.T + b, then f(z).

    A stack of n networks takes (n, rows, in) inputs. Returns the output and
    the cache for backward(), which is the workspace. Both live in the
    workspace's buffers.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[-1]} != first layer fan-in {params.layer_sizes[0]}"
        )
    stacked = params.flat.ndim == 2
    if stacked and (x.ndim != 3 or x.shape[0] != params.flat.shape[0]):
        raise ValueError(f"input shape {x.shape} is not (agents, rows, in) for a stack of "
                         f"{params.flat.shape[0]} networks")
    ws = _workspace(params, ws, x.shape[-2] if x.ndim > 1 else None)
    if ws.activations[0].shape[:-1] != x.shape[:-1]:
        raise ValueError(f"input shape {x.shape} does not fit a workspace of "
                         f"{ws.agents} agents and {ws.rows} rows")
    last = len(params.weights) - 1
    ws.inputs = x
    h = x
    for i, (w, b, z) in enumerate(zip(params.weights, params.biases, ws.activations)):
        np.matmul(h, w.swapaxes(-1, -2), out=z)
        z += b[:, None, :] if stacked else b
        _activate(params.output_activation if i == last else params.hidden_activation, z)
        h = z
    return h, ws


def backward(
    params: MlpParams,
    cache: Workspace,
    output_gradient: np.ndarray,
    *,
    parameter_gradient: bool = True,
    input_gradient: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Exact reverse-mode derivatives of output . output_gradient.

    Returns the parameter gradient, laid out like ``params.flat`` (summed over
    batch rows when the forward ran on a batch), and the gradient with
    respect to the input; both are the cache workspace's buffers. A caller
    that reads only one of them turns the other off and gets None in its
    place: without the parameter gradient no weight matmul or bias sum runs,
    and without the input gradient layer 0's input matmul is skipped. The
    activations are overwritten.
    """
    ws = cache
    gy = np.asarray(output_gradient, dtype=np.float64)
    last = len(params.weights) - 1
    if gy.shape != ws.activations[last].shape:
        raise ValueError(
            f"output gradient shape {gy.shape} != output shape {ws.activations[last].shape}"
        )
    grads = None
    if parameter_gradient:
        grads, g_weights, g_biases = ws.gradient()
    input_gradients = ws.input_gradients()
    grad = gy
    for i in range(last, -1, -1):
        tag = params.output_activation if i == last else params.hidden_activation
        dz = _dz(tag, ws.activations[i], grad)
        if grads is not None:
            h_in = ws.inputs if i == 0 else ws.activations[i - 1]
            if dz.ndim == 1:
                np.multiply(dz[:, None], h_in[None, :], out=g_weights[i])
                g_biases[i][...] = dz
            else:
                np.matmul(dz.swapaxes(-1, -2), h_in, out=g_weights[i])
                np.add.reduce(dz, axis=-2, out=g_biases[i])
        if i > 0 or input_gradient:
            grad = np.matmul(dz, params.weights[i], out=input_gradients[i])
    return grads, grad if input_gradient else None


def global_norm(
    params: MlpParams, grads: np.ndarray, ws: Workspace | None = None
) -> float | np.ndarray:
    """L2 norm of a gradient laid out like ``params.flat``; per agent, (n,), for a stack.

    Summed per layer, weights then biases: one sum over the vector rounds
    differently and would change every trained bit.
    """
    _check_vector(params, grads)
    squares = _workspace(params, ws).temporaries()[0]
    np.multiply(grads, grads, out=squares)
    bounds = _layout(params.layer_sizes)[1]
    sums = [np.add.reduce(squares[..., a:b], axis=-1) for a, b in zip(bounds, bounds[1:])]
    layers = len(params.layer_sizes) - 1
    total = sum(sums[:layers]) + sum(sums[layers:])
    return math.sqrt(total) if grads.ndim == 1 else np.sqrt(total)


def clip_global_norm(
    params: MlpParams, grads: np.ndarray, max_norm: float, ws: Workspace | None = None
) -> np.ndarray:
    """Scale grads in place so each global L2 norm is at most max_norm; returns grads.

    A stack's rows are scaled each by its own factor, 1.0 where the norm is
    within bounds.
    """
    if not max_norm > 0.0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_norm(params, grads, ws)
    if grads.ndim == 1:
        if norm > max_norm:
            grads *= max_norm / norm
    else:
        grads *= np.divide(max_norm, norm, out=np.ones_like(norm), where=norm > max_norm)[:, None]
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
    A stack's agents share the step count.
    """
    _check_vector(params, grads)
    scaled, root = _workspace(params, ws).temporaries()
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
    if target.layer_sizes != online.layer_sizes or target.flat.shape != online.flat.shape:
        raise ValueError("target and online networks are not shape-congruent")
    scaled = _workspace(target, ws).temporaries()[0]
    np.multiply(online.flat, tau, out=scaled)
    target.flat *= 1.0 - tau
    target.flat += scaled
    return target
