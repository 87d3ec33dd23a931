"""Dense network machinery for the learners: stacks of MLPs, reverse-mode
gradients, adaptive-moment updates, global-norm clipping, and Polyak target
averaging.

Everything is float64 numpy, and every network is a stack of n agents'
networks with ReLU hidden layers and an identity output. A stack runs on
(n, rows, in) batches. Parameter gradients are summed over batch rows, so a
mean objective is expressed by scaling the output gradient by 1/B.

``forward`` also takes rows one by one, as (n, rows, 1, in): numpy then hands
each (1, in) @ (in, out) slice to the kernel that an (n, 1, in) batch of one
row takes (gemv, or a dot product for one output), where an (n, rows, in)
batch takes gemm. So a row's outputs equal, bit for bit, those of that row
forwarded alone, however many rows share the call. Acting uses this form; the updates, and so
``backward``, use the batch form only.

A stack's parameters are one (n, P) array, ``MlpParams.flat``. Row i is
agent i's network: every weight matrix [out, in] row-major in layer order,
then every bias vector in layer order. ``weights[k]`` (n, out, in) and
``biases[k]`` (n, out) are views into it. A parameter gradient and both Adam
moments are (n, P) arrays with the same layout, so each optimizer update is
a few whole-array expressions; ``MlpParams.layers`` gives the per-layer
views of any such array, or of one agent's row of it.

Every gradient, norm, Adam moment and Polyak average is taken per row, so no
agent's numbers enter another's. Each agent's result equals what the n=1
stack of its network computes, bit for bit: numpy runs a stacked matmul as
one BLAS call per agent with that agent's 2-D operands, and every reduction
here (bias sums, per-layer sums of squares) runs along an axis within one
agent's slice.

The update path allocates nothing large. A ``Workspace`` holds the buffers
for one layer layout at one agent and row count: one arena with every
layer's activation, the parameter gradient, and one input-gradient buffer
that every layer of a backward pass reuses. ``forward`` writes each layer's
``h @ W.T + b`` into its activation and applies ReLU in place; ``backward``
overwrites each activation with its ``dz`` (the ReLU derivative is taken
from the activated value) and writes the weight gradients into views of the
gradient. Once a backward pass is done the activations are dead, so the two
parameter-sized temporaries of ``clip_global_norm``, ``adam_step`` and
``polyak_update`` are views into the same arena. Those three update their
arrays in place and return the same objects. Every result that lives in a
workspace is valid until that workspace's next call; without a workspace
each call builds a private one. The in-place arithmetic keeps each operation
and its operand order, so the bits equal those of the fresh-array
expressions in the docstrings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np


@functools.lru_cache(maxsize=32)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(per-layer weight shapes then bias shapes, their start offsets and the end) of a row."""
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
    """An (n, P) stack of flat parameter vectors, one per agent, plus the layer sizes.

    ``weights[i]`` (n, out, in) and ``biases[i]`` (n, out) are views into ``flat``.
    """

    flat: np.ndarray
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.flat.ndim != 2:
            raise ValueError(f"parameters of shape {self.flat.shape} are not an (agents, P) stack")
        self.weights, self.biases = self.layers(self.flat)

    def layers(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views of any (n, P) stack, or one row of it, laid out like ``flat``."""
        return _layer_views(self.layer_sizes, vec)


@dataclass
class AdamState:
    """First/second moment arrays, laid out like the parameters, and the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def mlp_init(layer_sizes: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """One agent's parameter row: weights uniform on +-1/sqrt(fan_in), biases zero."""
    sizes = tuple(layer_sizes)
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"need >= 2 positive layer sizes, got {list(layer_sizes)}")
    flat = np.zeros(_layout(sizes)[1][-1])
    for w, fan_in in zip(_layer_views(sizes, flat)[0], sizes):
        bound = 1.0 / math.sqrt(fan_in)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return flat


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
    """Reusable buffers for one layer layout, run by a stack of ``agents``
    networks on ``rows`` input rows each.

    The gradient and the input-gradient buffer are made on first use, so a
    workspace that only runs ``forward`` never holds them. A workspace built
    with ``shared`` uses the gradient and input-gradient buffers of that one
    (any layout, row and agent count).
    """

    def __init__(
        self, layer_sizes: Sequence[int], rows: int, agents: int,
        shared: Workspace | None = None,
    ):
        self.layer_sizes = tuple(layer_sizes)
        self.rows = rows
        self.agents = agents
        self._vector_shape = (agents, _layout(self.layer_sizes)[1][-1])
        self._arena = np.empty(agents * rows * sum(self.layer_sizes[1:]))
        self._view_activations()
        self.inputs: np.ndarray | None = None
        self._pool = _Pool() if shared is None else shared._pool
        self._pool.reserve("gradient", math.prod(self._vector_shape))
        self._pool.reserve("input_gradient", agents * rows * max(self.layer_sizes[:-1]))
        self._gradient: tuple | None = None
        self._input_gradients: tuple | None = None
        self._temporaries: tuple[np.ndarray, np.ndarray] | None = None

    def _view_activations(self) -> None:
        bounds = [0, *accumulate(self.layer_sizes[1:])]
        size = self.agents * self.rows
        self.activations = [
            self._arena[a * size : b * size].reshape(self.agents, self.rows, b - a)
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
            size = self.agents * self.rows
            views = [buf[: size * n].reshape(self.agents, self.rows, n)
                     for n in self.layer_sizes[:-1]]
            self._input_gradients = (buf, views)
        return self._input_gradients[1]

    def temporaries(self) -> tuple[np.ndarray, np.ndarray]:
        """Two parameter-sized arrays in the activation arena, which they overwrite."""
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


def _workspace(params: MlpParams, ws: Workspace | None, rows: int = 1) -> Workspace:
    if ws is None:
        return Workspace(params.layer_sizes, rows, params.flat.shape[0])
    if ws.layer_sizes != params.layer_sizes:
        raise ValueError(f"workspace layout {ws.layer_sizes} != network {params.layer_sizes}")
    return ws


def _check_vector(params: MlpParams, vec: np.ndarray) -> None:
    if vec.shape != params.flat.shape:
        raise ValueError(f"vector shape {vec.shape} != parameter shape {params.flat.shape}")


def forward(
    params: MlpParams, x: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, Workspace]:
    """Affine + ReLU composition: z = h @ W.T + b, then max(z, 0), with no ReLU on the output.

    Takes (n, rows, in) inputs, or row-wise (n, rows, 1, in) ones, and
    returns the output in the same form, (n, rows, out) or (n, rows, 1, out),
    with the cache for backward(), which is the workspace. Both live in the
    workspace's buffers. The row-wise form multiplies each 1-row slice on
    its own, so a row's bits do not depend on the rows beside it; backward
    refuses its cache.
    """
    x = np.asarray(x, dtype=np.float64)
    n, width = params.flat.shape[0], params.layer_sizes[0]
    row_wise = x.ndim == 4 and x.shape[2] == 1
    if (x.ndim != 3 and not row_wise) or (x.shape[0], x.shape[-1]) != (n, width):
        raise ValueError(f"input shape {x.shape} is not (agents, rows, in) or "
                         f"(agents, rows, 1, in) with {n} agents and in = {width}")
    ws = _workspace(params, ws, x.shape[1])
    if ws.activations[0].shape[:-1] != x.shape[:2]:
        raise ValueError(f"input shape {x.shape} does not fit a workspace of "
                         f"{ws.agents} agents and {ws.rows} rows")
    ws.inputs = x
    h = x
    for w, b, z in zip(params.weights, params.biases, ws.activations):
        if row_wise:  # each (1, in) @ (in, out) slice runs as a lone row's would
            np.matmul(h, w.swapaxes(-1, -2)[:, None], out=z[:, :, None])
        else:
            np.matmul(h, w.swapaxes(-1, -2), out=z)
        z += b[:, None, :]
        if z is not ws.activations[-1]:
            np.maximum(z, 0.0, out=z)
        h = z[:, :, None] if row_wise else z
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

    Returns the parameter gradient, laid out like ``params.flat`` and summed
    over batch rows, and the gradient with respect to the input; both are
    the cache workspace's buffers. A caller that reads only one of them
    turns the other off and gets None in its place: without the parameter
    gradient no weight matmul or bias sum runs, and without the input
    gradient layer 0's input matmul is skipped. The activations are
    overwritten.
    """
    ws = cache
    if np.ndim(ws.inputs) != 3:
        raise ValueError("the cache holds no (agents, rows, in) forward pass to differentiate")
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
        # dz = grad * f'(z) into the activation: the identity's is grad itself,
        # copied so that it never shares the input-gradient buffer; ReLU's h > 0
        # holds exactly when z > 0 (NaN and -0.0 included)
        dz = ws.activations[i]
        if i == last:
            np.copyto(dz, grad)
        else:
            np.greater(dz, 0.0, out=dz)
            dz *= grad
        if grads is not None:
            h_in = ws.inputs if i == 0 else ws.activations[i - 1]
            np.matmul(dz.swapaxes(-1, -2), h_in, out=g_weights[i])
            np.add.reduce(dz, axis=-2, out=g_biases[i])
        if i > 0 or input_gradient:
            grad = np.matmul(dz, params.weights[i], out=input_gradients[i])
    return grads, grad if input_gradient else None


def clip_global_norm(
    params: MlpParams, grads: np.ndarray, max_norm: float, ws: Workspace | None = None
) -> np.ndarray:
    """Scale each agent's gradient row in place so its global L2 norm is at most max_norm.

    Returns grads. A row within bounds is scaled by 1.0. The norm's squares
    are summed per layer, weights then biases: one sum over the row rounds
    differently and would change every trained bit.
    """
    if not max_norm > 0.0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    _check_vector(params, grads)
    squares = _workspace(params, ws).temporaries()[0]
    np.multiply(grads, grads, out=squares)
    bounds = _layout(params.layer_sizes)[1]
    sums = [np.add.reduce(squares[:, a:b], axis=-1) for a, b in zip(bounds, bounds[1:])]
    layers = len(params.layer_sizes) - 1
    norm = np.sqrt(sum(sums[:layers]) + sum(sums[layers:]))
    grads *= np.divide(max_norm, norm, out=np.ones_like(norm), where=norm > max_norm)[:, None]
    return grads


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
