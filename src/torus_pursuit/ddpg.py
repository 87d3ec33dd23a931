"""Decentralized deterministic policy-gradient learners for a team of pursuers.

Each agent owns an actor (observation -> raw 2-vector, normalized to a unit
heading vector), a critic (observation + action vector -> value), target
copies of both, an adaptive-moment optimizer per network, an
Ornstein-Uhlenbeck exploration process, and a FIFO replay ring. Actions are
parametrized as unit 2-vectors (cos, sin of the heading) so neither the actor
head nor the critic input sees the wrap discontinuity at +-pi.

Updates are standard off-policy actor-critic: the critic regresses the
one-step bootstrapped target built from the target networks, and the actor
ascends the critic's value of its own actions, chained through the
unit-normalization head.

One ``TeamLearner`` holds all n agents, with an agent axis in front of every
array. Its state is one (n, S) array: row i is agent i's
``actor | critic | actor_target | critic_target | adam_actor.m |
adam_actor.v | adam_critic.m | adam_critic.v``, each laid out like
``MlpParams.flat``, which is also the checkpoint sidecar's entry for agent i.
Each update runs the n agents' networks as one stacked matmul chain on
(n, B, .) batches (see ``nn``), sampled from each agent's own ring with its
own random stream. Learning stays decentralized: no agent reads another's
parameters, gradients, norms or transitions, and each agent's numbers equal
those of a lone agent (the n=1 team) bit for bit. The agents update in
lockstep, so they share the Adam step counts and the ring bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BufferNotReadyError
from .geometry import normalize_angle
from .nn import (
    AdamState,
    MlpParams,
    Workspace,
    adam_step,
    backward,
    clip_global_norm,
    forward,
    mlp_init,
    polyak_update,
)

ACTION_DIM = 2
UNIT_NORM_TOLERANCE = 1e-9
RAW_NORM_FLOOR = 1e-12


def heading_to_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)], dtype=np.float64)


def vector_to_heading(v: np.ndarray) -> float:
    return normalize_angle(math.atan2(float(v[1]), float(v[0])))


def normalize_action(u: np.ndarray) -> np.ndarray:
    """u / ||u||, with a fixed east-pointing fallback for vanishing norms."""
    n = float(np.linalg.norm(u))
    if n < RAW_NORM_FLOOR:
        return np.array([1.0, 0.0])
    return u / n


def _unit_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``normalize_action``; returns (unit rows, norms, fallback mask).

    Only a norm below RAW_NORM_FLOOR takes the east fallback, so a NaN row
    stays NaN and surfaces in the value it feeds.
    """
    norms = np.linalg.norm(u, axis=-1)
    vanishing = norms < RAW_NORM_FLOOR
    unit = u / np.where(vanishing, 1.0, norms)[..., None]
    return np.where(vanishing[..., None], [1.0, 0.0], unit), norms, vanishing


@dataclass
class TransitionBatch:
    obs: np.ndarray        # (n, B, obs_dim)
    actions: np.ndarray    # (n, B, 2)
    rewards: np.ndarray    # (n, B)
    next_obs: np.ndarray   # (n, B, obs_dim)
    terminals: np.ndarray  # (n, B) float 0/1

    def __len__(self) -> int:
        return self.rewards.shape[1]


class ReplayBuffer:
    """One FIFO ring per agent, written in lockstep and sampled uniformly.

    The rings are (agents, capacity, .) arrays; agent i's stored
    transitions are ``_obs[i, :len(self)]`` and so on.
    """

    def __init__(self, capacity: int, obs_dim: int, agents: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.agents = agents
        self._obs = np.zeros((agents, capacity, obs_dim))
        self._actions = np.zeros((agents, capacity, ACTION_DIM))
        self._rewards = np.zeros((agents, capacity))
        self._next_obs = np.zeros((agents, capacity, obs_dim))
        self._terminals = np.zeros((agents, capacity))
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(
        self,
        obs: np.ndarray,
        action_vectors: np.ndarray,
        rewards: Sequence[float],
        next_obs: np.ndarray,
        terminal: bool,
    ) -> None:
        """Appends one step's (o, a, r, o') row per agent; terminal means capture, not timeout.

        Raises ValueError, naming the agent, if an action vector is not a
        unit vector, and if a row's shape does not fit the rings.
        """
        n, d = self.agents, self.obs_dim
        shapes = tuple(np.shape(a) for a in (obs, action_vectors, rewards, next_obs))
        if shapes != ((n, d), (n, ACTION_DIM), (n,), (n, d)):
            raise ValueError(f"step rows of shapes {shapes} do not fit {n} rings of "
                             f"{d} observations")
        x, y = np.asarray(action_vectors).T
        norms = np.hypot(x, y)
        err = np.abs(norms - 1.0)
        if not err.max() <= UNIT_NORM_TOLERANCE:  # a NaN norm fails too
            agent = int(np.flatnonzero(~(err <= UNIT_NORM_TOLERANCE))[0])
            raise ValueError(f"agent {agent}: action vector norm {float(norms[agent])!r} "
                             f"is not 1 within {UNIT_NORM_TOLERANCE}")
        i = self._next
        self._obs[:, i] = obs
        self._actions[:, i] = action_vectors
        self._rewards[:, i] = rewards
        self._next_obs[:, i] = next_obs
        self._terminals[:, i] = 1.0 if terminal else 0.0
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rngs: Sequence[np.random.Generator]) -> TransitionBatch:
        """Uniform sample with replacement, agent i's rows drawn by ``rngs[i]``.

        Raises until a full batch exists.
        """
        if self._size < batch_size:
            raise BufferNotReadyError(
                f"buffer holds {self._size} transitions, need {batch_size}"
            )
        if len(rngs) != self.agents:
            raise ValueError(f"{len(rngs)} random streams for {self.agents} agents")
        idx = np.stack([rng.integers(0, self._size, size=batch_size) for rng in rngs])
        agent = np.arange(self.agents)[:, None]
        return TransitionBatch(
            obs=self._obs[agent, idx],
            actions=self._actions[agent, idx],
            rewards=self._rewards[agent, idx],
            next_obs=self._next_obs[agent, idx],
            terminals=self._terminals[agent, idx],
        )


class OuNoise:
    """Ornstein-Uhlenbeck process: x <- x + theta*(0 - x) + sigma*g."""

    def __init__(self, theta: float = 0.15, sigma: float = 0.2, dim: int = ACTION_DIM):
        self.theta = theta
        self.sigma = sigma
        self.state = np.zeros(dim)

    def reset(self) -> None:
        self.state = np.zeros_like(self.state)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        self.state = self.state + self.theta * (0.0 - self.state) + self.sigma * rng.standard_normal(
            self.state.shape[0]
        )
        return self.state.copy()


def _parameter_count(sizes: tuple[int, ...]) -> int:
    return sum(o * i + o for i, o in zip(sizes, sizes[1:]))


class _Scratch(NamedTuple):
    """Buffers one update borrows: actor and critic workspaces, critic input.

    Online and target networks share a workspace; each result is consumed
    before the next forward. The two workspaces share the gradient and
    input-gradient buffers, since one backward pass runs at a time.
    """

    actor: Workspace
    critic: Workspace
    critic_input: np.ndarray


class TeamLearner:
    """Actor-critic learners for n pursuers, held as stacked arrays.

    With ``rng`` the networks are initialized agent by agent (actor, then
    critic), and the targets copy them; without it everything starts at zero
    for a loader to fill.
    """

    def __init__(
        self,
        n: int,
        obs_dim: int,
        rng: np.random.Generator | None = None,
        actor_hidden: tuple[int, ...] = (128, 128),
        critic_hidden: tuple[int, ...] = (128, 128, 128),
        gamma: float = 0.99,
        tau: float = 0.001,
        lr_actor: float = 1e-4,
        lr_critic: float = 1e-3,
        clip_norm: float = 0.5,
        buffer_capacity: int = 500_000,
        theta_ou: float = 0.15,
        sigma_ou: float = 0.2,
    ):
        if n < 1:
            raise ValueError(f"a team needs >= 1 agent, got {n}")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.n = n
        self.obs_dim = obs_dim
        self.gamma = gamma
        self.tau = tau
        self.lr_actor = lr_actor
        self.lr_critic = lr_critic
        self.clip_norm = clip_norm
        actor_sizes = (obs_dim, *actor_hidden, ACTION_DIM)
        critic_sizes = (obs_dim + ACTION_DIM, *critic_hidden, 1)
        if min(actor_sizes) < 1 or min(critic_sizes) < 1:
            raise ValueError(f"layer sizes must be positive, got {actor_sizes} and {critic_sizes}")
        pa, pc = _parameter_count(actor_sizes), _parameter_count(critic_sizes)
        widths = (pa, pc, pa, pc, pa, pa, pc, pc)
        self.state = np.zeros((n, sum(widths)))
        bounds = [0, *accumulate(widths)]
        vec = [self.state[:, a:b] for a, b in zip(bounds, bounds[1:])]
        self.actor = MlpParams(vec[0], actor_sizes)
        self.critic = MlpParams(vec[1], critic_sizes)
        self.actor_target = MlpParams(vec[2], actor_sizes)
        self.critic_target = MlpParams(vec[3], critic_sizes)
        self.adam_actor = AdamState(vec[4], vec[5])
        self.adam_critic = AdamState(vec[6], vec[7])
        if rng is not None:
            for i in range(n):
                self.actor.flat[i] = mlp_init(actor_sizes, rng).flat
                self.critic.flat[i] = mlp_init(critic_sizes, rng).flat
            self.actor_target.flat[...] = self.actor.flat
            self.critic_target.flat[...] = self.critic.flat
        self.noise = [OuNoise(theta_ou, sigma_ou) for _ in range(n)]
        self.buffer = ReplayBuffer(buffer_capacity, obs_dim, n)
        self._act = Workspace(actor_sizes, 1, n)
        self._update: _Scratch | None = None

    def _scratch(self, rows: int) -> _Scratch:
        if self._update is None or self._update.critic_input.shape[1] != rows:
            actor = Workspace(self.actor.layer_sizes, rows, self.n)
            critic = Workspace(self.critic.layer_sizes, rows, self.n, shared=actor)
            critic_input = np.empty((self.n, rows, self.obs_dim + ACTION_DIM))
            self._update = _Scratch(actor, critic, critic_input)
        return self._update

    # -- acting ---------------------------------------------------------

    def _raw_actions(self, obs: np.ndarray) -> np.ndarray:
        """The actors' raw outputs (n, 2) for one observation row per agent, (n, obs_dim)."""
        x = np.asarray(obs, dtype=np.float64)
        if x.shape != (self.n, self.obs_dim):
            raise ValueError(f"observations of shape {x.shape}, want {(self.n, self.obs_dim)}")
        raw, _ = forward(self.actor, x[:, None, :], self._act)
        return raw[:, 0]

    def act(self, obs: np.ndarray) -> list[float]:
        """Deterministic policy heading of each agent for its observation row."""
        return [vector_to_heading(normalize_action(u)) for u in self._raw_actions(obs)]

    def act_explore(self, obs: np.ndarray, rngs: Sequence[np.random.Generator]) -> list[float]:
        """Policy headings with each agent's Ornstein-Uhlenbeck noise added to its action.

        Noise perturbs the unit action vector (the policy output), not the
        raw pre-normalization activations, so its scale is meaningful
        regardless of how large the network's raw outputs happen to be.
        Agent i's noise draws from ``rngs[i]``.
        """
        return [
            vector_to_heading(normalize_action(normalize_action(u) + noise.sample(rng)))
            for u, noise, rng in zip(self._raw_actions(obs), self.noise, rngs, strict=True)
        ]

    def reset_noise(self) -> None:
        for noise in self.noise:
            noise.reset()

    # -- learning -------------------------------------------------------

    def critic_update(self, batch: TransitionBatch) -> np.ndarray:
        """One value-regression step per agent; returns the pre-update losses (n,)."""
        b = len(batch)
        scratch = self._scratch(b)
        x = scratch.critic_input
        raw_next, _ = forward(self.actor_target, batch.next_obs, scratch.actor)
        a_next, _, _ = _unit_rows(raw_next)
        x[..., : self.obs_dim] = batch.next_obs
        x[..., self.obs_dim :] = a_next
        q_next, _ = forward(self.critic_target, x, scratch.critic)
        y = batch.rewards + self.gamma * (1.0 - batch.terminals) * q_next[..., 0]
        x[..., : self.obs_dim] = batch.obs
        x[..., self.obs_dim :] = batch.actions
        q, cache = forward(self.critic, x, scratch.critic)
        diff = q[..., 0] - y
        loss = np.mean(diff**2, axis=1)
        gy = (2.0 * diff / b)[..., None]
        grads, _ = backward(self.critic, cache, gy, input_gradient=False)
        clip_global_norm(self.critic, grads, self.clip_norm, scratch.critic)
        adam_step(self.critic, grads, self.adam_critic, self.lr_critic, ws=scratch.critic)
        return loss

    def actor_update(self, batch: TransitionBatch) -> np.ndarray:
        """One policy-ascent step per agent; returns the pre-update mean values (n,)."""
        b = len(batch)
        scratch = self._scratch(b)
        x = scratch.critic_input
        raw, actor_cache = forward(self.actor, batch.obs, scratch.actor)
        a, norms, vanishing = _unit_rows(raw)
        x[..., : self.obs_dim] = batch.obs
        x[..., self.obs_dim :] = a
        q, critic_cache = forward(self.critic, x, scratch.critic)
        mean_q = np.mean(q[..., 0], axis=1)
        # Layer 0's whole input gradient, then the action columns: slicing
        # the weights first rounds differently.
        _, g_in = backward(
            self.critic, critic_cache, np.full((self.n, b, 1), 1.0 / b), parameter_gradient=False
        )
        g_a = g_in[..., self.obs_dim :]
        # Jacobian of u -> u/||u|| is (I - a a^T)/||u||; rows with vanishing
        # norm used the constant fallback, so their gradient is zero.
        g_u = (g_a - np.sum(g_a * a, axis=-1, keepdims=True) * a) / np.where(
            vanishing, 1.0, norms
        )[..., None]
        g_u[vanishing] = 0.0
        grads, _ = backward(self.actor, actor_cache, g_u, input_gradient=False)
        clip_global_norm(self.actor, grads, self.clip_norm, scratch.actor)
        np.negative(grads, out=grads)  # ascent
        adam_step(self.actor, grads, self.adam_actor, self.lr_actor, ws=scratch.actor)
        return mean_q

    def soft_update_targets(self) -> None:
        scratch = self._update
        polyak_update(self.actor_target, self.actor, self.tau, scratch and scratch.actor)
        polyak_update(self.critic_target, self.critic, self.tau, scratch and scratch.critic)
