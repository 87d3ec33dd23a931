"""Decentralized deterministic policy-gradient learner, one per pursuer.

Each learner owns an actor (observation -> raw 2-vector, normalized to a unit
heading vector), a critic (observation + action vector -> value), target
copies of both, an adaptive-moment optimizer per network, an
Ornstein-Uhlenbeck exploration process, and a FIFO replay buffer. Actions are
parametrized as unit 2-vectors (cos, sin of the heading) so neither the actor
head nor the critic input sees the wrap discontinuity at +-pi.

Updates are standard off-policy actor-critic: the critic regresses the
one-step bootstrapped target built from the target networks, and the actor
ascends the critic's value of its own actions, chained through the
unit-normalization head. Learners never see each other's parameters,
gradients, or buffers. Updates run one learner at a time, never from two
threads at once, so all learners of one network shape share one set of
scratch buffers per batch size (see ``nn.Workspace``); a scratch holds no
value from one call to the next.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BufferNotReadyError
from .geometry import normalize_angle
from .nn import (
    MlpParams,
    Workspace,
    adam_init,
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
    norms = np.linalg.norm(u, axis=1)
    vanishing = norms < RAW_NORM_FLOOR
    unit = u / np.where(vanishing, 1.0, norms)[:, None]
    return np.where(vanishing[:, None], [1.0, 0.0], unit), norms, vanishing


@dataclass(frozen=True)
class _Scratch:
    """Buffers one update borrows: actor and critic workspaces, critic input."""

    actor: Workspace
    critic: Workspace
    critic_input: np.ndarray


@functools.lru_cache(maxsize=8)
def _shared_scratch(
    actor_sizes: tuple[int, ...], critic_sizes: tuple[int, ...], rows: int | None
) -> _Scratch:
    """Scratch for one learner shape at one row count (None: one vector).

    Every row count borrows the single-vector scratch's parameter-sized
    vectors, so those exist once per network shape.
    """
    if rows is None:
        return _Scratch(Workspace(actor_sizes), Workspace(critic_sizes), np.empty(critic_sizes[0]))
    single = _shared_scratch(actor_sizes, critic_sizes, None)
    return _Scratch(
        Workspace(actor_sizes, rows, shared=single.actor),
        Workspace(critic_sizes, rows, shared=single.critic),
        np.empty((rows, critic_sizes[0])),
    )


@dataclass(frozen=True)
class Transition:
    """One (o, a, r, o', terminal) tuple; terminal means capture, not timeout."""

    obs: np.ndarray
    action_vector: np.ndarray
    reward: float
    next_obs: np.ndarray
    terminal: bool

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(self.action_vector))
        if abs(norm - 1.0) > UNIT_NORM_TOLERANCE:
            raise ValueError(f"action vector norm {norm!r} is not 1 within {UNIT_NORM_TOLERANCE}")


@dataclass
class TransitionBatch:
    obs: np.ndarray        # (B, obs_dim)
    actions: np.ndarray    # (B, 2)
    rewards: np.ndarray    # (B,)
    next_obs: np.ndarray   # (B, obs_dim)
    terminals: np.ndarray  # (B,) float 0/1

    def __len__(self) -> int:
        return self.obs.shape[0]


class ReplayBuffer:
    """Ring buffer with strictly FIFO eviction and uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self._obs = np.zeros((capacity, obs_dim))
        self._actions = np.zeros((capacity, ACTION_DIM))
        self._rewards = np.zeros(capacity)
        self._next_obs = np.zeros((capacity, obs_dim))
        self._terminals = np.zeros(capacity)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        i = self._next
        self._obs[i] = t.obs
        self._actions[i] = t.action_vector
        self._rewards[i] = t.reward
        self._next_obs[i] = t.next_obs
        self._terminals[i] = 1.0 if t.terminal else 0.0
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sample with replacement; raises until a full batch exists."""
        if self._size < batch_size:
            raise BufferNotReadyError(
                f"buffer holds {self._size} transitions, need {batch_size}"
            )
        idx = rng.integers(0, self._size, size=batch_size)
        return TransitionBatch(
            obs=self._obs[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_obs=self._next_obs[idx],
            terminals=self._terminals[idx],
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


class AgentLearner:
    """Actor-critic learner for one pursuer; fully self-contained."""

    def __init__(
        self,
        obs_dim: int,
        rng: np.random.Generator,
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
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.obs_dim = obs_dim
        self.gamma = gamma
        self.tau = tau
        self.lr_actor = lr_actor
        self.lr_critic = lr_critic
        self.clip_norm = clip_norm
        self.actor = mlp_init([obs_dim, *actor_hidden, ACTION_DIM], rng)
        self.critic = mlp_init([obs_dim + ACTION_DIM, *critic_hidden, 1], rng)
        self.actor_target = self.actor.copy()
        self.critic_target = self.critic.copy()
        self.adam_actor = adam_init(self.actor)
        self.adam_critic = adam_init(self.critic)
        self.noise = OuNoise(theta_ou, sigma_ou)
        self.buffer = ReplayBuffer(buffer_capacity, obs_dim)

    def _scratch(self, rows: int | None) -> _Scratch:
        return _shared_scratch(self.actor.layer_sizes, self.critic.layer_sizes, rows)

    # -- acting ---------------------------------------------------------

    def action_vector(self, obs: np.ndarray) -> np.ndarray:
        raw, _ = forward(self.actor, obs, self._scratch(None).actor)
        return normalize_action(raw)

    def act(self, obs: np.ndarray) -> float:
        """Deterministic policy heading for one observation."""
        return vector_to_heading(self.action_vector(obs))

    def act_explore(self, obs: np.ndarray, rng: np.random.Generator) -> float:
        """Policy heading with Ornstein-Uhlenbeck noise added to the action.

        Noise perturbs the unit action vector (the policy output), not the
        raw pre-normalization activations, so its scale is meaningful
        regardless of how large the network's raw outputs happen to be.
        """
        action = self.action_vector(obs)
        return vector_to_heading(normalize_action(action + self.noise.sample(rng)))

    # -- learning -------------------------------------------------------

    def critic_update(self, batch: TransitionBatch) -> float:
        """One value-regression step; returns the pre-update loss."""
        b = len(batch)
        scratch = self._scratch(b)
        x = scratch.critic_input
        raw_next, _ = forward(self.actor_target, batch.next_obs, scratch.actor)
        a_next, _, _ = _unit_rows(raw_next)
        x[:, : self.obs_dim] = batch.next_obs
        x[:, self.obs_dim :] = a_next
        q_next, _ = forward(self.critic_target, x, scratch.critic)
        y = batch.rewards + self.gamma * (1.0 - batch.terminals) * q_next.ravel()
        x[:, : self.obs_dim] = batch.obs
        x[:, self.obs_dim :] = batch.actions
        q, cache = forward(self.critic, x, scratch.critic)
        diff = q.ravel() - y
        loss = float(np.mean(diff**2))
        gy = (2.0 * diff / b).reshape(-1, 1)
        grads, _ = backward(self.critic, cache, gy)
        clip_global_norm(self.critic, grads, self.clip_norm, scratch.critic)
        adam_step(self.critic, grads, self.adam_critic, self.lr_critic, ws=scratch.critic)
        return loss

    def actor_update(self, batch: TransitionBatch) -> float:
        """One policy-ascent step; returns the pre-update mean value."""
        b = len(batch)
        scratch = self._scratch(b)
        x = scratch.critic_input
        raw, actor_cache = forward(self.actor, batch.obs, scratch.actor)
        a, norms, vanishing = _unit_rows(raw)
        x[:, : self.obs_dim] = batch.obs
        x[:, self.obs_dim :] = a
        q, critic_cache = forward(self.critic, x, scratch.critic)
        mean_q = float(np.mean(q))
        _, g_in = backward(self.critic, critic_cache, np.full((b, 1), 1.0 / b))
        g_a = g_in[:, self.obs_dim :]
        # Jacobian of u -> u/||u|| is (I - a a^T)/||u||; rows with vanishing
        # norm used the constant fallback, so their gradient is zero.
        g_u = (g_a - np.sum(g_a * a, axis=1, keepdims=True) * a) / np.where(
            vanishing, 1.0, norms
        )[:, None]
        g_u[vanishing] = 0.0
        grads, _ = backward(self.actor, actor_cache, g_u)
        clip_global_norm(self.actor, grads, self.clip_norm, scratch.actor)
        np.negative(grads, out=grads)  # ascent
        adam_step(self.actor, grads, self.adam_actor, self.lr_actor, ws=scratch.actor)
        return mean_q

    def soft_update_targets(self) -> None:
        scratch = self._scratch(None)
        polyak_update(self.actor_target, self.actor, self.tau, scratch.actor)
        polyak_update(self.critic_target, self.critic, self.tau, scratch.critic)
