"""Decentralized deterministic policy-gradient learners for a team of pursuers.

Each agent owns an actor (observation -> raw 2-vector, normalized to a unit
heading vector), a critic (observation + action vector -> value), target
copies of both, an adaptive-moment optimizer per network, an
Ornstein-Uhlenbeck exploration process, and a FIFO replay ring that holds
each replay fact once: a slot's next observation is the next slot's, except
at episode ends and the write head, which keep their own rows; a slot's
action is the heading its next observation starts with; and the team's
reward and terminal flag, which every pursuer shares, are one per slot. Every
network has ReLU hidden layers and an identity output. Actions are
parametrized as unit 2-vectors (cos, sin of the heading) so neither the actor
head nor the critic input sees the wrap discontinuity at +-pi.

Updates are standard off-policy actor-critic: the critic regresses the
one-step bootstrapped target built from the target networks, and the actor
ascends the critic's value of its own actions, chained through the
unit-normalization head.

One ``TeamLearner`` holds all n agents, with an agent axis in front of every
array. It reads every agent's layer sizes, ring capacity and
hyperparameters from one config section, ``ddpg``; ``make_team`` builds the
team a whole config describes. Its state is one (n, S) array: row i is agent i's
``actor | critic | actor_target | critic_target | adam_actor.m |
adam_actor.v | adam_critic.m | adam_critic.v``, each laid out like a row of
``MlpParams.flat``, which is also the checkpoint sidecar's entry for agent i.
The exploration noise is one (n, 2) array, row i agent i's process. Each
update runs the n agents' networks as one stacked matmul chain (see ``nn``,
whose only layout is the agent stack) on (n, B, .) batches, sampled from
each agent's own ring with its own random stream. Learning
stays decentralized: no agent reads another's parameters, gradients, norms,
noise or transitions, and each agent's numbers equal those of a lone agent
(the n=1 team) bit for bit. The agents update in lockstep, so they share the
Adam step counts, the ring bookkeeping, the slots of its end table and the
team's rewards and terminal flags.

Acting takes E episodes' observation rows, (E, n, obs_dim), and gives (E, n)
headings. Each step is one row-wise forward pass (see ``nn``) for all E
episodes, so an episode's headings equal, bit for bit, those it gets alone;
exploring runs the same path for one episode. The (E, n, 2) raw outputs
become headings through one row-wise head, ``_unit_rows`` with each row's
norm rounded as that row's own 1-D norm, and ``geometry.bearings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .environment import strategy_observation
from .errors import BufferNotReadyError
from .geometry import bearings
from .nn import (
    AdamState,
    MlpParams,
    Workspace,
    adam_step,
    backward,
    clip_global_norm,
    forward,
    mlp_init,
    parameter_count,
    polyak_update,
)

if TYPE_CHECKING:
    from .config import DdpgConfig, ExperimentConfig

ACTION_DIM = 2
UNIT_NORM_TOLERANCE = 1e-9
RAW_NORM_FLOOR = 1e-12


def _unit_rows(u: np.ndarray, dot: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise u / ||u||, with a fixed east-pointing fallback for vanishing
    norms; returns (unit rows, norms, fallback mask).

    Only a norm below RAW_NORM_FLOOR takes the fallback, so a NaN row stays
    NaN and surfaces in the value it feeds. The updates take
    ``np.linalg.norm(u, axis=-1)``. Acting takes, with ``dot``, the root of
    each row's BLAS dot with itself (matmul routes a (1, 2) by (2, 1)
    product to ``ddot``), which rounds as the 1-D norm of the row alone does;
    the two norms differ in the last bit for some rows.
    """
    norms = (np.sqrt(np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0]) if dot
             else np.linalg.norm(u, axis=-1))
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

    Agent i's stored observations are ``_obs[i, :len(self)]``; the team's
    rewards and terminal flags, alike for every agent, are
    ``_rewards[:len(self)]`` and ``_terminals[:len(self)]``. A slot's
    action is no array of its own: the pursuer moved along the heading its
    next observation starts with, so the action is that row's first
    ``ACTION_DIM`` columns. A slot's next observation is, bit for bit, the
    following slot's ``obs`` except at the slots of the end table: those
    whose next push began an episode, and always the write head, whose
    successor is not pushed yet. ``_end_row`` gives each of those slots its
    row of ``_end_rows``, an (rows, agents, obs_dim) table whose unused rows
    are listed in ``_free``, and -1 to every other slot. A checkpoint stores the
    table as it is: ``end_table`` gives it and ``load_end_table`` takes it back.
    """

    def __init__(self, capacity: int, obs_dim: int, agents: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if obs_dim < ACTION_DIM:
            raise ValueError(f"observations of {obs_dim} values hold no {ACTION_DIM} "
                             "heading columns")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.agents = agents
        self._obs = np.zeros((agents, capacity, obs_dim))
        self._rewards = np.zeros(capacity)
        self._terminals = np.zeros(capacity)
        self._end_row = np.full(capacity, -1, dtype=np.int32)
        self._end_rows = np.empty((0, agents, obs_dim))
        self._free: list[int] = []
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, reward: float, next_obs: np.ndarray, terminal: bool,
             obs: np.ndarray | None = None) -> None:
        """Appends one step: the team's reward, every agent's o' row, and
        whether it captured (not timed out). With ``obs``, every agent's o
        row, the step begins an episode; without, it continues the head's,
        whose o' rows move into the new slot, and the head leaves the end
        table. The step's actions are the heading columns of ``next_obs``.

        Raises ValueError, naming the agent, if those columns are not a unit
        vector, if a row's shape does not fit the rings, and if an empty ring
        is given no ``obs``.
        """
        n, d = self.agents, self.obs_dim
        shapes = (np.shape(reward), np.shape(next_obs), None if obs is None else np.shape(obs))
        if shapes[:2] != ((), (n, d)) or shapes[2] not in (None, (n, d)):
            raise ValueError(f"step rows of shapes {shapes} do not fit {n} rings of "
                             f"{d} observations and one team reward")
        if obs is None and not self._size:
            raise ValueError("an empty ring holds no step to continue; pass the episode's obs")
        x, y = np.asarray(next_obs)[:, :ACTION_DIM].T
        norms = np.hypot(x, y)
        err = np.abs(norms - 1.0)
        if not err.max() <= UNIT_NORM_TOLERANCE:  # a NaN norm fails too
            agent = int(np.flatnonzero(~(err <= UNIT_NORM_TOLERANCE))[0])
            raise ValueError(f"agent {agent}: the next observation's heading columns have "
                             f"norm {float(norms[agent])!r}, not 1 within {UNIT_NORM_TOLERANCE}")
        i = self._next
        if obs is None:
            head = (i - 1) % self.capacity
            self._obs[:, i] = self._end_rows[self._end_row[head]]
            self._free.append(int(self._end_row[head]))
            self._end_row[head] = -1
        else:
            self._obs[:, i] = obs
        self._rewards[i] = reward
        self._terminals[i] = 1.0 if terminal else 0.0
        row = self._table_row(i)  # which may grow the table; a stale row is written over
        self._end_rows[row] = next_obs
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _table_row(self, slot: int) -> int:
        """The end-table row of ``slot``; a slot without one takes a free row,
        and the table doubles, up to one row per slot, when none is free."""
        if self._end_row[slot] < 0:
            if not self._free:
                rows = len(self._end_rows)
                grown = np.empty((min(max(2 * rows, 4), self.capacity), self.agents, self.obs_dim))
                grown[:rows] = self._end_rows
                self._end_rows = grown
                self._free = list(range(len(grown) - 1, rows - 1, -1))
            self._end_row[slot] = self._free.pop()
        return int(self._end_row[slot])

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
        next_obs = self._next_rows(idx)
        return TransitionBatch(
            obs=self._obs[np.arange(self.agents)[:, None], idx],
            actions=next_obs[..., :ACTION_DIM],
            rewards=self._rewards[idx],
            next_obs=next_obs,
            terminals=self._terminals[idx],
        )

    def _next_rows(self, idx: np.ndarray) -> np.ndarray:
        """The next observations (agents, k, obs_dim) of agent i's slots ``idx[i]``."""
        rows = self._obs[np.arange(self.agents)[:, None], (idx + 1) % self.capacity]
        table_rows = self._end_row[idx]
        at = np.nonzero(table_rows >= 0)
        rows[at] = self._end_rows[table_rows[at], at[0]]
        return rows

    def filled(self) -> dict[str, np.ndarray]:
        """Views of the filled slots of each stored field, by name: the
        (agents, size, obs_dim) observations, the team's rewards and terminal
        flags."""
        size = self._size
        return {"obs": self._obs[:, :size], "rewards": self._rewards[:size],
                "terminals": self._terminals[:size]}

    def end_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The end table as a checkpoint stores it: its int64 slots, in
        increasing order, and their (slots, agents, obs_dim) rows."""
        slots = np.flatnonzero(self._end_row[: self._size] >= 0).astype(np.int64, copy=False)
        return slots, self._end_rows[self._end_row[slots]]

    def load_end_table(self, slots: np.ndarray, rows: np.ndarray) -> None:
        """Fills the end table, once the filled slots and the bookkeeping are in
        place, from what ``end_table`` gives: slots that include the write head
        of a filled ring, and their rows."""
        self._end_row[:] = -1
        self._end_row[slots] = np.arange(len(slots))
        self._end_rows = np.array(rows, dtype=np.float64)
        self._free = []


class TeamLearner:
    """Actor-critic learners for n pursuers, held as stacked arrays.

    Every agent is as the config section ``ddpg`` (kept as ``self.ddpg``)
    describes. With ``rng`` the networks are initialized agent by agent (actor, then
    critic), and the targets copy them; without it everything starts at zero
    for a loader to fill.

    Every buffer an update uses is made here, at ``ddpg.batch_size`` rows: an
    actor and a critic workspace and the critic input. Online and target
    networks share a workspace; each result is consumed before the next
    forward. ``Workspace.sharing`` lends the two workspaces one gradient and
    one input-gradient buffer, since one backward pass runs at a time. A
    batch of another size is refused by ``forward`` (ValueError) before
    anything changes. The acting workspace is made for the episode count E
    of each call, which shrinks as lockstep episodes end.
    """

    def __init__(self, n: int, obs_dim: int, ddpg: DdpgConfig,
                 rng: np.random.Generator | None = None):
        if n < 1:
            raise ValueError(f"a team needs >= 1 agent, got {n}")
        self.n = n
        self.obs_dim = obs_dim
        self.ddpg = ddpg
        actor_sizes = (obs_dim, *ddpg.actor_hidden, ACTION_DIM)
        critic_sizes = (obs_dim + ACTION_DIM, *ddpg.critic_hidden, 1)
        if min(actor_sizes) < 1 or min(critic_sizes) < 1:
            raise ValueError(f"layer sizes must be positive, got {actor_sizes} and {critic_sizes}")
        pa, pc = parameter_count(actor_sizes), parameter_count(critic_sizes)
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
                self.actor.flat[i] = mlp_init(actor_sizes, rng)
                self.critic.flat[i] = mlp_init(critic_sizes, rng)
            self.actor_target.flat[...] = self.actor.flat
            self.critic_target.flat[...] = self.critic.flat
        self.noise = np.zeros((n, ACTION_DIM))
        self.buffer = ReplayBuffer(ddpg.buffer_capacity, obs_dim, n)
        self._act = Workspace(actor_sizes, 1, n)
        self._actor_ws, self._critic_ws = Workspace.sharing(
            (actor_sizes, critic_sizes), ddpg.batch_size, n)
        self._critic_input = np.empty((n, ddpg.batch_size, obs_dim + ACTION_DIM))

    # -- acting ---------------------------------------------------------

    def _raw_actions(self, obs: np.ndarray) -> np.ndarray:
        """The actors' raw outputs (E, n, 2) for E episodes' observation rows
        (E, n, obs_dim), each row forwarded row-wise (see ``nn``)."""
        x = np.asarray(obs, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (self.n, self.obs_dim):
            raise ValueError(f"observations of shape {x.shape}, want "
                             f"(episodes, {self.n}, {self.obs_dim})")
        if self._act.rows != len(x):
            self._act = Workspace(self.actor.layer_sizes, len(x), self.n)
        raw, _ = forward(self.actor, x.swapaxes(0, 1)[:, :, None], self._act)
        return raw[:, :, 0].swapaxes(0, 1)

    def act(self, obs: np.ndarray) -> np.ndarray:
        """Deterministic policy headings (E, n) for E episodes' observation
        rows (E, n, obs_dim); each episode's equal those it gets alone."""
        return bearings(_unit_rows(self._raw_actions(obs), dot=True)[0])

    def act_explore(self, obs: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Policy headings (1, n) for one episode's rows (1, n, obs_dim), with
        each agent's Ornstein-Uhlenbeck noise added to its action.

        Noise perturbs the unit action vector (the policy output), not the
        raw pre-normalization activations, so its scale is meaningful
        regardless of how large the network's raw outputs happen to be.
        Agent i's noise draws from ``rngs[i]``.
        """
        raw = self._raw_actions(obs)
        if len(raw) != 1:
            raise ValueError(f"the noise explores one episode, not {len(raw)}")
        self._advance_noise(rngs)
        u = _unit_rows(raw, dot=True)[0] + self.noise
        return bearings(_unit_rows(u, dot=True)[0])

    def _advance_noise(self, rngs: Sequence[np.random.Generator]) -> None:
        """One Ornstein-Uhlenbeck step per agent: x <- x + theta*(0 - x) + sigma*g."""
        if len(rngs) != self.n:
            raise ValueError(f"{len(rngs)} random streams for {self.n} agents")
        g = np.array([rng.standard_normal(ACTION_DIM) for rng in rngs])
        x = self.noise
        self.noise = x + self.ddpg.theta_ou * (0.0 - x) + self.ddpg.sigma_ou * g

    def reset_noise(self) -> None:
        self.noise = np.zeros_like(self.noise)

    # -- learning -------------------------------------------------------

    def critic_update(self, batch: TransitionBatch) -> np.ndarray:
        """One value-regression step per agent; returns the pre-update losses (n,)."""
        b = len(batch)
        x = self._critic_input
        raw_next, _ = forward(self.actor_target, batch.next_obs, self._actor_ws)
        a_next, _, _ = _unit_rows(raw_next)
        x[..., : self.obs_dim] = batch.next_obs
        x[..., self.obs_dim :] = a_next
        q_next, _ = forward(self.critic_target, x, self._critic_ws)
        y = batch.rewards + self.ddpg.gamma * (1.0 - batch.terminals) * q_next[..., 0]
        x[..., : self.obs_dim] = batch.obs
        x[..., self.obs_dim :] = batch.actions
        q, cache = forward(self.critic, x, self._critic_ws)
        diff = q[..., 0] - y
        loss = np.mean(diff**2, axis=1)
        gy = (2.0 * diff / b)[..., None]
        grads, _ = backward(self.critic, cache, gy, input_gradient=False)
        clip_global_norm(self.critic, grads, self.ddpg.clip_norm, self._critic_ws)
        adam_step(self.critic, grads, self.adam_critic, self.ddpg.lr_critic, ws=self._critic_ws)
        return loss

    def actor_update(self, batch: TransitionBatch) -> np.ndarray:
        """One policy-ascent step per agent; returns the pre-update mean values (n,)."""
        b = len(batch)
        x = self._critic_input
        raw, actor_cache = forward(self.actor, batch.obs, self._actor_ws)
        a, norms, vanishing = _unit_rows(raw)
        x[..., : self.obs_dim] = batch.obs
        x[..., self.obs_dim :] = a
        q, critic_cache = forward(self.critic, x, self._critic_ws)
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
        clip_global_norm(self.actor, grads, self.ddpg.clip_norm, self._actor_ws)
        np.negative(grads, out=grads)  # ascent
        adam_step(self.actor, grads, self.adam_actor, self.ddpg.lr_actor, ws=self._actor_ws)
        return mean_q

    def soft_update_targets(self) -> None:
        polyak_update(self.actor_target, self.actor, self.ddpg.tau, self._actor_ws)
        polyak_update(self.critic_target, self.critic, self.ddpg.tau, self._critic_ws)


def make_team(config: ExperimentConfig, rng: np.random.Generator | None = None) -> TeamLearner:
    """The team ``config`` describes: ``env.n`` agents, each observing what
    ``run.strategy`` observes, with the networks and hyperparameters of
    ``config.ddpg``. ``rng`` initializes the networks, as in ``TeamLearner``."""
    _, obs_dim = strategy_observation(config.run.strategy, config.env.n)
    return TeamLearner(config.env.n, obs_dim, config.ddpg, rng)
