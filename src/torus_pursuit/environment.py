"""The pursuit-evasion Markov game on the unit torus.

State holds the poses of n pursuers and one evader. Each step the evader's
heading is computed from the current state (the evader is part of the
environment), then all agents move simultaneously at their maximum speeds
with instantaneous orientation changes. Capture is tested on the post-move
state against the capture radius. Every pursuer shares one scalar reward:
-0.1 per step, replaced by +50.0 for the capturing step.

An episode never starts decided: `reset` spawns every pursuer farther than
the spawn separation `capture_radius + pursuer_speed + evader_speed` from
the evader, the farthest distance from which the first step can capture
whatever the headings. `step` refuses any captured state, so a spawn can
neither start captured nor be played on.

Every function works on E episodes at once. A `WorldState` holds positions
(E, n+1, 2) and headings (E, n+1), pursuers first and the evader last, and
one step counter the episodes share; `reset` draws E spawns and `step`
advances all of them, returning per-episode rewards and flags of shape (E,).
Training runs one episode (E = 1) through the same functions that
evaluation uses for lockstep batches. Results equal those of stepping each
episode on its own bit for bit: per-element `math.hypot`/`math.atan2`
where numpy's own versions round differently, sums over pursuers taken left
to right, and degenerate-surround draws made in episode order. Work whose
size is a few values per episode (the polar form of the pursuer-evader
offsets, the evader's escape field) runs on Python floats, since a numpy
call costs more than that work on one episode.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import EpisodeDoneError
from .evader import evade_heading
from .geometry import normalize_angles, offsets, polar, wrap_coords

CAPTURE_REWARD = 50.0
STEP_PENALTY = -0.1

# Most expected spawn draws a configuration may need. `reset` accepts a draw
# with probability (1 - pi s^2)^n for spawn separation s < 0.5, so it redraws
# (1 - pi s^2)^-n times on average; n=8 at s=0.48 would need about 29k.
MAX_EXPECTED_SPAWN_DRAWS = 1000.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class WorldState:
    """Poses of E episodes that share one step counter, and the geometry
    between them.

    ``positions`` (E, n+1, 2) holds the pursuers in index order and then the
    evader, all in [0, 1)^2; ``headings`` (E, n+1) holds their headings in
    [-pi, pi). The pose properties are views into these two arrays. The
    offsets, distances and bearings between agents are computed once per
    state, when built, and shared by the capture test, the evader, greedy,
    pincer and the observations, so a state must not be changed once built.
    Nothing is checked here, since every state comes from `reset`, `step` or
    `make_state`.

    ``units`` (E, n+1, 2) holds cos and sin of every heading: the unit vector
    each agent moved along to reach this state. ``pair_offsets`` (E, n+1,
    n+1, 2): [:, i, j] is the minimal wrapped offset from agent i to agent j;
    agent n is the evader. ``chase_distances`` and ``chase_bearings`` (E, n,
    read-only) run from each pursuer to its evader, bearings in [-pi, pi).
    ``contact_distances`` and ``contact_bearings`` run from each evader to
    its pursuers, as flat lists in (episode, pursuer) order. ``nearest`` is
    the smallest pursuer-to-evader distance, inf for no episodes.
    """

    __slots__ = ("positions", "headings", "step", "units", "pair_offsets", "chase_distances",
                 "chase_bearings", "contact_distances", "contact_bearings", "nearest")

    def __init__(
        self,
        positions: np.ndarray,
        headings: np.ndarray,
        step: int = 0,
        units: np.ndarray | None = None,
    ):
        self.positions = positions
        self.headings = headings
        self.step = step
        if units is None:
            units = np.stack((np.cos(headings), np.sin(headings)), axis=-1)
        self.units = units
        pairs = offsets(positions[:, :, None], positions[:, None])
        self.pair_offsets = pairs
        # one polar call: every pursuer-to-evader offset, then every
        # evader-to-pursuer one, each in (episode, pursuer) order
        r, theta = polar(np.concatenate((pairs[:, :-1, -1], pairs[:, -1, :-1])))
        half = len(r) // 2
        chase = np.array(r[:half] + theta[:half]).reshape(2, -1, positions.shape[1] - 1)
        chase.flags.writeable = False
        self.chase_distances, self.chase_bearings = chase
        self.contact_distances, self.contact_bearings = r[half:], theta[half:]
        self.nearest = min(r[:half], default=math.inf)

    @property
    def episodes(self) -> int:
        return self.positions.shape[0]

    @property
    def n(self) -> int:
        return self.positions.shape[1] - 1

    @property
    def pursuers(self) -> np.ndarray:
        """(E, n, 2) pursuer positions."""
        return self.positions[:, :-1]

    @property
    def evader(self) -> np.ndarray:
        """(E, 2) evader positions."""
        return self.positions[:, -1]

    @property
    def pursuer_headings(self) -> np.ndarray:
        return self.headings[:, :-1]

    @property
    def evader_heading(self) -> np.ndarray:
        return self.headings[:, -1]

    @property
    def chase_offsets(self) -> np.ndarray:
        """(E, n, 2) offsets from each pursuer to its evader."""
        return self.pair_offsets[:, :-1, -1]

    def select(self, keep: np.ndarray) -> "WorldState":
        """The episodes picked by a boolean mask or index array, same step."""
        return WorldState(self.positions[keep], self.headings[keep], self.step, self.units[keep])


def make_state(
    pursuer_xy,
    evader_xy,
    pursuer_headings=None,
    evader_heading=None,
    step: int = 0,
) -> WorldState:
    """A checked state from positions (E, n, 2) and (E, 2), or (n, 2) and (2,)
    for one episode; headings default to 0."""
    pursuers = np.array(pursuer_xy, dtype=np.float64)
    evader = np.array(evader_xy, dtype=np.float64)
    if pursuers.ndim == 2:
        pursuers, evader = pursuers[None], evader[None]
    if pursuers.ndim != 3 or pursuers.shape[1] == 0 or pursuers.shape[2] != 2:
        raise ValueError(f"pursuer positions must be (E, n>=1, 2), got {pursuers.shape}")
    e, n = pursuers.shape[:2]
    if evader.shape != (e, 2):
        raise ValueError(f"evader positions must be ({e}, 2), got {evader.shape}")
    positions = np.concatenate((pursuers, evader[:, None, :]), axis=1)
    headings = np.zeros((e, n + 1))
    if pursuer_headings is not None:
        headings[:, :n] = np.reshape(pursuer_headings, (e, n))
    if evader_heading is not None:
        headings[:, n] = np.reshape(evader_heading, e)
    if not (np.isfinite(positions).all() and (positions >= 0.0).all()
            and (positions < 1.0).all()):
        raise ValueError("positions must be finite and in [0, 1)^2; use wrap_coords")
    if not (np.isfinite(headings).all() and (headings >= -math.pi).all()
            and (headings < math.pi).all()):
        raise ValueError("headings must be finite and normalized to [-pi, pi)")
    if step < 0:
        raise ValueError(f"negative step counter {step}")
    return WorldState(positions, headings, step)


@dataclass(frozen=True)
class EnvConfig:
    n: int = 3
    evader_speed: float = 0.05
    velocity_ratio: float = 1.0
    capture_radius: float = 0.05
    episode_length: int = 500

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n >= 2**63:  # beyond any array index, and the float range may end first
            raise ValueError("n must be below 2^63")
        if not self.evader_speed > 0.0:
            raise ValueError(f"evader_speed must be > 0, got {self.evader_speed}")
        if not self.velocity_ratio > 0.0:
            raise ValueError(f"velocity_ratio must be > 0, got {self.velocity_ratio}")
        if not 0.0 < self.capture_radius < 0.5:
            raise ValueError(f"capture_radius must be in (0, 0.5), got {self.capture_radius}")
        if self.episode_length < 1:
            raise ValueError(f"episode_length must be >= 1, got {self.episode_length}")
        if not self.spawn_separation < 0.5:
            raise ValueError(
                "capture_radius + evader_speed * (1 + velocity_ratio) must be < 0.5 "
                "so that a spawn can keep every pursuer out of capture range, got "
                f"capture_radius {self.capture_radius}, evader_speed "
                f"{self.evader_speed}, velocity_ratio {self.velocity_ratio}"
            )
        draws = self.expected_spawn_draws
        if draws > MAX_EXPECTED_SPAWN_DRAWS:
            raise ValueError(
                f"a spawn of n={self.n} pursuers at spawn separation "
                f"{self.spawn_separation:.6g} needs {draws:.4g} expected draws, more than "
                f"{MAX_EXPECTED_SPAWN_DRAWS:g}; lower n, capture_radius, evader_speed "
                "or velocity_ratio"
            )

    @property
    def pursuer_speed(self) -> float:
        return self.velocity_ratio * self.evader_speed

    @property
    def spawn_separation(self) -> float:
        """Distance below which a pursuer can capture on the first step."""
        return self.capture_radius + self.pursuer_speed + self.evader_speed

    @property
    def expected_spawn_draws(self) -> float:
        """Mean number of draws `reset` makes: (1 - pi s^2)^-n, computed in
        log space, so a count beyond the float range is inf, not an error."""
        log_draws = -self.n * math.log1p(-math.pi * self.spawn_separation**2)
        return math.exp(log_draws) if log_draws < _LOG_FLOAT_MAX else math.inf


class StepOutcome(NamedTuple):
    """Per-episode step result: the reward every pursuer of an episode shares,
    and whether the step captured or truncated it. All arrays are (E,)."""

    rewards: np.ndarray
    captured: np.ndarray
    truncated: np.ndarray

    @property
    def done(self) -> np.ndarray:
        return self.captured | self.truncated


def reset(config: EnvConfig, rng: np.random.Generator, episodes: int = 1) -> WorldState:
    """Fresh episodes: poses uniform on the torus, headings uniform, no pursuer
    within `config.spawn_separation` of the evader.

    Episodes are drawn one after another from `rng`. Each spawn draws x, y
    and heading per pose, pursuers in index order and then the evader, and is
    redrawn whole until every pursuer is farther than the separation, so no
    episode starts captured or one step from capture. The rule compares
    relative positions only, so by the torus's translation symmetry each
    pose's marginal stays uniform.
    """
    n = config.n
    low = np.tile((0.0, 0.0, -math.pi), n + 1)
    high = np.tile((1.0, 1.0, math.pi), n + 1)
    poses = np.empty((episodes, n + 1, 3))
    for e in range(episodes):
        while True:
            draw = rng.uniform(low, high).reshape(1, n + 1, 3)
            spawn = WorldState(draw[..., :2], draw[..., 2])
            if spawn.nearest > config.spawn_separation:
                break
        poses[e] = draw[0]
    return WorldState(poses[..., :2].copy(), poses[..., 2].copy())


def is_captured(state: WorldState, config: EnvConfig) -> np.ndarray:
    """(E,) mask: some pursuer within capture_radius of the evader (closed)."""
    return (state.chase_distances <= config.capture_radius).any(axis=1)


@functools.lru_cache(maxsize=8)
def _speeds(n: int, pursuer_speed: float, evader_speed: float) -> np.ndarray:
    """(n+1, 1) speed of every agent, pursuers first."""
    return np.array([pursuer_speed] * n + [evader_speed])[:, None]


@functools.lru_cache(maxsize=8)
def _outcome(e: int, truncated: bool) -> StepOutcome:
    """The read-only outcome of a step that captured none of E episodes."""
    arrays = np.full(e, STEP_PENALTY), np.zeros(e, dtype=bool), np.full(e, truncated)
    for a in arrays:
        a.flags.writeable = False
    return StepOutcome(*arrays)


def step(
    state: WorldState,
    pursuer_headings: np.ndarray,
    config: EnvConfig,
    rng: np.random.Generator,
) -> tuple[WorldState, StepOutcome]:
    """Advance every episode of `state` one time-step; headings are (E, n).

    Each evader's heading is computed from `state` before anyone moves, so
    the transition is simultaneous. The rng is consumed only when an
    evader's escape field is degenerate (perfectly symmetric surround), once
    per such episode in episode order. The outcome's arrays are read-only.
    """
    if state.step >= config.episode_length:
        raise EpisodeDoneError(f"episode already truncated at step {state.step}")
    if state.nearest <= config.capture_radius:
        raise EpisodeDoneError("episode already ended by capture")
    e, n = state.episodes, state.n
    if np.shape(pursuer_headings) != (e, n):
        raise ValueError(
            f"expected headings of shape {(e, n)}, got {np.shape(pursuer_headings)}"
        )
    headings = np.empty((e, n + 1))
    chosen = headings[:, :n]
    chosen[...] = pursuer_headings
    # abs(nan) < pi is False, so a NaN anywhere takes the checked path
    if not all(abs(h) < math.pi for h in chosen.ravel().tolist()):
        finite = np.isfinite(chosen)
        if not finite.all():
            raise ValueError(f"non-finite pursuer heading {float(chosen[~finite][0])!r}")
        normalize_angles(chosen)
    headings[:, n] = evade_heading(state, rng)

    units = np.empty(state.positions.shape)
    np.cos(headings, out=units[..., 0])
    np.sin(headings, out=units[..., 1])
    moved = units * _speeds(n, config.pursuer_speed, config.evader_speed)
    moved += state.positions
    new_state = WorldState(wrap_coords(moved), headings, state.step + 1, units)

    truncating = new_state.step >= config.episode_length
    if new_state.nearest > config.capture_radius:
        return new_state, _outcome(e, truncating)
    captured = is_captured(new_state, config)
    rewards = np.where(captured, CAPTURE_REWARD, STEP_PENALTY)
    truncated = ~captured if truncating else np.zeros(e, dtype=bool)
    return new_state, StepOutcome(rewards, captured, truncated)


@functools.lru_cache(maxsize=8)
def _observed(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (n, n): row i picks agent i's offsets to the evader and
    then to every teammate j != i in ascending order."""
    cols = [[n] + [j for j in range(n) if j != i] for i in range(n)]
    return np.arange(n)[:, None], np.array(cols, dtype=np.intp)


def observe_partial(state: WorldState) -> np.ndarray:
    """Private observations (E, n, 4): cos and sin of the pursuer's own
    heading, then its offset to the evader."""
    return np.concatenate((state.units[:, :-1], state.chase_offsets), axis=-1)


def observe_full(state: WorldState) -> np.ndarray:
    """Observations with teammate information, (E, n, 4 + 2(n-1)).

    Row i: [cos h_i, sin h_i, disp(p_i -> evader), disp(p_i -> p_j) for all
    j != i in ascending index order].
    """
    e, n = state.episodes, state.n
    rows, cols = _observed(n)
    offsets_seen = state.pair_offsets[:, rows, cols].reshape(e, n, 2 * n)
    return np.concatenate((state.units[:, :-1], offsets_seen), axis=-1)


def strategy_observation(strategy: str, n: int) -> tuple[Callable[[WorldState], np.ndarray], int]:
    """What a team of n pursuers playing ``strategy`` observes: the observe
    function and its width. ``cd_ddpg_partial`` sees ``observe_partial``;
    every other strategy, ``cd_ddpg`` among them, sees ``observe_full``."""
    if strategy == "cd_ddpg_partial":
        return observe_partial, 4
    return observe_full, 4 + 2 * (n - 1)
