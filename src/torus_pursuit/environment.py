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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EpisodeDoneError
from .evader import evade_heading
from .geometry import Point2, displacement, distance, normalize_angle, wrap

CAPTURE_REWARD = 50.0
STEP_PENALTY = -0.1

# Most expected spawn draws a configuration may need. `reset` accepts a draw
# with probability (1 - pi s^2)^n for spawn separation s < 0.5, so it redraws
# (1 - pi s^2)^-n times on average; n=8 at s=0.48 would need about 29k.
MAX_EXPECTED_SPAWN_DRAWS = 1000.0


@dataclass(frozen=True)
class Pose:
    """Position and heading of one agent; heading normalized to [-pi, pi)."""

    position: Point2
    heading: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.heading):
            raise ValueError(f"non-finite heading {self.heading!r}")
        if not (-math.pi <= self.heading < math.pi):
            raise ValueError(f"heading {self.heading!r} not normalized to [-pi, pi)")


@dataclass(frozen=True)
class WorldState:
    """Poses of all pursuers and the evader, plus the step counter."""

    pursuers: tuple[Pose, ...]
    evader: Pose
    step: int

    def __post_init__(self) -> None:
        if len(self.pursuers) < 1:
            raise ValueError("at least one pursuer is required")
        if self.step < 0:
            raise ValueError(f"negative step counter {self.step}")


@dataclass(frozen=True)
class EnvConfig:
    n: int = 3
    evader_speed: float = 0.05
    velocity_ratio: float = 1.0
    capture_radius: float = 0.05
    episode_length: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
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
        """Mean number of draws `reset` makes: (1 - pi s^2)^-n."""
        return (1.0 - math.pi * self.spawn_separation**2) ** -self.n


@dataclass(frozen=True)
class StepOutcome:
    """Per-step result; the reward tuple holds one (shared) value per pursuer."""

    rewards: tuple[float, ...]
    captured: bool
    done: bool
    truncated: bool

    def __post_init__(self) -> None:
        if self.captured and not self.done:
            raise ValueError("captured implies done")
        if self.truncated and (not self.done or self.captured):
            raise ValueError("truncated implies done and not captured")


def _random_pose(rng: np.random.Generator) -> Pose:
    x = rng.uniform(0.0, 1.0)
    y = rng.uniform(0.0, 1.0)
    heading = rng.uniform(-math.pi, math.pi)
    return Pose(Point2(x, y), heading)


def reset(config: EnvConfig, rng: np.random.Generator) -> WorldState:
    """Fresh episode: poses uniform on the torus, headings uniform, no pursuer
    within `config.spawn_separation` of the evader.

    The whole spawn (pursuers in index order, then the evader) is redrawn
    from `rng` until every pursuer is farther than the separation, so no
    episode starts captured or one step from capture. The rule compares
    relative positions only, so by the torus's translation symmetry each
    pose's marginal stays uniform.
    """
    separation = config.spawn_separation
    while True:
        pursuers = tuple(_random_pose(rng) for _ in range(config.n))
        evader = _random_pose(rng)
        if all(distance(p.position, evader.position) > separation for p in pursuers):
            return WorldState(pursuers=pursuers, evader=evader, step=0)


def is_captured(state: WorldState, config: EnvConfig) -> bool:
    """True iff some pursuer is within capture_radius of the evader (closed)."""
    e = state.evader.position
    return any(distance(p.position, e) <= config.capture_radius for p in state.pursuers)


def _advance(pose_position: Point2, heading: float, speed: float) -> Point2:
    return wrap(
        pose_position.x + speed * math.cos(heading),
        pose_position.y + speed * math.sin(heading),
    )


def step(
    state: WorldState,
    pursuer_headings: Sequence[float],
    config: EnvConfig,
    rng: np.random.Generator,
) -> tuple[WorldState, StepOutcome]:
    """Advance one time-step with the given pursuer headings.

    The evader's heading is computed from `state` before anyone moves, so the
    transition is simultaneous. The rng is consumed only when the evader's
    escape field is degenerate (perfectly symmetric surround).
    """
    if state.step >= config.episode_length:
        raise EpisodeDoneError(f"episode already truncated at step {state.step}")
    if is_captured(state, config):
        raise EpisodeDoneError("episode already ended by capture")
    if len(pursuer_headings) != len(state.pursuers):
        raise ValueError(
            f"expected {len(state.pursuers)} headings, got {len(pursuer_headings)}"
        )
    for h in pursuer_headings:
        if not math.isfinite(h):
            raise ValueError(f"non-finite pursuer heading {h!r}")

    evader_theta = evade_heading(
        state.evader.position, [p.position for p in state.pursuers], rng
    )

    new_pursuers = tuple(
        Pose(
            _advance(p.position, normalize_angle(h), config.pursuer_speed),
            normalize_angle(h),
        )
        for p, h in zip(state.pursuers, pursuer_headings)
    )
    new_evader = Pose(
        _advance(state.evader.position, evader_theta, config.evader_speed), evader_theta
    )
    new_state = WorldState(pursuers=new_pursuers, evader=new_evader, step=state.step + 1)

    captured = is_captured(new_state, config)
    truncated = not captured and new_state.step >= config.episode_length
    reward = CAPTURE_REWARD if captured else STEP_PENALTY
    outcome = StepOutcome(
        rewards=tuple(reward for _ in new_pursuers),
        captured=captured,
        done=captured or truncated,
        truncated=truncated,
    )
    return new_state, outcome


def observe_full(state: WorldState, i: int) -> np.ndarray:
    """Observation with teammate information.

    Layout: [cos h_i, sin h_i, disp(p_i -> evader), disp(p_i -> p_j) for all
    j != i in ascending index order]; length 2 + 2 + 2*(n-1).
    """
    me = state.pursuers[i]  # raises IndexError for bad i
    parts = [math.cos(me.heading), math.sin(me.heading)]
    de = displacement(me.position, state.evader.position)
    parts.extend((de.dx, de.dy))
    for j, other in enumerate(state.pursuers):
        if j == i:
            continue
        dt = displacement(me.position, other.position)
        parts.extend((dt.dx, dt.dy))
    return np.array(parts, dtype=np.float64)


def observe_partial(state: WorldState, i: int) -> np.ndarray:
    """Private observation: own heading and the evader offset only; length 4."""
    me = state.pursuers[i]
    de = displacement(me.position, state.evader.position)
    return np.array(
        [math.cos(me.heading), math.sin(me.heading), de.dx, de.dy], dtype=np.float64
    )


def observation_dim(n: int, partial: bool) -> int:
    return 4 if partial else 4 + 2 * (n - 1)
