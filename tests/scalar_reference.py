"""Scalar reference model of the environment, the evader and the scripted
strategies: one episode at a time, per-pose dataclasses and `math` calls.

The package computes all of these on arrays with a leading episode axis.
This module keeps the one-episode-at-a-time formulation that the array code
must reproduce bit for bit, together with a sequential `run_eval`, so that
tests can compare the two on any input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from torus_pursuit import evader as evader_module
from torus_pursuit.environment import (
    CAPTURE_REWARD,
    STEP_PENALTY,
    EnvConfig,
    WorldState,
    make_state,
)
from torus_pursuit.errors import EpisodeDoneError, SingularityError
from torus_pursuit.evader import PolarContact
from torus_pursuit.evaluation import ratio_label, write_success_table
from torus_pursuit.geometry import (
    Point2,
    displacement,
    distance,
    normalize_angle,
    replicate,
    wrap,
)
from torus_pursuit.pursuit import BALANCE_TIE_BAND, check_pincer_grid
from torus_pursuit.trajectory import TRAJECTORY_HEADER, TRAJECTORY_SCHEMA


@dataclass(frozen=True)
class Pose:
    position: Point2
    heading: float


@dataclass(frozen=True)
class ScalarState:
    pursuers: tuple[Pose, ...]
    evader: Pose
    step: int


@dataclass(frozen=True)
class ScalarOutcome:
    reward: float
    captured: bool
    done: bool


def to_scalar(state: WorldState, e: int = 0) -> ScalarState:
    """Episode e of an array state."""
    poses = [
        Pose(Point2(float(x), float(y)), float(h))
        for (x, y), h in zip(state.positions[e], state.headings[e])
    ]
    return ScalarState(tuple(poses[:-1]), poses[-1], state.step)


def to_array(states: Sequence[ScalarState]) -> WorldState:
    """Array state holding the given episodes, which share one step."""
    return make_state(
        [[(p.position.x, p.position.y) for p in s.pursuers] for s in states],
        [(s.evader.position.x, s.evader.position.y) for s in states],
        [[p.heading for p in s.pursuers] for s in states],
        [s.evader.heading for s in states],
        step=states[0].step,
    )


def _random_pose(rng: np.random.Generator) -> Pose:
    x = rng.uniform(0.0, 1.0)
    y = rng.uniform(0.0, 1.0)
    heading = rng.uniform(-math.pi, math.pi)
    return Pose(Point2(x, y), heading)


def reset(config: EnvConfig, rng: np.random.Generator) -> ScalarState:
    separation = config.spawn_separation
    while True:
        pursuers = tuple(_random_pose(rng) for _ in range(config.n))
        evader = _random_pose(rng)
        if all(distance(p.position, evader.position) > separation for p in pursuers):
            return ScalarState(pursuers, evader, 0)


def is_captured(state: ScalarState, config: EnvConfig) -> bool:
    e = state.evader.position
    return any(distance(p.position, e) <= config.capture_radius for p in state.pursuers)


def evade_heading(
    evader_position: Point2, pursuer_positions: Sequence[Point2], rng: np.random.Generator
) -> float:
    a = b = 0.0  # summed left to right, whatever `sum` does on this Python
    for q in pursuer_positions:
        d = displacement(evader_position, q)
        r = d.norm()
        if r == 0.0:
            raise SingularityError("pursuer co-located with evader")
        contact = PolarContact(r, d.bearing())
        a += math.cos(contact.theta_rel) / contact.r
        b += math.sin(contact.theta_rel) / contact.r
    if math.hypot(a, b) < evader_module.DEGENERACY_THRESHOLD:
        return normalize_angle(rng.uniform(-math.pi, math.pi))
    return normalize_angle(math.atan2(-b, -a))


def _advance(position: Point2, heading: float, speed: float) -> Point2:
    return wrap(position.x + speed * math.cos(heading), position.y + speed * math.sin(heading))


def step(
    state: ScalarState, headings: Sequence[float], config: EnvConfig, rng: np.random.Generator
) -> tuple[ScalarState, ScalarOutcome]:
    if state.step >= config.episode_length or is_captured(state, config):
        raise EpisodeDoneError("episode already over")
    theta = evade_heading(state.evader.position, [p.position for p in state.pursuers], rng)
    pursuers = tuple(
        Pose(_advance(p.position, normalize_angle(h), config.pursuer_speed), normalize_angle(h))
        for p, h in zip(state.pursuers, headings)
    )
    evader = Pose(_advance(state.evader.position, theta, config.evader_speed), theta)
    new_state = ScalarState(pursuers, evader, state.step + 1)
    captured = is_captured(new_state, config)
    done = captured or new_state.step >= config.episode_length
    return new_state, ScalarOutcome(CAPTURE_REWARD if captured else STEP_PENALTY, captured, done)


def observe_full(state: ScalarState, i: int) -> np.ndarray:
    me = state.pursuers[i]
    parts = [math.cos(me.heading), math.sin(me.heading)]
    de = displacement(me.position, state.evader.position)
    parts.extend((de.dx, de.dy))
    for j, other in enumerate(state.pursuers):
        if j != i:
            dt = displacement(me.position, other.position)
            parts.extend((dt.dx, dt.dy))
    return np.array(parts)


def observe_partial(state: ScalarState, i: int) -> np.ndarray:
    return observe_full(state, i)[:4]


def greedy_heading(pursuer: Pose, evader_position: Point2) -> float:
    d = displacement(pursuer.position, evader_position)
    if d.dx == 0.0 and d.dy == 0.0:
        raise SingularityError("pursuer co-located with evader")
    return d.bearing()


def pincer_selection(
    state: ScalarState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> tuple[tuple[int, ...], float, float]:
    """(replica indices, objective, total distance) of one episode."""
    n = len(state.pursuers)
    check_pincer_grid(n, k)
    m = (2 * k + 1) ** 2
    evader = state.evader.position
    ev = np.array([evader.x, evader.y])
    wa, wb, rr = [], [], []
    total_weight = 0.0
    for p in state.pursuers:
        true_r = distance(p.position, evader)
        if true_r == 0.0:
            raise SingularityError("pursuer co-located with evader")
        weight = 1.0 / true_r
        total_weight += weight
        rel = np.asarray(replicate(p.position, k)) - ev
        img_r = np.hypot(rel[:, 0], rel[:, 1])
        wa.append(weight * rel[:, 0] / img_r)
        wb.append(weight * rel[:, 1] / img_r)
        rr.append(img_r)
    grids = []
    for parts in (wa, wb, rr):
        grid = np.zeros((m,) * n)
        for i, part in enumerate(parts):
            shape = [1] * n
            shape[i] = m
            grid += part.reshape(shape)
        grids.append(grid)
    a_tot, b_tot, d_tot = grids
    objective = (-np.sqrt(a_tot * a_tot + b_tot * b_tot)).ravel()
    near = objective >= objective.max() - balance_tie_band * total_weight
    candidates = np.flatnonzero(near)
    pick = candidates[int(np.argmin(d_tot.ravel()[candidates]))]
    indices = tuple(int(ix) for ix in np.unravel_index(pick, (m,) * n))
    return indices, float(objective[pick]), float(d_tot.ravel()[pick])


def pincer_headings(state: ScalarState, k: int = 1) -> list[float]:
    indices, _, _ = pincer_selection(state, k)
    evader = state.evader.position
    headings = []
    for pose, idx in zip(state.pursuers, indices):
        rx, ry = replicate(pose.position, k)[idx]
        headings.append(normalize_angle(math.atan2(evader.y - ry, evader.x - rx)))
    return headings


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_step(fh, episode, state: ScalarState, ratio: float, outcome: ScalarOutcome) -> None:
    """The post-move rows of one step: the evader, then each pursuer."""
    cap = "1" if outcome.captured else "0"
    e = state.evader
    fh.write(f"{episode},{state.step},e,{_fmt(e.position.x)},{_fmt(e.position.y)},"
             f"{_fmt(e.heading)},{_fmt(e.heading)},0,{cap},{_fmt(ratio)}\n")
    for i, p in enumerate(state.pursuers):
        fh.write(f"{episode},{state.step},p{i},{_fmt(p.position.x)},{_fmt(p.position.y)},"
                 f"{_fmt(p.heading)},{_fmt(p.heading)},{_fmt(outcome.reward)},{cap},"
                 f"{_fmt(ratio)}\n")


def make_policy(strategy, team, policy_rng, pincer_k=1):
    if strategy == "greedy":
        return lambda s: [greedy_heading(p, s.evader.position) for p in s.pursuers]
    if strategy == "pincer":
        return lambda s: pincer_headings(s, pincer_k)
    if strategy == "random":
        return lambda s: list(policy_rng.uniform(-np.pi, np.pi, size=len(s.pursuers)))
    observe = observe_partial if strategy == "cd_ddpg_partial" else observe_full
    return lambda s: team.act(np.array([observe(s, i) for i in range(len(s.pursuers))]))


def run_eval(config, ratios, episodes, out_dir, team=None, strategy=None, write_logs=True):
    """Sequential sweep: every episode rolled to its end before the next spawns."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategy = strategy if strategy is not None else config.run.strategy
    results, rows = {}, []
    for ridx, ratio in enumerate(ratios):
        env_cfg = replace(config.env, velocity_ratio=ratio)
        children = np.random.SeedSequence((config.run.seed, ridx)).spawn(2)
        env_rng = np.random.default_rng(children[0])
        policy = make_policy(strategy, team, np.random.default_rng(children[1]),
                             config.run.pincer_k)
        fh = (open(out / f"trajectories_ratio_{ratio_label(ratio)}.csv", "w", newline="")
              if write_logs else None)
        if fh is not None:
            fh.write(f"# schema={TRAJECTORY_SCHEMA}\n{TRAJECTORY_HEADER}\n")
        captures = 0
        for ep in range(episodes):
            state = reset(env_cfg, env_rng)
            while True:
                state, outcome = step(state, policy(state), env_cfg, env_rng)
                if fh is not None:
                    write_step(fh, ep, state, ratio, outcome)
                if outcome.done:
                    captures += int(outcome.captured)
                    break
        if fh is not None:
            fh.close()
        results[ratio] = captures / episodes
        rows.append((ratio, episodes, captures, captures / episodes))
    write_success_table(out / "success.csv", rows)
    return results
