"""Curriculum-driven decentralized training loop.

One epoch is one episode. Per epoch the velocity ratio comes from the active
session's schedule and the behavior phase decides whether actions come from
the scripted chase (warm-up) or each agent's own noisy policy. Transitions
always land in the per-agent replay buffers, and every agent performs one
critic update, one actor update, and one target soft-update per environment
step once its buffer holds a full batch. One ``TeamLearner`` runs all
agents' updates as stacked arrays; each agent samples its own ring with its
own stream and explores with its own. Everything is driven by streams
derived from the master seed, so a (config, seed) pair fixes every output
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .curriculum import (
    BehaviorPhase,
    behavior_for_epoch,
    scripted_action,
    velocity_at_epoch,
)
from .ddpg import TeamLearner
from .environment import observation_dim, observe_full, observe_partial, reset, step
from .errors import ConfigError, SchemaVersionError

CURVE_SCHEMA = "pursuit-training-curve-v1"
CURVE_HEADER = "global_epoch,session,epoch,ratio,phase,return,captured,steps"


@dataclass
class TrainingStreams:
    env: np.random.Generator
    explore: list[np.random.Generator]
    sample: list[np.random.Generator]
    init: np.random.Generator

    def states(self) -> dict[str, Any]:
        return {
            "env": self.env.bit_generator.state,
            "explore": [g.bit_generator.state for g in self.explore],
            "sample": [g.bit_generator.state for g in self.sample],
        }

    def restore(self, states: dict[str, Any]) -> None:
        self.env.bit_generator.state = states["env"]
        for g, s in zip(self.explore, states["explore"]):
            g.bit_generator.state = s
        for g, s in zip(self.sample, states["sample"]):
            g.bit_generator.state = s


def make_streams(master_seed: int, n: int) -> TrainingStreams:
    children = np.random.SeedSequence(master_seed).spawn(2 * n + 2)
    return TrainingStreams(
        env=np.random.default_rng(children[0]),
        explore=[np.random.default_rng(c) for c in children[1 : n + 1]],
        sample=[np.random.default_rng(c) for c in children[n + 1 : 2 * n + 1]],
        init=np.random.default_rng(children[2 * n + 1]),
    )


def make_team(config: ExperimentConfig, init_rng: np.random.Generator) -> TeamLearner:
    partial = config.run.strategy == "cd_ddpg_partial"
    d = config.ddpg
    return TeamLearner(
        n=config.env.n,
        obs_dim=observation_dim(config.env.n, partial),
        rng=init_rng,
        actor_hidden=d.actor_hidden,
        critic_hidden=d.critic_hidden,
        gamma=d.gamma,
        tau=d.tau,
        lr_actor=d.lr_actor,
        lr_critic=d.lr_critic,
        clip_norm=d.clip_norm,
        buffer_capacity=d.buffer_capacity,
        theta_ou=d.theta_ou,
        sigma_ou=d.sigma_ou,
    )


def run_episode(
    config: ExperimentConfig,
    team: TeamLearner,
    streams: TrainingStreams,
    ratio: float,
    phase: BehaviorPhase,
    global_epoch: int,
) -> tuple[float, bool, int]:
    """One training episode; returns (per-pursuer return, captured, steps).

    Raises FloatingPointError, naming ``global_epoch``, the step and the
    agent, as soon as an update reports a non-finite critic loss or mean Q,
    or a learned policy returns a non-finite heading.
    """
    env_cfg = replace(config.env, velocity_ratio=ratio)
    observe = observe_partial if config.run.strategy == "cd_ddpg_partial" else observe_full
    n = env_cfg.n
    batch_size = config.ddpg.batch_size
    state = reset(env_cfg, streams.env)
    team.reset_noise()
    ep_return = 0.0
    steps = 0
    obs = observe(state)[0]
    while True:
        if phase is BehaviorPhase.SCRIPTED:
            headings = scripted_action(state)[0]
        else:
            chosen = team.act_explore(obs, streams.explore)
            for i, heading in enumerate(chosen):
                if not math.isfinite(heading):
                    raise FloatingPointError(
                        f"non-finite heading at global epoch {global_epoch}, step {steps + 1}, "
                        f"agent {i}: {heading!r}"
                    )
            headings = np.array(chosen)
        state, outcome = step(state, headings[None], env_cfg, streams.env)
        next_obs = observe(state)[0]
        reward = float(outcome.rewards[0])
        captured = bool(outcome.captured[0])
        # the unit vectors of the headings just taken, as heading_to_vector gives them
        actions = state.units[0, :-1]
        team.buffer.push(obs, actions, np.full(n, reward), next_obs, captured)
        obs = next_obs
        if len(team.buffer) >= batch_size:
            loss = team.critic_update(team.buffer.sample(batch_size, streams.sample))
            mean_q = team.actor_update(team.buffer.sample(batch_size, streams.sample))
            bad = np.flatnonzero(~(np.isfinite(loss) & np.isfinite(mean_q)))
            if bad.size:
                i = bad[0]
                raise FloatingPointError(
                    f"non-finite update at global epoch {global_epoch}, step {steps + 1}, "
                    f"agent {i}: critic loss {float(loss[i])!r}, mean Q {float(mean_q[i])!r}"
                )
            team.soft_update_targets()
        ep_return += reward
        steps += 1
        if captured or outcome.truncated[0]:
            break
    return ep_return, captured, steps


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _curve_rows_before(path: Path, global_epoch: int) -> str:
    """Complete rows of an existing curve whose global_epoch precedes a resume.

    Later rows were written by a run that outlived the snapshot being resumed,
    and the resumed run writes them again.
    """
    if not path.exists():
        return ""
    lines = path.read_text().splitlines(keepends=True)
    if lines[:2] != [f"# schema={CURVE_SCHEMA}\n", CURVE_HEADER + "\n"]:
        raise SchemaVersionError(f"{path}: not a {CURVE_SCHEMA} file; cannot resume into it")
    return "".join(
        row for row in lines[2:]
        if row.endswith("\n") and int(row.split(",", 1)[0]) < global_epoch
    )


def run_training(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    resume: str | Path | None = None,
) -> Path:
    """Execute the session plan; returns the output directory.

    Writes training_curve.csv, periodic checkpoint_epoch{N}.json snapshots,
    and a final checkpoint.json (each with its .npz sidecar). A resume into a
    directory that already holds a curve keeps its rows before the
    checkpoint's global epoch and continues after them.
    """
    if config.run.strategy not in ("cd_ddpg", "cd_ddpg_partial"):
        raise ConfigError(
            f"run.strategy: cannot train analytic strategy {config.run.strategy!r}"
        )
    out = Path(out_dir if out_dir is not None else config.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan = config.curriculum
    streams = make_streams(config.run.seed, config.env.n)

    if resume is not None:
        team, session_idx, epoch_idx, global_epoch, rng_states = load_checkpoint(resume, config)
        streams.restore(rng_states)
    else:
        team = make_team(config, streams.init)
        session_idx, epoch_idx, global_epoch = 0, 0, 0

    curve_path = out / "training_curve.csv"
    earlier_rows = _curve_rows_before(curve_path, global_epoch) if resume is not None else ""
    with open(curve_path, "w", newline="") as curve:
        curve.write(f"# schema={CURVE_SCHEMA}\n")
        curve.write(CURVE_HEADER + "\n")
        curve.write(earlier_rows)
        while session_idx < len(plan.sessions):
            session = plan.sessions[session_idx]
            while epoch_idx < session.epochs:
                ratio = velocity_at_epoch(session.schedule, epoch_idx)
                phase = behavior_for_epoch(plan, session_idx, epoch_idx)
                ep_return, captured, steps = run_episode(
                    config, team, streams, ratio, phase, global_epoch
                )
                curve.write(
                    f"{global_epoch},{session_idx},{epoch_idx},{_fmt(ratio)},"
                    f"{phase.value},{_fmt(ep_return)},{1 if captured else 0},{steps}\n"
                )
                epoch_idx += 1
                global_epoch += 1
                if global_epoch % config.run.checkpoint_every == 0:
                    nxt_session, nxt_epoch = session_idx, epoch_idx
                    if nxt_epoch >= session.epochs:
                        nxt_session, nxt_epoch = session_idx + 1, 0
                    # a resume from this snapshot keeps the rows before it
                    curve.flush()
                    save_checkpoint(
                        out / f"checkpoint_epoch{global_epoch}.json",
                        config,
                        team,
                        nxt_session,
                        nxt_epoch,
                        global_epoch,
                        streams.states(),
                    )
            session_idx += 1
            epoch_idx = 0
    save_checkpoint(
        out / "checkpoint.json",
        config,
        team,
        session_idx,
        0,
        global_epoch,
        streams.states(),
    )
    return out
