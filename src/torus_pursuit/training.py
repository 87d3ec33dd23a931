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

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .checkpoint import alias_checkpoint, load_checkpoint, save_checkpoint
from .config import TRAINABLE_STRATEGIES, ExperimentConfig
from .curriculum import (
    BehaviorPhase,
    behavior_for_epoch,
    scripted_action,
    velocity_at_epoch,
)
from .ddpg import TeamLearner, make_team
from .environment import reset, step, strategy_observation
from .errors import CheckpointIntegrityError, ConfigError, SchemaVersionError

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

    def restore(self, states: Any) -> None:
        """Sets every stream to its stored state. Raises CheckpointIntegrityError
        unless ``states`` holds one ``explore`` and one ``sample`` state per
        agent, and every state is one its generator accepts."""
        if not isinstance(states, dict):
            raise CheckpointIntegrityError(f"rng_states: {type(states).__name__}, want an object")
        streams = [("env", self.env, states.get("env"))]
        for name in ("explore", "sample"):
            stored, generators = states.get(name), getattr(self, name)
            if not isinstance(stored, list) or len(stored) != len(generators):
                got = f"{len(stored)} stream states" if isinstance(stored, list) else "no list"
                raise CheckpointIntegrityError(
                    f"rng_states.{name}: {got}, want {len(generators)} (one per agent)")
            streams += [(f"{name}[{i}]", g, s) for i, (g, s) in enumerate(zip(generators, stored))]
        for where, g, s in streams:
            try:
                g.bit_generator.state = s
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CheckpointIntegrityError(
                    f"rng_states.{where}: not a {type(g.bit_generator).__name__} state "
                    f"({type(exc).__name__}: {exc})") from exc


def make_streams(master_seed: int, n: int) -> TrainingStreams:
    children = np.random.SeedSequence(master_seed).spawn(2 * n + 2)
    return TrainingStreams(
        env=np.random.default_rng(children[0]),
        explore=[np.random.default_rng(c) for c in children[1 : n + 1]],
        sample=[np.random.default_rng(c) for c in children[n + 1 : 2 * n + 1]],
        init=np.random.default_rng(children[2 * n + 1]),
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
    observe, _ = strategy_observation(config.run.strategy, env_cfg.n)
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
            headings = np.array(team.act_explore(obs, streams.explore))
            if (bad := np.flatnonzero(~np.isfinite(headings))).size:
                raise FloatingPointError(
                    f"non-finite heading at global epoch {global_epoch}, step {steps + 1}, "
                    f"agent {bad[0]}: {float(headings[bad[0]])!r}"
                )
        state, outcome = step(state, headings[None], env_cfg, streams.env)
        next_obs = observe(state)[0]
        reward = float(outcome.rewards[0])
        captured = bool(outcome.captured[0])
        # next_obs starts with the unit vectors (cos, sin) of the headings just taken
        team.buffer.push(obs, reward, next_obs, captured)
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
    and a final checkpoint.json (each with its .npz sidecar). When the plan's
    last epoch is a snapshot epoch, that snapshot is written once: its
    manifest equals checkpoint.json and names checkpoint.npz as its sidecar,
    so no checkpoint_epoch{N}.npz is written (a stale one is removed), and
    deleting or overwriting checkpoint.npz breaks that snapshot. A resume
    into a directory that already holds a curve keeps its rows before the
    checkpoint's global epoch and continues after them.
    """
    if config.run.strategy not in TRAINABLE_STRATEGIES:
        raise ConfigError(
            f"run.strategy: cannot train analytic strategy {config.run.strategy!r}"
        )
    out = Path(out_dir if out_dir is not None else config.run.out_dir)
    plan = config.curriculum
    streams = make_streams(config.run.seed, config.env.n)

    if resume is not None:
        team, session_idx, epoch_idx, global_epoch, rng_states = load_checkpoint(resume, config)
        try:
            streams.restore(rng_states)
        except CheckpointIntegrityError as exc:
            raise CheckpointIntegrityError(f"checkpoint {resume}: {exc}") from exc
    else:
        team = make_team(config, streams.init)
        session_idx, epoch_idx, global_epoch = 0, 0, 0
    out.mkdir(parents=True, exist_ok=True)  # after a refused resume, nothing is written

    final_snapshot: Path | None = None
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
                    snapshot = out / f"checkpoint_epoch{global_epoch}.json"
                    if nxt_session == len(plan.sessions):
                        final_snapshot = snapshot  # the plan's last epoch: written below
                    else:
                        # a resume from this snapshot keeps the rows before it
                        curve.flush()
                        save_checkpoint(snapshot, config, team, nxt_session, nxt_epoch,
                                        global_epoch, streams.states())
            session_idx += 1
            epoch_idx = 0
    final = out / "checkpoint.json"
    save_checkpoint(final, config, team, session_idx, 0, global_epoch, streams.states())
    if final_snapshot is not None:
        # same session, epochs and streams: the final checkpoint is the snapshot
        alias_checkpoint(final, final_snapshot)
    return out
