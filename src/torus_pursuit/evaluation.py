"""Frozen-policy evaluation sweeps across velocity ratios.

Each sweep point runs a fixed number of episodes with exploration disabled
(learned policies act deterministically; analytic strategies are pure) and
logs full trajectories plus the capture-success rate per ratio.

Every strategy but random rolls a ratio's episodes in lockstep batches on
one array state: every batch draws its spawns first, in episode order, then
steps all its unfinished episodes at once, dropping each as it ends. A
learned team acts for all of them in one forward pass per step, whose
row-wise matmuls give each episode the bits it would get alone. A batch
buffers at most LOCKSTEP_AGENT_STEPS agent rows and writes each episode's
rows in one piece once it is done, in (episode, step, agent) order. The
files equal those of rolling the episodes one after another: if an evader
draws from the environment stream during a batch (a degenerate surround),
the stream is rewound to before the batch and the batch replayed one
episode at a time. The random strategy rolls batches of one episode, since
its per-step draws come from one shared stream. A batch of one is never
replayed, so an episode longer than the buffer is written in runs of steps
as it goes, and memory stays bounded whatever the episode length.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .config import TRAINABLE_STRATEGIES, ExperimentConfig
from .environment import EnvConfig, WorldState, reset, step, strategy_observation
from .pursuit import greedy_heading, pincer_headings
from .trajectory import TrajectoryWriter

if TYPE_CHECKING:
    from .ddpg import TeamLearner

SUCCESS_SCHEMA = "pursuit-success-v1"
SUCCESS_HEADER = "ratio,episodes,captures,success_rate"

# Most agent rows (episodes x steps x (n + 1)) one rollout buffers.
LOCKSTEP_AGENT_STEPS = 1 << 18

HeadingPolicy = Callable[[WorldState], np.ndarray]


def make_policy(
    strategy: str,
    team: TeamLearner | None,
    policy_rng: np.random.Generator,
    pincer_k: int = 1,
) -> HeadingPolicy:
    """Joint heading policy for one team strategy: headings (E, n) per state."""
    if strategy == "greedy":
        return greedy_heading
    if strategy == "pincer":
        return lambda s: pincer_headings(s, pincer_k)
    if strategy == "random":
        return lambda s: policy_rng.uniform(-np.pi, np.pi, size=s.pursuer_headings.shape)
    if strategy in TRAINABLE_STRATEGIES:
        if team is None:
            raise ValueError(f"strategy {strategy!r} requires a trained team")
        observe, _ = strategy_observation(strategy, team.n)
        return lambda s: team.act(observe(s))
    raise ValueError(f"unknown strategy {strategy!r}")


# Takes T post-move records of one episode, from step `first_step` on:
# write(episode, poses=..., rewards=..., captured=..., first_step=...) with
# poses (T, n+1, 3) and rewards (T,) as `TrajectoryWriter.write_episode`
# takes them; `captured` marks the last of the T steps as the capturing one.
EpisodeWriter = Callable[..., None]


def rollout(
    env_cfg: EnvConfig,
    policy: HeadingPolicy,
    env_rng: np.random.Generator,
    episodes: int,
    first: int,
    write: EpisodeWriter,
) -> np.ndarray:
    """Roll `episodes` frozen episodes, numbered from `first`, in lockstep
    from fresh spawns; returns whether each was captured, (E,).

    `write` receives each episode's post-move records in step order, episode
    after episode. The results equal rolling the episodes one after another:
    a batch whose evaders drew from `env_rng` is replayed one episode at a
    time, so a batch writes nothing until it is done. A batch of one is
    never replayed; it writes an episode longer than LOCKSTEP_AGENT_STEPS
    agent rows in runs of steps, so no rollout buffers more rows than that.
    """
    saved = env_rng.bit_generator.state
    state = reset(env_cfg, env_rng, episodes)
    spawned = env_rng.bit_generator.state if episodes > 1 else None
    length, n = env_cfg.episode_length, env_cfg.n
    span = length if episodes > 1 else min(length, max(1, LOCKSTEP_AGENT_STEPS // (n + 1)))
    captured = np.zeros(episodes, dtype=bool)
    steps = np.zeros(episodes, dtype=int)
    poses = np.empty((episodes, span, n + 1, 3))
    rewards = np.empty((episodes, span))
    active = np.arange(episodes)
    written = 0  # steps a batch of one has already written
    while active.size:
        state, outcome = step(state, policy(state), env_cfg, env_rng)
        t = state.step - 1 - written
        poses[active, t, :, :2] = state.positions
        poses[active, t, :, 2] = state.headings
        rewards[active, t] = outcome.rewards
        done = outcome.done
        if done.any():
            captured[active[done]] = outcome.captured[done]
            steps[active[done]] = state.step
            active = active[~done]
            state = state.select(~done)
        elif t + 1 == span:  # a batch of one whose episode outlasts its buffer
            write(first, poses=poses[0], rewards=rewards[0], captured=False,
                  first_step=written + 1)
            written += span
    if spawned is not None and env_rng.bit_generator.state != spawned:
        # An evader drew from the stream mid-batch; one-at-a-time rollouts
        # would have drawn it before the next episode's spawn.
        env_rng.bit_generator.state = saved
        return np.concatenate([rollout(env_cfg, policy, env_rng, 1, first + j, write)
                               for j in range(episodes)])
    for j, t in enumerate((steps - written).tolist()):
        write(first + j, poses=poses[j, :t], rewards=rewards[j, :t],
              captured=bool(captured[j]), first_step=written + 1)
    return captured


def ratio_label(ratio: float) -> str:
    return f"{ratio:g}".replace(".", "_")


def check_ratio_labels(ratios: Sequence[float]) -> None:
    """Raise ValueError, naming both, if two ratios share a log name."""
    seen: dict[str, float] = {}
    for ratio in ratios:
        label = ratio_label(ratio)
        if label in seen:
            raise ValueError(
                f"ratios {seen[label]!r} and {ratio!r} would both log to "
                f"trajectories_ratio_{label}.csv"
            )
        seen[label] = ratio


def lockstep_batch(env_cfg: EnvConfig, strategy: str, episodes: int) -> int:
    """Episodes per lockstep batch for one ratio's sweep."""
    if strategy == "random":  # whose per-step draws share one stream
        return 1
    rows = env_cfg.episode_length * (env_cfg.n + 1)
    return max(1, min(episodes, LOCKSTEP_AGENT_STEPS // rows))


def run_eval(
    config: ExperimentConfig,
    ratios: Sequence[float],
    episodes: int,
    out_dir: str | Path,
    team: TeamLearner | None = None,
    strategy: str | None = None,
) -> dict[float, float]:
    """Sweep the given ratios; returns {ratio: success_rate}.

    Writes success.csv plus one trajectory log per ratio into out_dir. The
    run seed drives both episode initialization and any policy randomness;
    each ratio gets its own derived stream so points are independent.
    Raises ValueError for fewer than one episode and for two ratios that
    share a log name.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    check_ratio_labels(ratios)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategy = strategy if strategy is not None else config.run.strategy
    results: dict[float, float] = {}
    rows = []
    for ridx, ratio in enumerate(ratios):
        env_cfg = replace(config.env, velocity_ratio=ratio)
        children = np.random.SeedSequence((config.run.seed, ridx)).spawn(2)
        env_rng = np.random.default_rng(children[0])
        policy = make_policy(strategy, team, np.random.default_rng(children[1]),
                             config.run.pincer_k)
        batch = lockstep_batch(env_cfg, strategy, episodes)
        captures = 0
        with TrajectoryWriter(out / f"trajectories_ratio_{ratio_label(ratio)}.csv") as writer:
            write = functools.partial(writer.write_episode, ratio=ratio)
            for start in range(0, episodes, batch):
                rolled = rollout(env_cfg, policy, env_rng, min(batch, episodes - start), start,
                                 write)
                captures += int(rolled.sum())
        rate = captures / episodes
        results[ratio] = rate
        rows.append((ratio, episodes, captures, rate))

    write_table(out / "success.csv", SUCCESS_SCHEMA, SUCCESS_HEADER, rows)
    return results


def write_table(path: Path, schema: str, header: str, rows: Iterable[Sequence]) -> None:
    """Writes rows as a CSV headed by a `# schema=` line and `header`: floats
    as .9g, every other value as str."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n{header}\n")
        for row in rows:
            fh.write(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)
                     + "\n")
