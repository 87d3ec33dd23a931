"""Frozen-policy evaluation sweeps across velocity ratios.

Each sweep point runs a fixed number of episodes with exploration disabled
(learned policies act deterministically; analytic strategies are pure) and
logs full trajectories plus the capture-success rate per ratio.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import ExperimentConfig
from .ddpg import AgentLearner
from .environment import EnvConfig, WorldState, observe_full, observe_partial, reset, step
from .pursuit import greedy_heading, pincer_headings
from .trajectory import TrajectoryWriter

SUCCESS_SCHEMA = "pursuit-success-v1"
SUCCESS_HEADER = "ratio,episodes,captures,success_rate"

HeadingPolicy = Callable[[WorldState], list[float]]


def make_policy(
    strategy: str,
    learners: list[AgentLearner] | None,
    policy_rng: np.random.Generator,
    pincer_k: int = 1,
) -> HeadingPolicy:
    """Joint heading policy for one team strategy."""
    if strategy == "greedy":
        return lambda s: [greedy_heading(p, s.evader.position) for p in s.pursuers]
    if strategy == "pincer":
        return lambda s: pincer_headings(s, pincer_k)
    if strategy == "random":
        return lambda s: list(policy_rng.uniform(-np.pi, np.pi, size=len(s.pursuers)))
    if strategy in ("cd_ddpg", "cd_ddpg_partial"):
        if learners is None:
            raise ValueError(f"strategy {strategy!r} requires trained learners")
        observe = observe_partial if strategy == "cd_ddpg_partial" else observe_full
        return lambda s: [
            learners[i].act(observe(s, i)) for i in range(len(s.pursuers))
        ]
    raise ValueError(f"unknown strategy {strategy!r}")


def rollout(
    env_cfg: EnvConfig,
    policy: HeadingPolicy,
    env_rng: np.random.Generator,
    writer: TrajectoryWriter | None = None,
    episode_index: int = 0,
) -> tuple[bool, int, float]:
    """One frozen episode; returns (captured, steps, per-pursuer return)."""
    state = reset(env_cfg, env_rng)
    ep_return = 0.0
    steps = 0
    while True:
        headings = policy(state)
        state, outcome = step(state, headings, env_cfg, env_rng)
        steps += 1
        ep_return += outcome.rewards[0]
        if writer is not None:
            writer.write_step(
                episode=episode_index,
                step=state.step,
                ratio=env_cfg.velocity_ratio,
                evader_xy=(state.evader.position.x, state.evader.position.y),
                evader_action=state.evader.heading,
                pursuer_xy=[(p.position.x, p.position.y) for p in state.pursuers],
                pursuer_actions=[p.heading for p in state.pursuers],
                reward=outcome.rewards[0],
                captured=outcome.captured,
            )
        if outcome.done:
            return outcome.captured, steps, ep_return


def ratio_label(ratio: float) -> str:
    return f"{ratio:g}".replace(".", "_")


def run_eval(
    config: ExperimentConfig,
    ratios: Sequence[float],
    episodes: int,
    out_dir: str | Path,
    learners: list[AgentLearner] | None = None,
    strategy: str | None = None,
    write_logs: bool = True,
) -> dict[float, float]:
    """Sweep the given ratios; returns {ratio: success_rate}.

    Writes success.csv plus one trajectory log per ratio into out_dir. The
    run seed drives both episode initialization and any policy randomness;
    each ratio gets its own derived stream so points are independent.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategy = strategy if strategy is not None else config.run.strategy
    results: dict[float, float] = {}
    rows = []
    for ridx, ratio in enumerate(ratios):
        env_cfg = replace(config.env, velocity_ratio=ratio)
        children = np.random.SeedSequence((config.run.seed, ridx)).spawn(2)
        env_rng = np.random.default_rng(children[0])
        policy = make_policy(strategy, learners, np.random.default_rng(children[1]),
                             config.run.pincer_k)
        writer = (
            TrajectoryWriter(out / f"trajectories_ratio_{ratio_label(ratio)}.csv")
            if write_logs
            else None
        )
        captures = 0
        try:
            for ep in range(episodes):
                captured, _, _ = rollout(env_cfg, policy, env_rng, writer, ep)
                captures += int(captured)
        finally:
            if writer is not None:
                writer.close()
        rate = captures / episodes
        results[ratio] = rate
        rows.append((ratio, episodes, captures, rate))

    write_success_table(out / "success.csv", rows)
    return results


def write_success_table(path: Path, rows: Iterable[tuple[float, int, int, float]]) -> None:
    """Writes (ratio, episodes, captures, success_rate) rows as a schema-headed CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={SUCCESS_SCHEMA}\n{SUCCESS_HEADER}\n")
        for ratio, eps, caps, rate in rows:
            fh.write(f"{ratio:.9g},{eps},{caps},{rate:.9g}\n")
