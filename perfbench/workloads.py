"""The benchmark's four workloads.

Each workload is a closed loop: one CLI invocation at a time, every iteration
the same invocations with the same generated configs, and the benchmark seed
passed as the CLI's `--seed`. Why each workload exists, and which layer
metric should move which end-to-end metric on it, is recorded in README.md.

Episodes run at pursuer/evader speed ratios below 1 with a small capture
radius wherever the workload should do the same amount of work for every
seed, so that throughput does not depend on how soon a seed's episodes end.
"""

from __future__ import annotations

import glob
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import CallResult, check_analyze, check_eval, check_resume, check_train


@dataclass
class Call:
    """One CLI invocation, run from the workload directory."""

    label: str
    args: Callable[[Path], list[str]]
    out: str
    check: Callable[[Path], CallResult]


@dataclass
class Workload:
    name: str
    # config files written to the workload directory; set-up loads the first
    configs: dict[str, dict]
    calls: list[Call]
    # untimed preparation run once per set-up repetition
    fixture: Callable[[int], Call] | None = None
    setup_repeats: int = 5


def _train_config(plan: dict, actor: list[int], critic: list[int], batch: int,
                  capacity: int, capture_radius: float) -> dict:
    return {
        "env": {"n": 3, "episode_length": plan["episode_length"],
                "capture_radius": capture_radius},
        "curriculum": {
            "warmup_epochs": plan["warmup_epochs"],
            "sessions": [{"v0": plan["v0"], "v_target": plan["v_target"],
                          "v_decay": plan["epochs"], "epochs": plan["epochs"],
                          "use_scripted_warmup": True}],
        },
        "ddpg": {"actor_hidden": actor, "critic_hidden": critic,
                 "batch_size": batch, "buffer_capacity": capacity},
        "run": {"strategy": "cd_ddpg", "checkpoint_every": plan["checkpoint_every"]},
    }


def _train_call(label: str, seed: int, out: str, plan: dict) -> Call:
    return Call(
        label=label,
        args=lambda work: ["train", "--config", "train.json", "--seed", str(seed),
                           "--out", out],
        out=out,
        check=lambda work: check_train(work / out, plan),
    )


def train_small(seed: int) -> Workload:
    # 100 scripted steps, then learning from step 96 on: 505 of 600 steps update.
    plan = {"episode_length": 100, "warmup_epochs": 1, "epochs": 6, "v0": 0.9,
            "v_target": 0.8, "checkpoint_every": 2}
    return Workload(
        name="train-small",
        configs={"train.json": _train_config(plan, [48, 48], [48, 48, 48], 96, 20_000, 0.01)},
        calls=[_train_call("train", seed, "out", plan)],
    )


def train_paper(seed: int) -> Workload:
    # The 512-transition fill is scripted and cheap; 65 learning steps at the
    # paper's shapes then take most of the wall time. Short iterations give
    # each run several to take the median of.
    plan = {"episode_length": 64, "warmup_epochs": 8, "epochs": 9, "v0": 0.8,
            "v_target": 0.8, "checkpoint_every": 1000}
    return Workload(
        name="train-paper",
        configs={"train.json": _train_config(plan, [128, 128], [128, 128, 128], 512,
                                             20_000, 0.01)},
        calls=[_train_call("train", seed, "out", plan)],
    )


def checkpoint_resume(seed: int) -> Workload:
    # Scripted-only plan whose batch equals the buffer capacity, so the
    # buffers fill (10k transitions per agent) without a single update. The
    # fixture snapshots before its last epoch; the timed call resumes there.
    plan = {"episode_length": 500, "warmup_epochs": 20, "epochs": 20, "v0": 0.6,
            "v_target": 0.6, "checkpoint_every": 19}
    config = _train_config(plan, [48, 48], [48, 48, 48], 10_240, 10_240, 0.001)

    def snapshot(work: Path) -> str:
        found = sorted(glob.glob("fixture0/checkpoint_epoch19.*", root_dir=work))
        json_first = sorted(found, key=lambda p: not p.endswith(".json"))
        return json_first[0] if json_first else "fixture0/checkpoint_epoch19.json"

    resume = Call(
        label="resume",
        args=lambda work: ["train", "--config", "train.json", "--seed", str(seed),
                           "--out", "out", "--resume", snapshot(work)],
        out="out",
        check=lambda work: check_resume(work / "out", work / "fixture0"),
    )
    return Workload(
        name="checkpoint-resume",
        configs={"train.json": config},
        calls=[resume],
        fixture=lambda k: _train_call("fixture", seed, f"fixture{k}", plan),
        setup_repeats=2,
    )


EVAL_EPISODE_LENGTH = 100
EVAL_LEGS = (
    # label, config, strategy, n, ratios, episodes
    ("greedy", "eval3.json", "greedy", 3, [1.2, 1.0, 0.8], 60),
    ("pincer", "eval3.json", "pincer", 3, [1.1, 0.9, 0.7], 40),
    # n=5 shows the (2k+1)^(2n) joint grid; its ratio is its own so analyze
    # never pools episodes with different pursuer counts.
    ("pincer-n5", "eval5.json", "pincer", 5, [0.95], 4),
)
HEADING_BINS, ANGLE_BINS = 16, 36


def eval_sweep(seed: int) -> Workload:
    def env(n: int) -> dict:
        return {"env": {"n": n, "episode_length": EVAL_EPISODE_LENGTH},
                "metrics": {"heading_bins": HEADING_BINS, "angle_bins": ANGLE_BINS}}

    calls = []
    legs = []
    for label, config, strategy, n, ratios, episodes in EVAL_LEGS:
        out = f"eval-{label}"
        legs.append({"out": out, "n": n, "ratios": ratios, "episodes": episodes})
        calls.append(Call(
            label=label,
            args=lambda work, c=config, s=strategy, r=ratios, e=episodes, o=out: [
                "eval", "--config", c, "--strategy", s, "--seed", str(seed), "--out", o,
                "--ratios", ",".join(f"{x:g}" for x in r), "--episodes", str(e)],
            out=out,
            check=lambda work, o=out, r=ratios, e=episodes, n=n: check_eval(
                work / o, r, e, n, EVAL_EPISODE_LENGTH),
        ))

    def logs(work: Path) -> list[str]:
        return sorted(glob.glob("eval-*/trajectories_ratio_*.csv", root_dir=work))

    calls.append(Call(
        label="analyze",
        args=lambda work: ["analyze", "--config", "eval3.json", "--out", "analysis", *logs(work)],
        out="analysis",
        check=lambda work: check_analyze(
            work / "analysis", [dict(leg, out=work / leg["out"]) for leg in legs],
            HEADING_BINS, ANGLE_BINS),
    ))
    return Workload(
        name="eval-sweep",
        configs={"eval3.json": env(3), "eval5.json": env(5)},
        calls=calls,
    )


WORKLOADS = {
    "train-small": train_small,
    "train-paper": train_paper,
    "eval-sweep": eval_sweep,
    "checkpoint-resume": checkpoint_resume,
}
