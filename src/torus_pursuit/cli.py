"""Command-line experiment runner.

Subcommands:
  train        run the curriculum training loop from a config file
  eval         sweep frozen policies across velocity ratios
  analyze      compute coordination reports from trajectory logs
  selfcheck    run the built-in verification battery
  evader-check run the two canonical evader decision cases
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import analyze_logs
from .checkpoint import load_checkpoint
from .config import (
    ExperimentConfig,
    check_ratio,
    load_config,
    save_config,
    with_overrides,
)
from .environment import observation_dim
from .errors import (
    CheckpointIntegrityError,
    ConfigError,
    DigestMismatchError,
    SchemaVersionError,
)
from .evader import PolarContact, heading_from_contacts
from .evaluation import check_ratio_labels, run_eval
from .selfcheck import angular_difference, run_selfcheck
from .training import run_training


def _parse_ratios(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--ratios: {exc}") from exc


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    return with_overrides(
        config,
        seed=args.seed,
        out_dir=args.out,
        strategy=getattr(args, "strategy", None),
    )


def cmd_train(args: argparse.Namespace) -> int:
    config = _load(args)
    out = run_training(config, out_dir=config.run.out_dir, resume=args.resume)
    save_config(config, Path(out) / "config.json")
    print(f"training complete; outputs in {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load(args)
    ratios = _parse_ratios(args.ratios) if args.ratios else [config.env.velocity_ratio]
    for ratio in ratios:
        check_ratio(config.env, ratio, "--ratios")
    try:
        check_ratio_labels(ratios)
    except ValueError as exc:
        raise ConfigError(f"--ratios: {exc}") from exc
    if args.episodes is not None and args.episodes < 1:
        raise ConfigError(f"--episodes: must be >= 1, got {args.episodes}")
    episodes = args.episodes if args.episodes is not None else config.metrics.eval_episodes
    team = None
    if config.run.strategy in ("cd_ddpg", "cd_ddpg_partial"):
        if not args.checkpoint:
            raise ConfigError("run.strategy: learned strategies need --checkpoint")
        team, *_ = load_checkpoint(args.checkpoint, config)
        expected = observation_dim(config.env.n, config.run.strategy == "cd_ddpg_partial")
        if team.obs_dim != expected:
            raise ConfigError(
                f"run.strategy: checkpoint observes {team.obs_dim} inputs "
                f"but {config.run.strategy!r} needs {expected}"
            )
    results = run_eval(
        config,
        ratios=ratios,
        episodes=episodes,
        out_dir=config.run.out_dir,
        team=team,
    )
    for ratio in ratios:
        print(f"ratio {ratio:g}: success_rate {results[ratio]:.3f}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load(args)
    doc = analyze_logs(
        args.logs,
        out_dir=config.run.out_dir,
        heading_bins=config.metrics.heading_bins,
        angle_bins=config.metrics.angle_bins,
    )
    for entry in doc["per_ratio"]:
        print(
            f"ratio {entry['ratio']:g}: success {entry['success_rate']:.3f}, "
            f"mean IC {entry['mean_mi_bits']:.4f} bits"
        )
    print(f"reports written to {config.run.out_dir}")
    return 0


def cmd_selfcheck(_args: argparse.Namespace) -> int:
    ok, checks = run_selfcheck()
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    print("selfcheck:", "all checks passed" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


def cmd_evader_check(_args: argparse.Namespace) -> int:
    rng = np.random.default_rng(0)
    cases = [
        ("bearings {0, pi/2, pi}", (0.0, math.pi / 2, math.pi), -math.pi / 2),
        ("bearings {0, pi/2, -pi/2}", (0.0, math.pi / 2, -math.pi / 2), math.pi),
    ]
    ok = True
    for label, bearings, want in cases:
        contacts = [PolarContact(1.0, b) for b in bearings]
        got = heading_from_contacts(contacts, rng)
        passed = angular_difference(got, want) < 1e-9
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {label}: heading {got:.9f} (want {want:.9f})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-pursuit",
        description="Pursuit-evasion workbench: training, evaluation, and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, strategy: bool = False) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", type=str, default=None, help="output directory override")
        if strategy:
            p.add_argument("--strategy", type=str, default=None,
                           help="strategy override (greedy|pincer|cd_ddpg|cd_ddpg_partial|random)")

    p_train = sub.add_parser("train", help="run curriculum training")
    common(p_train)
    p_train.add_argument("--resume", type=str, default=None, help="checkpoint to resume from")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a strategy across ratios")
    common(p_eval, strategy=True)
    p_eval.add_argument("--checkpoint", type=str, default=None, help="trained checkpoint")
    p_eval.add_argument("--ratios", type=str, default=None, help="comma list, e.g. 1.1,1.0,0.9")
    p_eval.add_argument("--episodes", type=int, default=None, help="episodes per ratio")
    p_eval.set_defaults(func=cmd_eval)

    p_analyze = sub.add_parser("analyze", help="coordination reports from logs")
    common(p_analyze)
    p_analyze.add_argument("logs", nargs="+", help="trajectory CSV files")
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("selfcheck", help="run the verification battery")
    p_check.set_defaults(func=cmd_selfcheck)

    p_evader = sub.add_parser("evader-check", help="run the canonical evader cases")
    p_evader.set_defaults(func=cmd_evader_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        DigestMismatchError,
        SchemaVersionError,
        CheckpointIntegrityError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
