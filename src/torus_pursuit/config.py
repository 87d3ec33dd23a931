"""Experiment configuration: JSON schema, validation, defaults, and digests.

Defaults mirror the reference hyperparameters: actor/critic learning rates
1e-4/1e-3, gradient clip 0.5, Polyak tau 0.001, buffer 500000, batch 512,
discount 0.99, warm-up 1000 epochs, 500-step episodes. Unknown keys
anywhere in the file are rejected, and every error message carries the
offending field path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .curriculum import SessionPlan, SessionSpec, chained_plan
from .environment import EnvConfig
from .errors import ConfigError
from .pursuit import check_pincer_grid

CONFIG_SCHEMA_VERSION = 1

STRATEGIES = ("greedy", "pincer", "cd_ddpg", "cd_ddpg_partial", "random")
TRAINABLE_STRATEGIES = ("cd_ddpg", "cd_ddpg_partial")


@dataclass(frozen=True)
class DdpgConfig:
    lr_actor: float = 1e-4
    lr_critic: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.001
    buffer_capacity: int = 500_000
    batch_size: int = 512
    clip_norm: float = 0.5
    theta_ou: float = 0.15
    sigma_ou: float = 0.2
    actor_hidden: tuple[int, ...] = (128, 128)
    critic_hidden: tuple[int, ...] = (128, 128, 128)

    def __post_init__(self) -> None:
        for name in ("lr_actor", "lr_critic", "tau", "clip_norm"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"ddpg.{name}: must be > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("ddpg.gamma: must be in [0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ConfigError("ddpg.buffer_capacity: must be >= batch_size >= 1")
        if not self.actor_hidden or not self.critic_hidden:
            raise ConfigError("ddpg.actor_hidden / critic_hidden: need at least one layer")


@dataclass(frozen=True)
class MetricsConfig:
    heading_bins: int = 16
    angle_bins: int = 36
    eval_episodes: int = 100

    def __post_init__(self) -> None:
        if self.heading_bins < 2:
            raise ConfigError("metrics.heading_bins: must be >= 2")
        if self.angle_bins < 1:
            raise ConfigError("metrics.angle_bins: must be >= 1")
        if self.eval_episodes < 1:
            raise ConfigError("metrics.eval_episodes: must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    strategy: str = "cd_ddpg"
    pincer_k: int = 1
    checkpoint_every: int = 100

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"run.strategy: unknown strategy {self.strategy!r}")
        if self.pincer_k < 1:
            raise ConfigError("run.pincer_k: must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigError("run.checkpoint_every: must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    curriculum: SessionPlan = field(default_factory=chained_plan)
    ddpg: DdpgConfig = field(default_factory=DdpgConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        # a session's ratio moves linearly from v0 to v_target, so the two
        # ends bound every ratio the environment is run at
        for idx, session in enumerate(self.curriculum.sessions):
            for key in ("v0", "v_target"):
                check_ratio(self.env, getattr(session, key), f"curriculum.sessions[{idx}].{key}")
        if self.run.strategy == "pincer":
            try:
                check_pincer_grid(self.env.n, self.run.pincer_k)
            except ValueError as exc:
                raise ConfigError(f"run.pincer_k: {exc}") from exc

    def to_dict(self) -> dict:
        doc = {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "env": asdict(self.env),
            "curriculum": {
                "warmup_epochs": self.curriculum.warmup_epochs,
                "sessions": [asdict(s) for s in self.curriculum.sessions],
            },
            "ddpg": asdict(self.ddpg),
            "metrics": asdict(self.metrics),
            "run": asdict(self.run),
        }
        doc["ddpg"]["actor_hidden"] = list(self.ddpg.actor_hidden)
        doc["ddpg"]["critic_hidden"] = list(self.ddpg.critic_hidden)
        return doc

    def digest(self) -> str:
        """Hash of the sections that determine training behavior.

        The run section (seed, out_dir, strategy, checkpoint cadence) and the
        metrics section are operational and may differ between the training
        run and later resume/eval invocations, so they are excluded.
        """
        return _digest(self.to_dict())

    def legacy_digest(self) -> str:
        """The digest as computed while `env` held a `seed` field, which
        nothing read, at its default 0; checkpoints written then carry it."""
        doc = self.to_dict()
        doc["env"]["seed"] = 0
        return _digest(doc)


def _digest(doc: dict) -> str:
    blob = json.dumps(
        {k: doc[k] for k in ("schema_version", "env", "curriculum", "ddpg")},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_ratio(env: EnvConfig, ratio: float, path: str) -> None:
    """Raise ConfigError at `path` unless `env` is valid at velocity ratio `ratio`."""
    try:
        replace(env, velocity_ratio=ratio)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _typed(section: dict, key: str, kinds, path: str, default):
    if key not in section:
        return default
    value = section[key]
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is not bool:
        raise ConfigError(f"{path}.{key}: expected {kinds}, got {type(value).__name__}")
    return value


def _parse_env(section: dict) -> EnvConfig:
    _check_keys(section, {"n", "evader_speed", "velocity_ratio", "capture_radius",
                          "episode_length"}, "env")
    d = EnvConfig()
    try:
        return EnvConfig(
            n=_typed(section, "n", int, "env", d.n),
            evader_speed=_typed(section, "evader_speed", float, "env", d.evader_speed),
            velocity_ratio=_typed(section, "velocity_ratio", float, "env", d.velocity_ratio),
            capture_radius=_typed(section, "capture_radius", float, "env", d.capture_radius),
            episode_length=_typed(section, "episode_length", int, "env", d.episode_length),
        )
    except ValueError as exc:
        raise ConfigError(f"env: {exc}") from exc


def _parse_session(entry: dict, idx: int) -> SessionSpec:
    path = f"curriculum.sessions[{idx}]"
    _check_keys(entry, {"v0", "v_target", "v_decay", "epochs", "use_scripted_warmup"}, path)
    for key in ("v0", "v_target", "v_decay", "epochs"):
        if key not in entry:
            raise ConfigError(f"{path}.{key}: required")
    try:
        return SessionSpec(
            v0=_typed(entry, "v0", float, path, None),
            v_target=_typed(entry, "v_target", float, path, None),
            v_decay=_typed(entry, "v_decay", int, path, None),
            epochs=_typed(entry, "epochs", int, path, None),
            use_scripted_warmup=_typed(entry, "use_scripted_warmup", bool, path, False),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_curriculum(section: dict) -> SessionPlan:
    _check_keys(section, {"warmup_epochs", "sessions"}, "curriculum")
    default = chained_plan()
    warmup = _typed(section, "warmup_epochs", int, "curriculum", default.warmup_epochs)
    if "sessions" not in section:
        sessions = default.sessions
    else:
        raw = section["sessions"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("curriculum.sessions: expected a nonempty list")
        sessions = tuple(_parse_session(s, i) for i, s in enumerate(raw))
    try:
        return SessionPlan(sessions, warmup)
    except ValueError as exc:
        raise ConfigError(f"curriculum: {exc}") from exc


def _parse_ddpg(section: dict) -> DdpgConfig:
    allowed = {"lr_actor", "lr_critic", "gamma", "tau", "buffer_capacity", "batch_size",
               "clip_norm", "theta_ou", "sigma_ou", "actor_hidden", "critic_hidden"}
    _check_keys(section, allowed, "ddpg")
    d = DdpgConfig()
    hidden = {}
    for key, default in (("actor_hidden", d.actor_hidden), ("critic_hidden", d.critic_hidden)):
        if key in section:
            raw = section[key]
            if not isinstance(raw, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in raw
            ):
                raise ConfigError(f"ddpg.{key}: expected a list of positive integers")
            hidden[key] = tuple(raw)
        else:
            hidden[key] = default
    return DdpgConfig(
        lr_actor=_typed(section, "lr_actor", float, "ddpg", d.lr_actor),
        lr_critic=_typed(section, "lr_critic", float, "ddpg", d.lr_critic),
        gamma=_typed(section, "gamma", float, "ddpg", d.gamma),
        tau=_typed(section, "tau", float, "ddpg", d.tau),
        buffer_capacity=_typed(section, "buffer_capacity", int, "ddpg", d.buffer_capacity),
        batch_size=_typed(section, "batch_size", int, "ddpg", d.batch_size),
        clip_norm=_typed(section, "clip_norm", float, "ddpg", d.clip_norm),
        theta_ou=_typed(section, "theta_ou", float, "ddpg", d.theta_ou),
        sigma_ou=_typed(section, "sigma_ou", float, "ddpg", d.sigma_ou),
        actor_hidden=hidden["actor_hidden"],
        critic_hidden=hidden["critic_hidden"],
    )


def _parse_metrics(section: dict) -> MetricsConfig:
    _check_keys(section, {"heading_bins", "angle_bins", "eval_episodes"}, "metrics")
    d = MetricsConfig()
    return MetricsConfig(
        heading_bins=_typed(section, "heading_bins", int, "metrics", d.heading_bins),
        angle_bins=_typed(section, "angle_bins", int, "metrics", d.angle_bins),
        eval_episodes=_typed(section, "eval_episodes", int, "metrics", d.eval_episodes),
    )


def _parse_run(section: dict) -> RunConfig:
    _check_keys(section, {"seed", "out_dir", "strategy", "pincer_k",
                          "checkpoint_every"}, "run")
    d = RunConfig()
    return RunConfig(
        seed=_typed(section, "seed", int, "run", d.seed),
        out_dir=_typed(section, "out_dir", str, "run", d.out_dir),
        strategy=_typed(section, "strategy", str, "run", d.strategy),
        pincer_k=_typed(section, "pincer_k", int, "run", d.pincer_k),
        checkpoint_every=_typed(section, "checkpoint_every", int, "run", d.checkpoint_every),
    )


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    _check_keys(doc, {"schema_version", "env", "curriculum", "ddpg", "metrics", "run"}, "config")
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {CONFIG_SCHEMA_VERSION}, got {version}")
    for name in ("env", "curriculum", "ddpg", "metrics", "run"):
        if name in doc and not isinstance(doc[name], dict):
            raise ConfigError(f"{name}: expected a JSON object")
    return ExperimentConfig(
        env=_parse_env(doc.get("env", {})),
        curriculum=_parse_curriculum(doc.get("curriculum", {})),
        ddpg=_parse_ddpg(doc.get("ddpg", {})),
        metrics=_parse_metrics(doc.get("metrics", {})),
        run=_parse_run(doc.get("run", {})),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def with_overrides(config: ExperimentConfig, seed: int | None = None,
                   out_dir: str | None = None, strategy: str | None = None) -> ExperimentConfig:
    """CLI-flag overrides for the run section."""
    run = config.run
    if seed is not None:
        run = replace(run, seed=seed)
    if out_dir is not None:
        run = replace(run, out_dir=out_dir)
    if strategy is not None:
        run = replace(run, strategy=strategy)
    return replace(config, run=run)
