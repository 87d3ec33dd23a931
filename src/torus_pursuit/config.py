"""Experiment configuration: schema, validation, defaults, and digests.

The dataclasses are the schema: `EnvConfig`, the curriculum's `SessionPlan`
and `SessionSpec`, and the sections below. One parser reads their fields,
annotations and defaults, so a field is declared once, in its dataclass.
Defaults mirror the reference hyperparameters: actor/critic learning rates
1e-4/1e-3, gradient clip 0.5, Polyak tau 0.001, buffer 500000, batch 512,
discount 0.99, warm-up 1000 epochs, 500-step episodes. Unknown keys
anywhere in the file are rejected, fields without a default are required,
and every error message carries the offending field path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

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
        for name in ("lr_actor", "lr_critic"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"ddpg.{name}: must be finite and > 0")
        if not self.clip_norm > 0.0:
            raise ConfigError("ddpg.clip_norm: must be > 0")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("ddpg.tau: must be in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("ddpg.gamma: must be in [0, 1]")
        # |1 - theta| <= 1 keeps the noise recursion x <- x + theta*(0 - x) + sigma*g bounded
        if not 0.0 <= self.theta_ou <= 2.0:
            raise ConfigError("ddpg.theta_ou: must be in [0, 2]")
        if not 0.0 <= self.sigma_ou < math.inf:
            raise ConfigError("ddpg.sigma_ou: must be finite and >= 0")
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
        if self.seed < 0:
            raise ConfigError("run.seed: must be >= 0")
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
        return {"schema_version": CONFIG_SCHEMA_VERSION, **asdict(self)}

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


_JSON_KINDS = {int: int, float: (int, float), bool: bool, str: str}
# a field's annotation, evaluated once per dataclass rather than on every load
_field_kinds = functools.cache(get_type_hints)


def _value(value, kind, path: str):
    """`value` as the field annotation `kind` reads it; ConfigError at `path` otherwise."""
    if kind == tuple[int, ...]:
        if not isinstance(value, list) or not all(type(v) is int and v > 0 for v in value):
            raise ConfigError(f"{path}: expected a list of positive integers")
        return tuple(value)
    if not isinstance(value, _JSON_KINDS[kind]) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: integer beyond the float range") from None


def _parse(cls, section, path: str, **given):
    """An instance of dataclass `cls` from the JSON object `section` at `path`.

    Keys must name fields, fields without a default are required, and each
    value is checked against its field's annotation; `given` supplies fields
    parsed elsewhere. A ValueError from the dataclass gains the path.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    known = {f.name: f for f in fields(cls)}
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    kinds = _field_kinds(cls)
    values = dict(given)
    for name, f in known.items():
        if name in given:
            continue
        if name in section:
            values[name] = _value(section[name], kinds[name], f"{path}.{name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{name}: required")
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_curriculum(section) -> SessionPlan:
    """The plan at `curriculum`; without a `sessions` list it keeps the default plan's."""
    sessions = chained_plan().sessions
    if isinstance(section, dict) and "sessions" in section:
        raw = section["sessions"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("curriculum.sessions: expected a nonempty list")
        sessions = tuple(_parse(SessionSpec, s, f"curriculum.sessions[{i}]")
                         for i, s in enumerate(raw))
    return _parse(SessionPlan, section, "curriculum", sessions=sessions)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    kinds = _field_kinds(ExperimentConfig)
    for key in doc:
        if key != "schema_version" and key not in kinds:
            raise ConfigError(f"config.{key}: unknown key")
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {CONFIG_SCHEMA_VERSION}, got {version}")
    return ExperimentConfig(**{
        name: _parse_curriculum(doc[name]) if name == "curriculum" else _parse(kind, doc[name], name)
        for name, kind in kinds.items() if name in doc
    })


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


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
