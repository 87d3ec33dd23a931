"""Pursuit-evasion workbench on the unit torus.

Library surface: the pursuit-evasion Markov game on the torus with its
analytic evader, scripted pursuit strategies (greedy chase, replica max-min
encirclement), decentralized actor-critic learners with velocity/behavior
curricula, and information-theoretic coordination metrics. The `torus-pursuit`
CLI drives config-based experiments.

The names below load their module on first access (PEP 562), so importing
the package, or the CLI for one subcommand, loads no module it does not use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ExperimentConfig", "load_config"),
    "curriculum": (
        "BehaviorPhase",
        "SessionPlan",
        "SessionSpec",
        "VelocitySchedule",
        "behavior_for_epoch",
        "velocity_at_epoch",
    ),
    "ddpg": ("ReplayBuffer", "TeamLearner"),
    "environment": (
        "EnvConfig",
        "StepOutcome",
        "WorldState",
        "is_captured",
        "make_state",
        "observe_full",
        "observe_partial",
        "reset",
        "step",
    ),
    "evader": ("evade_heading",),
    "metrics": (
        "capture_angle_histogram",
        "capture_success_rate",
        "high_influence_fraction",
        "instantaneous_coordination",
    ),
    "pursuit": ("ReplicaSelection", "greedy_heading", "pincer_headings", "pincer_objective"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
