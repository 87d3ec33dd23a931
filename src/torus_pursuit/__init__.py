"""Pursuit-evasion workbench on the unit torus.

Library surface: toroidal geometry, the pursuit-evasion Markov game with its
analytic evader, scripted pursuit strategies (greedy chase, replica max-min
encirclement), decentralized actor-critic learners with velocity/behavior
curricula, and information-theoretic coordination metrics. The `torus-pursuit`
CLI drives config-based experiments.
"""

from .config import ExperimentConfig, load_config
from .curriculum import (
    BehaviorPhase,
    SessionPlan,
    SessionSpec,
    VelocitySchedule,
    behavior_for_epoch,
    velocity_at_epoch,
)
from .ddpg import OuNoise, ReplayBuffer, TeamLearner
from .environment import (
    EnvConfig,
    StepOutcome,
    WorldState,
    is_captured,
    make_state,
    observe_full,
    observe_partial,
    reset,
    step,
)
from .evader import PolarContact, evade_cost, evade_heading
from .geometry import Displacement2, Point2, displacement, distance, replicate, wrap
from .metrics import (
    capture_angle_histogram,
    capture_success_rate,
    discretize_heading,
    high_influence_fraction,
    instantaneous_coordination,
)
from .pursuit import ReplicaSelection, greedy_heading, pincer_headings, pincer_objective

__version__ = "0.1.0"

__all__ = [
    "BehaviorPhase",
    "Displacement2",
    "EnvConfig",
    "ExperimentConfig",
    "OuNoise",
    "PolarContact",
    "Point2",
    "ReplayBuffer",
    "ReplicaSelection",
    "SessionPlan",
    "SessionSpec",
    "StepOutcome",
    "TeamLearner",
    "VelocitySchedule",
    "WorldState",
    "behavior_for_epoch",
    "capture_angle_histogram",
    "capture_success_rate",
    "discretize_heading",
    "displacement",
    "distance",
    "evade_cost",
    "evade_heading",
    "greedy_heading",
    "high_influence_fraction",
    "instantaneous_coordination",
    "is_captured",
    "load_config",
    "make_state",
    "observe_full",
    "observe_partial",
    "pincer_headings",
    "pincer_objective",
    "replicate",
    "reset",
    "step",
    "velocity_at_epoch",
    "wrap",
]
