"""Training curricula: velocity-ratio annealing and the behavior-phase switch.

The velocity curriculum anneals the pursuer/evader speed ratio linearly from
v0 to v_target over v_decay epochs and holds it there. The behavioral
curriculum warm-starts learning by acting with a scripted greedy chase for the
first W epochs of the first session; afterwards agents follow their own noisy
policies. Sessions chain: each one starts at the ratio the previous one
reached, so a full plan sweeps the ratio down in fixed decrements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .environment import WorldState
from .pursuit import greedy_heading


@dataclass(frozen=True)
class VelocitySchedule:
    """Linear anneal of the velocity ratio from v0 to v_target."""

    v0: float
    v_target: float
    v_decay: int

    def __post_init__(self) -> None:
        if not (self.v0 > 0.0 and self.v_target > 0.0):
            raise ValueError(f"ratios must be > 0, got v0={self.v0}, v_target={self.v_target}")
        if self.v_decay < 1:
            raise ValueError(f"v_decay must be >= 1, got {self.v_decay}")


def velocity_at_epoch(schedule: VelocitySchedule, i: int) -> float:
    """Ratio at epoch i: v_target + (v0 - v_target) * max((v_decay - i)/v_decay, 0)."""
    if i < 0:
        raise ValueError(f"epoch must be >= 0, got {i}")
    frac = max((schedule.v_decay - i) / schedule.v_decay, 0.0)
    return schedule.v_target + (schedule.v0 - schedule.v_target) * frac


class BehaviorPhase(enum.Enum):
    SCRIPTED = "scripted"
    LEARNED = "learned"


@dataclass(frozen=True)
class SessionSpec:
    """One training session: its anneal window and epoch budget."""

    v0: float
    v_target: float
    v_decay: int
    epochs: int
    use_scripted_warmup: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    @property
    def schedule(self) -> VelocitySchedule:
        return VelocitySchedule(self.v0, self.v_target, self.v_decay)


@dataclass(frozen=True)
class SessionPlan:
    """Ordered sessions plus the scripted warm-up length W (epochs)."""

    sessions: tuple[SessionSpec, ...]
    warmup_epochs: int = 1000

    def __post_init__(self) -> None:
        if not self.sessions:
            raise ValueError("a plan needs at least one session")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        for prev, cur in zip(self.sessions[:-1], self.sessions[1:]):
            if abs(prev.v_target - cur.v0) > 1e-12:
                raise ValueError(
                    f"sessions must chain: v_target {prev.v_target} != next v0 {cur.v0}"
                )

    @property
    def total_epochs(self) -> int:
        return sum(s.epochs for s in self.sessions)


def scripted_action(state: WorldState) -> np.ndarray:
    """Supervisory warm-up policy: every pursuer runs straight at the evader
    (greedy chase); headings (E, n)."""
    return greedy_heading(state)


def behavior_for_epoch(plan: SessionPlan, session: int, epoch: int) -> BehaviorPhase:
    """Scripted only in the first session's first W epochs, learned otherwise."""
    if session < 0 or session >= len(plan.sessions):
        raise ValueError(f"session index {session} out of range")
    if epoch < 0 or epoch >= plan.sessions[session].epochs:
        raise ValueError(f"epoch {epoch} out of range for session {session}")
    if (
        session == 0
        and plan.sessions[0].use_scripted_warmup
        and epoch < plan.warmup_epochs
    ):
        return BehaviorPhase.SCRIPTED
    return BehaviorPhase.LEARNED


def chained_plan(
    start: float = 1.2,
    stop: float = 0.4,
    decrement: float = 0.1,
    epochs_per_session: int = 6250,
    warmup_epochs: int = 1000,
) -> SessionPlan:
    """Sessions stepping the ratio down by `decrement` until it reaches `stop`.

    Each session anneals its full decrement (v_decay = epochs), so consecutive
    sessions chain exactly; only the first uses the scripted warm-up.
    """
    sessions = []
    v = start
    first = True
    while v > stop + 1e-9:
        nxt = max(round((v - decrement) / decrement) * decrement, stop)
        sessions.append(
            SessionSpec(
                v0=round(v, 12),
                v_target=round(nxt, 12),
                v_decay=epochs_per_session,
                epochs=epochs_per_session,
                use_scripted_warmup=first,
            )
        )
        v = nxt
        first = False
    return SessionPlan(tuple(sessions), warmup_epochs)


def ablation_plan(arm: str, epochs: int = 15000, constant_ratio: float = 0.7) -> SessionPlan:
    """The four curriculum arms used in ablation studies.

    full: velocity anneal 1.2 -> 0.4 plus scripted warm-up.
    no_behavioral: velocity anneal only (W = 0).
    no_velocity: scripted warm-up only, ratio fixed at constant_ratio.
    no_curriculum: plain training at constant_ratio (W = 0).
    """
    if arm == "full":
        return SessionPlan(
            (SessionSpec(1.2, 0.4, epochs, epochs, use_scripted_warmup=True),),
            warmup_epochs=1000,
        )
    if arm == "no_behavioral":
        return SessionPlan(
            (SessionSpec(1.2, 0.4, epochs, epochs, use_scripted_warmup=False),),
            warmup_epochs=0,
        )
    if arm == "no_velocity":
        return SessionPlan(
            (
                SessionSpec(
                    constant_ratio, constant_ratio, epochs, epochs, use_scripted_warmup=True
                ),
            ),
            warmup_epochs=1000,
        )
    if arm == "no_curriculum":
        return SessionPlan(
            (
                SessionSpec(
                    constant_ratio, constant_ratio, epochs, epochs, use_scripted_warmup=False
                ),
            ),
            warmup_epochs=0,
        )
    raise ValueError(f"unknown ablation arm {arm!r}")
