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
        # refuses a ratio <= 0 and a v_decay < 1 before training builds the schedule
        VelocitySchedule(self.v0, self.v_target, self.v_decay)

    @property
    def schedule(self) -> VelocitySchedule:
        return VelocitySchedule(self.v0, self.v_target, self.v_decay)


@dataclass(frozen=True)
class SessionPlan:
    """Ordered sessions plus the scripted warm-up length W (epochs); training
    walks their epochs in order, and ``position`` names each global epoch's."""

    sessions: tuple[SessionSpec, ...]
    warmup_epochs: int = 1000

    def __post_init__(self) -> None:
        if not self.sessions:
            raise ValueError("a plan needs at least one session")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        for idx, (prev, cur) in enumerate(zip(self.sessions[:-1], self.sessions[1:]), start=1):
            if abs(prev.v_target - cur.v0) > 1e-12:
                raise ValueError(
                    f"sessions must chain: v_target {prev.v_target} != next v0 {cur.v0}"
                )
            if cur.use_scripted_warmup:
                raise ValueError(f"sessions[{idx}].use_scripted_warmup: the scripted warm-up "
                                 "runs in the first session only")

    def position(self, global_epoch: int) -> tuple[int, int]:
        """The (session, epoch) global epoch ``global_epoch`` trains, and
        (len(sessions), 0) at the plan's end; ValueError outside the plan."""
        epoch = global_epoch
        for session, spec in enumerate(self.sessions):
            if 0 <= epoch < spec.epochs:
                return session, epoch
            epoch -= spec.epochs
        if epoch:
            raise ValueError(f"global epoch {global_epoch} is outside a plan of "
                             f"{global_epoch - epoch} epochs")
        return len(self.sessions), 0

    def holds_position(self, session: object, epoch: object, global_epoch: object) -> bool:
        """Whether integers ``session`` and ``epoch`` are the ``position`` of
        ``global_epoch``, the next epoch to train after that many."""
        return (all(type(v) is int for v in (session, epoch, global_epoch))
                and 0 <= global_epoch <= sum(s.epochs for s in self.sessions)
                and self.position(global_epoch) == (session, epoch))


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
