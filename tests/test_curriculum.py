"""Velocity annealing schedule and behavior-phase switching."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torus_pursuit.curriculum import (
    BehaviorPhase,
    SessionPlan,
    SessionSpec,
    VelocitySchedule,
    behavior_for_epoch,
    chained_plan,
    velocity_at_epoch,
)


class TestVelocitySchedule:
    def test_reference_points(self):
        s = VelocitySchedule(1.2, 0.4, 15_000)
        assert velocity_at_epoch(s, 0) == pytest.approx(1.2, abs=1e-12)
        assert velocity_at_epoch(s, 7_500) == pytest.approx(0.8, abs=1e-12)
        assert velocity_at_epoch(s, 15_000) == pytest.approx(0.4, abs=1e-12)
        assert velocity_at_epoch(s, 22_500) == pytest.approx(0.4, abs=1e-12)
        # a constant schedule stays at its ratio forever
        for i in (0, 100, 10_000):
            assert velocity_at_epoch(VelocitySchedule(0.7, 0.7, 15_000), i) == 0.7

    def test_piecewise_linear_monotone_then_constant(self):
        s = VelocitySchedule(1.2, 0.4, 200)
        values = [velocity_at_epoch(s, i) for i in range(0, 401)]
        for a, b in zip(values[:200], values[1:201]):
            assert b < a
        for v in values[200:]:
            assert v == pytest.approx(0.4, abs=1e-12)
        # exact linearity on the integer grid
        for i in range(201):
            expected = 0.4 + (1.2 - 0.4) * (200 - i) / 200
            assert values[i] == pytest.approx(expected, abs=1e-12)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            velocity_at_epoch(VelocitySchedule(1.0, 0.5, 10), -1)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            VelocitySchedule(0.0, 0.5, 10)
        with pytest.raises(ValueError):
            VelocitySchedule(1.0, 0.5, 0)


class TestBehaviorPhase:
    PLAN = SessionPlan(
        (
            SessionSpec(1.2, 1.1, 1500, 1500, use_scripted_warmup=True),
            SessionSpec(1.1, 1.0, 1500, 1500),
            SessionSpec(1.0, 0.9, 1500, 1500),
            SessionSpec(0.9, 0.8, 1500, 1500),
        ),
        warmup_epochs=1000,
    )

    def test_scripted_only_in_first_session_before_w(self):
        assert behavior_for_epoch(self.PLAN, 0, 0) is BehaviorPhase.SCRIPTED
        assert behavior_for_epoch(self.PLAN, 0, 999) is BehaviorPhase.SCRIPTED
        assert behavior_for_epoch(self.PLAN, 0, 1000) is BehaviorPhase.LEARNED
        assert behavior_for_epoch(self.PLAN, 3, 0) is BehaviorPhase.LEARNED

    def test_indices_validated(self):
        with pytest.raises(ValueError):
            behavior_for_epoch(self.PLAN, 4, 0)
        with pytest.raises(ValueError):
            behavior_for_epoch(self.PLAN, 0, 1500)

    def test_warmup_flag_respected(self):
        plan = SessionPlan(
            (SessionSpec(1.2, 0.4, 100, 100, use_scripted_warmup=False),), warmup_epochs=50
        )
        assert behavior_for_epoch(plan, 0, 0) is BehaviorPhase.LEARNED


class TestSessionPlan:
    def test_chaining_enforced(self):
        with pytest.raises(ValueError):
            SessionPlan(
                (SessionSpec(1.2, 1.1, 10, 10), SessionSpec(1.0, 0.9, 10, 10)),
                warmup_epochs=0,
            )

    def test_default_chained_plan(self):
        plan = chained_plan()
        assert len(plan.sessions) == 8
        assert plan.sessions[0].v0 == pytest.approx(1.2)
        assert plan.sessions[-1].v_target == pytest.approx(0.4)
        assert plan.warmup_epochs == 1000
        assert plan.sessions[0].use_scripted_warmup
        assert not any(s.use_scripted_warmup for s in plan.sessions[1:])
        for prev, cur in zip(plan.sessions[:-1], plan.sessions[1:]):
            assert prev.v_target == pytest.approx(cur.v0)

    def test_ratio_continuous_across_sessions(self):
        plan = chained_plan(epochs_per_session=100)
        for prev, cur in zip(plan.sessions[:-1], plan.sessions[1:]):
            end = velocity_at_epoch(prev.schedule, prev.epochs)
            start = velocity_at_epoch(cur.schedule, 0)
            assert end == pytest.approx(start, abs=1e-12)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_position_walks_the_plan(lengths):
    plan = SessionPlan(tuple(SessionSpec(1.0, 1.0, 1, e) for e in lengths), warmup_epochs=0)
    # brute force: every epoch of every session in order, then the plan's end
    walk = [(s, e) for s, length in enumerate(lengths) for e in range(length)]
    walk.append((len(lengths), 0))
    assert [plan.position(g) for g in range(len(walk))] == walk
    for g in (-1, len(walk), 10**30):
        with pytest.raises(ValueError, match=f"global epoch {g} is outside a plan of "
                                             f"{sum(lengths)} epochs"):
            plan.position(g)
    # training's curve rows name the (session, epoch) of global epochs
    # 0..end-1, and its checkpoints those of 1..end: no other triple is held
    written = {(s, e, g) for g, (s, e) in enumerate(walk)}
    triples = product(range(-1, len(lengths) + 2), range(-1, max(lengths) + 2),
                      range(-1, len(walk) + 1))
    assert {t for t in triples if plan.holds_position(*t)} == written
    for s, e, g in written:  # only integers name a position
        assert not any(plan.holds_position(*t) for t in (
            (float(s), e, g), (s, float(e), g), (s, e, float(g)), (s, e, str(g))))
    assert not plan.holds_position(False, False, False)
