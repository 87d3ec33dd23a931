"""Velocity annealing schedule and behavior-phase switching."""

import math

import numpy as np
import pytest

from torus_pursuit.curriculum import (
    BehaviorPhase,
    SessionPlan,
    SessionSpec,
    VelocitySchedule,
    ablation_plan,
    behavior_for_epoch,
    chained_plan,
    scripted_action,
    velocity_at_epoch,
)
from torus_pursuit.environment import make_state
from torus_pursuit.pursuit import greedy_heading


class TestVelocitySchedule:
    def test_reference_points(self):
        s = VelocitySchedule(1.2, 0.4, 15_000)
        assert velocity_at_epoch(s, 0) == pytest.approx(1.2, abs=1e-12)
        assert velocity_at_epoch(s, 7_500) == pytest.approx(0.8, abs=1e-12)
        assert velocity_at_epoch(s, 15_000) == pytest.approx(0.4, abs=1e-12)
        assert velocity_at_epoch(s, 22_500) == pytest.approx(0.4, abs=1e-12)

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


class TestScriptedAction:
    def test_due_north(self):
        state = make_state([(0.5, 0.2)], (0.5, 0.5))
        assert scripted_action(state)[0, 0] == pytest.approx(math.pi / 2)

    def test_equals_greedy_on_random_states(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0, 1, (1000, 4))
        state = make_state(xy[:, None, :2], xy[:, 2:])
        assert np.array_equal(scripted_action(state), greedy_heading(state))


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


class TestAblationArms:
    def test_four_arms_exist(self):
        full = ablation_plan("full")
        assert full.warmup_epochs == 1000 and full.sessions[0].v0 == 1.2

        no_behavioral = ablation_plan("no_behavioral")
        assert no_behavioral.warmup_epochs == 0
        assert no_behavioral.sessions[0].v0 == 1.2

        no_velocity = ablation_plan("no_velocity")
        assert no_velocity.sessions[0].v0 == no_velocity.sessions[0].v_target == 0.7
        assert no_velocity.warmup_epochs == 1000

        none = ablation_plan("no_curriculum")
        assert none.sessions[0].v0 == none.sessions[0].v_target == 0.7
        assert none.warmup_epochs == 0
        # a constant schedule stays at 0.7 forever
        for i in (0, 100, 10_000):
            assert velocity_at_epoch(none.sessions[0].schedule, i) == pytest.approx(0.7)

    def test_unknown_arm(self):
        with pytest.raises(ValueError):
            ablation_plan("bogus")
