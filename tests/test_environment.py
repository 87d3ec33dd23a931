"""Markov game mechanics: reset, simultaneous stepping, rewards, observations."""

import math

import numpy as np
import pytest

from torus_pursuit.environment import (
    MAX_EXPECTED_SPAWN_DRAWS,
    EnvConfig,
    Pose,
    StepOutcome,
    WorldState,
    is_captured,
    observe_full,
    observe_partial,
    reset,
    step,
)
from torus_pursuit.errors import EpisodeDoneError
from torus_pursuit.geometry import Point2, distance
from torus_pursuit.training import make_streams


def pose(x, y, heading=0.0):
    return Pose(Point2(x, y), heading)


def world(pursuer_xy, evader_xy, step_count=0):
    return WorldState(
        pursuers=tuple(pose(x, y) for x, y in pursuer_xy),
        evader=pose(*evader_xy),
        step=step_count,
    )


CFG = EnvConfig(n=3, evader_speed=0.05, velocity_ratio=1.0, capture_radius=0.05,
                episode_length=500, seed=0)


class TestReset:
    def test_deterministic_per_seed(self):
        a = reset(CFG, np.random.default_rng(42))
        b = reset(CFG, np.random.default_rng(42))
        assert a == b

    def test_pursuer_count(self):
        state = reset(CFG, np.random.default_rng(0))
        assert len(state.pursuers) == 3
        assert state.step == 0

    def test_uniform_position_distribution(self):
        rng = np.random.default_rng(7)
        xs, ys = [], []
        for _ in range(10_000):
            s = reset(EnvConfig(n=1), rng)
            xs.append(s.pursuers[0].position.x)
            ys.append(s.evader.position.y)
        assert abs(np.mean(xs) - 0.5) < 0.02
        assert abs(np.mean(ys) - 0.5) < 0.02

    def test_headings_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = reset(CFG, rng)
            for p in (*s.pursuers, s.evader):
                assert -math.pi <= p.heading < math.pi


def nearest_pursuer(state):
    return min(distance(p.position, state.evader.position) for p in state.pursuers)


class TestSpawnSeparation:
    def test_separation_is_capture_range_after_one_step(self):
        cfg = EnvConfig(capture_radius=0.05, evader_speed=0.05, velocity_ratio=0.7)
        assert cfg.spawn_separation == pytest.approx(0.05 + 0.035 + 0.05)

    def test_smoke_training_env_stream(self):
        # The seed-0 env stream of the two-pursuer smoke runs at ratio 0.7;
        # uniform spawns on it put a pursuer inside the capture disc at
        # resets 11 and 38 and one step from capture at reset 79.
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=0.7, capture_radius=0.05,
                        episode_length=200)
        rng = make_streams(0, 2).env
        for _ in range(80):
            state = reset(cfg, rng)
            assert nearest_pursuer(state) > cfg.spawn_separation
            assert not is_captured(state, cfg)

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("ratio", [0.4, 1.0, 2.0])
    @pytest.mark.parametrize("radius", [0.01, 0.05, 0.2])
    def test_sweep_never_spawns_within_separation(self, n, ratio, radius):
        cfg = EnvConfig(n=n, velocity_ratio=ratio, capture_radius=radius)
        rng = np.random.default_rng((n, round(100 * ratio), round(100 * radius)))
        for _ in range(50):
            assert nearest_pursuer(reset(cfg, rng)) > cfg.spawn_separation

    def test_unsatisfiable_separation_rejected(self):
        with pytest.raises(ValueError) as err:
            EnvConfig(capture_radius=0.3, evader_speed=0.1, velocity_ratio=1.0)
        for field in ("capture_radius", "evader_speed", "velocity_ratio"):
            assert field in str(err.value)
        EnvConfig(capture_radius=0.3, evader_speed=0.09, velocity_ratio=1.0)

    def test_expected_spawn_draws_bounded(self):
        # s = 0.38 + 0.05 + 0.05 = 0.48 passes the separation check, but a
        # spawn is accepted with probability (1 - pi 0.48^2)^8, 1 in about 29k
        with pytest.raises(ValueError) as err:
            EnvConfig(n=8, capture_radius=0.38)
        message = str(err.value)
        assert "n=8" in message and "0.48" in message
        assert f"{(1.0 - math.pi * 0.48**2) ** -8:.4g} expected draws" in message
        assert MAX_EXPECTED_SPAWN_DRAWS < 29_000
        # the tightest configuration in use, about 47 draws, stays valid
        cfg = EnvConfig(capture_radius=0.3, evader_speed=0.09, velocity_ratio=1.0)
        assert cfg.expected_spawn_draws == pytest.approx((1.0 - math.pi * 0.48**2) ** -3)
        assert 40 < cfg.expected_spawn_draws < MAX_EXPECTED_SPAWN_DRAWS


class TestStepKinematics:
    def test_straight_line_motion(self):
        cfg = EnvConfig(n=1, evader_speed=0.05, velocity_ratio=1.0)
        state = world([(0.5, 0.5)], (0.9, 0.9))
        new_state, _ = step(state, [0.0], cfg, np.random.default_rng(0))
        p = new_state.pursuers[0].position
        assert p.x == pytest.approx(0.55, abs=1e-12)
        assert p.y == pytest.approx(0.5, abs=1e-12)

    def test_speed_conservation(self):
        rng = np.random.default_rng(11)
        cfg = EnvConfig(n=3, evader_speed=0.05, velocity_ratio=0.8)
        for _ in range(200):
            state = reset(cfg, rng)
            headings = rng.uniform(-math.pi, math.pi, 3)
            new_state, _ = step(state, list(headings), cfg, rng)
            for old, new in zip(state.pursuers, new_state.pursuers):
                moved = distance(old.position, new.position)
                assert moved == pytest.approx(cfg.pursuer_speed, abs=1e-12)
            evader_moved = distance(state.evader.position, new_state.evader.position)
            assert evader_moved == pytest.approx(cfg.evader_speed, abs=1e-12)

    def test_simultaneity_evader_ignores_current_actions(self):
        # evader's move must depend on the pre-step state only
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=1.0)
        state = world([(0.2, 0.5), (0.8, 0.4)], (0.5, 0.7))
        a, _ = step(state, [0.0, 0.0], cfg, np.random.default_rng(0))
        b, _ = step(state, [math.pi / 2, -math.pi / 2], cfg, np.random.default_rng(0))
        assert a.evader == b.evader

    def test_step_counter_increments(self):
        cfg = EnvConfig(n=1)
        state = world([(0.1, 0.1)], (0.6, 0.6))
        new_state, _ = step(state, [0.0], cfg, np.random.default_rng(0))
        assert new_state.step == 1

    def test_heading_validation(self):
        cfg = EnvConfig(n=1)
        state = world([(0.1, 0.1)], (0.6, 0.6))
        with pytest.raises(ValueError):
            step(state, [float("nan")], cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            step(state, [0.0, 0.0], cfg, np.random.default_rng(0))


class TestRewardsAndTermination:
    def test_capture_reward(self):
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=2.0, capture_radius=0.05)
        # pursuer right behind the evader with a 2x speed advantage
        state = world([(0.42, 0.5), (0.9, 0.9)], (0.5, 0.5))
        new_state, outcome = step(state, [0.0, 0.0], cfg, np.random.default_rng(0))
        assert is_captured(new_state, cfg)
        assert outcome.captured and outcome.done and not outcome.truncated
        assert outcome.rewards == (50.0, 50.0)

    def test_non_capture_reward(self):
        cfg = EnvConfig(n=2)
        state = world([(0.1, 0.1), (0.9, 0.9)], (0.5, 0.5))
        _, outcome = step(state, [0.0, 0.0], cfg, np.random.default_rng(0))
        assert not outcome.captured
        assert outcome.rewards == (-0.1, -0.1)

    def test_truncation_at_episode_length(self):
        cfg = EnvConfig(n=1, episode_length=3)
        state = world([(0.1, 0.1)], (0.6, 0.6))
        rng = np.random.default_rng(0)
        for expected_done in (False, False, True):
            state, outcome = step(state, [math.pi / 2], cfg, rng)
            assert outcome.done is expected_done
        assert outcome.truncated and not outcome.captured
        with pytest.raises(EpisodeDoneError):
            step(state, [0.0], cfg, rng)

    def test_stepping_captured_state_rejected(self):
        cfg = EnvConfig(n=1, velocity_ratio=2.0)
        state = world([(0.42, 0.5)], (0.5, 0.5))
        new_state, outcome = step(state, [0.0], cfg, np.random.default_rng(0))
        assert outcome.captured
        with pytest.raises(EpisodeDoneError):
            step(new_state, [0.0], cfg, np.random.default_rng(0))

    def test_stepping_captured_spawn_rejected(self):
        cfg = EnvConfig(n=2)
        state = world([(0.48, 0.5), (0.9, 0.9)], (0.5, 0.5))
        assert state.step == 0 and is_captured(state, cfg)
        with pytest.raises(EpisodeDoneError):
            step(state, [0.0, 0.0], cfg, np.random.default_rng(0))

    def test_reward_accounting_full_episode(self):
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=1.3, episode_length=200)
        rng = np.random.default_rng(3)
        state = reset(cfg, rng)
        total = 0.0
        non_capture_steps = 0
        captured = False
        while True:
            headings = [0.0, math.pi / 2]
            state, outcome = step(state, headings, cfg, rng)
            total += outcome.rewards[0]
            if outcome.captured:
                captured = True
            else:
                non_capture_steps += 1
            if outcome.done:
                break
        expected = -0.1 * non_capture_steps + (50.0 if captured else 0.0)
        assert total == pytest.approx(expected, abs=1e-9)

    def test_determinism_full_trajectory(self):
        cfg = EnvConfig(n=3, velocity_ratio=0.9, episode_length=50)
        def run():
            rng = np.random.default_rng(17)
            state = reset(cfg, rng)
            hist = []
            for t in range(50):
                headings = [0.1 * t, -0.2, 1.0]
                state, outcome = step(state, headings, cfg, rng)
                hist.append((state, outcome))
                if outcome.done:
                    break
            return hist
        assert run() == run()


class TestCapture:
    def test_exactly_on_evader(self):
        cfg = EnvConfig(n=1)
        assert is_captured(world([(0.5, 0.5)], (0.5, 0.5)), cfg)

    def test_threshold_is_closed(self):
        cfg = EnvConfig(n=1, capture_radius=0.05)
        assert is_captured(world([(0.45, 0.5)], (0.5, 0.5)), cfg)
        assert not is_captured(world([(0.44, 0.5)], (0.5, 0.5)), cfg)

    def test_wrapped_capture(self):
        cfg = EnvConfig(n=1, capture_radius=0.05)
        assert is_captured(world([(0.99, 0.5)], (0.02, 0.5)), cfg)


class TestObservations:
    STATE = world([(0.9, 0.5), (0.3, 0.3), (0.5, 0.1)], (0.1, 0.5))

    def test_full_layout(self):
        obs = observe_full(self.STATE, 0)
        assert obs.shape == (8,)
        assert obs[0] == pytest.approx(1.0)  # cos 0
        assert obs[1] == pytest.approx(0.0)  # sin 0
        assert obs[2] == pytest.approx(0.2)  # wrapped toward the evader
        assert obs[3] == pytest.approx(0.0)

    def test_full_includes_teammates_in_order(self):
        obs = observe_full(self.STATE, 1)
        # teammates of pursuer 1 are pursuers 0 then 2
        assert obs[4] == pytest.approx(-0.4)  # toward pursuer 0
        assert obs[5] == pytest.approx(0.2)
        assert obs[6] == pytest.approx(0.2)  # toward pursuer 2
        assert obs[7] == pytest.approx(-0.2)

    def test_partial_layout_and_teammate_independence(self):
        obs = observe_partial(self.STATE, 0)
        assert obs.shape == (4,)
        moved_teammates = world([(0.9, 0.5), (0.7, 0.7), (0.2, 0.8)], (0.1, 0.5))
        assert np.array_equal(obs, observe_partial(moved_teammates, 0))

    def test_partial_co_located_with_evader(self):
        state = world([(0.1, 0.5)], (0.1, 0.5))
        obs = observe_partial(state, 0)
        assert obs[2] == 0.0 and obs[3] == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            observe_full(self.STATE, 3)
        with pytest.raises(IndexError):
            observe_partial(self.STATE, 5)

    def test_displacement_entries_in_range(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = reset(CFG, rng)
            for i in range(3):
                obs = observe_full(s, i)
                assert np.all(obs[2:] >= -0.5) and np.all(obs[2:] < 0.5)


class TestConfigValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EnvConfig(n=0)
        with pytest.raises(ValueError):
            EnvConfig(evader_speed=0.0)
        with pytest.raises(ValueError):
            EnvConfig(velocity_ratio=-1.0)
        with pytest.raises(ValueError):
            EnvConfig(capture_radius=0.5)
        with pytest.raises(ValueError):
            EnvConfig(episode_length=0)

    def test_outcome_invariants(self):
        with pytest.raises(ValueError):
            StepOutcome(rewards=(1.0,), captured=True, done=False, truncated=False)
        with pytest.raises(ValueError):
            StepOutcome(rewards=(1.0,), captured=True, done=True, truncated=True)
