"""Markov game mechanics: reset, simultaneous stepping, rewards, observations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_pursuit.environment import (
    MAX_EXPECTED_SPAWN_DRAWS,
    EnvConfig,
    is_captured,
    make_state,
    observe_full,
    observe_partial,
    reset,
    step,
)
from torus_pursuit.errors import EpisodeDoneError
from torus_pursuit.geometry import offsets
from torus_pursuit.pursuit import greedy_heading
from torus_pursuit.training import make_streams


def world(pursuer_xy, evader_xy, step_count=0):
    return make_state(pursuer_xy, evader_xy, step=step_count)


def torus_distance(a, b):
    d = offsets(a, b)
    return np.hypot(d[..., 0], d[..., 1])


CFG = EnvConfig(n=3, evader_speed=0.05, velocity_ratio=1.0, capture_radius=0.05,
                episode_length=500)


class TestReset:
    def test_deterministic_per_seed(self):
        a = reset(CFG, np.random.default_rng(42), 5)
        b = reset(CFG, np.random.default_rng(42), 5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.headings, b.headings)

    def test_pursuer_count(self):
        state = reset(CFG, np.random.default_rng(0))
        assert state.pursuers.shape == (1, 3, 2) and state.evader.shape == (1, 2)
        assert state.n == 3 and state.episodes == 1
        assert state.step == 0

    def test_uniform_position_distribution(self):
        s = reset(EnvConfig(n=1), np.random.default_rng(7), 10_000)
        assert abs(np.mean(s.pursuers[:, 0, 0]) - 0.5) < 0.02
        assert abs(np.mean(s.evader[:, 1]) - 0.5) < 0.02

    def test_headings_in_range(self):
        s = reset(CFG, np.random.default_rng(9), 200)
        assert s.headings.shape == (200, 4)
        assert np.all(s.headings >= -math.pi) and np.all(s.headings < math.pi)


def nearest_pursuer(state):
    return torus_distance(state.pursuers, state.evader[:, None]).min()


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
            assert not is_captured(state, cfg).any()

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("ratio", [0.4, 1.0, 2.0])
    @pytest.mark.parametrize("radius", [0.01, 0.05, 0.2])
    def test_sweep_never_spawns_within_separation(self, n, ratio, radius):
        cfg = EnvConfig(n=n, velocity_ratio=ratio, capture_radius=radius)
        rng = np.random.default_rng((n, round(100 * ratio), round(100 * radius)))
        assert nearest_pursuer(reset(cfg, rng, 50)) > cfg.spawn_separation

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
        new_state, _ = step(state, [[0.0]], cfg, np.random.default_rng(0))
        x, y = new_state.pursuers[0, 0]
        assert x == pytest.approx(0.55, abs=1e-12)
        assert y == pytest.approx(0.5, abs=1e-12)

    def test_speed_conservation(self):
        rng = np.random.default_rng(11)
        cfg = EnvConfig(n=3, evader_speed=0.05, velocity_ratio=0.8)
        state = reset(cfg, rng, 200)
        headings = rng.uniform(-math.pi, math.pi, (200, 3))
        new_state, _ = step(state, headings, cfg, rng)
        moved = torus_distance(state.pursuers, new_state.pursuers)
        assert moved == pytest.approx(np.full((200, 3), cfg.pursuer_speed), abs=1e-12)
        evader_moved = torus_distance(state.evader, new_state.evader)
        assert evader_moved == pytest.approx(np.full(200, cfg.evader_speed), abs=1e-12)

    def test_simultaneity_evader_ignores_current_actions(self):
        # evader's move must depend on the pre-step state only
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=1.0)
        state = world([(0.2, 0.5), (0.8, 0.4)], (0.5, 0.7))
        a, _ = step(state, [[0.0, 0.0]], cfg, np.random.default_rng(0))
        b, _ = step(state, [[math.pi / 2, -math.pi / 2]], cfg, np.random.default_rng(0))
        assert np.array_equal(a.evader, b.evader)
        assert np.array_equal(a.evader_heading, b.evader_heading)

    def test_step_counter_increments(self):
        cfg = EnvConfig(n=1)
        state = world([(0.1, 0.1)], (0.6, 0.6))
        new_state, _ = step(state, [[0.0]], cfg, np.random.default_rng(0))
        assert new_state.step == 1

    def test_heading_validation(self):
        cfg = EnvConfig(n=1)
        state = world([(0.1, 0.1)], (0.6, 0.6))
        with pytest.raises(ValueError, match="non-finite pursuer heading nan"):
            step(state, [[float("nan")]], cfg, np.random.default_rng(0))
        # a bad heading of a later agent in a later episode is caught as well
        two = world([[(0.1, 0.1), (0.3, 0.8)]] * 2, [(0.6, 0.6)] * 2)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"non-finite pursuer heading {bad!r}"):
                step(two, [[0.5, 0.5], [0.5, bad]], EnvConfig(n=2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            step(state, [[0.0, 0.0]], cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            step(state, [0.0], cfg, np.random.default_rng(0))


class TestRewardsAndTermination:
    def test_capture_reward(self):
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=2.0, capture_radius=0.05)
        # pursuer right behind the evader with a 2x speed advantage
        state = world([(0.42, 0.5), (0.9, 0.9)], (0.5, 0.5))
        new_state, outcome = step(state, [[0.0, 0.0]], cfg, np.random.default_rng(0))
        assert is_captured(new_state, cfg).tolist() == [True]
        assert outcome.captured[0] and outcome.done[0] and not outcome.truncated[0]
        assert outcome.rewards.tolist() == [50.0]

    def test_non_capture_reward(self):
        cfg = EnvConfig(n=2)
        state = world([(0.1, 0.1), (0.9, 0.9)], (0.5, 0.5))
        _, outcome = step(state, [[0.0, 0.0]], cfg, np.random.default_rng(0))
        assert not outcome.captured[0]
        assert outcome.rewards.tolist() == [-0.1]

    def test_truncation_at_episode_length(self):
        cfg = EnvConfig(n=1, episode_length=3)
        state = world([(0.1, 0.1)], (0.6, 0.6))
        rng = np.random.default_rng(0)
        for expected_done in (False, False, True):
            state, outcome = step(state, [[math.pi / 2]], cfg, rng)
            assert outcome.done.tolist() == [expected_done]
        assert outcome.truncated[0] and not outcome.captured[0]
        with pytest.raises(EpisodeDoneError):
            step(state, [[0.0]], cfg, rng)

    def test_stepping_captured_state_rejected(self):
        cfg = EnvConfig(n=1, velocity_ratio=2.0)
        state = world([(0.42, 0.5)], (0.5, 0.5))
        new_state, outcome = step(state, [[0.0]], cfg, np.random.default_rng(0))
        assert outcome.captured[0]
        with pytest.raises(EpisodeDoneError):
            step(new_state, [[0.0]], cfg, np.random.default_rng(0))

    def test_stepping_captured_spawn_rejected(self):
        cfg = EnvConfig(n=2)
        state = world([(0.48, 0.5), (0.9, 0.9)], (0.5, 0.5))
        assert state.step == 0 and is_captured(state, cfg)[0]
        with pytest.raises(EpisodeDoneError):
            step(state, [[0.0, 0.0]], cfg, np.random.default_rng(0))

    def test_reward_accounting_full_episode(self):
        cfg = EnvConfig(n=2, evader_speed=0.05, velocity_ratio=1.3, episode_length=200)
        rng = np.random.default_rng(3)
        state = reset(cfg, rng)
        total = 0.0
        non_capture_steps = 0
        captured = False
        while True:
            headings = [[0.0, math.pi / 2]]
            state, outcome = step(state, headings, cfg, rng)
            total += outcome.rewards[0]
            if outcome.captured[0]:
                captured = True
            else:
                non_capture_steps += 1
            if outcome.done[0]:
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
                headings = [[0.1 * t, -0.2, 1.0]]
                state, outcome = step(state, headings, cfg, rng)
                hist.append(np.concatenate((state.positions.ravel(), state.headings.ravel(),
                                            outcome.rewards, outcome.done)))
                if outcome.done[0]:
                    break
            return np.array(hist)
        assert np.array_equal(run(), run())


class TestCapture:
    def test_exactly_on_evader(self):
        cfg = EnvConfig(n=1)
        assert is_captured(world([(0.5, 0.5)], (0.5, 0.5)), cfg)[0]

    def test_threshold_is_closed(self):
        cfg = EnvConfig(n=1, capture_radius=0.05)
        assert is_captured(world([(0.45, 0.5)], (0.5, 0.5)), cfg)[0]
        assert not is_captured(world([(0.44, 0.5)], (0.5, 0.5)), cfg)[0]
        # one array call tests every episode
        both = world([[(0.45, 0.5)], [(0.44, 0.5)]], [(0.5, 0.5), (0.5, 0.5)])
        assert is_captured(both, cfg).tolist() == [True, False]

    def test_wrapped_capture(self):
        cfg = EnvConfig(n=1, capture_radius=0.05)
        assert is_captured(world([(0.99, 0.5)], (0.02, 0.5)), cfg)[0]


# headings a pursuer may choose, signed zeros and the wrap among them
CHOSEN = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 3 * math.pi]),
                   st.floats(-4.0, 4.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), episodes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       chosen=st.lists(st.lists(CHOSEN, min_size=5, max_size=5), max_size=3))
def test_observation_rows_start_with_the_heading_units(n, episodes, seed, chosen):
    # a replay slot's action is its next observation's first two columns, so
    # they must be the unit vector the pursuer just moved along, bit for bit:
    # on a fresh spawn (units computed when built) and after each step
    # (units computed by the step)
    cfg = EnvConfig(n=n, evader_speed=0.05, velocity_ratio=1.0, capture_radius=0.001,
                    episode_length=500)
    rng = np.random.default_rng(seed)
    state = reset(cfg, rng, episodes)
    states = [state]
    for headings in chosen:
        state, outcome = step(state, np.tile(headings[:n], (episodes, 1)), cfg, rng)
        states.append(state)
        if outcome.captured.any():
            break
    for state in states:
        units = state.units[:, :n].view(np.uint64)
        for observe in (observe_full, observe_partial):
            assert np.array_equal(observe(state)[..., :2].view(np.uint64), units)


def bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), episodes=st.integers(1, 4), steps=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), picks=st.lists(st.integers(0, 99), max_size=6))
@example(n=2, episodes=3, steps=1, seed=5, picks=[])
@example(n=3, episodes=2, steps=2, seed=6, picks=[1, 1, 0, 1])
def test_selected_geometry_equals_the_kept_rows(n, episodes, steps, seed, picks):
    # a state's geometry is computed per episode, so it does not depend on
    # the episodes beside it; an empty selection is how a rollout ends
    cfg = EnvConfig(n=n, evader_speed=0.05, velocity_ratio=1.0, capture_radius=0.001,
                    episode_length=500)
    rng = np.random.default_rng(seed)
    state = reset(cfg, rng, episodes)
    for _ in range(steps):
        state, outcome = step(state, rng.uniform(-4.0, 4.0, (episodes, n)), cfg, rng)
        if outcome.captured.any():
            break
    keep = np.array(picks, dtype=np.intp) % episodes
    kept = state.select(keep)
    for name in ("units", "pair_offsets", "chase_distances", "chase_bearings"):
        assert np.array_equal(bits(getattr(kept, name)), bits(getattr(state, name)[keep]))
    rows = (keep[:, None] * n + np.arange(n)).ravel()
    for name in ("contact_distances", "contact_bearings"):
        assert np.array_equal(bits(getattr(kept, name)), bits(getattr(state, name))[rows])
    assert kept.nearest == (state.chase_distances[keep].min() if keep.size else math.inf)


class TestObservations:
    STATE = world([(0.9, 0.5), (0.3, 0.3), (0.5, 0.1)], (0.1, 0.5))

    def test_full_layout(self):
        obs = observe_full(self.STATE)[0, 0]
        assert observe_full(self.STATE).shape == (1, 3, 8)
        assert obs[0] == pytest.approx(1.0)  # cos 0
        assert obs[1] == pytest.approx(0.0)  # sin 0
        assert obs[2] == pytest.approx(0.2)  # wrapped toward the evader
        assert obs[3] == pytest.approx(0.0)

    def test_full_includes_teammates_in_order(self):
        obs = observe_full(self.STATE)[0, 1]
        # teammates of pursuer 1 are pursuers 0 then 2
        assert obs[4] == pytest.approx(-0.4)  # toward pursuer 0
        assert obs[5] == pytest.approx(0.2)
        assert obs[6] == pytest.approx(0.2)  # toward pursuer 2
        assert obs[7] == pytest.approx(-0.2)

    def test_partial_layout_and_teammate_independence(self):
        obs = observe_partial(self.STATE)[0, 0]
        assert observe_partial(self.STATE).shape == (1, 3, 4)
        moved_teammates = world([(0.9, 0.5), (0.7, 0.7), (0.2, 0.8)], (0.1, 0.5))
        assert np.array_equal(obs, observe_partial(moved_teammates)[0, 0])
        assert np.array_equal(observe_full(self.STATE)[..., :4], observe_partial(self.STATE))

    def test_partial_co_located_with_evader(self):
        state = world([(0.1, 0.5)], (0.1, 0.5))
        obs = observe_partial(state)[0, 0]
        assert obs[2] == 0.0 and obs[3] == 0.0

    def test_index_out_of_range(self):
        # one row per pursuer: there is no agent 3 of 3
        with pytest.raises(IndexError):
            observe_full(self.STATE)[0, 3]
        with pytest.raises(IndexError):
            observe_partial(self.STATE)[0, 5]

    def test_displacement_entries_in_range(self):
        obs = observe_full(reset(CFG, np.random.default_rng(23), 100))
        assert obs.shape == (100, 3, 8)
        assert np.all(obs[..., 2:] >= -0.5) and np.all(obs[..., 2:] < 0.5)


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
        # captured implies done; truncated implies done and not captured
        cfg = EnvConfig(n=3, velocity_ratio=1.2, episode_length=40)
        rng = np.random.default_rng(19)
        state = reset(cfg, rng, 64)
        seen_capture = seen_truncation = False
        while state.episodes:
            state, outcome = step(state, greedy_heading(state), cfg, rng)
            assert np.all(outcome.done == (outcome.captured | outcome.truncated))
            assert not np.any(outcome.captured & outcome.truncated)
            assert np.array_equal(outcome.rewards, np.where(outcome.captured, 50.0, -0.1))
            seen_capture |= bool(outcome.captured.any())
            seen_truncation |= bool(outcome.truncated.any())
            state = state.select(~outcome.done)
        assert seen_capture and seen_truncation
