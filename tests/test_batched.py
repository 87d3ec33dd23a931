"""The array environment against the scalar reference model, bit for bit.

Every function that works on a leading episode axis is compared with the
one-episode-at-a-time formulation in `scalar_reference`, on E = 1 and E > 1,
including the inputs where rounding decides: displacement ties at exactly
+-0.5, distances exactly at the capture radius, and headings outside
[-pi, pi). `run_eval`'s lockstep batches are compared byte for byte with the
sequential sweep.
"""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from torus_pursuit import evader as evader_module
from torus_pursuit import evaluation
from torus_pursuit import pursuit as pursuit_module
from torus_pursuit.config import config_from_dict
from torus_pursuit.ddpg import make_team
from torus_pursuit.environment import (
    EnvConfig,
    is_captured,
    make_state,
    observe_full,
    observe_partial,
    reset,
    step,
)
from torus_pursuit.errors import EpisodeDoneError, SingularityError
from torus_pursuit.evader import evade_heading
from torus_pursuit.evaluation import LOCKSTEP_AGENT_STEPS, lockstep_batch, run_eval
from torus_pursuit.pursuit import greedy_heading, pincer_headings, pincer_selection
from torus_pursuit.trajectory import TRAJECTORY_HEADER, TRAJECTORY_SCHEMA, TrajectoryWriter


def bits(values) -> list[int]:
    """IEEE bit patterns, so that -0.0 != 0.0 and rounding shows."""
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


# Dyadic coordinates make offsets of exactly +-0.5 and exact distances likely.
coordinate = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]),
    st.floats(0.0, 1.0, exclude_max=True),
)
angle = st.one_of(
    st.sampled_from([math.pi, -math.pi, 0.0, 2 * math.pi, -3 * math.pi, 7.5]),
    st.floats(-20.0, 20.0),
)


@st.composite
def batches(draw, max_n=4, max_e=4, min_n=1):
    """(pursuer xy (E, n, 2), evader xy (E, 2)) as nested lists."""
    n = draw(st.integers(min_n, max_n))
    e = draw(st.integers(1, max_e))
    point = st.tuples(coordinate, coordinate)
    pursuers = draw(st.lists(st.lists(point, min_size=n, max_size=n), min_size=e, max_size=e))
    evaders = draw(st.lists(point, min_size=e, max_size=e))
    return pursuers, evaders


def scalar_episodes(state):
    return [ref.to_scalar(state, j) for j in range(state.episodes)]


def singular(state, chase=True) -> bool:
    """True if some pursuer-to-evader (or evader-to-pursuer) offset is zero;
    a tiny offset can wrap to zero without the positions being equal."""
    for s in scalar_episodes(state):
        for p in s.pursuers:
            d = (ref.displacement(p.position, s.evader.position) if chase
                 else ref.displacement(s.evader.position, p.position))
            if d.dx == 0.0 and d.dy == 0.0:
                return True
    return False


# A subnormal distance overflows 1/r to inf, as the scalar division does.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(batches(), st.integers(0, 2**32 - 1))
def test_greedy_evader_and_observations_match_reference(batch, seed):
    state = make_state(*batch)
    episodes = scalar_episodes(state)
    for j, s in enumerate(episodes):
        for i in range(state.n):
            assert bits(observe_full(state)[j, i]) == bits(ref.observe_full(s, i))
            assert bits(observe_partial(state)[j, i]) == bits(ref.observe_partial(s, i))
    if singular(state):
        with pytest.raises(SingularityError):
            greedy_heading(state)
    else:
        expected = [[ref.greedy_heading(p, s.evader.position) for p in s.pursuers]
                    for s in episodes]
        assert bits(greedy_heading(state)) == bits(expected)
    if singular(state, chase=False):
        with pytest.raises(SingularityError):
            evade_heading(state, np.random.default_rng(seed))
        return
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [ref.evade_heading(s.evader.position, [p.position for p in s.pursuers], ref_rng)
                for s in episodes]
    assert bits(evade_heading(state, rng)) == bits(expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(batches(), st.data(), st.integers(0, 2**32 - 1))
def test_step_matches_reference(batch, data, seed):
    state = make_state(*batch)
    e, n = state.episodes, state.n
    headings = data.draw(st.lists(st.lists(angle, min_size=n, max_size=n),
                                  min_size=e, max_size=e))
    cfg = EnvConfig(n=n, evader_speed=0.0625, velocity_ratio=1.5, capture_radius=0.125)
    episodes = scalar_episodes(state)
    expected_captured = [ref.is_captured(s, cfg) for s in episodes]
    assert is_captured(state, cfg).tolist() == expected_captured
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if any(expected_captured):
        with pytest.raises(EpisodeDoneError):
            step(state, headings, cfg, rng)
        return
    new_state, outcome = step(state, headings, cfg, rng)
    for j, (s, h) in enumerate(zip(episodes, headings)):
        s_new, s_out = ref.step(s, h, cfg, ref_rng)
        assert bits(new_state.positions[j]) == bits(ref.to_array([s_new]).positions[0])
        assert bits(new_state.headings[j]) == bits(ref.to_array([s_new]).headings[0])
        assert outcome.rewards[j] == s_out.reward
        assert outcome.captured[j] == s_out.captured
        assert outcome.done[j] == s_out.done
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def check_pincer_against_reference(batch):
    state = make_state(*batch)
    if singular(state):
        with pytest.raises(SingularityError):
            pincer_selection(state)
        return
    try:
        expected = [ref.pincer_selection(s) for s in scalar_episodes(state)]
    except SingularityError:  # a replica, not the pursuer, on the evader
        with pytest.raises(SingularityError):
            pincer_selection(state)
        return
    sel = pincer_selection(state)
    assert sel.replica_index_per_pursuer.tolist() == [list(idx) for idx, _, _ in expected]
    assert bits(sel.objective_value) == bits([obj for _, obj, _ in expected])
    assert bits(sel.total_distance) == bits([dist for _, _, dist in expected])
    assert bits(pincer_headings(state)) == bits(
        [ref.pincer_headings(s) for s in scalar_episodes(state)])


# The example's pursuer, 1.7e-277 from the evader, has a finite threat
# weight whose squared sums overflow: both raise, and nothing warns.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(batches(max_n=3, max_e=3))
@example(([[(0.0, 0.0)]], [(0.0, 1.7405393277055227e-277)]))
def test_pincer_matches_reference(batch):
    check_pincer_against_reference(batch)


# One n=5 grid fills a block, so E > 1 also crosses block boundaries. The
# example's subnormal distance overflows the threat weight 1/r.
@settings(max_examples=12, deadline=None)
@given(batches(min_n=4, max_n=5, max_e=3))
@example(([[(0.0, 0.0)] * 4], [(0.0, 5e-324)]))
def test_pincer_matches_reference_at_four_and_five_pursuers(batch):
    check_pincer_against_reference(batch)


@pytest.mark.parametrize("pursuers, evader, smallest", [
    ([(0.0, 0.0625), (0.0, 0.625)], (0.5, 0.625), (5, 7)),
    ([(0.5, 0.1875), (0.0, 0.0625), (0.5, 0.8125)], (0.0, 0.3125), (1, 4, 4)),
    ([(0.375, 0.25), (0.75, 0.5), (0.25, 0.75), (0.125, 0.25), (0.125, 0.25)], (0.375, 0.75),
     (4, 4, 4, 5, 5)),
])
def test_pincer_exact_tie_takes_lexicographic_first(pursuers, evader, smallest):
    # Dyadic coordinates give in-band selections with exactly the same total
    # distance. In each case another tied selection has a smaller replica
    # for the last pursuer, so it comes first when that index is the slowest.
    state = make_state([pursuers] * 3, [evader] * 3)
    _, dist, near = ref.pincer_grids(ref.to_scalar(state))
    at_min = np.flatnonzero(near & (dist == dist[near].min()))
    tied = list(zip(*np.unravel_index(at_min, (9,) * len(pursuers))))
    assert len(tied) >= 2 and tied[0] == smallest
    assert min(tied, key=lambda t: (t[-1], t[:-1])) != smallest
    sel = pincer_selection(state)
    assert sel.replica_index_per_pursuer.tolist() == [list(smallest)] * 3
    assert bits(sel.total_distance) == bits([dist[at_min[0]]] * 3)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_reset_draws_episodes_in_order(n):
    cfg = EnvConfig(n=n, velocity_ratio=1.1, capture_radius=0.1)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    for episodes in (1, 7, 40):
        state = reset(cfg, rng, episodes)
        expected = ref.to_array([ref.reset(cfg, ref_rng) for _ in range(episodes)])
        assert bits(state.positions) == bits(expected.positions)
        assert bits(state.headings) == bits(expected.headings)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_capture_exactly_at_radius():
    # Dyadic speeds and due-west headings keep every coordinate exact: the
    # pursuer ends 0.1875 east of the evader, exactly the capture radius.
    cfg = EnvConfig(n=1, evader_speed=0.0625, velocity_ratio=2.0, capture_radius=0.1875)
    state = make_state([[(0.75, 0.5)]], [(0.5, 0.5)])
    new_state, outcome = step(state, [[math.pi]], cfg, np.random.default_rng(0))
    assert new_state.chase_distances[0, 0] == cfg.capture_radius
    s_new, s_out = ref.step(ref.to_scalar(state), [math.pi], cfg, np.random.default_rng(0))
    assert outcome.captured.tolist() == [s_out.captured] == [True]
    assert bits(new_state.positions) == bits(ref.to_array([s_new]).positions)
    # a state already at the radius counts as captured and cannot be stepped
    with pytest.raises(EpisodeDoneError):
        step(new_state, [[0.0]], cfg, np.random.default_rng(0))


def test_pincer_blocks_match_one_episode_calls(monkeypatch):
    # two episodes per block: 5 episodes take three blocks, the last partial;
    # n=1 has no earlier pursuers and n=2 one
    for n in (1, 2, 3):
        monkeypatch.setattr(pursuit_module, "PINCER_BLOCK_CELLS", 2 * 9**n)
        state = reset(EnvConfig(n=n), np.random.default_rng(5), 5)
        sel = pincer_selection(state)
        for j in range(5):
            one = pincer_selection(state.select([j]))
            assert (sel.replica_index_per_pursuer[j].tolist()
                    == one.replica_index_per_pursuer[0].tolist())
            assert bits(sel.objective_value[j]) == bits(one.objective_value)
            assert bits(sel.total_distance[j]) == bits(one.total_distance)


def test_lockstep_batch_is_bounded():
    cfg = EnvConfig(n=3, episode_length=500)
    assert lockstep_batch(cfg, "greedy", 10**9) == LOCKSTEP_AGENT_STEPS // (500 * 4)
    assert lockstep_batch(cfg, "pincer", 7) == 7
    assert lockstep_batch(EnvConfig(episode_length=10**7), "greedy", 50) == 1
    # learned teams roll in lockstep too; random's per-step draws share one stream
    for strategy in ("cd_ddpg", "cd_ddpg_partial"):
        assert lockstep_batch(cfg, strategy, 10**9) == LOCKSTEP_AGENT_STEPS // (500 * 4)
    assert lockstep_batch(cfg, "random", 100) == 1


# Floats of every magnitude from 1e-300 to 1e300, both signs, and zeros.
wide_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, math.pi]),
    st.builds(
        lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-300, 299),
        st.sampled_from([1.0, -1.0]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_write_episode_matches_reference_rows(tmp_path_factory, data):
    n = data.draw(st.integers(1, 4), label="n")
    steps = data.draw(st.integers(1, 4), label="steps")
    poses = data.draw(st.lists(
        st.lists(st.tuples(wide_float, wide_float, wide_float), min_size=n + 1, max_size=n + 1),
        min_size=steps, max_size=steps), label="poses")
    rewards = data.draw(st.lists(wide_float, min_size=steps, max_size=steps), label="rewards")
    ratio = data.draw(wide_float, label="ratio")
    episode = data.draw(st.integers(0, 10**6), label="episode")
    first_step = data.draw(st.integers(1, 10**5), label="first_step")
    captured = data.draw(st.booleans(), label="captured")

    path = tmp_path_factory.mktemp("writer") / "log.csv"
    with TrajectoryWriter(path) as w:
        w.write_episode(episode, ratio, np.array(poses), np.array(rewards), captured, first_step)
    want = io.StringIO()
    want.write(f"# schema={TRAJECTORY_SCHEMA}\n{TRAJECTORY_HEADER}\n")
    for t, (agents, reward) in enumerate(zip(poses, rewards)):
        # plain (x, y) records: Point2 would refuse coordinates outside [0, 1)
        pose = [ref.Pose(SimpleNamespace(x=x, y=y), h) for x, y, h in agents]
        state = ref.ScalarState(tuple(pose[:-1]), pose[-1], first_step + t)
        last = captured and t == steps - 1
        ref.write_step(want, episode, state, ratio, ref.ScalarOutcome(reward, last, last))
    assert path.read_bytes() == want.getvalue().encode()


# -- run_eval against the sequential sweep ---------------------------------


def eval_config(n, strategy, episode_length=60, seed=7, ddpg=None, **env):
    return config_from_dict({
        "env": {"n": n, "episode_length": episode_length, **env},
        "ddpg": ddpg or {},
        "run": {"seed": seed, "strategy": strategy},
    })


def assert_same_files(batched, sequential):
    names = sorted(p.name for p in batched.iterdir())
    assert names == sorted(p.name for p in sequential.iterdir())
    for name in names:
        assert (batched / name).read_bytes() == (sequential / name).read_bytes(), name


@pytest.mark.parametrize("strategy, n, ratios, episodes, length", [
    ("greedy", 3, [1.2, 1.0, 0.8], 25, 60),
    ("greedy", 1, [1.1], 9, 40),
    ("pincer", 3, [1.1, 0.7], 12, 40),
    ("pincer", 5, [0.95], 2, 12),
    ("random", 3, [1.0, 0.9], 5, 30),
])
def test_run_eval_matches_sequential_sweep(tmp_path, strategy, n, ratios, episodes, length):
    config = eval_config(n, strategy, length)
    got = run_eval(config, ratios, episodes, tmp_path / "batched")
    want = ref.run_eval(config, ratios, episodes, tmp_path / "sequential")
    assert got == want
    assert_same_files(tmp_path / "batched", tmp_path / "sequential")


@pytest.mark.parametrize("strategy, case", [
    pytest.param("cd_ddpg", None, id="cd_ddpg"),
    pytest.param("cd_ddpg_partial", None, id="cd_ddpg_partial"),
    # at ratio 1.5 half the batch's episodes are captured, the rest time out
    pytest.param("cd_ddpg_partial", "captures and time-outs",
                 id="cd_ddpg_partial-captures-and-time-outs"),
    pytest.param("cd_ddpg", "replayed", id="cd_ddpg-replayed"),
])
def test_run_eval_learned_team_matches_sequential_sweep(tmp_path, monkeypatch, strategy, case):
    hidden = {"actor_hidden": [16, 16], "critic_hidden": [16, 16]}
    config, ratios, episodes = eval_config(3, strategy, 30, ddpg=hidden), [1.1, 0.9], 4
    if case == "captures and time-outs":
        config, ratios, episodes = (eval_config(3, strategy, 60, ddpg=hidden, capture_radius=0.1),
                                    [1.5, 1.0], 8)
    spawned = []
    if case == "replayed":
        # every evader step draws from the environment stream, so each
        # lockstep batch is replayed one episode at a time
        monkeypatch.setattr(evader_module, "DEGENERACY_THRESHOLD", 1e9)
        monkeypatch.setattr(evaluation, "reset", lambda cfg, rng, episodes=1: (
            spawned.append(episodes) or reset(cfg, rng, episodes)))
    team = make_team(config, np.random.default_rng(3))
    got = run_eval(config, ratios, episodes, tmp_path / "batched", team=team)
    ref.run_eval(config, ratios, episodes, tmp_path / "sequential", team=team)
    assert_same_files(tmp_path / "batched", tmp_path / "sequential")
    if case == "captures and time-outs":
        assert lockstep_batch(config.env, strategy, episodes) == episodes
        assert got == {1.5: 0.5, 1.0: 0.0}
    if case == "replayed":
        assert spawned == ([episodes] + [1] * episodes) * len(ratios)


@pytest.mark.parametrize("strategy, length", [("greedy", 30), ("random", 28)])
def test_run_eval_writes_long_episodes_in_runs(tmp_path, monkeypatch, strategy, length):
    # A buffer of 7 steps at n=3: every episode rolls alone and is written in
    # runs of 7 steps; a truncated episode of 28 steps ends on a run's end.
    monkeypatch.setattr(evaluation, "LOCKSTEP_AGENT_STEPS", 7 * 4)
    config = eval_config(3, strategy, length)
    assert lockstep_batch(config.env, strategy, 5) == 1
    runs = []
    write_episode = TrajectoryWriter.write_episode

    def recording_write(self, episode, ratio, poses, rewards, captured, first_step=1):
        runs.append(len(rewards))
        write_episode(self, episode, ratio, poses, rewards, captured, first_step)

    monkeypatch.setattr(TrajectoryWriter, "write_episode", recording_write)
    got = run_eval(config, [1.1, 0.8], 5, tmp_path / "batched")
    assert max(runs) == 7 and len(runs) > 10
    want = ref.run_eval(config, [1.1, 0.8], 5, tmp_path / "sequential")
    assert got == want
    assert_same_files(tmp_path / "batched", tmp_path / "sequential")


def test_run_eval_replays_a_batch_whose_evader_drew(tmp_path, monkeypatch):
    # Every surround counts as degenerate, so every evader step draws from
    # the environment stream; lockstep batches must be replayed one by one.
    monkeypatch.setattr(evader_module, "DEGENERACY_THRESHOLD", 1e9)
    config = eval_config(3, "greedy", 20)
    assert lockstep_batch(config.env, "greedy", 6) == 6
    spawned = []

    def counting_reset(cfg, rng, episodes=1):
        spawned.append(episodes)
        return reset(cfg, rng, episodes)

    monkeypatch.setattr(evaluation, "reset", counting_reset)
    run_eval(config, [1.0, 0.8], 6, tmp_path / "batched")
    ref.run_eval(config, [1.0, 0.8], 6, tmp_path / "sequential")
    assert_same_files(tmp_path / "batched", tmp_path / "sequential")
    # per ratio: one batch of 6, then its replay one episode at a time
    assert spawned == [6] + [1] * 6 + [6] + [1] * 6
